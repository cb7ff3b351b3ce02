"""Every imported name in the package, its tests and the benchmark is used.

A name counts as used when it appears as an identifier anywhere in the
module (the root of an attribute chain is one) or in the module's
``__all__``.  ``from __future__`` imports are compiler directives and are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    list((ROOT / "src" / "kdelete").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "benchmark").glob("**/*.py"))
)


def _module_id(path: Path) -> str:
    """The path from the repository root, less the leading src/ of package
    modules (so they read kdelete/name.py, as imported)."""
    rel = path.relative_to(ROOT)
    return rel.relative_to("src").as_posix() if rel.parts[0] == "src" else rel.as_posix()


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line number of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)
