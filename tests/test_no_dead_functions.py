"""Every module-level function and class of the package and the benchmark
is referred to somewhere in them.

A definition counts as referred to when its name appears in either tree as
an identifier, as the attribute of an attribute chain, or in an import.
KEEP lists the cross-checking oracles that only the tests call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    list((ROOT / "src" / "kdelete").glob("*.py")) + list((ROOT / "benchmark").glob("*.py"))
)
KEEP = {"exact_h_plain", "is_k_colorable", "canonical_code", "contains_clique"}


def test_no_dead_functions():
    defined, referred = {}, set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.parent.name}/{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referred |= {alias.name.split(".")[-1] for alias in node.names}
    dead = sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referred | KEEP)
    assert not dead, ", ".join(dead)
