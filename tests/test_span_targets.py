"""The benchmark's span targets name real kdelete callables.

benchmark/spans.py wraps every name in its TARGETS table when a traced run
starts, so a renamed function would otherwise surface only there.  The
table is read with ast.literal_eval; the benchmark is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _targets() -> dict:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS.name} assigns no TARGETS table")


TRACED = [f"{mod}.{qual}" for mod, quals in _targets().items() for qual in quals]


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves_to_a_callable(name):
    mod_name, qual = name.split(".", 1)
    obj = importlib.import_module(f"kdelete.{mod_name}")
    for attr in qual.split("."):
        assert hasattr(obj, attr), f"kdelete.{name} does not exist"
        obj = getattr(obj, attr)
    assert callable(obj), f"kdelete.{name} is not callable"
