"""serialize.dumps against the tree walk it replaced, and its one-place rule."""

import ast
import dataclasses
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdelete.errors import CapabilityError
from kdelete.serialize import dumps

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kdelete"


# The recursive walk that serialize.dumps replaced, verbatim, as the reference.
def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def to_jsonable(obj):
    """Recursively convert report payloads to JSON-serializable structures."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf"
        return obj
    if isinstance(obj, int) or isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass(frozen=True)
class _Leaf:
    value: object


@dataclass(frozen=True)
class _Pair:
    first: object
    second: object
    label: str = "pair"


_scalars = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False) | st.fractions()
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
        | st.builds(_Leaf, inner)
        | st.builds(_Pair, inner, inner, st.text())
    ),
    max_leaves=24,
)


@given(_values)
def test_dumps_matches_the_tree_walk(obj):
    assert dumps(obj) == json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def test_dumps_refuses_what_it_cannot_write():
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"x": object()})


def test_a_fraction_past_the_digit_limit_is_a_capability_error():
    with pytest.raises(CapabilityError, match="too long to print"):
        dumps({"bound": Fraction(10**5000, 3)})


def _offenders(tree: ast.Module) -> list[int]:
    """Lines that call json.dumps or write a .numerator/.denominator into
    an f-string."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "dumps"
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name == "dumps" for alias in node.names)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.FormattedValue)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in ("numerator", "denominator")):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_only_serialize_writes_json(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _offenders(tree)
    if path.name == "serialize.py":
        assert found, "serialize.py no longer calls json.dumps"
    else:
        assert not found, f"{path.name} lines {found} write JSON or a Fraction"
