"""The one place a report becomes JSON text.

Report dicts have str keys and hold no non-finite float.  `dumps` writes
them as one line of compact JSON with sorted keys; an exact rational goes
out as the string "p/q" and a dataclass as the dict of its fields.
"""

import dataclasses
import json
import sys
from fractions import Fraction

from .errors import CapabilityError


def _encode(obj):
    """json's hook for the values it cannot write itself."""
    if isinstance(obj, Fraction):
        try:
            return f"{obj.numerator}/{obj.denominator}"
        except ValueError as exc:  # past int's str-conversion digit limit
            raise CapabilityError(
                "an exact value in the report has more than "
                f"{sys.get_int_max_str_digits()} digits, too long to print"
            ) from exc
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """obj as compact JSON with sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode)
