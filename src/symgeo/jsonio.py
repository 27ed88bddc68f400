"""JSON and text encodings shared by the CLI and file loaders.

Matrix files: ``{"rows": r, "cols": c, "entries": [...]}`` row-major, with
rational entries as ``"p/q"`` strings or integers and float entries as JSON
numbers; a matrix loads as a ``Matrix``, or in approx mode as a float numpy
array.  Rationals print back as ``"p/q"``.  Angles accept ``p/q pi`` syntax
("1/3pi", "pi", "0.25pi") or plain decimals.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .linalg import EXACT, Matrix

if TYPE_CHECKING:
    import numpy as np

APPROX = "approx"


class ValidationError(ValueError):
    """Bad user-facing input (file contents, flag values, shapes)."""


def is_int(x) -> bool:
    """An int that is not a bool (JSON true and false are not integers)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_entry(x) -> float:
    """``float(x)`` of a matrix entry, refusing nan, +-inf and float overflow."""
    try:
        value = float(x)
    except OverflowError as exc:
        raise ValidationError("matrix entry overflows a float") from exc
    if not math.isfinite(value):
        raise ValidationError(f"matrix entry {value!r} is not finite")
    return value


def parse_scalar(x) -> Fraction | float:
    if isinstance(x, bool):
        raise ValidationError("boolean is not a matrix entry")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return _finite_entry(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational entry {x!r}") from exc
    raise ValidationError(f"bad matrix entry {x!r}")


def scalar_to_json(x: Fraction) -> int | str:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [scalar_to_json(x) for row in m.entries for x in row],
    }


def matrix_from_json(obj: dict, mode: str | None = None) -> Matrix | np.ndarray:
    """An exact ``Matrix``, or in approx mode (the default when an entry is
    a float) a float (rows, cols) array."""
    try:
        r, c = obj["rows"], obj["cols"]
        flat = list(obj["entries"])
    except (KeyError, TypeError) as exc:
        raise ValidationError("matrix object needs rows, cols, entries") from exc
    if not all(is_int(x) and x >= 0 for x in (r, c)):
        raise ValidationError("matrix rows and cols must be non-negative integers")
    if len(flat) != r * c:
        raise ValidationError(f"expected {r * c} entries, got {len(flat)}")
    vals = [parse_scalar(x) for x in flat]
    if mode is None:
        mode = APPROX if any(isinstance(v, float) for v in vals) else EXACT
    if mode == EXACT and any(isinstance(v, float) for v in vals):
        raise ValidationError("float entries present but exact mode requested")
    if mode == APPROX:
        import numpy as np
        return np.array([_finite_entry(v) for v in vals], dtype=float).reshape(r, c)
    return Matrix.exact([vals[i * c:(i + 1) * c] for i in range(r)])


def parse_angle(text: str) -> tuple[float, Fraction | None]:
    """Parse one angle; returns (value in radians, exact pi-multiple or None)."""
    s = text.strip().replace("·", "").replace("*", "").replace(" ", "")
    try:
        if s.endswith("pi"):
            head = s[:-2]
            frac = Fraction({"": 1, "+": 1, "-": -1}.get(head, head))
            value = float(frac) * math.pi
        else:
            frac = None
            value = float(Fraction(s)) if "/" in s else float(s)
    except OverflowError:
        value = math.inf
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad angle {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"angle {text!r} is not finite")
    return value, frac


def parse_angle_list(text: str) -> list[list[tuple[float, Fraction | None]]]:
    """Angle tuple syntax: members split on ';', components on ','."""
    members = text.split(";") if ";" in text else text.split(",")
    out = []
    for member in members:
        comps = member.split(",")
        out.append([parse_angle(c) for c in comps if c.strip() != ""])
    if any(not m for m in out):
        raise ValidationError(f"empty member in angle list {text!r}")
    return out


def to_jsonable(obj):
    if isinstance(obj, Matrix):
        return matrix_to_json(obj)
    if isinstance(obj, Fraction):
        return scalar_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
