"""Serialization of results for the command line.

Every rational is reported as {"exact": "p/q", "approx": float} so that
scripts can consume the exact value while humans read the decimal. The
minimum over an empty obstruction set serializes as {"exact": "inf",
"approx": null}, and so does the approximation of a value beyond float
range: its "exact" string stays whole. The text renderer walks the same
payload, so both output modes always carry identical exact values.

`dump_json` writes the --json output: indented by 2 spaces, ASCII-escaped,
and byte for byte equal to `json.dumps(payload, indent=2)` on every payload
`to_payload` builds. With an indent, `json.dumps` leaves its C encoder for a
pure-Python one; `dump_json` keeps the stdlib's C string escaper and writes
the layout itself in one pass.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .bounds import INFINITY
from .errors import CalculatorError
from .surface import DivisorClass, SurfaceModel


def exact_value(value) -> dict:
    if value is INFINITY:
        return {"exact": "inf", "approx": None}
    frac = value if isinstance(value, Fraction) else Fraction(value)
    n, d = frac.numerator, frac.denominator
    try:
        approx = n / d  # float(frac), correctly rounded
    except OverflowError:
        approx = None
    try:
        exact = str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        # str() refuses an int beyond the process's conversion limit, which
        # is left as it is.
        raise CalculatorError(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer"
        ) from None
    return {"exact": exact, "approx": approx}


def divisor_payload(divisor: DivisorClass) -> dict:
    coords = [exact_value(c) for c in divisor.coords]
    return {"coords": coords, "text": ",".join(c["exact"] for c in coords)}


def curve_names(model: SurfaceModel, indices) -> list[str]:
    return [model.curves[i].name for i in indices]


_PLAIN = frozenset({type(None), str, bool, int})
# Field names per dataclass type, filled on first use: one entry per result
# class that reaches to_payload.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def to_payload(value: Any) -> Any:
    """Recursively convert results (dataclasses, Fractions, divisors,
    dicts, sequences) into JSON-serializable structures.

    Exact types dispatch on type(value); subclasses, dicts and anything
    else go through the isinstance chain of `_general_payload`. Either way
    a dataclass keeps its field order, and so the key order."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is Fraction:
        return exact_value(value)
    if kind is DivisorClass:
        return divisor_payload(value)
    if kind is list or kind is tuple:
        return [to_payload(v) for v in value]
    names = _FIELD_NAMES.get(kind)
    if names is not None:
        return {name: to_payload(getattr(value, name)) for name in names}
    return _general_payload(value)


def _general_payload(value: Any) -> Any:
    if value is None or isinstance(value, (str, bool)):
        return value
    if value is INFINITY or isinstance(value, Fraction):
        return exact_value(value)
    if isinstance(value, int):
        return value
    if isinstance(value, DivisorClass):
        return divisor_payload(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = tuple(field.name for field in dataclasses.fields(value))
        _FIELD_NAMES[type(value)] = names
        return {name: to_payload(getattr(value, name)) for name in names}
    if isinstance(value, dict):
        return {str(k): to_payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_payload(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_json(payload: Any) -> str:
    """`json.dumps(payload, indent=2)` in one pass over a payload tree of
    dicts with str keys, lists, tuples, str, int, finite float, bool and
    None.

    The recursion is a closure, so a tracer that wraps this module's
    functions sees one call per document, not one per node.
    """
    parts: list[str] = []
    append = parts.append

    def write(value: Any, pad: str) -> None:
        if isinstance(value, str):
            append(encode_basestring_ascii(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, float):
            append(float.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = pad + "  "
            sep = ",\n" + inner
            lead = "{\n" + inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"cannot serialize key of type {type(key).__name__}")
                append(lead + encode_basestring_ascii(key) + ": ")
                lead = sep
                write(item, inner)
            append("\n" + pad + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = pad + "  "
            sep = ",\n" + inner
            lead = "[\n" + inner
            for item in value:
                append(lead)
                lead = sep
                write(item, inner)
            append("\n" + pad + "]")
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")

    write(payload, "")
    return "".join(parts)


def _is_exact_value(value: Any) -> bool:
    return (
        isinstance(value, dict)
        and set(value) == {"exact", "approx"}
    )


def _render_scalar(value: Any) -> str:
    if _is_exact_value(value):
        exact = value["exact"]
        approx = value["approx"]
        if approx is None or "/" not in exact:
            return exact
        return f"{exact} ({approx:.6g})"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)


def _is_scalar(value: Any) -> bool:
    return (
        value is None
        or isinstance(value, (str, bool, int, float))
        or _is_exact_value(value)
    )


def render_text(payload: Any, indent: int = 0) -> list[str]:
    """Indented key/value lines from a payload tree."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(payload, dict) and not _is_exact_value(payload):
        for key, value in payload.items():
            if _is_scalar(value):
                lines.append(f"{pad}{key}: {_render_scalar(value)}")
            elif isinstance(value, list) and all(_is_scalar(v) for v in value):
                rendered = ", ".join(_render_scalar(v) for v in value)
                lines.append(f"{pad}{key}: [{rendered}]")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(render_text(value, indent + 1))
    elif isinstance(payload, list):
        for value in payload:
            if _is_scalar(value):
                lines.append(f"{pad}- {_render_scalar(value)}")
            else:
                lines.append(f"{pad}-")
                lines.extend(render_text(value, indent + 1))
    else:
        lines.append(f"{pad}{_render_scalar(payload)}")
    return lines
