"""Serialization of results for the command line.

Every rational is reported as {"exact": "p/q", "approx": float} so that
scripts can consume the exact value while humans read the decimal. The
minimum over an empty obstruction set serializes as {"exact": "inf",
"approx": null}. The text renderer walks the same payload, so both output
modes always carry identical exact values.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any

from .bounds import INFINITY
from .surface import DivisorClass, SurfaceModel


def exact_value(value) -> dict:
    if value is INFINITY:
        return {"exact": "inf", "approx": None}
    frac = Fraction(value)
    if frac.denominator == 1:
        return {"exact": str(frac.numerator), "approx": float(frac)}
    return {"exact": f"{frac.numerator}/{frac.denominator}", "approx": float(frac)}


def divisor_payload(divisor: DivisorClass) -> dict:
    return {
        "coords": [exact_value(c) for c in divisor.coords],
        "text": ",".join(exact_value(c)["exact"] for c in divisor.coords),
    }


def curve_names(model: SurfaceModel, indices) -> list[str]:
    return [model.curves[i].name for i in indices]


def to_payload(value: Any) -> Any:
    """Recursively convert results (dataclasses, Fractions, divisors,
    dicts, sequences) into JSON-serializable structures."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if value is INFINITY or isinstance(value, Fraction):
        return exact_value(value)
    if isinstance(value, int):
        return value
    if isinstance(value, DivisorClass):
        return divisor_payload(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for field in dataclasses.fields(value):
            out[field.name] = to_payload(getattr(value, field.name))
        return out
    if isinstance(value, dict):
        return {str(k): to_payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_payload(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


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
