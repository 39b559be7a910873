"""Serialization of results for the command line.

`to_payload` is the one place where a result becomes a payload: the
command handlers return Fractions, divisors and result records, and the
command line converts what they return once, just before it is written.

Every rational is reported as {"exact": "p/q", "approx": float} so that
scripts can consume the exact value while humans read the decimal. The
minimum over an empty obstruction set serializes as {"exact": "inf",
"approx": null}, and so does the approximation of a value beyond float
range: its "exact" string stays whole. The text renderer walks the same
payload, so both output modes always carry identical exact values.

`dump_json` writes the --json output: indented by 2 spaces, ASCII-escaped,
and byte for byte equal to `json.dumps(payload, indent=2)` on every payload
`to_payload` builds, once its EntriesNode and Later values are made into
lists and values. With an indent, `json.dumps` leaves its C encoder for a
pure-Python one; `dump_json` keeps the stdlib's C string escaper and writes
the layout itself in one pass.

An obstruction set can hold hundreds of thousands of entries, so its
entries enter a payload as an EntriesNode. Both writers stream it: each
entry is written from the search's row in the fixed layout that
`to_payload` and the generic writer give an ObstructionEntry, and the output
goes to the stream in pieces of about CHUNK characters.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator, Optional, TextIO

from .bounds import INFINITY, ObstructionEntries, ObstructionEntry
from .errors import CalculatorError
from .surface import DivisorClass

# Characters of output held before they are written to the stream.
CHUNK = 1 << 16


def exact_value(value) -> dict:
    if value is INFINITY:
        return {"exact": "inf", "approx": None}
    kind = type(value)
    if kind is not Fraction and kind is not int:
        value = Fraction(value)
    n, d = value.numerator, value.denominator
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


class EntriesNode:
    """The entries of an obstruction set in a payload. A writer reads its
    rows once, one at a time; reading them also counts them and keeps the
    least by (value, coefficients), which payload values after the node
    report through Later."""

    __slots__ = ("entries", "count", "least")

    def __init__(self, entries: ObstructionEntries) -> None:
        self.entries = entries
        self.count = 0
        self.least = None

    def rows(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
        count, least = 0, None
        for row in self.entries.rows():
            count += 1
            # rows come sorted by coefficients, so the first least value
            # wins; equal values are often the same object
            if least is None or row[2] is not least[2] and row[2] < least[2]:
                least = row
            yield row
        self.count, self.least = count, least

    def witness_minimum(self) -> Optional[dict]:
        if self.least is None:
            return None
        coefficients, coords, value = self.least
        return to_payload(ObstructionEntry(coefficients, DivisorClass(coords), value))


class Later:
    """A payload value made when a writer reaches it, after every value
    before it in the payload has been written."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Any]) -> None:
        self.make = make


def divisor_payload(divisor: DivisorClass) -> dict:
    coords = [exact_value(c) for c in divisor.coords]
    return {"coords": coords, "text": ",".join(c["exact"] for c in coords)}


# The payload values to_payload gives back as they are: an EntriesNode and a
# Later as the same objects.
_PLAIN = frozenset({type(None), str, bool, int, float, EntriesNode, Later})
# Field names per dataclass type, filled on first use: one entry per result
# class that reaches to_payload.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def to_payload(value: Any) -> Any:
    """Recursively convert a result (dataclasses, Fractions, INFINITY,
    divisors, dicts, sequences) into a payload: dicts with str keys, lists,
    str, int, float, bool, None, EntriesNode and Later. A payload value
    comes back unchanged, so a part converted once may sit in a result that
    is converted again.

    Exact types dispatch on type(value); subclasses and the first dataclass
    of its type go through the isinstance checks after. Either way a
    dataclass keeps its field order, and so the key order. The plain items
    of a dict or a list are kept without a call."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is Fraction or value is INFINITY:
        return exact_value(value)
    if kind is DivisorClass:
        return divisor_payload(value)
    if kind is dict:
        return {
            k if type(k) is str else str(k): v if type(v) in _PLAIN else to_payload(v)
            for k, v in value.items()
        }
    if kind is list or kind is tuple:
        return [v if type(v) in _PLAIN else to_payload(v) for v in value]
    names = _FIELD_NAMES.get(kind)
    if names is not None:
        return {name: to_payload(getattr(value, name)) for name in names}
    if isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Fraction):
        return exact_value(value)
    if isinstance(value, DivisorClass):
        return divisor_payload(value)
    if isinstance(value, ObstructionEntries):
        return EntriesNode(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _FIELD_NAMES[kind] = tuple(field.name for field in dataclasses.fields(value))
        return to_payload(value)
    if isinstance(value, dict):
        return to_payload(dict(value))
    if isinstance(value, (list, tuple)):
        return to_payload(list(value))
    raise TypeError(f"cannot serialize {kind.__name__}")


class _Numbers:
    """Memoized renderings of numbers, each made once from exact_value: the
    exact string, the text rendering, and the JSON layout of the
    exact_value dict at the indent `pad`."""

    def __init__(self, pad: str) -> None:
        self.pad = pad
        self.exact: dict[Any, str] = {}
        self.text: dict[Any, str] = {}
        self.json: dict[Any, str] = {}

    def add(self, values) -> None:
        for x in values:
            if x not in self.exact:
                payload = exact_value(x)
                exact, approx = payload["exact"], payload["approx"]
                self.exact[x] = exact
                self.text[x] = _render_scalar(payload)
                self.json[x] = (
                    f'{{\n{self.pad}  "exact": {encode_basestring_ascii(exact)},\n'
                    f'{self.pad}  "approx": {"null" if approx is None else float.__repr__(approx)}'
                    f"\n{self.pad}}}"
                )


def _json_entry(item: str) -> Callable[[tuple], str]:
    """The --json text of an obstruction entry, from its row, as dump_json
    writes to_payload of the ObstructionEntry at indent `item`."""
    q1 = item + "  "
    q2 = q1 + "  "
    q3 = q2 + "  "
    coeff_sep = ",\n" + q2
    coord_sep = ",\n" + q3
    coordinates = _Numbers(q3)
    values = _Numbers(q1)
    exact, cells, value_json = coordinates.exact, coordinates.json, values.json

    def entry(row: tuple) -> str:
        coefficients, coords, value = row
        try:
            text = ",".join(map(exact.__getitem__, coords))
            value_text = value_json[value]
        except KeyError:
            coordinates.add(coords)
            values.add((value,))
            return entry(row)
        return (
            f'{{\n{q1}"coefficients": [\n{q2}{coeff_sep.join(map(int.__repr__, coefficients))}'
            f'\n{q1}],\n{q1}"divisor": {{\n{q2}"coords": [\n{q3}'
            f'{coord_sep.join(map(cells.__getitem__, coords))}\n{q2}],\n{q2}"text": '
            f'{encode_basestring_ascii(text)}\n{q1}}},\n{q1}"value": {value_text}\n{item}}}'
        )

    return entry


def _text_entry(indent: int) -> Callable[[tuple], str]:
    """The text lines of an obstruction entry, from its row, as render_text
    renders to_payload of the ObstructionEntry as a list item at `indent`."""
    p1, p2, p3 = ("  " * (indent + i) for i in range(3))
    coordinates = _Numbers("")
    values = _Numbers("")  # apart from the int coordinates, whose keys equal Fraction values
    exact, cells, value_text = coordinates.exact, coordinates.text, values.text

    def entry(row: tuple) -> str:
        coefficients, coords, value = row
        try:
            text = ",".join(map(exact.__getitem__, coords))
            rendered = ", ".join(map(cells.__getitem__, coords))
            rendered_value = value_text[value]
        except KeyError:
            coordinates.add(coords)
            values.add((value,))
            return entry(row)
        return (
            f"{p1}-\n{p2}coefficients: [{', '.join(map(str, coefficients))}]\n"
            f"{p2}divisor:\n{p3}coords: [{rendered}]\n{p3}text: {text}\n{p2}value: {rendered_value}"
        )

    return entry


def dump_json(payload: Any, out: TextIO) -> None:
    """Write `json.dumps(payload, indent=2)` and a newline to `out`, in one
    pass over a payload tree of dicts with str keys, lists, tuples, str,
    int, finite float, bool, None, EntriesNode (written as the list of its
    entries) and Later (written as the value it makes). A piece is written
    after each entry that brings the text held to CHUNK characters, the
    rest at the end.

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
        elif type(value) is EntriesNode:
            write_entries(value, pad)
        elif type(value) is Later:
            write(value.make(), pad)
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")

    def write_entries(node: EntriesNode, pad: str) -> None:
        inner = pad + "  "
        entry = _json_entry(inner)
        sep = ",\n" + inner
        lead = "[\n" + inner
        size = sum(map(len, parts))
        for row in node.rows():
            text = entry(row)
            append(lead + text)
            lead = sep
            size += len(text)
            if size >= CHUNK:
                out.write("".join(parts))
                parts.clear()
                size = 0
        append("\n" + pad + "]" if lead is sep else "[]")

    write(payload, "")
    append("\n")
    out.write("".join(parts))


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
    """A value rendered on its key's line; an empty mapping renders as {}."""
    return (
        value is None
        or isinstance(value, (str, bool, int, float))
        or value == {}
        or _is_exact_value(value)
    )


def render_text(payload: Any, out: TextIO) -> None:
    """Write indented key/value lines of a payload tree to `out`, each with
    a newline; an EntriesNode renders as the list of its entries, and a
    Later as the value it makes. A piece is written after each entry that
    brings the text held to CHUNK characters, the rest at the end."""
    lines: list[str] = []
    append = lines.append

    def write(payload: Any, indent: int) -> None:
        pad = "  " * indent
        if isinstance(payload, dict) and not _is_exact_value(payload):
            for key, value in payload.items():
                if type(value) is Later:
                    value = value.make()
                if type(value) is EntriesNode:
                    write_entries(key, value, indent)
                elif _is_scalar(value):
                    append(f"{pad}{key}: {_render_scalar(value)}")
                elif isinstance(value, list) and all(_is_scalar(v) for v in value):
                    rendered = ", ".join(_render_scalar(v) for v in value)
                    append(f"{pad}{key}: [{rendered}]")
                else:
                    append(f"{pad}{key}:")
                    write(value, indent + 1)
        elif isinstance(payload, list):
            for value in payload:
                if _is_scalar(value):
                    append(f"{pad}- {_render_scalar(value)}")
                else:
                    append(f"{pad}-")
                    write(value, indent + 1)
        else:
            append(f"{pad}{_render_scalar(payload)}")

    def write_entries(key: str, node: EntriesNode, indent: int) -> None:
        entry = _text_entry(indent + 1)
        append(f"{'  ' * indent}{key}:")
        empty = True
        size = sum(map(len, lines))
        for row in node.rows():
            text = entry(row)
            append(text)
            empty = False
            size += len(text)
            if size >= CHUNK:
                out.write("\n".join(lines) + "\n")
                lines.clear()
                size = 0
        if empty:
            lines[-1] += " []"

    write(payload, 0)
    if lines:
        out.write("\n".join(lines) + "\n")
