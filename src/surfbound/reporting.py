"""Serialization of results for the command line.

`to_payload` is the one place where a result becomes a payload: the
command handlers return Fractions, divisors and result records, and the
command line converts what they return once, just before it is written.

Every rational is reported as {"exact": "p/q", "approx": float} so that
scripts can consume the exact value while humans read the decimal. The
minimum over an empty obstruction set serializes as {"exact": "inf",
"approx": null}, and so does the approximation of a value beyond float
range: its "exact" string stays whole. That dict is an _Exact, a leaf that
both writers know by its type, and the text renderer walks the same
payload, so both output modes always carry identical exact values.

`dump_json` writes the --json output: indented by 2 spaces, ASCII-escaped,
and byte for byte equal to `json.dumps(payload, indent=2)` on every payload
`to_payload` builds, once its EntriesNode and Later values are made into
lists and values. With an indent, `json.dumps` leaves its C encoder for a
pure-Python one; `dump_json` keeps the stdlib's C string escaper and writes
the layout itself in one pass.

An obstruction set can hold hundreds of thousands of entries, so its
entries enter a payload as an EntriesNode. Both writers stream it through
one loop, _stream: each entry is written from the search's row in the fixed
layout that `to_payload` and the generic writer give an ObstructionEntry,
each number in it rendered once per writer, and the output goes to the
stream in pieces of about CHUNK characters.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional, TextIO

from .bounds import INFINITY, ObstructionEntries, ObstructionEntry
from .errors import CalculatorError
from .surface import DivisorClass

# Characters of output held before they are written to the stream.
CHUNK = 1 << 16


class _Exact(dict):
    """The payload of a rational: a leaf that the writers know by its type."""

    __slots__ = ()

    def json(self, pad: str) -> str:
        """The --json text of the value at the indent `pad`."""
        approx = self["approx"]
        return (
            f'{{\n{pad}  "exact": {encode_basestring_ascii(self["exact"])},\n'
            f'{pad}  "approx": {"null" if approx is None else float.__repr__(approx)}\n{pad}}}'
        )


def exact_value(value) -> _Exact:
    """The payload of INFINITY, an int or a Fraction."""
    if value is INFINITY:
        return _Exact(exact="inf", approx=None)
    return _exact(value.numerator, value.denominator)


def _exact(n: int, d: int) -> _Exact:
    """The payload of n/d, for d > 0."""
    g = gcd(n, d)
    n, d = n // g, d // g
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
    return _Exact(exact=exact, approx=approx)


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
    coords = [_exact(x, divisor.den) for x in divisor.num]
    return {"coords": coords, "text": ",".join(c["exact"] for c in coords)}


# The payload values to_payload gives back as they are: an EntriesNode and a
# Later as the same objects.
_PLAIN = frozenset({type(None), str, bool, int, float, _Exact, EntriesNode, Later})
# Field names per dataclass type, filled on first use: one entry per result
# class that reaches to_payload.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def to_payload(value: Any) -> Any:
    """Recursively convert a result (dataclasses, Fractions, INFINITY,
    divisors, dicts, lists and tuples) into a payload: dicts with str keys,
    lists, str, int, float, bool, None, EntriesNode and Later. A payload
    value comes back unchanged, so a part converted once may sit in a result
    that is converted again.

    Values dispatch on type(value), and a subclass of any of these types
    raises TypeError, except that of a dataclass. A dataclass keeps its
    field order, and so the key order; its field names are read once per
    type. The plain items of a dict, a list or a dataclass are kept without
    a call."""
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
        fields = zip(names, [getattr(value, name) for name in names])
        return {name: v if type(v) in _PLAIN else to_payload(v) for name, v in fields}
    if kind is ObstructionEntries:
        return EntriesNode(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _FIELD_NAMES[kind] = tuple(field.name for field in dataclasses.fields(value))
        return to_payload(value)
    raise TypeError(f"cannot serialize {kind.__name__}")


class _Rendered(dict):
    """Renderings of numbers, keyed by the number: a missing one is made
    once, by `render` from its exact_value. An int and an equal Fraction
    share a key."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[_Exact], str]) -> None:
        self.render = render

    def __missing__(self, number) -> str:
        text = self[number] = self.render(exact_value(number))
        return text


def _json_entry(item: str) -> Callable[[tuple], str]:
    """The --json text of an obstruction entry, from its row, as dump_json
    writes to_payload of the ObstructionEntry at indent `item`."""
    q1 = item + "  "
    q2 = q1 + "  "
    q3 = q2 + "  "
    coeff_sep = ",\n" + q2
    coord_sep = ",\n" + q3
    exact = _Rendered(itemgetter("exact")).__getitem__
    cells = _Rendered(lambda payload: payload.json(q3)).__getitem__
    values = _Rendered(lambda payload: payload.json(q1))

    def entry(row: tuple) -> str:
        coefficients, coords, value = row
        return (
            f'{{\n{q1}"coefficients": [\n{q2}{coeff_sep.join(map(int.__repr__, coefficients))}'
            f'\n{q1}],\n{q1}"divisor": {{\n{q2}"coords": [\n{q3}'
            f'{coord_sep.join(map(cells, coords))}\n{q2}],\n{q2}"text": '
            f'{encode_basestring_ascii(",".join(map(exact, coords)))}\n{q1}}},\n'
            f'{q1}"value": {values[value]}\n{item}}}'
        )

    return entry


def _text_entry(indent: int) -> Callable[[tuple], str]:
    """The text lines of an obstruction entry, from its row, as render_text
    renders to_payload of the ObstructionEntry as a list item at `indent`."""
    p1, p2, p3 = ("  " * (indent + i) for i in range(3))
    # the coordinates are ints, whose rendering is their exact string
    rendered = _Rendered(_render_scalar)

    def entry(row: tuple) -> str:
        coefficients, coords, value = row
        cells = list(map(rendered.__getitem__, coords))
        return (
            f"{p1}-\n{p2}coefficients: [{', '.join(map(str, coefficients))}]\n"
            f"{p2}divisor:\n{p3}coords: [{', '.join(cells)}]\n{p3}text: {','.join(cells)}\n"
            f"{p2}value: {rendered[value]}"
        )

    return entry


def _stream(
    node: EntriesNode, entry: Callable[[tuple], str], lead: str, sep: str,
    parts: list[str], out: TextIO,
) -> bool:
    """Append each entry of node to parts, as entry renders its row, after
    lead for the first and sep for the others. The text held is written to
    out after each entry that brings it to CHUNK characters. Returns whether
    node had any entry."""
    append = parts.append
    size = sum(map(len, parts))
    for row in node.rows():
        text = lead + entry(row)
        append(text)
        lead = sep
        size += len(text)
        if size >= CHUNK:
            out.write("".join(parts))
            parts.clear()
            size = 0
    return node.count > 0


def dump_json(payload: Any, out: TextIO) -> None:
    """Write `json.dumps(payload, indent=2)` and a newline to `out`, in one
    pass over a payload tree of dicts with str keys, lists, tuples, str,
    int, finite float, bool, None, EntriesNode (written as the list of its
    entries) and Later (written as the value it makes). Any other type,
    a subclass of these too, raises TypeError. The text is held and written
    in pieces, as _stream writes it, the rest at the end.

    The recursion is a closure, so a tracer that wraps this module's
    functions sees one call per document, not one per node.
    """
    parts: list[str] = []
    append = parts.append

    def write(value: Any, pad: str) -> None:
        kind = type(value)
        if kind is _Exact:
            append(value.json(pad))
        elif kind is dict:
            if not value:
                append("{}")
                return
            inner = pad + "  "
            sep = ",\n" + inner
            lead = "{\n" + inner
            for key, item in value.items():
                if type(key) is not str:
                    raise TypeError(f"cannot serialize key of type {type(key).__name__}")
                append(lead + encode_basestring_ascii(key) + ": ")
                lead = sep
                write(item, inner)
            append("\n" + pad + "}")
        elif kind is list or kind is tuple:
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
        elif kind is str:
            append(encode_basestring_ascii(value))
        elif kind is int or kind is float:
            append(kind.__repr__(value))
        elif kind is bool:
            append("true" if value else "false")
        elif value is None:
            append("null")
        elif kind is EntriesNode:
            inner = pad + "  "
            if _stream(value, _json_entry(inner), "[\n" + inner, ",\n" + inner, parts, out):
                append("\n" + pad + "]")
            else:
                append("[]")
        elif kind is Later:
            write(value.make(), pad)
        else:
            raise TypeError(f"cannot serialize {kind.__name__}")

    write(payload, "")
    append("\n")
    out.write("".join(parts))


def _render_scalar(value: Any) -> str:
    if type(value) is _Exact:
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
        type(value) is _Exact
        or value is None
        or isinstance(value, (str, bool, int, float))
        or value == {}
    )


def render_text(payload: Any, out: TextIO) -> None:
    """Write indented key/value lines of a payload tree to `out`, each with
    a newline; an EntriesNode renders as the list of its entries, and a
    Later as the value it makes. The text is held and written in pieces, as
    _stream writes it, the rest at the end."""
    parts: list[str] = []
    append = parts.append

    def write(payload: Any, indent: int) -> None:
        pad = "  " * indent
        if isinstance(payload, dict) and type(payload) is not _Exact:
            for key, value in payload.items():
                if type(value) is Later:
                    value = value.make()
                if type(value) is EntriesNode:
                    # each entry's lines follow a line break, as does the last
                    append(f"{pad}{key}:")
                    entry = _text_entry(indent + 1)
                    append("\n" if _stream(value, entry, "\n", "\n", parts, out) else " []\n")
                elif _is_scalar(value):
                    append(f"{pad}{key}: {_render_scalar(value)}\n")
                elif isinstance(value, list) and all(_is_scalar(v) for v in value):
                    rendered = ", ".join(_render_scalar(v) for v in value)
                    append(f"{pad}{key}: [{rendered}]\n")
                else:
                    append(f"{pad}{key}:\n")
                    write(value, indent + 1)
        elif isinstance(payload, list):
            for value in payload:
                if _is_scalar(value):
                    append(f"{pad}- {_render_scalar(value)}\n")
                else:
                    append(f"{pad}-\n")
                    write(value, indent + 1)
        else:
            append(f"{pad}{_render_scalar(payload)}\n")

    write(payload, 0)
    if parts:
        out.write("".join(parts))
