"""Serialization of results for the command line.

`to_payload` is the one place where a result becomes a payload: the
command handlers return Fractions, divisors and result records, and the
command line converts what they return once, just before it is written.

Every rational is reported as {"exact": "p/q", "approx": float}, the exact
value for scripts and the decimal for humans. INFINITY, the minimum over an
empty obstruction set, is {"exact": "inf", "approx": null}, and "approx" is
null for a value beyond float range too. That dict is an _Exact, a leaf
known by its type, so both output modes carry identical exact values.

A payload tree holds dicts with str keys, lists, tuples, _Exact, str, int,
finite float, bool, None, EntriesNode and Later. The three walkers,
to_payload, dump_json and render_text, dispatch on exact types and raise
TypeError on the same values: a subclass of one of these types (a dataclass
aside, which to_payload converts) or a type that none of them knows. The
two writers take exactly these trees, and refuse a key that is not a str.

`dump_json` writes the --json output, byte for byte `json.dumps(payload,
indent=2)` once EntriesNode and Later values are made into lists and values,
in one pass that keeps the stdlib's C string escaper.

An obstruction set can hold hundreds of thousands of entries, so it enters
a payload as an EntriesNode, a source of its rows. Both writers stream it
through one loop, _stream, which writes each entry from its row, counts the
entries and keeps the least for the Later values after them.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional, TextIO

from .bounds import INFINITY, ObstructionEntries, Row
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


@dataclasses.dataclass(eq=False, slots=True)
class EntriesNode:
    """The entries of an obstruction set in a payload, as the source of their
    rows (bounds.Row): a callable that gives a new iterator over the rows,
    sorted by coefficients, each time it is called, such as
    ObstructionEntries.rows or the __iter__ of a list of rows, so a payload
    written twice has its entries both times. The writer that streams them
    (_stream) sets count and the least row by (value, coefficients), which
    payload values after the node report through Later."""

    rows: Callable[[], Iterator[Row]]
    count: int = 0
    least: Optional[Row] = None

    def witness_minimum(self) -> Optional[dict]:
        if self.least is None:
            return None
        coefficients, coords, value = self.least
        divisor = DivisorClass.from_integers(coords)
        return to_payload({"coefficients": coefficients, "divisor": divisor, "value": value})


@dataclasses.dataclass(eq=False, slots=True)
class Later:
    """A payload value made when a writer reaches it, after every value
    before it in the payload has been written."""

    make: Callable[[], Any]


# The payload values to_payload gives back as they are, as the same objects.
_PLAIN = frozenset({type(None), str, bool, int, float, _Exact, EntriesNode, Later})
# Field names per dataclass type, filled when to_payload first meets it.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def to_payload(value: Any) -> Any:
    """Recursively convert a result (dataclasses, Fractions, INFINITY,
    divisors, dicts, lists and tuples) into a payload tree. A payload value
    comes back unchanged, so a part converted once may sit in a result that
    is converted again. A key that is not a str becomes its str.

    A dataclass, or a subclass of one, converts as its fields in their order,
    read once per type. The plain items of a dict, a list or a dataclass are
    kept without a call."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is Fraction or value is INFINITY:
        return exact_value(value)
    if kind is DivisorClass:
        coords = [_exact(x, value.den) for x in value.num]
        return {"coords": coords, "text": ",".join(c["exact"] for c in coords)}
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
        return EntriesNode(value.rows)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _FIELD_NAMES[kind] = tuple(field.name for field in dataclasses.fields(value))
        return to_payload(value)
    raise TypeError(f"cannot serialize {kind.__name__}")


class _Rendered(dict):
    """Renderings of numbers keyed by the number, each made once by `render`
    from its exact_value; an int and an equal Fraction share a key."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[_Exact], str]) -> None:
        self.render = render

    def __missing__(self, number) -> str:
        text = self[number] = self.render(exact_value(number))
        return text


def _json_entry(item: str) -> Callable[[tuple], str]:
    """The --json text of an obstruction entry, from its row, as dump_json
    writes the row's payload (EntriesNode.witness_minimum) at indent `item`."""
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
    renders the row's payload (EntriesNode.witness_minimum) as a list item
    at `indent`."""
    p1, p2, p3 = ("  " * (indent + i) for i in range(3))
    # the coordinates are ints, whose rendering is their exact string
    rendered = _Rendered(_leaf)

    def entry(row: tuple) -> str:
        coefficients, coords, value = row
        cells = list(map(rendered.__getitem__, coords))
        return (
            f"{p1}-\n{p2}coefficients: [{', '.join(map(str, coefficients))}]\n"
            f"{p2}divisor:\n{p3}coords: [{', '.join(cells)}]\n{p3}text: {','.join(cells)}\n"
            f"{p2}value: {rendered[value]}\n"
        )

    return entry


def _stream(
    node: EntriesNode, entry: Callable[[tuple], str], lead: str, sep: str,
    parts: list[str], out: TextIO,
) -> bool:
    """Append each entry of node to parts, as entry renders its row, after
    lead for the first and sep for the others. The text held is written to
    out after each entry that brings it to CHUNK characters. The same loop
    sets node.count and node.least. Returns whether node had any entry."""
    append = parts.append
    size = sum(map(len, parts))
    count, least = 0, None
    for row in node.rows():
        count += 1
        # rows come sorted by coefficients, so the first least value wins;
        # equal values are often the same object
        if least is None or row[2] is not least[2] and row[2] < least[2]:
            least = row
        text = lead + entry(row)
        append(text)
        lead = sep
        size += len(text)
        if size >= CHUNK:
            out.write("".join(parts))
            parts.clear()
            size = 0
    node.count, node.least = count, least
    return count > 0


def dump_json(payload: Any, out: TextIO) -> None:
    """Write `json.dumps(payload, indent=2)` and a newline to `out` in one
    pass over a payload tree: an EntriesNode as the list of its entries, a
    Later as the value it makes. The text is held and written in pieces, as
    _stream writes it, the rest at the end. The recursion is a closure, so a
    tracer that wraps this module's functions sees one call per document."""
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


def _leaf(value: Any) -> Optional[str]:
    """The text of a leaf on its line, or None for a container: a dict with
    items, a list, a tuple or an EntriesNode. Any other type raises TypeError."""
    kind = type(value)
    if kind is _Exact:
        exact = value["exact"]
        approx = value["approx"]
        return exact if approx is None or "/" not in exact else f"{exact} ({approx:.6g})"
    if kind is str:
        return value
    if kind is int or kind is float:
        return kind.__repr__(value)
    if kind is bool:
        return "yes" if value else "no"
    if value is None:
        return "-"
    if kind is dict:
        return None if value else "{}"
    if kind is list or kind is tuple or kind is EntriesNode:
        return None
    raise TypeError(f"cannot serialize {kind.__name__}")


def render_text(payload: Any, out: TextIO) -> None:
    """Write indented key/value lines of a payload tree to `out`, each with
    a newline; a tuple renders as a list, an EntriesNode as the list of its
    entries, and a Later as the value it makes. The text is held and written
    in pieces, as _stream writes it, the rest at the end."""
    parts: list[str] = []
    append = parts.append

    def items(values: Any, indent: int, head: Optional[str] = None) -> None:
        """The lines of a list, tuple or EntriesNode at indent. After head,
        its key's line, the items stay on that line while they are leaves."""
        pad = "  " * indent
        if type(values) is EntriesNode:
            lead = "" if head is None else f"{head}\n"
            if not _stream(values, _text_entry(indent), lead, "", parts, out) and head is not None:
                append(f"{head} []\n")
            return
        texts = []
        for value in values:
            while type(value) is Later:
                value = value.make()
            text = _leaf(value)
            if text is None:
                if head is not None:
                    append(f"{head}\n")
                    parts.extend(f"{pad}- {leaf}\n" for leaf in texts)
                    head = None
                append(f"{pad}-\n")
                write(value, indent + 1)
            elif head is None:
                append(f"{pad}- {text}\n")
            else:
                texts.append(text)
        if head is not None:
            append(f"{head} [{', '.join(texts)}]\n")

    def write(payload: Any, indent: int) -> None:
        if type(payload) is dict:
            pad = "  " * indent
            for key, value in payload.items():
                if type(key) is not str:
                    raise TypeError(f"cannot serialize key of type {type(key).__name__}")
                while type(value) is Later:
                    value = value.make()
                text = _leaf(value)
                if text is not None:
                    append(f"{pad}{key}: {text}\n")
                elif type(value) is dict:
                    append(f"{pad}{key}:\n")
                    write(value, indent + 1)
                else:
                    items(value, indent + 1, f"{pad}{key}:")
        elif type(payload) is Later:
            write(payload.make(), indent)
        else:  # a container in a list, or a leaf at the top
            text = _leaf(payload)
            if text is None:
                items(payload, indent)
            else:
                append(f"{text}\n")

    write(payload, 0)
    if parts:
        out.write("".join(parts))
