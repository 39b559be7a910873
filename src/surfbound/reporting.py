"""Serialization of results for the command line.

The command handlers return Fractions, divisors, result records, and dicts
and lists of them, and the two writers, dump_json and render_text, take
that result as it is. Each writer walks it once and writes each value as it
reaches it: a Fraction, INFINITY, a divisor or a record straight to text,
and any other value of a type it does not know through `to_payload`, which
gives the output form of one result value.

Every rational is reported as {"exact": "p/q", "approx": float}, the exact
value for scripts and the decimal for humans. INFINITY, the minimum over an
empty obstruction set, is {"exact": "inf", "approx": null}, and "approx" is
null for a value beyond float range too. to_payload gives that dict as an
_Exact; a writer makes the text of an exact value or a divisor once per
call, in a _Memo: the --json text once per value and indent, the line text
of an exact value once per value, as it is the same at every indent.

The payload values (_NODES) are dicts, lists, tuples, _Exact, str, int,
finite float, bool, None and EntriesNode, known by their exact types. A
dict key is a str or an int, which is written as its str; both writers
refuse any other key. A result record (a NamedTuple, a dataclass from
outside the package, or a subclass of either, as _record decides) is
written as the dict of its fields, never as a tuple; to_payload raises
TypeError on a type it does not know, a payload type's subclass too.

`dump_json` writes the --json output, byte for byte `json.dumps(payload,
indent=2)` of the result converted value by value, in one pass that keeps
the stdlib's C string escaper.

An obstruction set can hold hundreds of thousands of entries, so it enters
a payload as an EntriesNode, a source of its runs of integer budgets (see
bounds.ObstructionEntries). Both writers stream it through one loop,
_stream, a run at a time: it makes the text up to a run's last coefficient
once per run, and from one entry to the next only the cells of the
coordinates that the run's step changes. Each call keeps two memos: the
text of a value keyed by the integer rest of an entry, and the cell of a
coordinate keyed by the integer; both fill from the writer's memo of exact
values. The same loop counts the entries and keeps the least, as the first
largest rest, for the Later values after them, and makes its one Fraction
at the end.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

from .bounds import INFINITY, ObstructionEntries
from .search import Run
from .errors import CalculatorError
from .surface import DivisorClass, _fields_repr

# Characters of output held before they are written to the stream.
CHUNK = 1 << 16


class _Exact(dict):
    """The payload of a rational: a leaf that the writers know by its type."""

    __slots__ = ()


def exact_value(value) -> _Exact:
    """The payload of INFINITY, an int or a Fraction."""
    if value is INFINITY:
        return _Exact(exact="inf", approx=None)
    return _exact(value.numerator, value.denominator)


def _exact(n: int, d: int) -> _Exact:
    """The payload of n/d, for d > 0."""
    g = gcd(n, d)
    return _Exact(zip(("exact", "approx"), _parts(n // g, d // g)))


def _parts(n: int, d: int) -> tuple[str, Optional[float]]:
    """The exact text and the float of n/d in lowest terms, d > 0, the
    float None beyond float range."""
    try:
        approx = n / d  # float(frac), correctly rounded
    except OverflowError:
        approx = None
    try:
        return (str(n) if d == 1 else f"{n}/{d}"), approx
    except ValueError:
        # str() refuses an int beyond the process's conversion limit, which
        # is left as it is.
        raise CalculatorError(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer"
        ) from None


def _json_exact(exact: str, approx: Optional[float], pad: str) -> str:
    """The --json text of an exact value at the indent pad."""
    return (f'{{\n{pad}  "exact": {encode_basestring_ascii(exact)},\n'
            f'{pad}  "approx": {"null" if approx is None else float.__repr__(approx)}\n{pad}}}')


def _line_exact(exact: str, approx: Optional[float]) -> str:
    """The text of an exact value on its line, at any indent."""
    return exact if approx is None or "/" not in exact else f"{exact} ({approx:.6g})"


def _cells(cell: Callable[[int, int], str], divisor: DivisorClass) -> tuple[list[str], str]:
    """The texts of divisor's coordinates, cell(n, d) of each in lowest terms
    n/d, and the divisor's text: their exact texts, joined by commas."""
    den, cells, exacts = divisor.den, [], []
    for x in divisor.num:
        g = gcd(x, den)
        cells.append(cell(x // g, den // g))  # first: it checks the digit limit
        exacts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return cells, ",".join(exacts)


def _json_divisor(exacts: "_Memo", divisor: DivisorClass, pad: str) -> str:
    """The --json text of divisor at the indent pad; exacts is dump_json's."""
    inner = pad + "    "
    cells, text = _cells(lambda n, d: exacts[n, d, inner], divisor)
    coords = "[\n" + inner + (",\n" + inner).join(cells) + "\n" + pad + "  ]" if cells else "[]"
    return f'{{\n{pad}  "coords": {coords},\n{pad}  "text": {encode_basestring_ascii(text)}\n{pad}}}'


def _line_divisor(exacts: "_Memo", divisor: DivisorClass, pad: str) -> str:
    """The lines of divisor at the indent pad; exacts is render_text's."""
    cells, text = _cells(lambda n, d: exacts[n, d], divisor)
    return f"{pad}coords: [{', '.join(cells)}]\n{pad}text: {text}\n"


class _Memo(dict):
    """Texts of one writer call, each made once by make(key)."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], str]) -> None:
        self.make = make

    def __missing__(self, key: Any) -> str:
        text = self[key] = self.make(key)
        return text


class EntriesNode:
    """The entries of an obstruction set in a payload, as the source of their
    runs (search.Run): runs, a callable that gives a new iterator over the
    runs, sorted by coefficients, each time it is called, such as
    ObstructionEntries.runs or the __iter__ of a list of runs, so a payload
    written twice has its entries both times; value, the map from the rest
    of an entry to its value, the larger rest the smaller value; and step,
    the coordinates that one entry of a run adds to the one before. The
    writer that streams them (_stream) sets count and the least row
    (bounds.Row) by (value, coefficients), which payload values after the
    node report through Later."""

    __slots__ = _FIELDS = ("runs", "value", "step", "count", "least")
    __repr__ = _fields_repr

    def __init__(self, runs: Callable[[], Iterator[Run]], value: Callable[[int], Fraction],
                 step: tuple[int, ...], count=0, least=None) -> None:
        self.runs, self.value, self.step, self.count, self.least = runs, value, step, count, least

    def witness_minimum(self) -> Optional[dict]:
        if self.least is None:
            return None
        coefficients, coords, value = self.least
        divisor = DivisorClass.from_integers(coords)
        return {"coefficients": coefficients, "divisor": divisor, "value": value}


class Later:
    """A payload value made when a writer reaches it, after every value
    before it in the payload has been written."""

    __slots__ = _FIELDS = ("make",)
    __repr__ = _fields_repr

    def __init__(self, make: Callable[[], Any]) -> None:
        self.make = make


# The types of the payload values, which the writers take as they are.
_NODES = frozenset({type(None), str, bool, int, float, _Exact, dict, list, tuple, EntriesNode})
# Per record type, filled when _record first meets it: its field names, the
# --json text of each as a key, and what gives a record's values in their order.
_RECORDS: dict[type, tuple[tuple[str, ...], tuple[str, ...], Callable[[Any], Iterable]]] = {}
# The types that a writer writes as they are, and each record type once met.
_KNOWN = {*_NODES, Fraction, DivisorClass, type(INFINITY)}
# The --json and the line text of the leaves that a writer writes inline.
_JSON_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
                bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}
_LINE_LEAVES = {str: str, int: int.__repr__, float: float.__repr__,
                bool: {True: "yes", False: "no"}.__getitem__, type(None): lambda _: "-",
                type(INFINITY): lambda _: "inf", _Exact: lambda e: _line_exact(e["exact"], e["approx"])}


def to_payload(value: Any) -> Any:
    """The payload value of one result value whose type is not in _NODES: a
    Later gives the value it makes, a Fraction or INFINITY its exact value,
    a divisor its coordinates and text, an ObstructionEntries an EntriesNode
    of its rows, and a record (a NamedTuple or dataclass, or a subclass) the
    dict of its fields in order, read once per type. The parts of what it
    gives are left as they are, for the writers to convert as they reach them."""
    kind = type(value)
    if kind is Later:
        return value.make()
    if kind is Fraction or value is INFINITY:
        return exact_value(value)
    if kind is DivisorClass:
        coords = [_exact(x, value.den) for x in value.num]
        return {"coords": coords, "text": ",".join(c["exact"] for c in coords)}
    if kind is ObstructionEntries:
        return EntriesNode(value.runs, value.value, value.step)
    names, _, values = _record(kind)
    return dict(zip(names, values(value)))


def _record(kind: type) -> tuple[tuple[str, ...], tuple[str, ...], Callable[[Any], Iterable]]:
    """The entry of _RECORDS for a record type (a NamedTuple or dataclass,
    or a subclass), made once per type, or TypeError for a type that is not
    one. A NamedTuple's values are its items."""
    record = _RECORDS.get(kind)
    if record is None:
        names = getattr(kind, "_fields", None) if issubclass(kind, tuple) else None
        values = iter
        if names is None:
            import dataclasses  # for a dataclass made outside the package
            if not dataclasses.is_dataclass(kind):
                raise TypeError(f"cannot serialize {kind.__name__}")
            names = tuple(field.name for field in dataclasses.fields(kind))
            values = lambda value: [getattr(value, name) for name in names]
        keys = tuple(f"{encode_basestring_ascii(name)}: " for name in names)
        record = _RECORDS[kind] = names, keys, values
    return record


def _resolved(value: Any) -> Any:
    """value, if its type is in _KNOWN, else what to_payload gives for it,
    resolved in turn; a record type joins _KNOWN, written from _RECORDS."""
    while (kind := type(value)) not in _KNOWN:
        if kind is Later or kind is ObstructionEntries:
            value = to_payload(value)
        else:
            _record(kind)
            _KNOWN.add(kind)
    return value


def _int_key(key: Any) -> str:
    """The text of a dict key that is not a str: an int's str, else TypeError."""
    if type(key) is not int:
        raise TypeError(f"cannot serialize key of type {type(key).__name__}")
    return str(key)


class _EntryText(NamedTuple):
    """How a writer writes the entries of a run: head, the text of an entry
    up to its last coefficient, from the coefficients before it; cell, the
    text of an integer coordinate; value, the text of a value; and entry,
    the text of an entry from its head's text, its last coefficient, its
    coordinates, their cells and its value's text."""

    head: Callable[[tuple[int, ...]], str]
    cell: Callable[[int], str]
    value: Callable[[Fraction], str]
    entry: Callable[[str, int, list[int], list[str], str], str]


def _json_entry(item: str, exacts: _Memo) -> _EntryText:
    """The --json text of an obstruction entry, as dump_json writes the
    payload of its row (EntriesNode.witness_minimum) at indent `item`."""
    q1, q2, q3 = item + "  ", item + "    ", item + "      "
    start = f'{{\n{q1}"coefficients": [\n{q2}'
    coeff_sep = ",\n" + q2
    coord_sep = ",\n" + q3
    digits = _Memo(str).__getitem__

    def entry(head: str, v: int, coords: list[int], cells: list[str], value: str) -> str:
        return (
            f'{head}{v}\n{q1}],\n{q1}"divisor": {{\n{q2}"coords": [\n{q3}{coord_sep.join(cells)}'
            f'\n{q2}],\n{q2}"text": "{",".join(map(digits, coords))}"\n{q1}}},\n'
            f'{q1}"value": {value}\n{item}}}'
        )

    return _EntryText(
        head=lambda head: start + coeff_sep.join([*map(digits, head), ""]),
        cell=_Memo(lambda x: exacts[x, 1, q3]).__getitem__,
        value=lambda value: exacts[value.numerator, value.denominator, q1],
        entry=entry,
    )


def _text_entry(indent: int, exacts: _Memo) -> _EntryText:
    """The text lines of an obstruction entry, as render_text renders the
    payload of its row (EntriesNode.witness_minimum) as a list item at
    `indent`."""
    p1, p2, p3 = "  " * indent, "  " * (indent + 1), "  " * (indent + 2)
    start = f"{p1}-\n{p2}coefficients: ["

    def entry(head: str, v: int, coords: list[int], cells: list[str], value: str) -> str:
        # the coordinates are ints, whose text is their exact string
        return (
            f"{head}{v}]\n{p2}divisor:\n{p3}coords: [{', '.join(cells)}]\n{p3}text: {','.join(cells)}\n"
            f"{p2}value: {value}\n"
        )

    return _EntryText(
        head=lambda head: start + ", ".join([*map(str, head), ""]),
        cell=_Memo(lambda x: exacts[x, 1]).__getitem__,
        value=lambda value: exacts[value.numerator, value.denominator],
        entry=entry,
    )


def _stream(node: EntriesNode, writer: _EntryText, lead: str, sep: str,
            parts: list[str], out: TextIO) -> bool:
    """Append each entry of node to parts, as writer writes it, after lead
    for the first and sep for the others. The text held is written to out
    after each entry that brings it to CHUNK characters.

    The text of a run's entries up to their last coefficient is made once
    per run. From one entry of a run to the next only the coordinates where
    node.step is nonzero change, and only their cells are made again. The
    text of each value is made once per call, in a memo keyed by the integer
    rest. The same loop sets node.count, the sum of the runs' lengths, and
    node.least, the row of the first entry with the largest rest, whose one
    Fraction it makes at the end. Returns whether node had any entry."""
    head_text, cell, entry = writer.head, writer.cell, writer.entry
    values = _Memo(lambda rest: writer.value(node.value(rest)))
    step = node.step
    moves = [(j, x) for j, x in enumerate(step) if x]
    append = parts.append
    size = sum(map(len, parts))
    count, best, least = 0, 0, None
    for run in node.runs():
        head, first, coords, rests = run
        count += len(rests)
        # runs come sorted by coefficients, so the first largest rest wins
        most = max(rests)
        if least is None or most > best:
            best, least = most, (run, rests.index(most))
        head = head_text(head)
        coords = list(coords)
        cells = list(map(cell, coords))
        for v, rest in enumerate(rests, first):
            if v != first:
                for j, x in moves:
                    coords[j] += x
                    cells[j] = cell(coords[j])
            text = lead + entry(head, v, coords, cells, values[rest])
            append(text)
            lead = sep
            size += len(text)
            if size >= CHUNK:
                out.write("".join(parts))
                parts.clear()
                size = 0
    if least is not None:
        (head, first, coords, _), i = least
        least = (*head, first + i), tuple(c + i * x for c, x in zip(coords, step)), node.value(best)
    node.count, node.least = count, least
    return count > 0


def dump_json(result: Any, out: TextIO) -> None:
    """Write `json.dumps(payload, indent=2)` and a newline to `out`, for the
    payload of `result`, in one pass that writes each value as it reaches
    it and an EntriesNode as the list of its entries. The text is held and
    written in pieces, as _stream writes it, the rest at the end."""
    parts: list[str] = []
    append = parts.append
    exacts = _Memo(lambda key: _json_exact(*_parts(key[0], key[1]), key[2]))
    divisors = _Memo(lambda key: _json_divisor(exacts, *key))
    leaves = _JSON_LEAVES.get

    def write(value: Any, pad: str) -> None:
        kind = type(value)
        if kind is dict:
            pairs, brackets = value.items(), "{}"
        elif kind in _RECORDS:
            _, keys, values = _RECORDS[kind]
            pairs, brackets = zip(keys, values(value)), "{}"
        elif kind is list or kind is tuple:
            pairs, brackets = zip(repeat(""), value), "[]"
        elif kind not in _KNOWN:
            return write(_resolved(value), pad)
        elif kind is EntriesNode:
            inner = pad + "  "
            streamed = _stream(value, _json_entry(inner, exacts), "[\n" + inner, ",\n" + inner, parts, out)
            return append("\n" + pad + "]" if streamed else "[]")
        elif kind is Fraction:
            return append(exacts[value.numerator, value.denominator, pad])
        elif kind is DivisorClass:
            return append(divisors[value, pad])
        elif kind is _Exact:
            return append(_json_exact(value["exact"], value["approx"], pad))
        elif value is INFINITY:
            return append(_json_exact("inf", None, pad))
        else:
            return append(_JSON_LEAVES[kind](value))
        # each item of a dict, a record, a list or a tuple, after the text
        # of its key: a record's is made once per type, and a list's is ""
        inner = pad + "  "
        lead, sep = brackets[0] + "\n" + inner, ",\n" + inner
        for key, item in pairs:
            if kind is dict:
                key = f"{encode_basestring_ascii(key if type(key) is str else _int_key(key))}: "
            leaf = leaves(type(item))
            if leaf is not None:
                append(f"{lead}{key}{leaf(item)}")
            elif type(item) is Fraction:
                append(f"{lead}{key}{exacts[item.numerator, item.denominator, inner]}")
            else:
                append(lead + key)
                write(item, inner)
            lead = sep
        append(f"\n{pad}{brackets[1]}" if lead is sep else brackets)

    write(result, "")
    del write  # it holds itself, parts and out through its cell: a cycle
    append("\n")
    out.write("".join(parts))


def render_text(result: Any, out: TextIO) -> None:
    """Write indented key/value lines of the payload of `result` to `out`,
    each with a newline, writing each value as it reaches it; a tuple
    renders as a list and an EntriesNode as the list of its entries. The
    text is held and written in pieces, as _stream writes it, the rest at
    the end."""
    parts: list[str] = []
    append = parts.append
    exacts = _Memo(lambda key: _line_exact(*_parts(*key)))
    divisors = _Memo(lambda key: _line_divisor(exacts, *key))

    def leaf(value: Any) -> Optional[str]:
        """The text of a value in _KNOWN that is a leaf on its line, or None
        for a dict or record with items, a divisor or a sequence."""
        kind = type(value)
        text = _LINE_LEAVES.get(kind)
        if text is not None:
            return text(value)
        if kind is Fraction:
            return exacts[value.numerator, value.denominator]
        if kind is dict:
            return None if value else "{}"
        return "{}" if kind in _RECORDS and not _RECORDS[kind][0] else None

    def items(values: Any, indent: int, head: Optional[str] = None) -> None:
        """The lines of a list, tuple or EntriesNode at indent. After head,
        its key's line, the items stay on that line while they are leaves."""
        pad = "  " * indent
        if type(values) is EntriesNode:
            lead = "" if head is None else f"{head}\n"
            if not _stream(values, _text_entry(indent, exacts), lead, "", parts, out) and head is not None:
                append(f"{head} []\n")
            return
        leaves = []
        for value in values:
            if type(value) not in _KNOWN:
                value = _resolved(value)
            text = leaf(value)
            if text is None:
                if head is not None:
                    append(f"{head}\n")
                    parts.extend(f"{pad}- {item}\n" for item in leaves)
                    head = None
                append(f"{pad}-\n")
                write(value, indent + 1)
            elif head is None:
                append(f"{pad}- {text}\n")
            else:
                leaves.append(text)
        if head is not None:
            append(f"{head} [{', '.join(leaves)}]\n")

    def write(value: Any, indent: int) -> None:
        """The lines at indent of a dict, record, divisor or list, or a leaf at the top."""
        kind = type(value)
        pad = "  " * indent
        if kind is DivisorClass:
            return append(divisors[value, pad])
        record = _RECORDS.get(kind)
        if record is None and kind is not dict:
            text = leaf(value)
            return items(value, indent) if text is None else append(f"{text}\n")
        for key, item in value.items() if record is None else zip(record[0], record[2](value)):
            if type(key) is not str:
                key = _int_key(key)
            if type(item) not in _KNOWN:
                item = _resolved(item)
            text = leaf(item)
            if text is not None:
                append(f"{pad}{key}: {text}\n")
            elif type(item) in (list, tuple, EntriesNode):
                items(item, indent + 1, f"{pad}{key}:")
            else:
                append(f"{pad}{key}:\n")
                write(item, indent + 1)

    write(_resolved(result), 0)
    del items, write  # they hold each other, parts and out through their cells
    if parts:
        out.write("".join(parts))
