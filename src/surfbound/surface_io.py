"""Surface model files and the divisor mini-language.

A model file is JSON with a fixed schema (version 1):

    {
      "schema": 1,
      "name": "hirzebruch_f2",
      "gram": [[0, 1], [1, -2]],
      "canonical": [-4, -2],
      "curves": [{"name": "f", "coords": [1, 0]},
                 {"name": "s", "coords": [0, 1]}],
      "ample_reference": [3, 1],
      "notes": "optional free text"
    }

All numeric entries are integers, "schema" too. Unknown keys, and a key
given twice in one object, are rejected so that typos fail loudly instead
of silently dropping data. Divisors on the command line
are either coordinate lists ("3/2,-1") or expressions in curve names and K
("2*s + f - K").

One process parses and validates each distinct model text once: a file is
read on every load, a bundled fixture's text once per process, and a text
already seen returns the same SurfaceModel, from a cache of MODEL_CACHE_SIZE
texts.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import lru_cache
from math import lcm
from typing import Union

from .errors import ParseError, UnknownCurveName, ValidationError
from .surface import DivisorClass, SurfaceModel

SCHEMA_VERSION = 1

_TOP_REQUIRED = ("schema", "name", "gram", "canonical", "curves")
_TOP_OPTIONAL = ("ample_reference", "notes")
_CURVE_REQUIRED = ("name", "coords")
_CURVE_OPTIONAL = ("effective",)


def _fail(origin: str, path: str, message: str) -> ParseError:
    where = f"{origin}: {path}: " if path else f"{origin}: "
    return ParseError(where + message)


def surface_from_data(data, origin: str = "<data>") -> SurfaceModel:
    """Check the JSON layout of a decoded document and build the model.
    SurfaceModel.create checks every field; any error names origin."""
    if not isinstance(data, dict):
        raise _fail(origin, "", "top level must be a JSON object")
    unknown = sorted(set(data) - set(_TOP_REQUIRED) - set(_TOP_OPTIONAL))
    if unknown:
        raise _fail(origin, unknown[0], "unknown field")
    for key in _TOP_REQUIRED:
        if key not in data:
            raise _fail(origin, key, "missing required field")
    if type(data["schema"]) is not int or data["schema"] != SCHEMA_VERSION:
        raise _fail(
            origin, "schema",
            f"unsupported schema {json.dumps(data['schema'])}; this reader handles {SCHEMA_VERSION}",
        )
    if not isinstance(data["curves"], list):
        raise _fail(origin, "curves", "expected a list of curve objects")
    curves = []
    for i, entry in enumerate(data["curves"]):
        path = f"curves[{i}]"
        if not isinstance(entry, dict):
            raise _fail(origin, path, "expected an object")
        bad = sorted(set(entry) - set(_CURVE_REQUIRED) - set(_CURVE_OPTIONAL))
        if bad:
            raise _fail(origin, f"{path}.{bad[0]}", "unknown field")
        for key in _CURVE_REQUIRED:
            if key not in entry:
                raise _fail(origin, f"{path}.{key}", "missing required field")
        curves.append((entry["name"], entry["coords"], entry.get("effective", True)))
    # create reads None as "no reference"; a file leaves the key out instead.
    if "ample_reference" in data and data["ample_reference"] is None:
        raise _fail(origin, "ample_reference", "expected a list of integers")
    if "notes" in data and not isinstance(data["notes"], str):
        raise _fail(origin, "notes", "expected a string")
    try:
        return SurfaceModel.create(
            name=data["name"],
            gram=data["gram"],
            canonical=data["canonical"],
            curves=curves,
            ample_reference=data.get("ample_reference"),
        )
    except ValidationError as exc:
        raise _fail(origin, "", str(exc)) from exc


def surface_to_data(model: SurfaceModel) -> dict:
    """Inverse of surface_from_data, for round trips and generated files."""
    data = {
        "schema": SCHEMA_VERSION,
        "name": model.name,
        "gram": [list(row) for row in model.gram],
        "canonical": list(model.canonical),
        "curves": [
            {"name": c.name, "coords": list(c.coords)}
            | ({} if c.effective else {"effective": False})
            for c in model.curves
        ],
    }
    if model.ample_reference is not None:
        data["ample_reference"] = list(model.ample_reference)
    return data


# The key is the text with its origin, so a rewritten file is parsed again
# and an error names its own path; a failure raises and is not cached. 64 is
# fewer than the 95 models (80 generated, 15 fixtures) that the benchmark's
# oracle_crosscheck workload revisits, so about a quarter of its loads miss
# and parse and validate the model again: about 0.13 ms each (12.6 ms for
# all 95, best of 40 on a 2-core host).
MODEL_CACHE_SIZE = 64


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def _model_from_text(text: str, origin: str) -> SurfaceModel:
    def unique(pairs: list) -> dict:
        data = dict(pairs)
        if len(data) < len(pairs):
            keys = [key for key, _ in pairs]
            key = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise _fail(origin, "", f"duplicate key {json.dumps(key)}")
        return data

    try:
        data = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{origin}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        # json reads integers with int(), which refuses over-long digit strings.
        raise ParseError(
            f"{origin}: invalid JSON: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{origin}: invalid JSON: nested too deeply") from exc
    return surface_from_data(data, origin=origin)


def load_surface_file(path: Union[str, os.PathLike]) -> SurfaceModel:
    origin = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"{origin}: cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{origin}: not UTF-8 text: {exc}") from exc
    return _model_from_text(text, origin)


def _fixtures():
    """The directory of the bundled fixtures: importlib.resources, which
    imports pathlib, zipfile and more, loads when a fixture is first named."""
    from importlib import resources
    return resources.files(__package__) / "fixtures"


_FIXTURE_NAME = re.compile(r"[A-Za-z0-9_\-]+")


def fixture_names() -> tuple[str, ...]:
    names = [
        entry.name[: -len(".json")]
        for entry in _fixtures().iterdir()
        if entry.name.endswith(".json")
    ]
    return tuple(sorted(names))


# Only a read that succeeds is kept, and only names of _FIXTURE_NAME reach it:
# at most one text per bundled fixture.
@lru_cache(maxsize=None)
def _fixture_text(name: str) -> str:
    return (_fixtures() / f"{name}.json").read_text(encoding="utf-8")


def load_fixture(name: str) -> SurfaceModel:
    try:
        if not _FIXTURE_NAME.fullmatch(name):
            raise FileNotFoundError(name)
        text = _fixture_text(name)
    except OSError as exc:
        known = ", ".join(fixture_names())
        raise ParseError(
            f"no bundled surface named {name!r}; available: {known}"
        ) from exc
    return _model_from_text(text, f"fixture:{name}")


def load_surface(spec: str) -> SurfaceModel:
    """Resolve a --surface argument: an existing file path wins, otherwise
    the name of a bundled fixture."""
    if os.path.exists(spec):
        return load_surface_file(spec)
    if _FIXTURE_NAME.fullmatch(spec):
        return load_fixture(spec)
    raise ParseError(f"{spec}: no such file")


# -- divisor expressions -----------------------------------------------------

_COORD_RE = re.compile(r"[+\-]?\s*\d+(?:/\d+)?(?:\s*,\s*[+\-]?\s*\d+(?:/\d+)?)*")
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+\-])?\s*"
    r"(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
)


def _coefficient(text: str, number: str) -> tuple[int, int]:
    """A coefficient that the patterns above matched, as (numerator,
    denominator): digits, an optional /digits and an optional sign, so only
    the denominator or the number of digits can be wrong."""
    top, _, bottom = number.partition("/")
    try:
        p, q = int(top), int(bottom or 1)
    except ValueError:
        # int() refuses digit strings beyond the process's conversion limit.
        raise ParseError(
            f"divisor: a coefficient has more than {sys.get_int_max_str_digits()} "
            "digits, the limit for reading an integer"
        ) from None
    if q == 0:
        raise ParseError(
            f"divisor {text!r}: coefficient {number!r} has a zero denominator"
        )
    return p, q


def _parse_coords(model: SurfaceModel, text: str) -> DivisorClass:
    parts = ["".join(p.split()) for p in text.split(",")]
    if len(parts) != model.rank:
        raise ParseError(
            f"divisor {text!r}: expected {model.rank} coordinates, got {len(parts)}"
        )
    coefficients = [_coefficient(text, p) for p in parts]
    den = lcm(*(q for _, q in coefficients))
    return DivisorClass.from_integers([p * (den // q) for p, q in coefficients], den)


def parse_divisor(model: SurfaceModel, text: str) -> DivisorClass:
    """Parse "0", "K", a coordinate list, or a curve-name expression, which
    is summed in integers over the common denominator of its coefficients."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("divisor expression is empty")
    if stripped == "0":
        return model.zero_divisor()
    if _COORD_RE.fullmatch(stripped):
        return _parse_coords(model, stripped)
    terms = []  # (numerator, denominator, integer coordinates)
    pos = 0
    while pos < len(stripped):
        match = _TERM_RE.match(stripped, pos)
        if not match:
            raise ParseError(
                f"divisor {text!r}: cannot read a term at position {pos}"
            )
        if terms and match.group("sign") is None:
            raise ParseError(
                f"divisor {text!r}: missing + or - before position {match.start('name')}"
            )
        p, q = _coefficient(text, match.group("coeff") or "1")
        if match.group("sign") == "-":
            p = -p
        name = match.group("name")
        if name == "K":
            base = model.canonical
        else:
            try:
                base = model.curves[model.curve_index(name)].coords
            except UnknownCurveName:
                known = ", ".join(c.name for c in model.curves)
                raise UnknownCurveName(
                    f"divisor {text!r}: unknown name {name!r}; "
                    f"curve names are {known}, plus K"
                ) from None
        terms.append((p, q, base))
        pos = match.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    den = lcm(*(q for _, q, _ in terms))
    total = [0] * model.rank
    for p, q, base in terms:
        f = p * (den // q)
        for j, x in enumerate(base):
            if x:
                total[j] += f * x
    return DivisorClass.from_integers(total, den)


def parse_curve_list(model: SurfaceModel, text: str) -> tuple[int, ...]:
    """Comma-separated curve names to sorted curve indices."""
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ParseError("curve list is empty")
    return tuple(sorted(model.curve_index(n) for n in names))
