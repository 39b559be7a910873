"""Model files, the divisor mini-language, and the command line driver."""

from __future__ import annotations

import argparse
import contextlib
import enum
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Any, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfbound import reporting, search, surface_io
from surfbound.cli import COMMANDS, build_parser, run_subcommand
from surfbound.bounds import INFINITY, ObstructionEntries
from surfbound.reporting import Later, dump_json, exact_value, render_text, to_payload
from surfbound.errors import CalculatorError, ParseError, UnknownCurveName
from surfbound.surface_io import (
    fixture_names,
    load_fixture,
    load_surface,
    parse_curve_list,
    parse_divisor,
    surface_from_data,
    surface_to_data,
)
from surfbound.surface import DivisorClass

from generators import random_rational, random_rationals

SRC = Path(__file__).resolve().parents[1] / "src"

VALID = {
    "schema": 1,
    "name": "f2",
    "gram": [[0, 1], [1, -2]],
    "canonical": [-4, -2],
    "curves": [
        {"name": "f", "coords": [1, 0]},
        {"name": "s", "coords": [0, 1]},
    ],
    "ample_reference": [3, 1],
}


def variant(**overrides):
    data = json.loads(json.dumps(VALID))
    data.update(overrides)
    return data


class TestSchema:
    def test_valid_document(self):
        model = surface_from_data(VALID)
        assert model.name == "f2"
        assert [c.name for c in model.curves] == ["f", "s"]
        assert model.ample_reference == (3, 1)

    def test_round_trip_all_fixtures(self, fixture_models):
        for name, model in fixture_models.items():
            data = surface_to_data(model)
            again = surface_from_data(data, origin=name)
            assert again == model

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.pop("canonical"), "canonical: missing required field"),
            (lambda d: d.update(extra=1), "extra: unknown field"),
            (lambda d: d.update(schema=7), "schema: unsupported schema 7"),
            (lambda d: d.update(name=""), "name: expected a nonempty string"),
            (lambda d: d["gram"][0].__setitem__(1, True), "gram[0][1]: expected an integer"),
            (lambda d: d["gram"].__setitem__(0, [0]), "gram[0]: expected 2 entries"),
            (lambda d: d.update(canonical=[1]), "canonical: expected 2 entries"),
            (
                lambda d: d["curves"][0].update(colour="red"),
                "curves[0].colour: unknown field",
            ),
            (
                lambda d: d["curves"][1].pop("coords"),
                "curves[1].coords: missing required field",
            ),
            (
                lambda d: d["curves"][0].update(effective=1),
                "curves[0].effective: expected true or false",
            ),
            (lambda d: d.update(ample_reference=[1]), "ample_reference: expected 2"),
            (lambda d: d.update(notes=7), "notes: expected a string"),
            (lambda d: d.update(gram=5), "gram: expected a"),
            (lambda d: d.update(curves=5), "curves: expected a list of curve objects"),
            (lambda d: d.update(canonical="ab"), "canonical: expected a list of integers"),
            (
                lambda d: d["gram"][0].__setitem__(1, 1.0),
                "gram[0][1]: expected an integer, got 1.0",
            ),
            (lambda d: d.update(ample_reference=None), "ample_reference: expected a list"),
            (lambda d: d["curves"][0].update(name=7), "curves[0].name: expected a string"),
        ],
    )
    def test_field_path_errors(self, mutate, path):
        data = variant()
        mutate(data)
        with pytest.raises(ParseError, match="^model\\.json: " + re.escape(path)):
            surface_from_data(data, origin="model.json")

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError, match="top level"):
            surface_from_data([1, 2, 3])

    def test_origin_appears_in_message(self):
        data = variant()
        del data["gram"]
        with pytest.raises(ParseError, match="myfile.json: gram"):
            surface_from_data(data, origin="myfile.json")

    def test_effective_flag_survives_round_trip(self):
        data = variant()
        data["curves"][0]["effective"] = False
        model = surface_from_data(data)
        assert not model.curves[0].effective
        assert surface_to_data(model)["curves"][0] == {
            "name": "f",
            "coords": [1, 0],
            "effective": False,
        }


def test_every_public_name_resolves():
    import surfbound

    assert len(set(surfbound.__all__)) == len(surfbound.__all__)
    assert [name for name in surfbound.__all__ if not hasattr(surfbound, name)] == []


WHY_NO_DATACLASS = (
    "each @dataclass execs its generated methods at import, about 1 ms of every "
    "process start, and the dataclasses module imports inspect, about 6 ms more: "
    "define a result record as a typing.NamedTuple and any other class by hand"
)


def test_the_package_imports_no_dataclasses():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import surfbound.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n", f"import surfbound.cli loaded {proc.stdout.split()}: {WHY_NO_DATACLASS}"
    import surfbound.cli  # noqa: F401, every module of the package

    dataclasses = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "surfbound" or name.startswith("surfbound.")
        for attr, value in vars(module).items()
        if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
    ]
    assert dataclasses == [], f"{dataclasses} are dataclasses: {WHY_NO_DATACLASS}"


# Run under python -S: the package's path, then a command. Prints whether
# importlib.resources was loaded after the import and after the command,
# the exit code and the sha256 of stdout.
ONE_COMMAND = """import contextlib, hashlib, io, sys
sys.path.insert(0, sys.argv[1])
from surfbound.cli import run_subcommand
loaded = ['importlib.resources' in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run_subcommand(sys.argv[2:])
loaded.append('importlib.resources' in sys.modules)
print(*loaded, code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_importlib_resources_loads_when_a_fixture_is_named(tmp_path):
    # it imports pathlib, tempfile, zipfile and more, about 10 ms of a
    # process start, which a model read by path does not need
    model = tmp_path / "e6.json"
    model.write_bytes((SRC / "surfbound" / "fixtures" / "ade_e6.json").read_bytes())
    tau = ["tau", "--divisor", "h"]
    results = []
    for surface in (str(model), "ade_e6"):
        proc = subprocess.run([sys.executable, "-S", "-c", ONE_COMMAND, str(SRC), *tau, "--surface", surface],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        results.append(proc.stdout.split())
    by_path, by_name = results
    assert by_path[:3] == ["False", "False", "0"]
    # the digest that tests/test_scripts.py records for this command
    assert by_name == ["False", "True", "0",
                       "81a129149ae28e2b0ee783b5cef08f58552d678e3804ba4315ff40d0e3a0de73"]
    assert by_path[3] == by_name[3]


class TestFixtureRegistry:
    def test_names_are_sorted_and_complete(self):
        names = fixture_names()
        assert names == tuple(sorted(names))
        assert len(names) == 25
        for expected in ("hirzebruch_f2", "blowup_p2", "a2_resolution",
                         "ade_a1", "ade_e8", "double_cover_d5"):
            assert expected in names

    def test_unknown_fixture_lists_alternatives(self):
        with pytest.raises(ParseError, match="available: .*ade_a1"):
            load_fixture("nonexistent")

    def test_load_surface_prefers_paths(self, tmp_path):
        target = tmp_path / "model.json"
        target.write_text(json.dumps(VALID), encoding="utf-8")
        model = load_surface(str(target))
        assert model.name == "f2"
        assert load_surface("hirzebruch_f2").name == "hirzebruch_f2"
        with pytest.raises(ParseError, match="no such file"):
            load_surface("missing/dir/model.json")

    def test_invalid_json_file(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="invalid JSON"):
            surface_io.load_surface_file(target)

    def test_all_fixtures_validate(self, fixture_models):
        for name, model in fixture_models.items():
            assert model.ample_reference is not None, name


def write_model(path: Path, data) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestModelCache:
    def test_repeated_load_returns_the_same_object(self, tmp_path):
        assert load_fixture("ade_e8") is load_fixture("ade_e8")
        target = write_model(tmp_path / "model.json", VALID)
        first = surface_io.load_surface_file(target)
        assert load_surface(str(target)) is first

    def test_rewritten_file_is_read_again(self, tmp_path):
        target = write_model(tmp_path / "model.json", VALID)
        assert surface_io.load_surface_file(target).name == "f2"
        write_model(target, variant(name="f2_again", ample_reference=[5, 2]))
        again = surface_io.load_surface_file(target)
        assert (again.name, again.ample_reference) == ("f2_again", (5, 2))

    def test_broken_file_raises_on_every_load_until_fixed(self, tmp_path):
        target = tmp_path / "model.json"
        target.write_text("{not json", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ParseError, match=f"{target}: invalid JSON"):
                surface_io.load_surface_file(target)
        write_model(target, VALID)
        assert surface_io.load_surface_file(target).name == "f2"

    def test_fixture_text_is_read_once(self):
        surface_io._fixture_text.cache_clear()
        first = load_surface("ade_e8")
        surface_io._model_from_text.cache_clear()
        again = load_surface("ade_e8")
        assert again is not first and again == first
        info = surface_io._fixture_text.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("name", ["not_a_fixture", "../fixtures/ade_e8", "ade_e8.json"])
    def test_unknown_fixture_is_not_kept(self, name):
        surface_io._fixture_text.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError, match="no bundled surface named") as info:
                load_fixture(name)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert surface_io._fixture_text.cache_info().currsize == 0

    def test_file_named_like_a_kept_fixture_wins(self, tmp_path, monkeypatch):
        assert load_surface("ade_e8").name == "ade_e8"
        monkeypatch.chdir(tmp_path)
        write_model(tmp_path / "ade_e8", VALID)
        assert load_surface("ade_e8").name == "f2"
        assert load_fixture("ade_e8").name == "ade_e8"

    def test_cache_is_bounded(self, tmp_path):
        count = surface_io.MODEL_CACHE_SIZE + 6
        paths = [write_model(tmp_path / f"m{i}.json", variant(name=f"m{i}")) for i in range(count)]
        models = [surface_io.load_surface_file(path) for path in paths]
        assert len({m.name for m in models}) == count
        assert surface_io._model_from_text.cache_info().currsize <= 64


# The file content, and the message that follows "<path>: ".
MALFORMED_FILES = {
    "not-utf8": (
        lambda: json.dumps(VALID).encode().replace(b'"f2"', b'"f\xff2"'),
        "not UTF-8 text",
    ),
    "long-integer": (
        lambda: json.dumps(VALID).replace("[[0,", "[[" + "9" * 5000 + ",").encode(),
        "invalid JSON: an integer has more than",
    ),
    "deep-nesting": (
        lambda: b"[" * 100_000 + b"]" * 100_000,
        "invalid JSON: nested too deeply",
    ),
    # text output prints the name raw, so a line break would forge lines
    "name-with-line-break": (
        lambda: json.dumps(variant(name="x\nvalid: False\nrank: 99")).encode(),
        "name: expected printable characters",
    ),
    # JSON keeps the last of two equal keys, which would load and validate
    "duplicate-key": (
        lambda: json.dumps(VALID).replace('"curves":', '"curves": [], "curves":').encode(),
        'duplicate key "curves"',
    ),
    "duplicate-curve-key": (
        lambda: json.dumps(VALID).replace('"coords": [1, 0]', '"coords": [0, 1], "coords": [1, 0]').encode(),
        'duplicate key "coords"',
    ),
    # both equal 1 in Python
    "schema-true": (
        lambda: json.dumps(variant(schema=True)).encode(),
        "schema: unsupported schema true; this reader handles 1",
    ),
    "schema-float": (
        lambda: json.dumps(variant(schema=1.0)).encode(),
        "schema: unsupported schema 1.0; this reader handles 1",
    ),
    # a rule of the model, not of the JSON layout
    "asymmetric-gram": (
        lambda: json.dumps(variant(gram=[[0, 1], [2, -2]])).encode(),
        "gram: matrix must be symmetric",
    ),
}


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "content,message", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys()
    )
    def test_exits_one_naming_the_path(self, tmp_path, capsys, content, message):
        target = tmp_path / "model.json"
        target.write_bytes(content())
        with pytest.raises(ParseError, match=f"^{re.escape(str(target))}: "):
            surface_io.load_surface_file(target)
        assert run_subcommand(["validate", "--surface", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {target}: {message}")
        assert "Traceback" not in captured.err


class TestParseDivisor:
    @pytest.fixture
    def f2(self, fixture_models):
        return fixture_models["hirzebruch_f2"]

    def test_zero(self, f2):
        assert parse_divisor(f2, "0").is_zero

    def test_coordinates(self, f2):
        assert parse_divisor(f2, "3,1").coords == (Q(3), Q(1))
        assert parse_divisor(f2, " 3/2, -1 ").coords == (Q(3, 2), Q(-1))
        assert parse_divisor(f2, "-2,+1").coords == (Q(-2), Q(1))
        assert parse_divisor(f2, "+\t3,\t-1").coords == (Q(3), Q(-1))

    def test_expressions(self, f2):
        assert parse_divisor(f2, "2*f + s").coords == (Q(2), Q(1))
        assert parse_divisor(f2, "2f+s").coords == (Q(2), Q(1))
        assert parse_divisor(f2, "f - K").coords == (Q(5), Q(2))
        assert parse_divisor(f2, "1/2 * s").coords == (Q(0), Q(1, 2))
        assert parse_divisor(f2, "K").coords == (Q(-4), Q(-2))

    def test_random_expressions_agree_with_fraction_sums(self, fixture_models, rng):
        # the parser sums in integers; the reference sums Fraction coordinates
        model = fixture_models["ade_e6"]
        bases = [("K", model.canonical)] + [(c.name, c.coords) for c in model.curves]
        for _ in range(100):
            text, want = "", [Q(0)] * model.rank
            for name, base in rng.sample(bases, rng.randint(1, 5)):
                coeff = random_rational(rng)
                sign = "-" if coeff < 0 else "+"
                text += f"{sign} {abs(coeff)}*{name} "
                want = [w + coeff * x for w, x in zip(want, base)]
            d = parse_divisor(model, text.removeprefix("+ "))
            assert d.coords == tuple(want) and d == DivisorClass(want)
            coords = random_rationals(rng, model.rank)
            assert parse_divisor(model, ", ".join(map(str, coords))) == DivisorClass(coords)

    def test_wrong_coordinate_count(self, f2):
        with pytest.raises(ParseError, match="expected 2 coordinates"):
            parse_divisor(f2, "1,2,3")

    def test_unknown_name_lists_curves(self, f2):
        with pytest.raises(UnknownCurveName, match="curve names are f, s"):
            parse_divisor(f2, "f + q")

    def test_garbage_rejected(self, f2):
        for bad in ("", "  ", "f ++ s", "2*", "f s", "1/0*f", "f+1/0*s", "1/0,1"):
            with pytest.raises(ParseError):
                parse_divisor(f2, bad)

    def test_curve_list(self, f2):
        assert parse_curve_list(f2, "s,f") == (0, 1)
        assert parse_curve_list(f2, " s ") == (1,)
        with pytest.raises(ParseError):
            parse_curve_list(f2, " , ")
        with pytest.raises(UnknownCurveName):
            parse_curve_list(f2, "f,zz")


def _dashdash_cases() -> list:
    """One command line per option that takes a value, in each of its
    spellings, on every subcommand that has it, with the option's long
    spelling: the option is written -x=-- or --name=--, and each other
    required option gets a value."""
    required = {"surface": "ade_a3", "divisor": "h", "curves": "c1"}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    cases = []
    for command, parser in sub.choices.items():
        values = [a for a in parser._actions if a.option_strings and a.nargs is None]
        for action in values:
            others = [
                arg
                for a in values
                if a.required and a is not action
                for arg in (a.option_strings[-1], required[a.dest])
            ]
            for flag in action.option_strings:
                cases.append(pytest.param(
                    [command, *others, f"{flag}=--"], action.option_strings[-1],
                    id=f"{command}{flag}",
                ))
    return cases


def run_json(capsys, argv):
    code = run_subcommand(argv + ["--json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestCommandLine:
    def test_validate_fixture(self, capsys):
        code, payload = run_json(capsys, ["validate", "--surface", "hirzebruch_f2"])
        assert code == 0
        assert payload["surface"] == "hirzebruch_f2"
        assert payload["valid"] is True

    def test_zariski_known_split(self, capsys):
        code, payload = run_json(
            capsys,
            ["zariski", "--surface", "hirzebruch_f2", "--divisor", "f + s", "--oracle"],
        )
        assert code == 0
        assert payload["positive"]["text"] == "1,1/2"
        assert payload["negative"]["text"] == "0,1/2"
        assert payload["support"] == ["s"]
        assert payload["coefficients"]["s"]["exact"] == "1/2"
        assert payload["oracle_checked"] is True
        assert payload["h1_correction"]["c2"]["exact"] == "1/4"

    def test_zariski_rejects_non_pseudo_effective(self, capsys):
        code = run_subcommand(
            ["zariski", "--surface", "hirzebruch_f2", "--divisor=-1,0"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_errors_exit_two(self, capsys):
        assert run_subcommand(["zariski", "--surface", "hirzebruch_f2"]) == 2
        assert run_subcommand(["no-such-command"]) == 2
        # the box oracles search the box their inputs give: no margin option
        capsys.readouterr()
        for argv in (
            ["zariski", "--surface", "hirzebruch_f2", "--divisor", "f+s", "--oracle"],
            ["obstructions", "--surface", "a2_resolution", "--divisor", "1,0,0", "--oracle"],
            ["fundcycle", "--surface", "a2_resolution", "--curves", "c1,c2", "--oracle"],
        ):
            assert run_subcommand(argv + ["--box-margin", "3"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --box-margin" in captured.err
        # text is the default output; there is no option for it
        assert run_subcommand(["validate", "--surface", "hirzebruch_f2", "--text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --text" in captured.err

    def test_options_of_each_subcommand(self):
        # every option of the CLI, so that a new one shows up as a diff here
        system = ["--surface", "--json", "--divisor", "-T", "--twist"]
        table = {
            "validate": ["--surface", "--json"],
            "zariski": ["--surface", "--json", "--divisor", "--oracle"],
            "fundcycle": ["--surface", "--json", "--oracle", "--curves"],
            "exceptional": ["--surface", "--json", "--divisor"],
            "tau": system,
            "obstructions": system + ["-k", "--cluster", "--oracle"],
            "ek": system + ["-k", "--cluster"],
            "bounds": system + ["-k", "--cluster", "-n", "--multiple"],
            "thresholds": system + [
                "-k", "--cluster", "-n", "--multiple",
                "--assert-no-fixed-part", "--assert-base-point-free",
            ],
            "compare-matsusaka": ["--surface", "--json", "--divisor"],
            "report": system + [
                "-k", "--cluster", "-n", "--multiple",
                "--assert-no-fixed-part", "--assert-base-point-free",
            ],
        }
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: [
                tuple(a.option_strings)
                for a in parser._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)
            ]
            for name, parser in sub.choices.items()
        }
        assert {name: [s for o in opts for s in o] for name, opts in options.items()} == table
        assert len({o for opts in options.values() for o in opts}) == 10
        assert sum(map(len, options.values())) == 53

    @pytest.mark.parametrize(
        "argv",
        [
            ["zariski", "--surface", "hirzebruch_f2", "--divisor", "1/0*f+s"],
            ["tau", "--surface", "ade_a3", "--divisor", "h", "--twist=1/0*c1"],
        ],
        ids=["divisor", "twist"],
    )
    def test_zero_denominator_exits_one(self, capsys, argv):
        assert run_subcommand(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: divisor {argv[-1].removeprefix('--twist=')!r}: "
            "coefficient '1/0' has a zero denominator\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["tau", "--surface", "ade_a2", "--divisor", "h", f"--twist={'9' * 4301}*c1"],
            ["zariski", "--surface", "ade_a2", "--divisor", f"1/{'7' * 4301},0,0"],
        ],
        ids=["expression", "coordinates"],
    )
    def test_coefficient_beyond_digit_limit_exits_one(self, capsys, argv):
        assert run_subcommand(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: divisor: a coefficient has more than {sys.get_int_max_str_digits()} "
            "digits, the limit for reading an integer\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["obstructions", "--surface", "a2_resolution", "--divisor", "1,0,0", "-k", "-5"],
            ["thresholds", "--surface", "hirzebruch_f2", "--divisor", "2,1", "-k", "-3"],
            ["bounds", "--surface", "double_cover_d5", "--divisor", "H", "-n", "-3"],
        ],
        ids=["negative-k", "negative-k-table", "negative-n"],
    )
    def test_out_of_domain_values_exit_two(self, capsys, argv):
        assert run_subcommand(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at least" in captured.err

    def test_orthogonal_block_that_is_not_negative_definite_exits_one(self, tmp_path, capsys):
        # A = (1, 0) is nef and big, and both curves are orthogonal to it,
        # but c and d = -c span the singular block [[-2, 2], [2, -2]]; with
        # no ample reference nothing rejects the model when it is loaded
        data = {
            "schema": 1,
            "name": "semidefinite",
            "gram": [[2, 0], [0, -2]],
            "canonical": [0, 0],
            "curves": [{"name": "c", "coords": [0, 1]}, {"name": "d", "coords": [0, -1]}],
        }
        target = write_model(tmp_path / "model.json", data)
        assert run_subcommand(["tau", "--surface", str(target), "--divisor", "1,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: curves orthogonal to a big class must span a negative definite block\n"
        )

    @pytest.mark.parametrize("argv, option", _dashdash_cases())
    def test_dashdash_as_a_value_exits_two(self, capsys, argv, option):
        # argparse gives an option written --name=-- or -x=-- the value []
        assert run_subcommand(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        command = argv[0]
        assert captured.err.startswith(f"usage: surfbound {command} [-h] ")
        line = f"surfbound {command}: error: argument {option}: expected one argument"
        assert captured.err.splitlines()[-1] == line

    def test_closed_stdout_exits_quietly(self):
        # the reader is gone before the first write, as in `... | head -0`
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.Popen(
            [sys.executable, "-m", "surfbound.cli", "obstructions", "--surface", "ade_e8",
             "--divisor", "h", "-k", "2", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""

    def test_help_exits_zero(self, capsys, monkeypatch):
        # help is argparse's own text, for the top level and every subcommand
        monkeypatch.setenv("COLUMNS", "100")
        parser = build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(commands.choices) == [name for name, _, _, _ in COMMANDS]
        owners = [([], parser), *(([name], sub) for name, sub in commands.choices.items())]
        for (head, owner), flag in itertools.product(owners, ("-h", "--help")):
            assert run_subcommand([*head, flag]) == 0
            assert capsys.readouterr().out == owner.format_help(), [*head, flag]

    def test_fundcycle_with_oracle(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "fundcycle",
                "--surface", "a2_resolution",
                "--curves", "c1,c2",
                "--oracle",
            ],
        )
        assert code == 0
        assert payload["coefficients"] == {"c1": 1, "c2": 1}
        assert payload["multiplicity"] == 2
        assert payload["genus"] == 0
        assert payload["rational"] is True
        assert payload["oracle_checked"] is True

    @pytest.mark.parametrize("name", [n for n in fixture_names() if n.startswith("ade_")])
    def test_fundcycle_oracle_on_every_ade_fixture(self, capsys, fixture_models, name):
        # the oracle searches {1..max(Z)}^r, which holds the Laufer cycle Z
        curves = ",".join(c.name for c in fixture_models[name].curves if c.name != "h")
        code, payload = run_json(
            capsys, ["fundcycle", "--surface", name, "--curves", curves, "--oracle"]
        )
        assert code == 0
        assert payload["oracle_checked"] is True

    def test_empty_mapping_renders_as_braces(self, capsys):
        # an ample class: the negative part has no support
        code = run_subcommand(["zariski", "--surface", "hirzebruch_f2", "--divisor", "3,1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "coefficients: {}" in lines
        assert "support: []" in lines

    def test_exceptional_components(self, capsys):
        code, payload = run_json(
            capsys,
            ["exceptional", "--surface", "a2_resolution", "--divisor", "1,0,0"],
        )
        assert code == 0
        assert payload["orthogonal_curves"] == ["c1", "c2"]
        assert len(payload["components"]) == 1
        assert payload["components"][0]["curves"] == ["c1", "c2"]
        assert payload["all_rational"] is True

    def test_tau_finite_and_infinite(self, capsys):
        code, payload = run_json(
            capsys, ["tau", "--surface", "a2_resolution", "--divisor", "1,0,0"]
        )
        assert code == 0
        assert payload["tau"] == {"exact": "2", "approx": 2.0}
        assert payload["finite"] is True

        code, payload = run_json(
            capsys, ["tau", "--surface", "double_cover_d5", "--divisor", "H"]
        )
        assert code == 0
        assert payload["tau"] == {"exact": "inf", "approx": None}
        assert payload["finite"] is False

    def test_obstructions_with_oracle(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "obstructions",
                "--surface", "a2_resolution",
                "--divisor", "1,0,0",
                "-k", "2",
                "--oracle",
            ],
        )
        assert code == 0
        obs = payload["obstructions"]
        assert obs["count"] == 3
        assert obs["support_names"] == ["c1", "c2"]
        assert obs["oracle_checked"] is True
        assert all(e["value"]["exact"] == "2" for e in obs["entries"])

    def test_oracle_catches_a_wrong_value(self, capsys, monkeypatch):
        # the search keeps every point but reports each value one too high:
        # den less budget at each leaf
        found = search.fincke_pohst

        def shifted(form, top):
            for tail, first, rests in found(form, top):
                yield tail, first, [rest - form.den for rest in rests]

        monkeypatch.setattr(search, "fincke_pohst", shifted)
        argv = ["obstructions", "--surface", "a2_resolution", "--divisor", "1,0,0", "-k", "2"]
        assert run_subcommand(argv + ["--oracle"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "oracle mismatch: search found (0, 1) with value 3, box found (0, 1) with value 2\n"
        )

    def test_oracle_catches_a_wrong_divisor(self, capsys, monkeypatch):
        # the search keeps every point and value but moves the first divisor
        runs = ObstructionEntries.runs

        def shifted(self):
            for i, (head, first, coords, rests) in enumerate(runs(self)):
                yield head, first, (coords[0] + (i == 0), *coords[1:]), rests

        monkeypatch.setattr(ObstructionEntries, "runs", shifted)
        argv = ["obstructions", "--surface", "a2_resolution", "--divisor", "1,0,0", "-k", "2"]
        assert run_subcommand(argv) == 0  # nothing checks a divisor without the oracle
        capsys.readouterr()
        assert run_subcommand(argv + ["--oracle"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "oracle mismatch: search found (0, 1) with divisor (1, 0, 1), "
            "box found (0, 1) with divisor (0, 0, 1)\n"
        )

    def test_oracle_runs_the_search_once(self, capsys, monkeypatch):
        # the writer streams the rows the oracle checked, so the output is
        # the same as without the oracle but for oracle_checked
        calls = []
        found = search.fincke_pohst

        def counted(*args):
            calls.append(args)
            return found(*args)

        monkeypatch.setattr(search, "fincke_pohst", counted)
        argv = [
            "obstructions", "--surface", "ade_d4", "--divisor", "h", "--twist=K", "-k", "2", "--json"
        ]
        outs = []
        for extra in ([], ["--oracle"]):
            calls.clear()
            assert run_subcommand(argv + extra) == 0
            assert len(calls) == 1, extra
            outs.append(capsys.readouterr().out)
        plain, checked = outs
        assert json.loads(plain)["obstructions"]["count"] == 12
        assert '"oracle_checked": false' in plain
        assert checked == plain.replace('"oracle_checked": false', '"oracle_checked": true')

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_obstructions_payload_writes_whole_twice(self, oracle):
        # the entries are a source of rows, which each writer pass reads anew
        argv = ["obstructions", "--surface", "ade_d4", "--divisor", "h", "-k", "2", *oracle]
        args = build_parser().parse_args(argv)
        result = args.handler(args)
        texts = []
        for write in (dump_json, dump_json, render_text, render_text):
            out = io.StringIO()
            write(result, out)
            texts.append(out.getvalue())
        assert texts[0] == texts[1] and texts[2] == texts[3]
        obs = json.loads(texts[1])["obstructions"]
        assert len(obs["entries"]) == obs["count"] == 12  # the positive roots of D4

    def test_writers_leave_no_garbage(self):
        # a reference cycle through a writer's closures would keep stdout
        # alive until the collector ran
        argvs = (
            ["thresholds", "--surface", "ade_e6", "--divisor", "h", "-k", "1", "--json"],
            ["obstructions", "--surface", "ade_d4", "--divisor", "h", "-k", "2"],
        )
        enabled = gc.isenabled()
        gc.disable()
        try:
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert run_subcommand(argv) == 0
                assert out.getvalue()
                ref = weakref.ref(out)
                del out
                assert ref() is None, argv
        finally:
            if enabled:
                gc.enable()

    def test_ek_payload(self, capsys):
        code, payload = run_json(
            capsys,
            ["ek", "--surface", "hirzebruch_f2", "--divisor", "2,1", "-k", "1"],
        )
        assert code == 0
        assert payload["correction"]["support_names"] == ["s"]
        assert payload["correction"]["coefficients"] == [1]
        assert payload["separating"]["pieces"][0]["component_names"] == ["s"]

    def test_bounds_payload(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "bounds",
                "--surface", "double_cover_d5",
                "--divisor", "H",
                "-n", "5", "-k", "2",
            ],
        )
        assert code == 0
        assert payload["threshold"] == {"exact": "5/2", "approx": 2.5}
        assert payload["check"]["holds"] is True

    def test_compare_matsusaka_values(self, capsys):
        code, payload = run_json(
            capsys, ["compare-matsusaka", "--surface", "double_cover_d5", "--divisor", "H"]
        )
        assert code == 0
        assert payload["k_plus_4h"] == {
            "bound": {"exact": "175/4", "approx": 43.75},
            "least_n": 44,
        }
        assert payload["k_plus_2h"]["bound"]["exact"] == "95/4"
        assert payload["k_plus_2h"]["least_n"] == 24
        assert payload["here"] == {
            "bound": {"exact": "9/2", "approx": 4.5},
            "least_n": 5,
        }

    def test_report_runs_full_pipeline(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "report",
                "--surface", "hirzebruch_f2",
                "--divisor", "3f + 2s",
                "-n", "2",
            ],
        )
        assert code == 0
        assert payload["kappa_is_two"] is True
        assert "k_very_ample" in payload["report"]["thresholds"]
        assert payload["report"]["tau"] == {"exact": "2", "approx": 2.0}

    def test_value_beyond_float_range(self, capsys):
        big = "1" + "0" * 400
        argv = ["zariski", "--surface", "hirzebruch_f2", "--divisor", f"{big},1"]
        assert run_subcommand(argv) == 0  # text mode
        assert f"text: {big},1" in capsys.readouterr().out
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["input"]["coords"][0] == {"exact": big, "approx": None}
        assert payload["input"]["coords"][1] == {"exact": "1", "approx": 1.0}

    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
    def test_result_beyond_digit_limit_exits_one(self, capsys, mode):
        # every input is under the limit, but A^2 has about 6000 digits
        big = "1" + "0" * 3000
        argv = ["bounds", "--surface", "hirzebruch_f2", "--divisor", f"{big},1", "-k", "0"]
        assert run_subcommand(argv + mode) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: a result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer\n"
        )

    def test_text_and_json_share_exact_values(self, capsys):
        args = ["tau", "--surface", "a2_resolution", "--divisor", "1,0,0"]
        code, payload = run_json(capsys, args)
        assert code == 0
        assert run_subcommand(args) == 0  # default text mode
        text = capsys.readouterr().out
        assert "tau: 2" in text
        assert payload["tau"]["exact"] == "2"

    def test_unknown_fixture_exits_one(self, capsys):
        assert run_subcommand(["validate", "--surface", "not_a_fixture"]) == 1
        assert "available" in capsys.readouterr().err


_JSON_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "caf\u00e9 \u20ac \U0001f600", ""]
)
# exact_value leaves: ints, Fractions, values beyond float range (approx
# null) and INFINITY
_EXACT_VALUES = st.one_of(
    st.integers(min_value=-(2**100), max_value=2**100),
    st.fractions(max_denominator=10**12),
    st.builds(Q, st.integers(min_value=-(10**400), max_value=10**400),
              st.integers(min_value=1, max_value=10**60)),
    st.sampled_from([Q(10**400, 3), -(10**309), INFINITY]),
).map(exact_value)
_JSON_SCALARS = st.one_of(
    _EXACT_VALUES,
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 0.1]),
    _JSON_STRINGS,
)
JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=30,
)


def dumped(tree) -> str:
    out = io.StringIO()
    dump_json(tree, out)
    return out.getvalue()


def rendered(tree) -> str:
    out = io.StringIO()
    render_text(tree, out)
    return out.getvalue()


def _listed(tree):
    """The tree with each tuple made a list and each Later its value."""
    if type(tree) is Later:
        return _listed(tree.make())
    if type(tree) is dict:
        return {key: _listed(value) for key, value in tree.items()}
    if type(tree) in (list, tuple):
        return [_listed(item) for item in tree]
    return tree


def _lazy(tree):
    """The tree with each item of a list or a tuple made a Later."""
    if type(tree) is dict:
        return {key: _lazy(value) for key, value in tree.items()}
    if type(tree) in (list, tuple):
        return type(tree)(Later(lambda item=_lazy(item): item) for item in tree)
    return tree


class TestDumpJson:
    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    def test_equals_stdlib(self, tree):
        assert dumped(tree) == json.dumps(tree, indent=2) + "\n"

    @pytest.mark.parametrize(
        "tree",
        [
            {"a": {None: 0}},
            {(1,): 0},
            {1, 2},
            [{"a": {1}}],
            {"a": [OrderedDict(b=1)]},
            [[{"a": {2: {(1,): 0}}}]],
        ],
        ids=["none-key", "tuple-key", "set", "nested-set", "dict-subclass", "deep-tuple-key"],
    )
    def test_other_types_raise(self, tree):
        with pytest.raises(TypeError):
            dumped(tree)
        with pytest.raises(TypeError):
            rendered(tree)

    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    def test_text_renders_a_tuple_as_a_list_and_a_later_as_its_value(self, tree):
        text = rendered(_listed(tree))
        assert rendered(tree) == text
        assert rendered(_lazy(tree)) == text

    def test_text_writes_an_exact_value_as_a_leaf(self):
        tree = {
            "tau": exact_value(2),
            "bound": exact_value(Q(9, 4)),
            "coords": [exact_value(Q(-7, 2)), exact_value(5), exact_value(INFINITY)],
        }
        out = io.StringIO()
        render_text(tree, out)
        assert out.getvalue() == "tau: 2\nbound: 9/4 (2.25)\ncoords: [-7/2 (-3.5), 5, inf]\n"


def _float_or_none(frac: Q):
    try:
        return float(frac)
    except OverflowError:
        return None


@dataclass(frozen=True)
class _Result:
    value: Q
    label: str


class _PlainSubclass(_Result):
    pass


@dataclass(frozen=True)
class _DataSubclass(_Result):
    extra: tuple = ()


class _Pair(NamedTuple):
    left: Q
    right: int


class _Mapping(dict):
    pass


HALF = {"exact": "1/2", "approx": 0.5}


class TestPayload:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=-(10**500), max_value=10**500),
        st.integers(min_value=1, max_value=10**500),
    )
    @example(10**400 + 1, 10**399)
    @example(-(10**400) - 1, 10**399)
    @example(3**700, 2**1100)
    @example(10**400, 3)
    @example(-(10**400), 7)
    @example(1, 10**400)
    def test_approx_is_the_float_of_the_fraction(self, numerator, denominator):
        frac = Q(numerator, denominator)
        payload = exact_value(frac)
        assert payload["approx"] == _float_or_none(frac)
        assert payload["exact"] == str(frac)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-(10**500), max_value=10**500))
    @example(10**400)
    @example(-(10**309))
    @example(2**1024 - 1)
    def test_int_is_exact_as_its_fraction(self, n):
        # obstruction entries carry int coordinates
        assert exact_value(n) == exact_value(Q(n))

    def test_int_beyond_float_range_and_digit_limit(self):
        assert exact_value(10**400) == {"exact": str(10**400), "approx": None}
        with pytest.raises(CalculatorError, match="digits"):
            exact_value(10 ** sys.get_int_max_str_digits())

    def test_overflow_gives_null(self):
        assert exact_value(Q(10**400, 3)) == {"exact": f"{10**400}/3", "approx": None}
        assert exact_value(Q(10**400 + 1, 10**399))["approx"] == 10.0

    @pytest.mark.parametrize(
        "value,payload",
        [
            (_PlainSubclass(Q(1, 2), "a"), {"value": HALF, "label": "a"}),
            (
                _DataSubclass(Q(1, 2), "b", (Q(1, 2), 3)),
                {"value": HALF, "label": "b", "extra": [HALF, 3]},
            ),
        ],
        ids=["dataclass-subclass", "dataclass-subclass-fields"],
    )
    def test_subclasses_serialize_as_before(self, value, payload):
        for _ in range(2):  # the second call reads the cached field names
            assert dumped(value) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "result,payload",
        [
            ({1: "a", "b": {2: Q(1, 2)}}, {"1": "a", "b": {"2": exact_value(Q(1, 2))}}),
            (Q(1, 2), exact_value(Q(1, 2))),
            (
                [0, [{"a": (Q(1, 3), DivisorClass((Q(1, 3), 2)), _Result(Q(-1, 2), "x"))}]],
                [0, [{"a": [
                    exact_value(Q(1, 3)),
                    {"coords": [exact_value(Q(1, 3)), exact_value(2)], "text": "1/3,2"},
                    {"value": exact_value(Q(-1, 2)), "label": "x"},
                ]}]],
            ),
            (_Pair(Q(1, 2), 4), {"left": exact_value(Q(1, 2)), "right": 4}),
        ],
        ids=["int-key", "fraction", "deep-in-a-list", "namedtuple"],
    )
    def test_result_values_are_written(self, result, payload):
        # the writers convert each value as they reach it; a NamedTuple is a
        # record, written as the dict of its fields and never as a list
        assert dumped(result) == json.dumps(payload, indent=2) + "\n"
        assert rendered(result) == rendered(payload)

    @pytest.mark.parametrize(
        "value",
        [
            enum.IntEnum("Level", "LOW HIGH").HIGH,
            _Mapping({"k": [True, None]}),
            [0, _Mapping()],
        ],
        ids=["int-enum", "dict-subclass", "nested-dict-subclass"],
    )
    def test_other_subclasses_raise(self, value):
        # only a record, a NamedTuple or a dataclass, is converted by what it
        # derives from
        if type(value) is not list:  # a list is for the writers to walk
            with pytest.raises(TypeError, match="cannot serialize"):
                to_payload(value)
        with pytest.raises(TypeError, match="cannot serialize"):
            dumped(value)
        with pytest.raises(TypeError, match="cannot serialize"):
            rendered(value)


class _Cell(NamedTuple):
    value: Any
    label: str


class _NoFields(NamedTuple):
    pass


# More digits than str() writes: no output mode may print such a value. A
# Later holds it, as no repr may show it either.
_PAST_DIGIT_LIMIT = Later(lambda: Q(10 ** sys.get_int_max_str_digits(), 7))
# Raw result values as the handlers return them: Fractions, beyond float
# range too, ints, INFINITY and divisors with a denominator, in lists,
# tuples, dicts, NamedTuple records and Laters.
_RAW_LEAVES = st.one_of(
    st.fractions(max_denominator=10**12),
    st.builds(Q, st.integers(min_value=-(10**400), max_value=10**400),
              st.integers(min_value=1, max_value=10**60)),
    st.sampled_from([Q(10**400, 3), Q(-(10**309)), INFINITY, _NoFields()]),
    st.lists(st.fractions(max_denominator=12) | st.integers(-9, 9), max_size=4).map(DivisorClass),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.none() | st.booleans() | _JSON_STRINGS | st.floats(allow_nan=False, allow_infinity=False),
)
RAW_TREES = st.recursive(
    _RAW_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS | st.integers(-3, 3), children, max_size=4),
        st.builds(_Cell, children, _JSON_STRINGS),
        children.map(lambda tree: Later(lambda: tree)),
    ),
    max_leaves=20,
)


def _reference(value):
    """The --json payload of a raw result, made from str() and float() alone."""
    if type(value) is Later:
        return _reference(value.make())
    if value is INFINITY:
        return {"exact": "inf", "approx": None}
    if type(value) is Q:
        return {"exact": str(value), "approx": _float_or_none(value)}
    if type(value) is DivisorClass:
        coords = [Q(x, value.den) for x in value.num]
        return {"coords": [_reference(c) for c in coords], "text": ",".join(map(str, coords))}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _reference(item) for name, item in zip(value._fields, value)}
    if type(value) is dict:
        return {key: _reference(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return [_reference(item) for item in value]
    return value


def _converted(value):
    """The raw result converted value by value through to_payload."""
    while type(value) not in reporting._NODES:
        value = to_payload(value)
    if type(value) is dict:
        return {key: _converted(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return type(value)(_converted(item) for item in value)
    return value


def _at_two_depths(tree):
    """The tree's values at the top and three levels below it."""
    return {"top": tree, "deep": [[{"again": tree}], tree]}


class TestRawResults:
    """The writers render exact values, divisors and records straight to
    text, each once per value and indent; the output is as if each value
    had been converted to its payload first."""

    @settings(max_examples=200, deadline=None)
    @given(RAW_TREES)
    @example([_PAST_DIGIT_LIMIT])
    @example(_Cell(Later(lambda: DivisorClass([_PAST_DIGIT_LIMIT.make(), 1])), "x"))
    @example([Q(1, 3), [Q(1, 3), DivisorClass([Q(1, 3)]), [DivisorClass([Q(1, 3)])]]])
    def test_json_equals_stdlib_on_the_reference(self, tree):
        tree = _at_two_depths(tree)
        try:
            expected = json.dumps(_reference(tree), indent=2) + "\n"
        except ValueError:  # str() refuses an int beyond the digit limit
            with pytest.raises(CalculatorError, match="digits"):
                dumped(tree)
            return
        assert dumped(tree) == expected

    @pytest.mark.parametrize("tree,text", [
        ({}, ""), (_NoFields(), ""), ([], ""), ([{}], "- {}\n"), ([[]], "-\n"),
        ({"a": {}}, "a: {}\n"), ({"a": _NoFields()}, "a: {}\n"), ([_NoFields()], "- {}\n"),
        (Q(1, 2), "1/2 (0.5)\n"), (INFINITY, "inf\n"), (None, "-\n"),
    ])
    def test_text_at_the_top(self, tree, text):
        # an empty mapping at the top writes no line, and {} as a value
        assert rendered(tree) == text

    @settings(max_examples=200, deadline=None)
    @given(RAW_TREES)
    @example([_PAST_DIGIT_LIMIT])
    @example([Q(1, 3), [Q(1, 3), DivisorClass([Q(1, 3)]), [DivisorClass([Q(1, 3)])]]])
    def test_text_equals_the_converted_tree(self, tree):
        tree = _at_two_depths(tree)
        try:
            converted = _converted(tree)
        except CalculatorError:
            with pytest.raises(CalculatorError, match="digits"):
                rendered(tree)
            return
        assert rendered(tree) == rendered(converted)


# Per fixture: a nef and big class with orthogonal curves, an ample class,
# and a connected negative definite curve set.
CONTRACT_FIXTURES = {
    "a2_resolution": ("h", "2,-1,-1", "c1,c2"),
    "ade_d4": ("h", "5,-3,-5,-3,-3", "c1,c2,c3,c4"),
    "hirzebruch_f2": ("2*f+s", "3,1", "s"),
}


def _handler_argvs(surface: str) -> list[list[str]]:
    """One command line of each subcommand on the fixture."""
    a, ample, curves = CONTRACT_FIXTURES[surface]
    common = ["--surface", surface]
    system = common + ["--divisor", a, "--twist", "K"]
    return [
        ["validate", *common],
        ["zariski", *common, "--divisor", a],
        ["fundcycle", *common, "--curves", curves],
        ["exceptional", *common, "--divisor", a],
        ["tau", *system],
        ["obstructions", *system, "-k", "1"],
        ["ek", *system, "-k", "1"],
        ["bounds", *system, "-k", "1", "-n", "3"],
        ["thresholds", *system, "-k", "1", "-n", "3"],
        ["compare-matsusaka", *common, "--divisor", ample],
        ["report", *system, "-k", "1", "-n", "3"],
    ]


class TestPayloadContract:
    """A handler returns results, and the writers take them as they are:
    they write each payload value as it is, and give each other value to
    to_payload, which converts that one value."""

    @pytest.mark.parametrize("surface", sorted(CONTRACT_FIXTURES))
    def test_payload_of_a_payload_is_itself(self, surface, monkeypatch):
        convert = reporting.to_payload

        def checked(value):
            assert type(value) not in reporting._NODES, value
            return convert(value)

        # the writers give to_payload only the values that are not payload values
        monkeypatch.setattr(reporting, "to_payload", checked)
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        commands = _handler_argvs(surface)
        assert [argv[0] for argv in commands] == list(sub.choices)
        for argv in commands:
            args = parser.parse_args(argv)
            result = args.handler(args)
            once = dumped(result)
            rendered(result)
            # the written payload, read back, writes as itself
            assert dumped(json.loads(once)) == once, argv

    def test_entries_and_later_come_back_as_the_same_objects(self):
        from surfbound.bounds import Analysis
        from surfbound.reporting import EntriesNode, Later

        model = load_fixture("ade_d4")
        analysis = Analysis(model, parse_divisor(model, "h"), model.zero_divisor())
        node = to_payload(analysis.enumerate_obstructions(2).entries)
        later = Later(lambda: node.count)
        assert type(node) is EntriesNode
        assert to_payload(later) == 0
        # the writer streams the node it is given, then makes the Later
        payload = json.loads(dumped({"entries": node, "count": [later]}))
        assert payload["count"] == [len(payload["entries"])] == [node.count] == [12]
        assert rendered({"entries": node, "count": later}).endswith(f"count: {node.count}\n")

    def test_floats_and_converted_values_pass_unchanged(self):
        result = {"x": Q(1, 2), "y": DivisorClass((Q(1, 3), 2)), "z": 0.25}
        converted = {"x": to_payload(result["x"]), "y": to_payload(result["y"]), "z": 0.25}
        assert converted == {
            "x": HALF,
            "y": {
                "coords": [{"exact": "1/3", "approx": 1 / 3}, {"exact": "2", "approx": 2.0}],
                "text": "1/3,2",
            },
            "z": 0.25,
        }
        assert dumped(result) == dumped(converted) == json.dumps(converted, indent=2) + "\n"
        assert rendered(result) == rendered(converted)
