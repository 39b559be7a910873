"""Streamed obstruction output, byte for byte.

`obstructions` and `report` hand the writers an EntriesNode, which they
write one entry at a time, and Later values, which they make after it. Each
test here materializes the same result into plain lists and dicts, value by
value through to_payload, and requires the streamed stdout to equal
`json.dumps(payload, indent=2)` or the lines render_text writes of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from itertools import islice
from pathlib import Path
from typing import Optional

import pytest

from surfbound import cli, reporting, search, surface_io
from surfbound.errors import CalculatorError, ModelInconsistent
from surfbound.reporting import EntriesNode, render_text, to_payload
from surfbound.surface import DivisorClass

from generators import block_model

SRC = Path(__file__).resolve().parents[1] / "src"


def materialize(value):
    """The payload of a result as the generic writers see it, made in
    payload order: each value that is not a payload value becomes its
    to_payload, as the writers convert it, and an EntriesNode the list of the
    payloads of its entries. Only plain dicts and sequences are copied, so an
    exact value stays the leaf type that render_text knows."""
    while type(value) not in reporting._NODES:
        value = to_payload(value)
    if isinstance(value, EntriesNode):
        rows = list(value.rows())
        # what the writers' loop counts and keeps for the Later values after it
        value.count = len(rows)
        value.least = min(rows, key=lambda row: (row[2], row[0]), default=None)
        return [
            materialize({"coefficients": c, "divisor": DivisorClass(coords), "value": v})
            for c, coords, v in rows
        ]
    if type(value) is dict:
        return {key: materialize(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return [materialize(item) for item in value]
    return value


def assert_streamed_as_materialized(capsys, argv: list[str]) -> Optional[dict]:
    """The streamed stdout of argv against its materialized payload; a
    command that fails does so with exit code 1 and empty stdout, and
    gives None."""
    args = cli._parser().parse_args(argv)
    try:
        payload = materialize(args.handler(args))
    except CalculatorError:
        assert cli.run_subcommand(argv) == 1
        assert capsys.readouterr().out == ""
        return None
    if "--json" in argv:
        expected = json.dumps(payload, indent=2) + "\n"
    else:
        out = io.StringIO()
        render_text(payload, out)
        expected = out.getvalue()
    assert cli.run_subcommand(argv) == 0
    assert capsys.readouterr().out == expected
    obs = payload.get("obstructions")
    if obs is not None:
        # what the writer counted, against the materialized entries
        entries = obs["entries"]
        assert obs["count"] == len(entries)
        least = min(entries, key=lambda e: (Q(e["value"]["exact"]), e["coefficients"]),
                    default=None)
        assert obs["witness_minimum"] == least
    return payload


def _class_of(name: str) -> str:
    if name.startswith("double_cover"):
        return "H"
    return {"hirzebruch_f2": "2*f+s", "blowup_p2": "L+E", "a2_resolution": "1,0,0"}.get(name, "h")


@pytest.mark.parametrize("name", surface_io.fixture_names())
def test_fixtures_stream_as_materialized(capsys, name):
    a = _class_of(name)
    for k in range(4):
        for twist in ("0", "K"):
            system = ["--surface", name, "--divisor", a, f"--twist={twist}", "-k", str(k)]
            for mode in (["--json"], []):
                assert_streamed_as_materialized(capsys, ["obstructions", *system, *mode])
                assert_streamed_as_materialized(capsys, ["report", *system, "-n", "4", *mode])


def test_random_models_stream_as_materialized(capsys, rng, tmp_path):
    # some block models are not realizable by curves, so their report
    # stops at the fundamental cycles
    reports = 0
    for trial in range(30):
        sizes = rng.choice(([2], [3], [4], [2, 2], [2, 3], [1, 4]))
        model = block_model(rng, sizes, name=f"stream{trial}")
        path = tmp_path / f"stream{trial}.json"
        path.write_text(json.dumps(surface_io.surface_to_data(model)))
        twist = ",".join(str(Q(rng.randint(-6, 6), rng.choice((1, 2)))) for _ in range(model.rank))
        system = ["--surface", str(path), "--divisor", ",".join(["1"] + ["0"] * (model.rank - 1)),
                  f"--twist={twist}", "-k", str(rng.randint(0, 3))]
        for mode in (["--json"], []):
            assert assert_streamed_as_materialized(capsys, ["obstructions", *system, *mode])
            reports += assert_streamed_as_materialized(capsys, ["report", *system, *mode]) is not None
    assert reports >= 12


class _Pieces:
    def __init__(self) -> None:
        self.pieces: list[str] = []

    def write(self, text: str) -> None:
        self.pieces.append(text)


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_output_is_written_in_bounded_pieces(capsys, monkeypatch, mode):
    argv = ["obstructions", "--surface", "ade_e7", "--divisor", "h", "-k", "4", *mode]
    assert cli.run_subcommand(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(reporting, "CHUNK", 4000)
    out = _Pieces()
    with contextlib.redirect_stdout(out):
        assert cli.run_subcommand(argv) == 0
    assert "".join(out.pieces) == whole
    assert len(out.pieces) > 10
    # a piece ends at the first entry that takes it to CHUNK characters
    assert max(map(len, out.pieces[:-1])) < 4000 + 2000


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_failure_while_entries_are_made_leaves_stdout_empty(capsys, monkeypatch, mode):
    found = search.fincke_pohst

    def failing(*args):
        yield from islice(found(*args), 3)
        raise ModelInconsistent("the search failed")

    monkeypatch.setattr(search, "fincke_pohst", failing)
    for command in (["obstructions"], ["report", "-n", "5"]):
        argv = [*command, "--surface", "ade_e6", "--divisor", "h", "-k", "3", *mode]
        assert cli.run_subcommand(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the search failed\n"


# sha256 of stdout at the commit before the entries were streamed
E8_K10 = {
    "text": "93ca52ee783deb19fb9d2fa05702bd7d567fb13f4db6cfdf08e54d5820794f6e",
    "json": "673bf6c82403135ebcba898b6688062205c6b2253bd2d7bfa0a9b3c20216d60f",
}


@pytest.mark.parametrize("mode", ["text", "json"])
def test_e8_level_ten_output_is_unchanged(mode):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "surfbound.cli", "obstructions", "--surface", "ade_e8",
         "--divisor", "h", "-k", "10", *(["--json"] if mode == "json" else [])],
        capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == E8_K10[mode]
