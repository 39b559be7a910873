"""Golden snapshots of the command line.

For every bundled fixture, a fixed catalogue of commands covers every
subcommand in text and JSON, with T = 0 and T = K, k = 0..2, the assertion
flags, the oracles on small models and a few error exits. ``golden.json``
holds the exit code and the sha256 digest of stdout of each command, so a
refactor that keeps these snapshots keeps the output byte for byte.

After an intended change of output, record the snapshots again with

    PYTHONPATH=src python3 tests/test_golden.py --record

which prints each command whose exit code or digest changed, and their
count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from surfbound import cli, surface_io

GOLDEN = Path(__file__).with_name("golden.json")

# The obstruction and cycle oracles search a box whose volume grows with the
# curves, so every --oracle command, zariski's included, runs only on models
# with at most this many curves; the snapshots were recorded with this value.
ORACLE_CURVES = 5


def _classes(name: str, model) -> tuple[str, list[str]]:
    """A nef and big class with orthogonal curves where the fixture has
    curves to contract, and the curves of one connected component of them."""
    if name.startswith("double_cover"):
        return "H", []
    if name == "hirzebruch_f2":
        return "2*f+s", ["s"]
    if name == "blowup_p2":
        return "L+E", ["E"]
    return "h", [c.name for c in model.curves if c.name != "h"]


def commands(name: str) -> list[list[str]]:
    """Every command runs with --json; the text renderer walks the same
    payload, so one instance of each kind of command also runs as text."""
    model = surface_io.load_fixture(name)
    a, cycle = _classes(name, model)
    s = ["--surface", name]
    small = len(model.curves) <= ORACLE_CURVES
    ample = ",".join(str(x) for x in model.ample_reference)
    first = cycle[0] if cycle else model.curves[0].name
    text: list[list[str]] = [
        ["validate"] + s,
        ["exceptional"] + s + ["--divisor", a],
        ["compare-matsusaka"] + s + ["--divisor", ample],
        ["zariski"] + s + ["--divisor", f"{a}+{first}"],
        ["tau"] + s + ["--divisor", a, "--twist=K"],
        # not big: every analysis command exits 1
        ["bounds"] + s + ["--divisor", f"0*{first}"],
        ["report"] + s + ["--divisor", f"{a}+{first}", "--twist=K", "-k", "1", "-n", "4"],
        ["report"] + s + ["--divisor", a, "-k", "1", "-n", "3",
                          "--assert-no-fixed-part", "--assert-base-point-free"],
    ]
    json_only: list[list[str]] = [
        ["compare-matsusaka"] + s + ["--divisor", a],
        ["thresholds"] + s + ["--divisor", f"0*{first}"],
        ["tau"] + s + ["--divisor", a, "--twist=0"],
    ]
    for d in (a, ample):
        json_only.append(["zariski"] + s + ["--divisor", d])
    if small:
        json_only.append(["zariski"] + s + ["--divisor", f"{a}+{first}", "--oracle"])
    # without curves to contract, the fundamental cycle exits 1
    text.append(["fundcycle"] + s + ["--curves", ",".join(cycle or [first])])
    if cycle and small:
        json_only.append(["fundcycle"] + s + ["--curves", ",".join(cycle), "--oracle"])
    for t, k in product(("0", "K"), (0, 1, 2)):
        base = s + ["--divisor", a, f"--twist={t}", "-k", str(k)]
        multiple = ["-n", str(2 + k)] if t == "K" else []
        grid = [
            ["obstructions"] + base,
            ["ek"] + base,
            ["bounds"] + base + multiple,
            ["thresholds"] + base + multiple,
            ["report"] + base + multiple,
        ]
        (text if (t, k) == ("K", 1) else json_only).extend(grid)
        if small and k == 2:
            json_only.append(["obstructions"] + base + ["--oracle"])
    asserted = s + ["--divisor", a, "-k", "1", "-n", "3"]
    json_only += [
        ["thresholds"] + asserted + ["--assert-no-fixed-part"],
        ["thresholds"] + asserted + ["--assert-base-point-free"],
    ]
    if cycle:
        twist = f"--twist={a}+{cycle[-1]}"
        json_only += [
            ["tau"] + s + ["--divisor", f"2*{a}", twist],
            ["thresholds"] + s + ["--divisor", f"2*{a}", twist, "-k", "1"],
            ["report"] + s + ["--divisor", f"2*{a}", twist, "-k", "2", "-n", "5"],
        ]
    if name == "hirzebruch_f2":
        # positive part with A^2 = 0: the report stops after the decomposition
        text.append(["report"] + s + ["--divisor", "f"])
        text.append(["zariski"] + s + ["--divisor", "f+s"])
    return [argv + ["--json"] for argv in text + json_only] + text


def run(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_subcommand(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def snapshot(name: str) -> dict[str, list]:
    return {" ".join(argv): run(argv) for argv in commands(name)}


def changed(old: dict, new: dict) -> list[str]:
    """The commands of `new` whose exit code or digest differs from `old`,
    or that `old` does not hold."""
    return [
        command
        for name, results in new.items()
        for command, result in results.items()
        if old.get(name, {}).get(command) != result
    ]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_catalogue_covers_every_fixture(golden):
    assert sorted(golden) == sorted(surface_io.fixture_names())


@pytest.mark.parametrize("name", surface_io.fixture_names())
def test_output_matches_snapshot(golden, name):
    assert snapshot(name) == golden[name]


@pytest.mark.parametrize("seed", [1, 2])
def test_caches_do_not_change_output(golden, seed):
    # every command of every fixture in one process, in a shuffled order:
    # the model cache and the analysis cache, with the memo of each
    # analysis, carry over from one command to the next, and no command
    # may print other than it does alone
    recorded = {command: result for results in golden.values() for command, result in results.items()}
    order = sorted(recorded)
    random.Random(f"golden-order:{seed}").shuffle(order)
    moved = [command for command in order if run(command.split()) != recorded[command]]
    assert not moved, f"{len(moved)} of {len(order)}:\n" + "\n".join(moved[:20])


def test_changed_lists_moved_and_new_commands():
    old = {"a": {"x": [0, "d1"], "y": [0, "d2"], "z": [1, "d3"]}}
    new = {
        "a": {"x": [0, "d1"], "y": [0, "d9"], "z": [0, "d3"], "w": [0, "d4"]},
        "b": {"v": [0, "d5"]},
    }
    assert changed(old, new) == ["y", "z", "w", "v"]
    assert changed(new, new) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    data = {name: snapshot(name) for name in surface_io.fixture_names()}
    moved = changed(old, data)
    for command in moved:
        print(f"changed: {command}")
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{sum(map(len, data.values()))} commands recorded in {GOLDEN}, {len(moved)} changed")
