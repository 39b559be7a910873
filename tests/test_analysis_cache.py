"""The analysis cache of bounds.analysis_of and the bounded memo of an analysis.

A command on n*A + T takes its analysis from a process-wide cache keyed by
the model object and the classes A and T, so a cached analysis, and the
memo it keeps, outlive the command. These tests check the bounds of both,
that a failed build stores nothing, that distinct models never share an
analysis, and that a warm cache prints what a cold one does.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from surfbound import bounds
from surfbound.cli import run_subcommand
from surfbound.errors import NotNefBig
from surfbound.surface_io import load_surface, parse_divisor, surface_to_data

from test_benchmark_digests import EXPECTED, WORKLOADS, _run


def _output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_subcommand(argv) == 0, argv
    return out.getvalue()


def test_the_memo_of_a_long_lived_analysis_stays_bounded():
    # ek at every k adds a correction divisor per k to the one analysis, and
    # reads the deficits of T, which every k shares: they are never dropped
    first = _output("ek --surface ade_d6 --divisor h -k 0".split())
    (analysis,) = bounds._analyses.values()
    deficits = analysis._memo["deficits", analysis.t]
    for k in range(500):
        _output(f"ek --surface ade_d6 --divisor h -k {k}".split())
    assert list(bounds._analyses.values()) == [analysis]
    assert len(analysis._memo) <= bounds.MEMO_SIZE
    assert analysis._memo["deficits", analysis.t] is deficits
    assert _output("ek --surface ade_d6 --divisor h -k 0".split()) == first


def test_the_cache_keeps_the_most_recently_used_analyses():
    model = load_surface("ade_d4")
    h = parse_divisor(model, "h")
    size = bounds.ANALYSIS_CACHE_SIZE
    twists = [model.canonical_class.scale(j) for j in range(size + 6)]
    first = bounds.analysis_of(model, h, twists[0])
    second = bounds.analysis_of(model, h, twists[1])
    for t in twists[2:size]:
        bounds.analysis_of(model, h, t)
    assert bounds.analysis_of(model, h, twists[0]) is first  # a hit moves it to the end
    for t in twists[size:]:
        bounds.analysis_of(model, h, t)
    assert len(bounds._analyses) == size
    assert bounds.analysis_of(model, h, twists[0]) is first
    assert bounds.analysis_of(model, h, twists[1]) is not second  # the oldest was dropped


def test_a_failed_build_stores_nothing():
    model = load_surface("hirzebruch_f2")
    s = model.curve_divisor(1)  # s.s = -2: not nef
    for _ in range(2):
        with pytest.raises(NotNefBig):
            bounds.analysis_of(model, s, model.zero_divisor())
    assert not bounds._analyses


def test_models_with_one_gram_matrix_do_not_share_an_analysis(tmp_path):
    data = surface_to_data(load_surface("ade_d4"))
    outputs = []
    for name in ("left", "right"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "name": name}), encoding="utf-8")
        outputs.append(_output(["tau", "--surface", str(path), "--divisor", "h", "--json"]))
    assert len(bounds._analyses) == 2
    assert [json.loads(out)["surface"] for out in outputs] == ["left", "right"]
    assert outputs[0] == outputs[1].replace('"right"', '"left"')


@pytest.mark.parametrize("workload", ["cli_sweep", "ade_obstruction"])
def test_a_warm_cache_prints_what_a_cold_one_does(workload, tmp_path):
    models, commands = WORKLOADS.catalogue(workload)
    paths = {}
    for name, data in models.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")
        paths[name] = str(path)
    expected = EXPECTED[workload]
    lines = commands * 2
    random.Random(f"warm-cold:{workload}").shuffle(lines)
    mismatches = []
    for argv in lines:
        key = WORKLOADS.command_key(argv)
        got = _run([paths[a[1:]] if a.startswith("@") else a for a in argv])
        if got != expected[key]:
            mismatches.append(f"{key}: got {got}, recorded {expected[key]}")
    assert not mismatches, f"{len(mismatches)} of {len(lines)}:\n" + "\n".join(mismatches[:20])
