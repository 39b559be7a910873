"""The analysis cache of bounds.analysis_of and the bounded memo of an analysis.

A command on n*A + T takes its analysis from a process-wide
functools.lru_cache keyed by the value of the model and the classes A and T,
so a cached analysis, and the memo it keeps, outlive the command. These
tests check the bounds of both, that a failed build stores nothing, that a
model parsed again finds its analyses while distinct models never share
one, and that a warm cache prints what a cold one does.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from surfbound import bounds, surface_io
from surfbound.cli import run_subcommand
from surfbound.errors import NotNefBig
from surfbound.surface_io import load_surface, parse_divisor, surface_to_data

from generators import blown_up_plane
from test_benchmark_digests import EXPECTED, WORKLOADS, _run


def _output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_subcommand(argv) == 0, argv
    return out.getvalue()


def _cached(model, a, t) -> bounds.Analysis:
    """The analysis of n*A + T that the cache holds, taken by a hit."""
    hits = bounds.analysis_of.cache_info().hits
    analysis = bounds.analysis_of(model, a, t)
    assert bounds.analysis_of.cache_info().hits == hits + 1
    return analysis


def _entries() -> int:
    return bounds.analysis_of.cache_info().currsize


def test_the_memo_of_a_long_lived_analysis_stays_bounded():
    # ek at every k adds a correction divisor per k to the one analysis, and
    # reads the deficits of T, which every k shares: they are never dropped
    first = _output("ek --surface ade_d6 --divisor h -k 0".split())
    model = load_surface("ade_d6")
    system = model, parse_divisor(model, "h"), model.zero_divisor()
    assert _entries() == 1
    analysis = _cached(*system)
    deficits = analysis._memo["deficits", analysis.t]
    for k in range(500):
        _output(f"ek --surface ade_d6 --divisor h -k {k}".split())
    assert _entries() == 1 and _cached(*system) is analysis
    assert len(analysis._memo) <= bounds.MEMO_SIZE
    assert analysis._memo["deficits", analysis.t] is deficits
    assert _output("ek --surface ade_d6 --divisor h -k 0".split()) == first


def test_each_fundamental_cycle_is_computed_once_per_analysis(tmp_path, monkeypatch):
    # A = L on the plane blown up in 40 points: the 40 curves E_i are
    # orthogonal to A and to each other, so 40 components, more than the
    # memo holds; their cycles are kept apart from it, and the commands
    # after the first derive none of them again
    path = tmp_path / "blowup40.json"
    path.write_text(json.dumps(surface_to_data(blown_up_plane(40))), encoding="utf-8")
    calls = []
    real = bounds.fundamental_cycle

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "fundamental_cycle", counted)
    a = ",".join(["1"] + ["0"] * 40)
    for command, expected in (("thresholds -k 1", 40), ("thresholds", 0), ("report", 0),
                              ("exceptional", 0), ("thresholds -k 1", 0)):
        calls.clear()
        _output([*command.split(), "--surface", str(path), "--divisor", a])
        assert len(calls) == expected, command


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
    assert _entries() == size
    assert bounds.analysis_of(model, h, twists[0]) is first
    assert bounds.analysis_of(model, h, twists[1]) is not second  # the oldest was dropped


def test_a_failed_build_stores_nothing():
    model = load_surface("hirzebruch_f2")
    s = model.curve_divisor(1)  # s.s = -2: not nef
    for _ in range(2):
        with pytest.raises(NotNefBig):
            bounds.analysis_of(model, s, model.zero_divisor())
    assert _entries() == 0


def test_models_with_one_gram_matrix_do_not_share_an_analysis(tmp_path):
    data = surface_to_data(load_surface("ade_d4"))
    outputs = []
    for name in ("left", "right"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "name": name}), encoding="utf-8")
        outputs.append(_output(["tau", "--surface", str(path), "--divisor", "h", "--json"]))
    assert _entries() == 2  # the names differ, so the models do
    assert [json.loads(out)["surface"] for out in outputs] == ["left", "right"]
    assert outputs[0] == outputs[1].replace('"right"', '"left"')


def test_a_model_parsed_again_finds_its_analyses(tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(surface_to_data(load_surface("ade_d4"))), encoding="utf-8")
    model = load_surface(str(path))
    analysis = bounds.analysis_of(model, parse_divisor(model, "h"), model.zero_divisor())
    surface_io._model_from_text.cache_clear()
    again = load_surface(str(path))
    assert again is not model
    assert _cached(again, parse_divisor(again, "h"), again.zero_divisor()) is analysis
    assert _entries() == 1


def test_files_with_one_text_share_an_analysis(tmp_path):
    text = json.dumps(surface_to_data(load_surface("ade_d4")))
    outputs = []
    for name in ("left", "right"):
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        outputs.append(_output(["tau", "--surface", str(path), "--divisor", "h", "--json"]))
    assert _entries() == 1
    assert outputs[0] == outputs[1]


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
