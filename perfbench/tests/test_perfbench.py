"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q

The traced runs use one set-up and one traced pass per workload, so the
module takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text(encoding="utf-8"))


def _traced(workload: str, seed: int = 1) -> dict:
    run.SETUP_REPEATS = 1
    run.TRACE_REPEATS = 1
    result = run.run_workload(workload, seed, 0, trace=True)
    assert result["correct"], result
    return {name: m["value"] for name, m in result["metrics"].items()}


def _counts(metrics: dict) -> dict:
    return {n: v for n, v in metrics.items() if isinstance(v, int)}


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: _traced(w) for w in workloads.WORKLOADS}


def _cli():
    run._purge_package()
    from surfbound import cli

    return cli


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_command_of_every_seed_has_an_expected_result(workload):
    models, commands = workloads.catalogue(workload)
    assert set(EXPECTED[workload]) == {workloads.command_key(c) for c in commands}
    assert all(want[0] == 0 for want in EXPECTED[workload].values())
    for seed in (1, 2, 977):
        plan = workloads.plan(workload, seed)
        assert set(plan.models) <= set(models)
        for index in range(4):
            assert all(workloads.command_key(c) in EXPECTED[workload]
                       for c in plan.commands(index))


def test_same_seed_gives_same_inputs_and_other_seed_other_inputs():
    one, again, other = (workloads.plan("oracle_crosscheck", s) for s in (5, 5, 6))
    assert one.models == again.models
    assert one.commands(3) == again.commands(3)
    assert one.commands(3) != other.commands(3)
    assert one.commands(1) != one.commands(2)


def test_every_variant_of_an_ade_slot_has_its_own_box():
    _cli()
    from surfbound.surface_io import load_surface, parse_divisor

    for variants in workloads.plan("ade_obstruction", 1).slots:
        model = load_surface(variants[0][2])
        curves = [model.curve_divisor(i)
                  for i in model.exceptional_curves(parse_divisor(model, "h"))]
        linear_terms = set()
        for argv in variants:
            twist = next(a for a in argv if a.startswith("--twist="))
            w = parse_divisor(model, twist.split("=", 1)[1]) - model.canonical_class
            linear_terms.add(tuple(model.intersect(w, c) for c in curves))
        assert len(linear_terms) == len(variants), variants[0]


def test_wrong_expected_digest_is_a_failure_that_names_the_command():
    argv = ("validate", "--surface", "ade_a2", "--json")
    key = workloads.command_key(argv)
    code, digest = EXPECTED["cli_sweep"][key]
    cli = _cli()
    good = run.Executor(cli, {key: [code, digest]}, {}, 10.0)
    good.run(argv)
    assert good.attempted == 1 and good.failures == []
    bad = run.Executor(cli, {key: [code, "0" * 16]}, {}, 10.0)
    bad.run(argv)
    assert bad.attempted == 1 and len(bad.failures) == 1
    assert bad.failures[0].startswith(key)


def test_oracle_mismatch_exit_code_is_a_failure(monkeypatch):
    argv = ("zariski", "--surface", "hirzebruch_f2", "--divisor", "1,1", "--oracle", "--json")
    cli = _cli()
    honest = cli.zariski.zariski_oracle

    def lying_oracle(model, d):
        dec = honest(model, d)
        return type(dec)(dec.negative, dec.positive, dec.support, dec.coefficients)

    monkeypatch.setattr(cli.zariski, "zariski_oracle", lying_oracle)
    executor = run.Executor(cli, {workloads.command_key(argv): [0, "x"]}, {}, 10.0)
    got, _ = executor.execute(argv)
    assert got[0] == 3
    executor.run(argv)
    assert len(executor.failures) == 1 and "got exit 3" in executor.failures[0]


def test_reference_clock_scales_by_the_kernel_time_at_both_ends(monkeypatch):
    kernel_times = iter([run.KERNEL_REF_S, 3 * run.KERNEL_REF_S])
    monkeypatch.setattr(run, "_time_kernel", lambda: next(kernel_times))
    clock = run.ReferenceClock()
    time.sleep(0.05)
    lap = clock.lap()
    # The host ran at half the reference speed on average over the lap.
    assert 0.025 <= lap < 0.04


def test_tracer_restores_every_original():
    cli = _cli()
    from surfbound import bounds, lattice, surface
    from tracing import Tracer

    before = (cli.run_subcommand, cli.load_surface, bounds._enumerate_box,
              bounds.fundamental_cycle, lattice.dot, surface.SurfaceModel.__dict__["create"],
              surface.SurfaceModel.intersect)
    with Tracer():
        assert cli.run_subcommand is not before[0]
        assert bounds.fundamental_cycle is not before[3]
    after = (cli.run_subcommand, cli.load_surface, bounds._enumerate_box,
             bounds.fundamental_cycle, lattice.dot, surface.SurfaceModel.__dict__["create"],
             surface.SurfaceModel.intersect)
    assert after == before


def test_two_traced_runs_with_one_seed_give_identical_counts(traced):
    first = _counts(traced["cli_sweep"])
    assert len(first) == 18
    assert first == _counts(_traced("cli_sweep"))


def test_each_workload_exercises_the_layers_it_claims(traced):
    sweep, ade, oracle = traced["cli_sweep"], traced["ade_obstruction"], traced["oracle_crosscheck"]
    for name in ("cli.commands", "surface_io.loads", "surface_io.divisor_parses",
                 "surface.models_built", "surface.pairings", "surface.exceptional_calls",
                 "lattice.calls", "lattice.definiteness_tests", "lattice.solves",
                 "zariski.decompositions", "cycles.fundamental_cycles", "bounds.enumerations",
                 "bounds.vanishing_thresholds", "bounds.tables", "reporting.payloads"):
        assert sweep[name] > 0, name
    for name in ("cli.self_s", "surface_io.self_s", "surface.self_s", "lattice.self_s",
                 "zariski.self_s", "cycles.self_s", "bounds.self_s", "reporting.self_s"):
        assert sweep[name] > 0, name
    assert ade["bounds.enumerations"] > 0 and ade["bounds.entries"] > 0
    assert oracle["zariski.oracle_calls"] > 0 and oracle["cycles.oracle_calls"] > 0
    assert oracle["bounds.enumerations"] == 0


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
