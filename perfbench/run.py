#!/usr/bin/env python3
"""surfbound benchmark: CLI commands run in-process, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_sweep --seed 1 --seconds 15 --trace 0

One process runs one workload. Set-up (import of the package, model
generation and an untimed warm pass) is repeated SETUP_REPEATS times, each
time from a fresh import, and ``setup_s`` is the median. The timed loop then
runs whole passes until ``--seconds`` have passed and at least MIN_SAMPLES
commands were timed. Every command's exit code and stdout digest are
checked against ``expected.json``. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run instead alternates untraced and traced passes
over the same commands and reports per-layer metrics; see README.md.

The end-to-end times are in reference seconds (``ReferenceClock``): the
speed of a shared host drifts by up to two times within seconds, and the
program's times drift with it, so each timed interval is scaled by how
long a fixed kernel takes at its two ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 3
MIN_SAMPLES = 100
TRACE_REPEATS = 3
# Wall budget per command; a command that takes longer counts as failed.
BUDGET_S = {"cli_sweep": 2.0, "ade_obstruction": 10.0, "oracle_crosscheck": 10.0}
# Time of one _kernel call on the reference host (2 shared cores) at its
# fastest; ReferenceClock scales every interval to this speed.
KERNEL_REF_S = 0.5e-3
# Standard-library modules the package imports; loaded before set-up so that
# every set-up repeat measures the same work.
STDLIB = ("argparse", "dataclasses", "fractions", "functools", "importlib.resources",
          "itertools", "json", "math", "re", "typing")


def _kernel() -> Fraction:
    """Fixed work that, like the program, is mostly Fraction arithmetic and
    small dicts; it calls no surfbound code."""
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 200):
        total += Fraction(i % 7 - 3, i % 11 + 1)
        counts[i % 13] = counts.get(i % 13, 0) + i * i
    return total


def _time_kernel() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class ReferenceClock:
    """Measures intervals in reference seconds. Each lap times the kernel
    once and scales the wall time since the previous lap by KERNEL_REF_S
    over the mean kernel time at the lap's two ends. Kernel calls fall
    between laps, so no lap contains one."""

    def __init__(self) -> None:
        self.kernel_s = _time_kernel()
        self.mark = time.perf_counter()

    def lap(self) -> float:
        wall = time.perf_counter() - self.mark
        before = self.kernel_s
        self.kernel_s = _time_kernel()
        self.mark = time.perf_counter()
        return wall * 2 * KERNEL_REF_S / (before + self.kernel_s)


class Executor:
    """Runs commands through ``cli.run_subcommand`` and checks each one. The
    function is looked up on the module at each call, so a tracer's wrapper
    sees it."""

    def __init__(self, cli, expected: dict, model_paths: dict[str, str],
                 budget_s: float) -> None:
        self.cli = cli
        self.expected = expected
        self.model_paths = model_paths
        self.budget_s = budget_s
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, argv: workloads.Argv) -> tuple[list, float]:
        """Run one command; return [exit code, stdout digest] and its time."""
        real = [self.model_paths[a[1:]] if a.startswith("@") else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.run_subcommand(real)
            except Exception as exc:  # a crash is a failed command, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]], elapsed

    def run(self, argv: workloads.Argv) -> None:
        got, elapsed = self.execute(argv)
        self.attempted += 1
        key = workloads.command_key(argv)
        want = self.expected.get(key)
        if want is None:
            self.failures.append(f"{key}: no expected result recorded")
        elif got != want:
            self.failures.append(f"{key}: got exit {got[0]} digest {got[1]}, "
                                 f"expected exit {want[0]} digest {want[1]}")
        elif elapsed > self.budget_s:
            self.failures.append(f"{key}: took {elapsed:.3f} s, budget {self.budget_s} s")


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "surfbound" or n.startswith("surfbound.")]:
        del sys.modules[name]
    gc.collect()


def _write_models(models: dict[str, dict], directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, data in models.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")
        paths[name] = os.path.relpath(path)
    return paths


def set_up(workload: str, seed: int, executor: Executor, model_dir: Path):
    """Import the package afresh, generate the inputs and run the warm pass
    through ``executor``. Returns the set-up time, in reference seconds,
    and the plan."""
    _purge_package()
    clock = ReferenceClock()
    executor.cli = importlib.import_module("surfbound.cli")
    plan = workloads.plan(workload, seed)
    executor.model_paths = _write_models(plan.models, model_dir)
    elapsed = clock.lap()
    for argv in plan.commands(0):
        executor.run(argv)
        elapsed += clock.lap()
    return elapsed, plan


def timed_passes(plan, executor: Executor, seconds: float) -> list[float]:
    """Whole passes until ``seconds`` of wall time have passed and at least
    MIN_SAMPLES commands were timed. Returns each command's time in
    reference seconds."""
    durations: list[float] = []
    start = time.perf_counter()
    clock = ReferenceClock()
    index = 1
    while time.perf_counter() - start < seconds or len(durations) < MIN_SAMPLES:
        for argv in plan.commands(index):
            executor.run(argv)
            durations.append(clock.lap())
        index += 1
    return durations


def end_to_end(durations: list[float], setup: list[float]) -> dict:
    ms = [d * 1000 for d in durations]
    return {
        "cmd_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "cmd_ms_p90": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "throughput_cmd_s": {"value": len(ms) / sum(durations), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def _per_layer(tracer: Tracer, traced_s: float) -> dict:
    summary = tracer.summary()

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def layer_calls(layer: str) -> int:
        return sum(row["calls"] for n, row in summary.items() if n.startswith(layer + "."))

    def layer_self(layer: str) -> float:
        return sum(row["self_s"] for n, row in summary.items() if n.startswith(layer + "."))

    entries = tracer.entries
    enumerate_s = self_s("bounds._enumerate_box")
    out = {
        "bounds.enumerations": (calls("bounds._enumerate_box"), "count"),
        "bounds.entries": (entries, "count"),
        "bounds.enumerate_s": (enumerate_s, "s"),
        "bounds.us_per_entry": (enumerate_s * 1e6 / entries if entries else 0.0, "us"),
        "bounds.vanishing_thresholds": (calls("bounds.vanishing_threshold"), "count"),
        "bounds.tables": (calls("bounds.theorem_thresholds"), "count"),
        "surface.pairings": (calls("surface.intersect"), "count"),
        "surface.pairing_s": (summary.get("surface.intersect", {}).get("incl_s", 0.0), "s"),
        "surface.exceptional_calls": (calls("surface.exceptional_curves"), "count"),
        "surface.models_built": (calls("surface.create"), "count"),
        "lattice.calls": (layer_calls("lattice"), "count"),
        "lattice.definiteness_tests": (calls("lattice.is_negative_definite"), "count"),
        "lattice.solves": (calls("lattice.solve_linear"), "count"),
        "zariski.decompositions": (calls("zariski.zariski_decompose"), "count"),
        "zariski.oracle_calls": (calls("zariski.zariski_oracle"), "count"),
        "cycles.fundamental_cycles": (calls("cycles.fundamental_cycle"), "count"),
        "cycles.oracle_calls": (calls("cycles.cycle_bruteforce_oracle"), "count"),
        "cli.commands": (calls("cli.run_subcommand"), "count"),
        "cli.build_parser_s": (self_s("cli.build_parser"), "s"),
        "surface_io.loads": (calls("surface_io.load_surface"), "count"),
        "surface_io.divisor_parses": (calls("surface_io.parse_divisor"), "count"),
        "reporting.payloads": (calls("reporting.to_payload"), "count"),
        "trace.pass_s": (traced_s, "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    return out


def traced_metrics(plan, executor: Executor, trace_path: Path) -> dict:
    """Untraced and traced runs of the same pass, TRACE_REPEATS times each.
    Counts come from one traced pass; times are medians over the repeats."""
    commands = plan.commands(1)
    untraced, traced, layers = [], [], []
    for _ in range(TRACE_REPEATS):
        start = time.perf_counter()
        for argv in commands:
            executor.run(argv)
        untraced.append(time.perf_counter() - start)
        tracer = Tracer()
        with tracer:
            start = time.perf_counter()
            for argv in commands:
                executor.run(argv)
            traced.append(time.perf_counter() - start)
        layers.append(_per_layer(tracer, traced[-1]))
    tracer.write(trace_path)
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit != "count":
            value = statistics.median(rep[name][0] for rep in layers)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1, "unit": "1"}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    for name in STDLIB:
        importlib.import_module(name)
    model_dir = WORK / f"models-{os.getpid()}"
    executor = Executor(None, expected, {}, BUDGET_S[workload])
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            elapsed, plan = set_up(workload, seed, executor, model_dir)
            setup.append(elapsed)
        if trace:
            WORK.mkdir(parents=True, exist_ok=True)
            metrics = traced_metrics(plan, executor, WORK / f"trace-{workload}-{seed}")
        else:
            durations = timed_passes(plan, executor, seconds)
            metrics = end_to_end(durations, setup)
            print(f"{workload} seed {seed}: {len(durations)} timed commands in "
                  f"{sum(durations):.2f} s; set-up times "
                  f"{', '.join(f'{s:.3f}' for s in setup)} s (reference seconds)")
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)
    for failure in executor.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not executor.failures,
        "attempted": executor.attempted,
        "failed": len(executor.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "surfbound" / "cli.py").is_file():
        print(f"error: {SRC / 'surfbound'} not found; run from a surfbound checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
