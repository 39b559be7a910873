"""The benchmark's tracer still finds every function its runner counts.

perfbench/run.py reads call counts by name from the Tracer of
perfbench/tracing.py, which wraps functions of the package from outside it.
A rename or a move in src would read 0 there and fail nothing in src's own
tests. So this test compiles tracing.py from its file, without importing it
as a module or writing bytecode next to it, installs the tracer around a few
commands on a cold model cache, and asserts a nonzero count for every name
the runner counts, and that uninstall puts every original back.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import types
from pathlib import Path

from surfbound import cli, surface_io
from surfbound.surface import SurfaceModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The names the runner counts, as the tracer spells them.
COUNTED = (
    "surface.create",
    "surface.intersect",
    "surface.exceptional_curves",
    "bounds._enumerate_box",
    "bounds.vanishing_threshold",
    "bounds.theorem_thresholds",
    "lattice.is_negative_definite",
    "zariski.zariski_decompose",
    "zariski.zariski_oracle",
    "cycles.fundamental_cycle",
    "cycles.cycle_bruteforce_oracle",
)
# lattice.solves counts lattice.solve_linear, which only the tests hold now,
# so it reads 0 on every workload: ROADMAP item 1 moves the count.
UNCOUNTED = {"lattice.solve_linear"}

COMMANDS = (
    ["validate", "--surface", "ade_d4"],
    ["zariski", "--surface", "hirzebruch_f2", "--divisor", "1,1", "--oracle"],
    ["fundcycle", "--surface", "ade_d4", "--curves", "c1,c2,c3,c4", "--oracle"],
    ["obstructions", "--surface", "ade_d4", "--divisor", "h", "-k", "2"],
    ["thresholds", "--surface", "ade_e6", "--divisor", "h", "--twist=K", "-k", "1"],
)


def _tracing() -> types.ModuleType:
    module = types.ModuleType("tracing")
    path = PERFBENCH / "tracing.py"
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_the_tracer_counts_every_name_the_runner_reads():
    read = set(re.findall(r'\bcalls\("([\w.]+)"\)', (PERFBENCH / "run.py").read_text()))
    assert set(COUNTED) <= read
    tracing = _tracing()
    modules = [importlib.import_module(f"surfbound.{layer}") for layer in tracing.LAYERS]
    before = [dict(vars(module)) for module in modules]
    methods = {name: SurfaceModel.__dict__[name] for name in tracing.SURFACE_METHODS}
    tracer = tracing.Tracer()
    surface_io._model_from_text.cache_clear()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        for argv in COMMANDS:
            assert cli.run_subcommand(argv) == 0, argv
    summary = tracer.summary()
    assert sorted(n for n in read - UNCOUNTED if not summary.get(n, {}).get("calls")) == []
    assert tracer.entries > 0
    for module, attributes in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in attributes.items())
    assert all(SurfaceModel.__dict__[name] is raw for name, raw in methods.items())
