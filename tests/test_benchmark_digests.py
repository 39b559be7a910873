"""Every command the benchmark can run still prints what it recorded.

perfbench/expected.json holds the exit code and a sha256 prefix of stdout
for each command of each workload's catalogue, generated models included.
tests/golden.json covers only the bundled fixtures, so this test runs the
whole catalogue through cli.run_subcommand, as perfbench/run.py does, and
compares. It only reads perfbench/: its modules are compiled from their
files, with no bytecode written, and the models go to a temporary folder.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

from surfbound import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def _load(name: str) -> types.ModuleType:
    """perfbench/<name>.py as a module, without writing bytecode."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    # dataclasses look the module up while the class is made
    sys.modules[name] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def _workloads() -> types.ModuleType:
    models = _load("models")
    sys.modules["models"] = models  # workloads imports it by this name
    try:
        return _load("workloads")
    finally:
        del sys.modules["models"]


WORKLOADS = _workloads()


def _run(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_subcommand(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]]


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_catalogue_matches_recorded_digests(workload, tmp_path):
    models, commands = WORKLOADS.catalogue(workload)
    paths = {}
    for name, data in models.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")
        paths[name] = str(path)
    expected = EXPECTED[workload]
    mismatches = []
    for argv in commands:
        key = WORKLOADS.command_key(argv)
        got = _run([paths[a[1:]] if a.startswith("@") else a for a in argv])
        if got != expected[key]:
            mismatches.append(f"{key}: got {got}, recorded {expected[key]}")
    assert not mismatches, f"{len(mismatches)} of {len(commands)}:\n" + "\n".join(mismatches[:20])
