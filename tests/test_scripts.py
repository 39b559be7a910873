"""The example scripts run against the current API."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from surfbound.cli import run_subcommand

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"scripts/{name}"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_smoke_check_passes():
    proc = run_script("smoke_check.py")
    assert proc.returncode == 0, proc.stderr
    assert "all smoke checks passed" in proc.stdout


def test_double_cover_table_has_a_row_per_degree():
    proc = run_script("double_cover_table.py")
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.split()[0] == "d" and set(rule.replace(" ", "")) == {"-"}
    assert [row.split()[0] for row in rows] == [str(d) for d in range(3, 9)]


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def run_oneshot(*argv: str) -> list[str]:
    """The rows that scripts/oneshot.py prints, after its header line."""
    proc = subprocess.run(
        [sys.executable, "scripts/oneshot.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.startswith("# ")
    return rows


# what every finished row prints after its label
ROW = r"exit (\d+), [\d.]+ s, (\d+) bytes, [\d.]+ MB, sha256 ([0-9a-f]{64})"


def test_oneshot_chains_prints_a_row_per_command():
    rows = run_oneshot("chains", "--n", "20")
    commands = ["validate", "zariski --divisor h", "zariski --divisor h+3*c1+...+3*c20",
                "tau --divisor h", "report --divisor h"]
    assert len(rows) == len(commands), rows
    for command, row in zip(commands, rows):
        match = re.fullmatch(rf"n = 20: {re.escape(command)}: {ROW}", row)
        assert match and match[1] == "0", row


def test_oneshot_tau_prints_the_digest_of_its_json():
    digest = "79beb054668ab4b30701273e5fc9067a621abdbeef75f6e4f3601ec07cdd2cc5"
    [row] = run_oneshot("tau", "--n", "25")
    assert re.fullmatch(rf"N = 25: {ROW}", row).groups() == ("0", "1352", digest), row
    # the digest is that of the JSON with tau = -84
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_subcommand(["tau", "--surface", "ade_d7", "--divisor=1/2*h",
                               "--twist=0,3/2,1,2,-25/2,1/3,0,1", "--json"]) == 0
    assert json.loads(out.getvalue())["tau"]["exact"] == "-84"
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_oneshot_large_prints_a_row():
    # the cheapest row; the sha256 was recorded before the obstruction
    # entries were streamed, and again when empty mappings began to print
    # as {} in text output
    [row] = run_oneshot("large", "--rows", "6")
    assert re.fullmatch(rf"6\. thresholds --twist=6\*c1 -k 0: {ROW}", row).groups() == (
        "0", "4440", "c5d59752894abbb43b6fa1f752a72edf9d0cefe22fa209663ceb72c304bbaef7"), row


def test_oneshot_startup_prints_the_median_of_each_row():
    rows = run_oneshot("startup", "--repeat", "1")
    labels = ["python -c pass", "import surfbound.cli", "validate", "zariski --divisor h",
              "tau --divisor h", "thresholds --divisor h -k 1"]
    median = ROW.replace(r"[\d.]+ s,", r"[\d.]+ ms median of 1,")
    assert [row.split(": ")[0] for row in rows] == labels, rows
    results = {}
    for label, row in zip(labels, rows):
        match = re.fullmatch(rf"{re.escape(label)}: {median}", row)
        assert match and match[1] == "0", row
        results[label] = match.groups()[1:]
    empty = hashlib.sha256(b"").hexdigest()
    assert results["python -c pass"] == results["import surfbound.cli"] == ("0", empty)
    # the tau row's digest is that of the same command run in process
    digest = "81a129149ae28e2b0ee783b5cef08f58552d678e3804ba4315ff40d0e3a0de73"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_subcommand(["tau", "--surface", "ade_e6", "--divisor", "h"]) == 0
    stdout = out.getvalue().encode()
    assert results["tau --divisor h"] == (str(len(stdout)), digest)
    assert hashlib.sha256(stdout).hexdigest() == digest


def load_oneshot(monkeypatch):
    """scripts/oneshot.py as a module; main's switch of subprocess is undone
    after the test."""
    monkeypatch.setattr(subprocess, "_USE_VFORK", subprocess._USE_VFORK)
    spec = importlib.util.spec_from_file_location("oneshot", ROOT / "scripts" / "oneshot.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_oneshot_runs_two_trees_in_turns(monkeypatch, capsys, tmp_path):
    script = load_oneshot(monkeypatch)
    trees = [str(ROOT / "src"), str(tmp_path / "other")]
    started = []

    def run_row(argv, timeout, env):
        started.append([tree for tree in trees if tree in argv])
        return 0, 0.001 * len(started), 10, 1.0, "0" * 64

    monkeypatch.setattr(script, "run_row", run_row)
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: None)  # the untimed imports
    assert script.main(["startup", "--repeat", "3", "--src", trees[0], "--src", trees[1]]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == f"# {trees[0]}, {Path(trees[1]).resolve()}, " + script.FAMILIES["startup"][1]
    labels = ["python -c pass", "import surfbound.cli", "validate", "zariski --divisor h",
              "tau --divisor h", "thresholds --divisor h -k 1"]
    assert [row.split(": ")[0] for row in rows] == [f"{label} [{k}]" for label in labels for k in (1, 2)]
    # each run runs both trees, the first tree first on odd runs
    first, second = [trees[0]], [trees[1]]
    assert started[6:12] == [first, second, second, first, first, second]  # import surfbound.cli
    assert started[0:6] == [[]] * 6  # python -c pass names no tree


def test_oneshot_two_trees_print_the_same_digest(tmp_path):
    other = shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    rows = run_oneshot("large", "--rows", "6", "--src", "src", "--src", str(other))
    label = r"6\. thresholds --twist=6\*c1 -k 0"
    assert [re.fullmatch(rf"{label} \[{k}\]: {ROW}", row).groups() for k, row in enumerate(rows, 1)] == [(
        "0", "4440", "c5d59752894abbb43b6fa1f752a72edf9d0cefe22fa209663ceb72c304bbaef7")] * 2, rows


def test_oneshot_rows_report_their_own_peak_rss():
    # the timer's own peak passes 64 MB before it spawns the row; a row
    # spawned by vfork would report at least that peak as its own
    code = ("import runpy, sys; peak = b'x' * (64 << 20); del peak; "
            "sys.argv = ['oneshot.py', 'tau', '--n', '25']; "
            "runpy.run_path('scripts/oneshot.py', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[-1]
    assert float(re.search(r"([\d.]+) MB", row)[1]) < 64, row


def test_oneshot_kills_and_reaps_a_row_past_its_timeout(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    script = load_oneshot(monkeypatch)
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, argv, **kwargs):
            cached = any(Path(kwargs["env"]["PYTHONPYCACHEPREFIX"]).rglob("cli.*.pyc"))
            super().__init__(argv, **kwargs)
            started.append((self.pid, kwargs["env"], cached))

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    assert script.main(["tau", "--n", "25", "--timeout", "0.001"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["N = 25: timeout after 0.001 s"]
    # the untimed import, then the row, which finds the package compiled
    assert [cached for _, _, cached in started] == [False, True]
    for pid, env, _ in started:
        assert "PYTHONDONTWRITEBYTECODE" not in env
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # neither running nor left unreaped


def test_analysis_reuse_counts_the_hits_of_the_real_cache():
    # the script swaps a logging function in for bounds.analysis_of and
    # counts a request as a hit when the real cache returns the object it
    # returned last time for the system
    proc = subprocess.run(
        [sys.executable, "scripts/analysis_reuse.py",
         "--workload", "cli_sweep", "--seed", "1", "--passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["timed_passes"] == 1
    assert result["real_cache"]["size"] == 96
    assert 0 < result["real_cache"]["hits"] <= result["timed_requests"]


def test_make_fixtures_reproduces_the_bundled_fixtures(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script inserts src
    path = ROOT / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = tmp_path
    script.main()
    assert capsys.readouterr().out.endswith("25 fixtures\n")
    bundled = ROOT / "src" / "surfbound" / "fixtures"
    names = sorted(entry.name for entry in tmp_path.iterdir())
    assert names == sorted(entry.name for entry in bundled.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
