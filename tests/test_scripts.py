"""The example scripts run against the current API."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

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


def test_large_outputs_prints_a_row():
    # the cheapest row; the sha256 was recorded before the obstruction
    # entries were streamed, and again when empty mappings began to print
    # as {} in text output
    proc = subprocess.run(
        [sys.executable, "scripts/large_outputs.py", "--rows", "6"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert re.fullmatch(
        r"6\. thresholds --twist=6\*c1 -k 0: exit 0, [\d.]+ s, 4440 bytes, [\d.]+ MB, "
        r"sha256 c5d59752894abbb43b6fa1f752a72edf9d0cefe22fa209663ceb72c304bbaef7",
        row,
    ), row


def test_tau_scale_prints_a_row():
    proc = subprocess.run(
        [sys.executable, "scripts/tau_scale.py", "--n", "25"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert re.fullmatch(r"N = 25: exit 0, [\d.]+ s, tau -84", row), row


def test_curve_scale_prints_a_row_per_command():
    proc = subprocess.run(
        [sys.executable, "scripts/curve_scale.py", "--n", "20"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    commands = ["validate", "zariski --divisor h", "zariski --divisor h+3*c1+...+3*c20",
                "tau --divisor h", "report --divisor h"]
    assert len(rows) == len(commands), rows
    for command, row in zip(commands, rows):
        assert re.fullmatch(rf"n = 20: {re.escape(command)}: exit 0, [\d.]+ s", row), row


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
