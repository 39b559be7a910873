"""The example scripts run against the current API."""

from __future__ import annotations

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
