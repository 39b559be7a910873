"""Time the commands that print large obstruction sets, one fresh process each.

Each row runs `surfbound` on the bundled E8 fixture with A = h in its own
Python process. The script reads that process's stdout as it arrives, so it
never holds the output itself, and prints one line per row: the wall time,
the stdout size in bytes, the sha256 of stdout and the peak RSS of that
process alone (from os.wait4). Rows take up to a minute each, so this is
not part of the test suite.

    python3 scripts/large_outputs.py                 # every row
    python3 scripts/large_outputs.py --rows 2 3      # rows by number
    python3 scripts/large_outputs.py --src other/src # another source tree
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROWS = (
    "obstructions -k 10 --json",
    "obstructions -k 20",
    "obstructions -k 20 --json",
    "report --twist=6*c1 -n 30 --json",
    "thresholds -k 40",
    "thresholds --twist=6*c1 -k 0",
)
BASE = ("--surface", "ade_e8", "--divisor", "h")
RUNNER = "import sys; sys.path.insert(0, sys.argv.pop(1)); from surfbound.cli import main; main()"


def run_row(src: Path, row: str) -> dict:
    command, *rest = row.split()
    argv = [sys.executable, "-c", RUNNER, str(src), command, *BASE, *rest]
    digest = hashlib.sha256()
    size = 0
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
        size += len(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "row": row,
        "exit": proc.returncode,
        "wall_s": round(wall, 2),
        "stdout_bytes": size,
        "sha256": digest.hexdigest(),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source tree that holds the surfbound package (default: this repo's)")
    parser.add_argument("--rows", type=int, nargs="+", metavar="N",
                        help=f"row numbers 1..{len(ROWS)} (default: all)")
    args = parser.parse_args(argv)
    picked = args.rows or range(1, len(ROWS) + 1)
    print(f"# {args.src.resolve()}, on ade_e8 with --divisor h")
    for number in picked:
        r = run_row(args.src, ROWS[number - 1])
        print(f"{number}. {r['row']}: exit {r['exit']}, {r['wall_s']} s, "
              f"{r['stdout_bytes']} bytes, {r['peak_rss_mb']} MB, sha256 {r['sha256']}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
