"""Time `tau` on a twist family whose centre leaves the orthant, one fresh process each.

Each row runs `surfbound tau` on the bundled D7 fixture with A = h/2 and
the twist T = (0, 3/2, 1, 2, -N/2, 1/3, 0, 1) in its own Python process.
The centre of the obstruction form's ellipsoid has its c4 coefficient at
-N/4, so the sublevel set that `tau` searches grows with N. Each row prints
N, the exit code, the wall time and tau. A process that runs past --timeout
is killed, and its row prints `timeout`.

    python3 scripts/tau_scale.py                    # N = 25 50 100 200 400
    python3 scripts/tau_scale.py --n 100 1000       # other N
    python3 scripts/tau_scale.py --src other/src    # another source tree
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

RUNNER = "import sys; sys.path.insert(0, sys.argv.pop(1)); from surfbound.cli import main; main()"


def run_row(src: Path, n: int, timeout: float) -> str:
    twist = f"--twist=0,3/2,1,2,-{n}/2,1/3,0,1"
    argv = [sys.executable, "-c", RUNNER, str(src),
            "tau", "--surface", "ade_d7", "--divisor=1/2*h", twist, "--json"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"N = {n}: timeout after {timeout:g} s"
    wall = time.perf_counter() - start
    tau = json.loads(proc.stdout)["tau"]["exact"] if proc.returncode == 0 else "-"
    return f"N = {n}: exit {proc.returncode}, {wall:.2f} s, tau {tau}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source tree that holds the surfbound package (default: this repo's)")
    parser.add_argument("--n", type=int, nargs="+", default=[25, 50, 100, 200, 400],
                        help="values of N (default: 25 50 100 200 400)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds before a row's process is killed (default: 60)")
    args = parser.parse_args(argv)
    print(f"# {args.src.resolve()}, tau on ade_d7 with --divisor=1/2*h")
    for n in args.n:
        print(run_row(args.src, n, args.timeout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
