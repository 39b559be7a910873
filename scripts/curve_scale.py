"""Time commands on Du Val chains with many curves, one fresh process each.

For each n, the model A_n of `make_fixtures.du_val_model("a", n)` (rank
n + 1: the class h and the chain c1..cn, each curve a unit vector) is
written to a temporary file, which is not timed: its ample reference takes
several seconds to make at n = 500. Then `validate`, `zariski --divisor h`,
`zariski --divisor h+3*c1+...+3*cn`, `tau --divisor h` and `report
--divisor h` each run on it in their own Python process. Each row prints n,
the command, the exit code and the wall time. A process that runs past
--timeout is killed, and its row prints `timeout`.

The second `zariski` row is the growing-support case: only c1 and cn meet
h + 3(c1 + ... + cn) negatively, so support growth takes n/2 rounds, and
each round eliminates its support from scratch. At n = 500 it may print
`timeout` until support growth eliminates each support once as it grows.

    python3 scripts/curve_scale.py                  # n = 20 60 120 250 500
    python3 scripts/curve_scale.py --n 250          # other n
    python3 scripts/curve_scale.py --src other/src  # another source tree
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from make_fixtures import du_val_model

RUNNER = "import sys; sys.path.insert(0, sys.argv.pop(1)); from surfbound.cli import main; main()"

def commands(n: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of each row on A_n."""
    growing = "h+" + "+".join(f"3*c{i}" for i in range(1, n + 1))
    return [
        ("validate", ["validate"]),
        ("zariski --divisor h", ["zariski", "--divisor", "h"]),
        (f"zariski --divisor h+3*c1+...+3*c{n}", ["zariski", "--divisor", growing]),
        ("tau --divisor h", ["tau", "--divisor", "h"]),
        ("report --divisor h", ["report", "--divisor", "h"]),
    ]


def run_row(src: Path, n: int, path: Path, label: str, command: list[str], timeout: float) -> str:
    argv = [sys.executable, "-c", RUNNER, str(src), command[0], "--surface", str(path), *command[1:]]
    label = f"n = {n}: {label}"
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"{label}: timeout after {timeout:g} s"
    wall = time.perf_counter() - start
    return f"{label}: exit {proc.returncode}, {wall:.2f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="source tree that holds the surfbound package (default: this repo's)")
    parser.add_argument("--n", type=int, nargs="+", default=[20, 60, 120, 250, 500],
                        help="chain lengths n (default: 20 60 120 250 500)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds before a row's process is killed (default: 60)")
    args = parser.parse_args(argv)
    print(f"# {args.src.resolve()}, Du Val chains A_n")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            path = Path(tmp) / f"ade_a{n}.json"
            path.write_text(json.dumps(du_val_model("a", n)), encoding="utf-8")
            for label, command in commands(n):
                print(run_row(args.src, n, path, label, command, args.timeout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
