"""Time surfbound commands, each row in a fresh Python process.

Four families of rows:

  chains  `validate`, `zariski --divisor h`, `zariski --divisor
          h+3*c1+...+3*cn`, `tau --divisor h` and `report --divisor h` on
          the Du Val chain A_n of `make_fixtures.du_val_model("a", n)` (rank
          n + 1: the class h and the chain c1..cn, each curve a unit vector).
          Each A_n is written to a temporary file before any row is timed:
          its ample reference takes several seconds to make at n = 500. The
          second `zariski` row is the growing-support case: only c1 and cn
          meet h + 3(c1 + ... + cn) negatively, so support growth takes n/2
          rounds.
  tau     `tau --json` on the bundled D7 fixture with A = h/2 and the twist
          T = (0, 3/2, 1, 2, -N/2, 1/3, 0, 1). The centre of the obstruction
          form's ellipsoid has its c4 coefficient at -N/4, so the sublevel
          set that `tau` searches grows with N.
  large   the commands that print large obstruction sets, on the bundled E8
          fixture with A = h.
  startup what a process costs before and around a small command: the floor
          `python -c pass`, `import surfbound.cli`, and `validate`, `zariski`,
          `tau` and `thresholds -k 1` on the bundled E6 fixture with A = h.
          Each row is run --repeat times and prints the median wall time.

Each row reads its process's stdout as it arrives, without holding it, and
prints the exit code, the wall time, the stdout size in bytes, the peak RSS
of that process alone (from os.wait4) and the sha256 of stdout. A process
that runs past --timeout is killed and reaped, and its row prints
`timeout after T s`. Before the first row, the rows' processes get a
bytecode cache in a temporary directory, filled by one untimed import of
surfbound.cli per source tree, so that no row times compiling the package.

With --src given more than once, each run of each row runs once per tree,
the trees in turn, first to last on odd runs and last to first on even
ones, so that a host whose speed drifts slows each tree alike; the row
prints one line per tree, its label followed by [k] for the k-th --src.

    python3 scripts/oneshot.py chains                  # n = 20 60 120 250 500
    python3 scripts/oneshot.py chains --n 250          # other n
    python3 scripts/oneshot.py tau                     # N = 25 50 100 200 400
    python3 scripts/oneshot.py large --rows 2 3        # rows by number (default: all)
    python3 scripts/oneshot.py tau --src other/src     # another source tree
    python3 scripts/oneshot.py large --src a/src --src b/src   # two trees, run by run
    python3 scripts/oneshot.py startup --repeat 31     # runs per row (default: 15)
"""

from __future__ import annotations

import argparse
import hashlib
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
RUNNER = "import sys; sys.path.insert(0, sys.argv.pop(1)); from surfbound.cli import main; main()"
IMPORT = "import sys; sys.path.insert(0, sys.argv.pop(1)); import surfbound.cli"
# Stands in a row's Python arguments for the source tree that runs it.
SRC = "{src}"
# Run from HERE: writes A_n (argv[2]) of make_fixtures.du_val_model to argv[1].
WRITE_CHAIN = ("import json, sys; from make_fixtures import du_val_model; open(sys.argv[1], 'w', "
               "encoding='utf-8').write(json.dumps(du_val_model('a', int(sys.argv[2]))))")
LARGE = (
    "obstructions -k 10 --json",
    "obstructions -k 20",
    "obstructions -k 20 --json",
    "report --twist=6*c1 -n 30 --json",
    "thresholds -k 40",
    "thresholds --twist=6*c1 -k 0",
    "obstructions -k 6 --json",
)


def cli(*command: str) -> list[str]:
    """The Python arguments that run the surfbound command line on command."""
    return ["-c", RUNNER, SRC, *command]


def chains(args, tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, Python arguments) of each row on each A_n, whose models it
    writes to tmp, each in a process of its own, so that this one stays
    small (run_row)."""
    rows = []
    for n in args.n:
        path = tmp / f"ade_a{n}.json"
        subprocess.run([sys.executable, "-c", WRITE_CHAIN, str(path), str(n)], cwd=HERE, check=True)
        surface = ["--surface", str(path)]
        growing = "h+" + "+".join(f"3*c{i}" for i in range(1, n + 1))
        rows += [
            (f"n = {n}: validate", cli("validate", *surface)),
            (f"n = {n}: zariski --divisor h", cli("zariski", *surface, "--divisor", "h")),
            (f"n = {n}: zariski --divisor h+3*c1+...+3*c{n}",
             cli("zariski", *surface, "--divisor", growing)),
            (f"n = {n}: tau --divisor h", cli("tau", *surface, "--divisor", "h")),
            (f"n = {n}: report --divisor h", cli("report", *surface, "--divisor", "h")),
        ]
    return rows


def tau(args, tmp: Path) -> list[tuple[str, list[str]]]:
    return [(f"N = {n}", cli("tau", "--surface", "ade_d7", "--divisor=1/2*h",
                             f"--twist=0,3/2,1,2,-{n}/2,1/3,0,1", "--json"))
            for n in args.n]


def large(args, tmp: Path) -> list[tuple[str, list[str]]]:
    rows = []
    for number in args.rows:
        command, *rest = row = LARGE[number - 1].split()
        rows.append((f"{number}. {' '.join(row)}",
                     cli(command, "--surface", "ade_e8", "--divisor", "h", *rest)))
    return rows


def startup(args, tmp: Path) -> list[tuple[str, list[str]]]:
    rows = [("python -c pass", ["-c", "pass"]), ("import surfbound.cli", ["-c", IMPORT, SRC])]
    for command in ("validate", "zariski --divisor h", "tau --divisor h", "thresholds --divisor h -k 1"):
        name, *rest = command.split()
        rows.append((command, cli(name, "--surface", "ade_e6", *rest)))
    return rows


def run_row(argv: list[str], timeout: float, env: dict) -> Optional[tuple[int, float, int, float, str]]:
    """Run Python on argv: its exit code, wall time in s, stdout bytes, peak
    RSS in MB and the sha256 of its stdout, or None if it ran past timeout
    and was killed. The process is reaped here in every case.

    On Linux a child's ru_maxrss starts from the RSS of the process that
    spawned it: from its peak under vfork, which subprocess uses by
    default, and from its current anonymous memory under fork. So main
    turns vfork off, and this process keeps small: it imports no
    surfbound, builds no model and reads stdout 64 KiB at a time."""
    argv = [sys.executable, *argv]
    digest = hashlib.sha256()
    size = 0
    timed_out = False
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    with proc.stdout as out:
        while (left := start + timeout - time.perf_counter()) > 0 and select.select([out], [], [], left)[0]:
            if not (chunk := os.read(out.fileno(), 1 << 16)):
                break  # end of output
            digest.update(chunk)
            size += len(chunk)
        else:  # the deadline passed first
            proc.kill()
            timed_out = True
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if timed_out:
        return None
    return proc.returncode, wall, size, usage.ru_maxrss / 1024, digest.hexdigest()  # ru_maxrss: KiB


def row_texts(argv: list[str], args, env: dict) -> list[str]:
    """What a row prints for each tree of args.src: its run's exit code,
    wall time, stdout bytes, peak RSS and sha256. A startup row runs
    args.repeat times and prints the median wall time in ms and the highest
    peak RSS. Each run runs every tree, in turns (see the module doc)."""
    repeat = getattr(args, "repeat", None)
    trees = [[str(src) if arg == SRC else arg for arg in argv] for src in args.src]
    runs: list[Optional[list]] = [[] for _ in trees]
    for number in range(repeat or 1):
        order = range(len(trees)) if number % 2 == 0 else reversed(range(len(trees)))
        for k in order:
            if runs[k] is not None:
                run = run_row(trees[k], args.timeout, env)
                runs[k] = None if run is None else runs[k] + [run]
    return [run_text(tree_runs, args, repeat) for tree_runs in runs]


def run_text(runs: Optional[list], args, repeat: Optional[int]) -> str:
    """The text of one tree's runs of a row: runs is None if one ran past
    its timeout."""
    if runs is None:
        return f"timeout after {args.timeout:g} s"
    if len({(code, size, digest) for code, _, size, _, digest in runs}) > 1:
        return "runs differ in exit code or stdout"
    code, _, size, _, digest = runs[0]
    walls = [run[1] for run in runs]
    wall = (f"{walls[0]:.2f} s" if repeat is None
            else f"{statistics.median(walls) * 1e3:.1f} ms median of {repeat}")
    return f"exit {code}, {wall}, {size} bytes, {max(run[3] for run in runs):.1f} MB, sha256 {digest}"


FAMILIES = {
    "chains": (chains, "Du Val chains A_n"),
    "tau": (tau, "tau on ade_d7 with --divisor=1/2*h"),
    "large": (large, "on ade_e8 with --divisor h"),
    "startup": (startup, "start-up and small commands on ade_e6 with --divisor h"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--src", type=Path, action="append",
                        help="source tree that holds the surfbound package (default: this repo's); "
                             "given more than once, the trees run in turns")
    common.add_argument("--timeout", type=float, default=60.0,
                        help="seconds before a row's process is killed (default: 60)")
    families = parser.add_subparsers(dest="family", required=True)
    for name, default in (("chains", [20, 60, 120, 250, 500]), ("tau", [25, 50, 100, 200, 400])):
        families.add_parser(name, parents=[common]).add_argument(
            "--n", type=int, nargs="+", default=default,
            help=f"chain lengths n or twist sizes N (default: {' '.join(map(str, default))})")
    families.add_parser("large", parents=[common]).add_argument(
        "--rows", type=int, nargs="+", metavar="N", default=range(1, len(LARGE) + 1),
        choices=range(1, len(LARGE) + 1), help=f"row numbers 1..{len(LARGE)} (default: all)")
    families.add_parser("startup", parents=[common]).add_argument(
        "--repeat", type=int, default=15, metavar="R", help="runs per row (default: 15)")
    args = parser.parse_args(argv)
    args.src = args.src or [HERE.parent / "src"]
    if getattr(args, "repeat", 1) < 1:
        parser.error("--repeat must be at least 1")
    rows, title = FAMILIES[args.family]
    subprocess._USE_VFORK = False  # the documented switch; see run_row
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": str(Path(tmp) / "pycache")}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for src in args.src:
            subprocess.run([sys.executable, "-c", IMPORT, str(src)], env=env, check=True)
        print(f"# {', '.join(str(src.resolve()) for src in args.src)}, {title}", flush=True)
        for label, argv in rows(args, Path(tmp)):
            texts = row_texts(argv, args, env)
            for k, text in enumerate(texts, 1):
                print(f"{label}{f' [{k}]' if len(texts) > 1 else ''}: {text}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
