#!/usr/bin/env python3
"""How much of a benchmark workload the analysis cache can serve, and why.

Runs the passes of one perfbench run in process (pass 0 is the untimed warm
pass), logs every system n*A + T that a command asks bounds.analysis_of for,
and reads off, for each timed request, its reuse distance: the number of
distinct systems asked for since the last request for the same system. An
LRU cache of size S serves a request exactly when its distance is below S,
so one run gives the hits at every bound. Hits are split two ways:

- within a pass (the system's last request came earlier in the same pass)
  or across passes (it came in an earlier pass, the warm pass included);
- from another command line on the same system (another subcommand, k or
  n) or from a replay of the same command line.

The hits of the real cache at bounds.ANALYSIS_CACHE_SIZE are counted too,
as a check on the reading. Run from the root of a checkout:

    python3 scripts/analysis_reuse.py --workload cli_sweep --seed 1 --passes 225

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from surfbound import bounds, cli  # noqa: E402

BOUNDS = (16, 32, 48, 64, 96, 128, 192, 256)


def requests(workload: str, seed: int, passes: int) -> list[tuple[int, str, tuple, bool]]:
    """(pass, command line, system, served by the real cache) per request."""
    plan = workloads.plan(workload, seed)
    log, last = [], {}
    real = bounds.analysis_of

    def logged(model, a, t):
        analysis = real(model, a, t)
        key = (model.name, a, t)
        log.append((index, line, key, last.get(key) is analysis))
        last[key] = analysis
        return analysis

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in plan.models.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(data, indent=1), encoding="utf-8")
        bounds.analysis_of = logged
        try:
            for index in range(passes + 1):
                for argv in plan.commands(index):
                    line = workloads.command_key(argv)
                    real_argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.run_subcommand(real_argv)
        finally:
            bounds.analysis_of = real
    return log


def reuse(log) -> dict:
    stack: list = []  # systems, most recently requested first
    previous: dict = {}  # system -> (pass, line) of its last request
    timed = repeated = within = other_line = real_hits = within_max = 0
    hits = {s: {"within_pass": 0, "across_passes": 0, "other_line": 0, "same_line": 0}
            for s in BOUNDS}
    per_pass: dict[int, set] = {}
    for index, line, key, served in log:
        distance = stack.index(key) if key in stack else None
        if distance is not None:
            stack.pop(distance)
        stack.insert(0, key)
        last = previous.get(key)
        previous[key] = (index, line)
        if index == 0:
            continue
        timed += 1
        real_hits += served
        per_pass.setdefault(index, set()).add(key)
        if last is None:
            continue
        repeated += 1
        if last[0] == index:
            within += 1
            within_max = max(within_max, distance)
        other_line += last[1] != line
        for s in BOUNDS:
            if distance < s:
                row = hits[s]
                row["within_pass" if last[0] == index else "across_passes"] += 1
                row["other_line" if last[1] != line else "same_line"] += 1
    return {
        "timed_requests": timed,
        "timed_passes": len(per_pass),
        "distinct_systems": len(previous),
        "mean_distinct_systems_per_pass": round(
            sum(map(len, per_pass.values())) / max(len(per_pass), 1), 1),
        "repeated_share": round(repeated / max(timed, 1), 4),
        "reuse_within_pass_share": round(within / max(timed, 1), 4),
        # the smallest LRU that serves every reuse within a pass is one more
        "reuse_within_pass_max_distance": within_max,
        "reuse_from_other_line_share": round(other_line / max(timed, 1), 4),
        "real_cache": {"size": bounds.analysis_of.cache_info().maxsize, "hits": real_hits},
        "by_bound": {s: {"hit_share": round(sum(row[k] for k in ("within_pass", "across_passes"))
                                            / max(timed, 1), 4), **row}
                     for s, row in hits.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True,
                        help="timed passes after the warm pass")
    args = parser.parse_args(argv)
    result = reuse(requests(args.workload, args.seed, args.passes))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
