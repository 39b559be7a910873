#!/usr/bin/env python3
"""Record expected.json: the exit code and stdout digest of every command
any seed of any workload can issue.

    python3 perfbench/record.py [WORKLOAD ...]

Run it from the root of a checkout at the commit whose outputs are the
reference. Workloads not named keep their recorded entries.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def record(workload: str) -> dict[str, list]:
    from surfbound import cli

    models, commands = workloads.catalogue(workload)
    model_dir = run.WORK / f"record-{os.getpid()}"
    try:
        executor = run.Executor(cli, {}, run._write_models(models, model_dir),
                                float("inf"))
        out = {}
        for argv in commands:
            got, _ = executor.execute(argv)
            out[workloads.command_key(argv)] = got
            if got[0] != 0:
                print(f"exit {got[0]}: {workloads.command_key(argv)}", file=sys.stderr)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)
    return out


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    os.chdir(run.ROOT)
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        start = time.perf_counter()
        expected[name] = record(name)
        print(f"{name}: {len(expected[name])} commands in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
