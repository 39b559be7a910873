"""A seeded fuzzer of the command line.

Each draw is one subcommand on a bundled fixture or on a mutated copy of
one: Gram entries, canonical class and curve coordinates changed, curves
added or dropped, `effective: false`, no ample reference. Divisor and twist
texts are coordinates, curve expressions, junk tokens, or huge numbers, and
the twist keeps coefficients of 10^5-10^6 in the draw. `-k`, `-n`,
`--oracle` and `--json` are drawn at random.

Every run goes through cli.run_subcommand, which parses, computes, makes
the payload and writes it. It must end within WALL_S seconds with exit code
0, 1 or 2 and no exception; an exit 1 leaves stdout empty and writes one
"error:" line to stderr. The draws that run past the wall bound are listed
in OVER_WALL and expected to fail until the work budgets of ROADMAP item 5
and the twist-independent `tau` of item 7 land.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import signal
import time
from random import Random

import pytest

from surfbound import cli, surface_io

SEEDS = (1, 2, 3)
DRAWS = 100
# The other draws take under 0.06 s each on a 2-core host.
WALL_S = 1.0

# (seed, draw): the draws that run past WALL_S, each for more than 8 s on a
# 2-core host. Each has twist coefficients of 10^5-10^6: `bounds` waits on
# `tau` (item 7), and `obstructions` on a set whose size grows with the
# twist (item 5).
OVER_WALL = {
    (1, 54): "bounds",
    (1, 74): "obstructions",
    (3, 0): "obstructions",
}

# The options each subcommand takes, besides --surface and --json.
OPTIONS = {
    "validate": (),
    "zariski": ("divisor", "oracle"),
    "fundcycle": ("curves", "oracle"),
    "exceptional": ("divisor",),
    "tau": ("divisor", "twist"),
    "obstructions": ("divisor", "twist", "k", "oracle"),
    "ek": ("divisor", "twist", "k"),
    "bounds": ("divisor", "twist", "k", "n"),
    "thresholds": ("divisor", "twist", "k", "n", "asserts"),
    "compare-matsusaka": ("divisor",),
    "report": ("divisor", "twist", "k", "n", "asserts"),
}
JUNK = (
    "", " ", "--", "-", "+", "*", "/", ",", ",,", "1/0", "1//2", "2**3", "1e3", "0x10",
    "1_0", "nan", "inf", "K*K", "c1c2", "(1)", "h h", "\x00", "é", "--divisor",
    "=", "3*", "*c1", "-+K", "1/-2", "9" * 5000, "1/" + "7" * 5000,
)
FIXTURES = surface_io.fixture_names()
FIXTURE_DATA = {
    name: surface_io.surface_to_data(surface_io.load_fixture(name)) for name in FIXTURES
}


def _number(rng: Random, huge: bool) -> str:
    roll = rng.random()
    if huge and roll < 0.3:
        n = rng.choice((-1, 1)) * rng.randint(10**5, 10**6)
    elif roll < 0.05:
        n = rng.choice((-1, 1)) * 10 ** rng.randint(20, 400)
    else:
        n = rng.randint(-6, 6)
    q = rng.choice((1, 1, 1, 2, 3))
    return str(n) if q == 1 else f"{n}/{q}"


def _divisor_text(rng: Random, data: dict, huge: bool) -> str:
    roll = rng.random()
    rank = len(data["gram"])
    names = [c["name"] for c in data["curves"]]
    if roll < 0.4:
        # classes most subcommands accept: h, which is orthogonal to the
        # other curves of the ADE fixtures, or the ample reference
        if "h" in names and rng.random() < 0.6:
            return f"{rng.randint(1, 3)}*h"
        ample = data.get("ample_reference") or [1] + [0] * (rank - 1)
        return ",".join(str(rng.randint(1, 3) * x) for x in ample)
    if roll < 0.6:
        size = rank if rng.random() < 0.9 else rank + rng.choice((-1, 1))
        return ",".join(_number(rng, huge) for _ in range(max(size, 1)))
    if roll < 0.9:
        names += ["K", "h", "x"]
        terms = []
        for _ in range(rng.randint(1, 4)):
            sign = rng.choice(("+", "-", "")) if terms else rng.choice(("", "-"))
            coeff = rng.choice(("", _number(rng, huge) + "*"))
            terms.append(f"{sign}{coeff}{rng.choice(names)}")
        return "".join(terms)
    return rng.choice(JUNK)


def _mutated(rng: Random, data: dict) -> dict:
    data = copy.deepcopy(data)
    rank = len(data["gram"])
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(8)
        i, j = rng.randrange(rank), rng.randrange(rank)
        if kind == 0:
            step = rng.choice((-2, -1, 1, 2))
            data["gram"][i][j] += step
            if rng.random() < 0.7 and i != j:
                data["gram"][j][i] += step
        elif kind == 1:
            data["canonical"][i] += rng.choice((-2, -1, 1, 2))
        elif kind == 2 and data["curves"]:
            curve = rng.choice(data["curves"])
            curve["coords"][i] += rng.choice((-1, 1))
        elif kind == 3:
            coords = [rng.randint(-2, 2) for _ in range(rank)]
            data["curves"].append({"name": f"n{rng.randint(0, 9)}", "coords": coords})
        elif kind == 4 and data["curves"]:
            data["curves"].pop(rng.randrange(len(data["curves"])))
        elif kind == 5 and data["curves"]:
            rng.choice(data["curves"])["effective"] = False
        elif kind == 6:
            data.pop("ample_reference", None)
        else:
            data["canonical"] = [-x for x in data["canonical"]]
    return data


def _draw(rng: Random, directory) -> list[str]:
    """One command line; a mutated model is written under directory."""
    fixture = rng.choice(FIXTURES)
    data = FIXTURE_DATA[fixture]
    surface = fixture
    if rng.random() < 0.3:
        data = _mutated(rng, data)
        path = directory / f"model-{rng.getrandbits(32):08x}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        surface = str(path)
    command = rng.choice(tuple(OPTIONS))
    argv = [command, "--surface", surface]
    for option in OPTIONS[command]:
        if option == "divisor":
            argv.append("--divisor=" + _divisor_text(rng, data, huge=False))
        elif option == "twist" and rng.random() < 0.7:
            argv.append("--twist=" + _divisor_text(rng, data, huge=True))
        elif option == "curves":
            names = [c["name"] for c in data["curves"]]
            chosen = ",".join(rng.sample(names, rng.randint(1, len(names)))) if names else ""
            argv.append("--curves=" + (chosen if rng.random() < 0.9 else rng.choice(JUNK)))
        elif option == "k" and rng.random() < 0.7:
            argv += ["-k", rng.choice(("0", "1", "2", "3") * 4 + ("-1", "x"))]
        elif option == "n" and rng.random() < 0.6:
            argv += ["-n", rng.choice(("1", "2", "5", "9") * 4 + ("0", "y"))]
        elif option == "oracle" and rng.random() < 0.5:
            argv.append("--oracle")
        elif option == "asserts":
            argv += [flag for flag in ("--assert-no-fixed-part", "--assert-base-point-free")
                     if rng.random() < 0.3]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _draws(seed: int, directory) -> list[list[str]]:
    rng = Random(f"surfbound-fuzz/{seed}")
    return [_draw(rng, directory) for _ in range(DRAWS)]


class OverWall(Exception):
    pass


def _on_alarm(signum, frame):
    raise OverWall


def _run(argv: list[str]) -> tuple[object, str, str, float]:
    """(exit code, or the exception that escaped, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, WALL_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code: object = cli.run_subcommand(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OverWall:
        code = "over the wall bound"
    except Exception as exc:  # an escape is a finding, reported with its draw
        code = f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _problem(argv: list[str]) -> str | None:
    code, out, err, _ = _run(argv)
    if code not in (0, 1, 2):
        return f"{code}"
    if code == 1 and (out or err.count("\n") != 1 or not err.startswith("error: ")):
        return f"exit 1 with stdout {out[:80]!r} and stderr {err[:200]!r}"
    return None


def test_options_name_the_option_groups_of_every_subcommand():
    # OPTIONS keeps its own order, as the seeded draws and OVER_WALL depend
    # on it; a subcommand or option group added to cli.COMMANDS must still
    # be drawn here
    labels = {"level": "k", "multiple": "n"}
    groups = {
        name: {labels.get(group, group) for group in groups if group != "surface"}
        for name, groups, _, _ in cli.COMMANDS
    }
    assert {name: set(options) for name, options in OPTIONS.items()} == groups


@pytest.mark.parametrize("seed", SEEDS)
def test_every_draw_ends_cleanly(seed, tmp_path):
    problems = []
    for index, argv in enumerate(_draws(seed, tmp_path)):
        if (seed, index) in OVER_WALL:
            continue
        problem = _problem(argv)
        if problem is not None:
            problems.append(f"draw {index}: {argv}: {problem}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "seed,index",
    [
        pytest.param(
            seed,
            index,
            marks=pytest.mark.xfail(
                strict=True,
                reason=f"{command} with a huge twist runs past the wall bound: "
                "ROADMAP items 5 (work budgets) and 7 (tau)",
            ),
            id=f"{seed}-{index}",
        )
        for (seed, index), command in OVER_WALL.items()
    ],
)
def test_draw_over_the_wall_bound(seed, index, tmp_path):
    argv = _draws(seed, tmp_path)[index]
    assert _problem(argv) is None
