"""The benchmark's workloads as catalogues of CLI commands.

A workload is a list of slots. A slot is one command template with a
finite tuple of variants (argument vectors). A pass runs every slot once,
in an order drawn from the seed, and each slot contributes the variant the
seed assigns to that pass. Slots walk a seeded permutation of their
variants, so no variant repeats within a run until the slot has used all
of them. Because every slot is finite, every command the benchmark can
issue has an expected exit code and stdout digest in ``expected.json``.

An argument ``@name`` stands for the JSON file of a generated model; the
runner writes the file during set-up and substitutes its path. Fixtures
are named directly, as a user would name them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from random import Random
from typing import Callable

from models import (
    block_model,
    plumbing_chain,
    plumbing_elliptic,
    plumbing_tree,
    pseudo_effective_divisor,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "src" / "surfbound" / "fixtures"

Argv = tuple[str, ...]


@dataclass(frozen=True)
class Plan:
    """What one run of a workload executes: its slots and the generated
    model files they refer to."""

    workload: str
    seed: int
    slots: tuple[tuple[Argv, ...], ...]
    models: dict[str, dict]

    def commands(self, pass_index: int) -> list[Argv]:
        """The commands of one pass, in their seeded order. Pass 0 is the
        untimed warm pass."""
        chosen = []
        for i, variants in enumerate(self.slots):
            perm = Random(f"{self.workload}/{self.seed}/slot{i}").sample(
                range(len(variants)), len(variants)
            )
            chosen.append(variants[perm[pass_index % len(variants)]])
        Random(f"{self.workload}/{self.seed}/pass{pass_index}").shuffle(chosen)
        return chosen


def _fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _coords(values) -> str:
    return ",".join(str(v) for v in values)


def _divisor_pool(name: str, data: dict, size: int) -> list[str]:
    return [
        _coords(pseudo_effective_divisor(Random(f"{name}/divisor{i}"), data))
        for i in range(size)
    ]


# -- cli_sweep ----------------------------------------------------------------

# Small fixtures: (nef and big class as an expression in m, curves of one
# negative definite component or None).
SWEEP_FIXTURES = {
    **{f"double_cover_d{d}": ("{m}*H", None) for d in range(3, 9)},
    "hirzebruch_f2": ("{2m}*f+{m}*s", "s"),
    "blowup_p2": ("{m}*L+{m}*E", "E"),
    "a2_resolution": ("{m}*h", "c1,c2"),
    **{f"ade_a{r}": ("{m}*h", ",".join(f"c{i}" for i in range(1, r + 1)))
       for r in range(1, 6)},
    "ade_d4": ("{m}*h", "c1,c2,c3,c4"),
}
SWEEP_PARAMS = tuple(product((1, 2, 3), ("0", "K"), (0, 1, 2)))  # (m, T, k)
SWEEP_DIVISORS = 6


def _sweep_slots() -> list[tuple[Argv, ...]]:
    slots = []
    for name, (a_expr, cycle) in SWEEP_FIXTURES.items():
        data = _fixture(name)
        s = ("--surface", name)
        amp = _coords(data["ample_reference"])
        divisors = _divisor_pool(name, data, SWEEP_DIVISORS)

        def a_of(m: int) -> str:
            return a_expr.replace("{2m}", str(2 * m)).replace("{m}", str(m))

        def per_param(make: Callable[[int, str, int], Argv]) -> tuple[Argv, ...]:
            return tuple(dict.fromkeys(make(m, t, k) for m, t, k in SWEEP_PARAMS))

        slots += [
            (("validate",) + s,),
            (("validate",) + s + ("--json",),),
            tuple(("zariski",) + s + ("--divisor", d, "--json") for d in divisors),
            per_param(lambda m, t, k: ("exceptional",) + s + ("--divisor", a_of(m), "--json")),
            per_param(lambda m, t, k: ("tau",) + s + ("--divisor", a_of(m), "-T", t, "--json")),
            per_param(lambda m, t, k: ("obstructions",) + s
                      + ("--divisor", a_of(m), "-T", t, "-k", str(k), "--json")),
            per_param(lambda m, t, k: ("ek",) + s
                      + ("--divisor", a_of(m), "-T", t, "-k", str(k), "--json")),
            per_param(lambda m, t, k: ("bounds",) + s
                      + ("--divisor", a_of(m), "-T", t, "-k", str(k), "-n", str(m + k))),
            per_param(lambda m, t, k: ("thresholds",) + s
                      + ("--divisor", a_of(m), "-T", t, "-k", str(k), "-n", str(m + k),
                         "--json")),
            (("compare-matsusaka",) + s + ("--divisor", amp, "--json"),),
            tuple(("report",) + s + ("--divisor", d, "-T", t, "-k", str(k),
                                     "-n", str(1 + i % 4), "--json")
                  for i, (d, (_, t, k)) in enumerate(product(divisors, SWEEP_PARAMS[:6]))),
        ]
        if cycle is not None:
            slots.append((("fundcycle",) + s + ("--curves", cycle, "--json"),))
    return slots


# -- ade_obstruction ------------------------------------------------------------

_ADE_BOX = (
    ("tau",),
    ("obstructions", "-k", "0"),
    ("obstructions", "-k", "1"),
    ("obstructions", "-k", "2"),
)
_ADE_THRESHOLDS = (("thresholds", "-k", "1"),)
_ADE_REPORT = (("report", "-k", "2", "-n", "5"),)
_ADE_LOW = (("obstructions", "-k", "0"), ("obstructions", "-k", "1"))
# Fixture -> commands. The largest boxes (tau, -k 2, thresholds and report
# on D8 and E7; E8 beyond -k 0) and the pairing-heavy thresholds and report
# on A7, A8 and D7 are left out, so that one pass stays near 4.5 seconds
# and the box loop stays the largest cost: on the reference host D8 report
# -k 2 alone takes about 7 s and E8 tau about 53 s.
ADE_COMMANDS = {
    "ade_a7": _ADE_BOX,
    "ade_a8": _ADE_BOX,
    "ade_d6": _ADE_BOX + _ADE_THRESHOLDS + _ADE_REPORT,
    "ade_e6": _ADE_BOX + _ADE_THRESHOLDS + _ADE_REPORT,
    "ade_d7": _ADE_BOX,
    "ade_d8": _ADE_LOW,
    "ade_e7": _ADE_LOW,
    "ade_e8": (("obstructions", "-k", "0"),),
}
# The twist T - j*h of each variant, one per variant and fixture. A = m*h
# and h are orthogonal to the exceptional curves, so the twist alone sets
# the linear term (T - K).c_i of the box: every variant of a slot has its
# own box, and no box repeats within a run until the slot has used all
# twelve. The twists were chosen among combinations of up to three curves
# with coefficients +-1 so that, at the reference commit, the summed box
# volume of a fixture's commands and the volume of its largest box each
# differ by at most about 1.5 times across the twelve.
ADE_TWISTS = {
    "ade_a7": (
        "-c3+c6", "+c1-c5-c6", "+c3-c6-c7", "+c4-c6-c7", "-c1-c2+c4", "-c1-c2+c5", "-c2-c3+c7",
        "+c2-c3-c4", "+c3-c4-c5", "-c3-c4+c5", "-c4-c5+c6", "+c2+c3",
    ),
    "ade_a8": (
        "-c3-c4-c5", "-c4-c5-c6", "-c2-c3-c4", "-c5-c6-c7", "-c2-c3-c6", "-c3-c6-c7", "-c4-c5",
        "-c1-c2-c3", "-c6-c7-c8", "-c2-c3-c7", "-c2-c6-c7", "-c1-c2-c6",
    ),
    "ade_d6": (
        "-c2", "-c2-c4", "-c4", "-c3", "+c1-c3-c4", "-c1-c2+c5", "-c1-c2+c6", "-c1-c4", "-c1-c5",
        "-c1-c6", "-c1-c5-c6", "-c1+c3",
    ),
    "ade_e6": (
        "+c1-c5", "-c1+c5", "+c3-c5-c6", "-c1+c3-c6", "+c1", "+c2", "+c3", "+c4", "+c5", "+c6",
        "-c1+c2-c5", "-c1+c4-c5",
    ),
    "ade_d7": (
        "+c1-c5-c6", "+c1-c5-c7", "+c2-c5-c6", "+c2-c5-c7", "+c3-c5-c6", "+c3-c5-c7", "-c4-c6-c7",
        "+c4+c5", "-c3-c4+c6", "-c3-c4+c7", "-c2+c4", "-c2+c5",
    ),
    "ade_d8": (
        "-c4-c5", "-c5-c6", "-c1-c2", "-c1-c2-c3", "-c2", "-c2-c3", "-c7", "-c8", "-c3-c4", "-c4",
        "-c5", "-c6",
    ),
    "ade_e7": (
        "-c2-c3-c4", "-c3-c4-c5", "-c2-c3", "-c2-c3-c7", "-c1", "-c4-c5-c6", "-c5-c6", "-c4-c5",
        "-c2", "-c5", "-c3-c4", "-c3-c4-c7",
    ),
    "ade_e8": (
        "-c1-c2-c3", "-c2-c3-c8", "-c4-c5-c6", "-c3-c4-c8", "-c2-c3-c4", "-c3-c4-c5", "-c1-c2",
        "-c5-c6", "-c7", "-c3-c8", "-c2-c3", "-c4-c5",
    ),
}


def _ade_slots() -> list[tuple[Argv, ...]]:
    slots = []
    for name, commands in ADE_COMMANDS.items():
        for cmd in commands:
            variants = []
            for i, twist in enumerate(ADE_TWISTS[name]):
                m, j = 1 + i % 3, i // 3 % 3
                # --twist=EXPR, because a twist may start with a minus sign.
                t = f"--twist={j}*h{twist}" if j else f"--twist={twist}"
                variants.append((cmd[0], "--surface", name, "--divisor", f"{m}*h", t)
                                + cmd[1:] + ("--json",))
            slots.append(tuple(variants))
    return slots


# -- oracle_crosscheck -----------------------------------------------------------

# The 7-curve fixtures appear twice, so each pass draws two divisors for
# them: they are the slowest group, and with six of them in a pass the 90th
# percentile falls inside the group rather than at its edge.
ORACLE_FIXTURES = (
    "hirzebruch_f2", "blowup_p2", "a2_resolution",
    "ade_a3", "ade_a4", "ade_a5", "ade_d4", "ade_d5",
    "ade_a6", "ade_d6", "ade_e6", "ade_a6", "ade_d6", "ade_e6",
)
ADE_CHAINS = ("ade_a5", "ade_a8", "ade_d6", "ade_d8", "ade_e6", "ade_e7", "ade_e8")
# Generated model families: slot name -> builder of the model data. Every
# run writes all MODEL_VARIANTS models of each family, and a family's slot
# walks all of them, so the seed orders the models but does not pick which
# ones a run uses: the variants differ in cost by up to four times.
BLOCK_SHAPES = ((2,), (3,), (2, 1), (2, 2), (4,))
PLUMBING = {
    "chain3": lambda rng, name: plumbing_chain(rng, 3, name),
    "chain5": lambda rng, name: plumbing_chain(rng, 5, name),
    "tree4": lambda rng, name: plumbing_tree(rng, 4, name),
    "tree6": lambda rng, name: plumbing_tree(rng, 6, name),
    "elliptic": plumbing_elliptic,
}
MODEL_VARIANTS = 8
ORACLE_DIVISORS = 48


def _generated_models() -> dict[str, Callable[[str], dict]]:
    """Slot name -> builder from model name to data. The model name fixes
    the random draw, so a name always denotes the same model."""
    out: dict[str, Callable[[str], dict]] = {}
    for shape in BLOCK_SHAPES:
        tag = "x".join(str(s) for s in shape)
        out[f"block{tag}"] = lambda name, shape=shape: block_model(Random(name), shape, name)
    for family, build in PLUMBING.items():
        out[family] = lambda name, build=build: build(Random(name), name)
    return out


def _oracle_slots():
    slots: list[tuple[Argv, ...]] = []
    models: dict[str, dict] = {}

    def zariski(surface: str, data: dict, pool: str) -> tuple[Argv, ...]:
        return tuple(
            ("zariski", "--surface", surface, "--divisor", d, "--oracle", "--json")
            for d in _divisor_pool(pool, data, ORACLE_DIVISORS)
        )

    for i, name in enumerate(ORACLE_FIXTURES):
        # A fixture listed twice draws from a second pool the second time.
        pool = name if ORACLE_FIXTURES.index(name) == i else f"{name}/again"
        slots.append(zariski(name, _fixture(name), pool))
    for name in ADE_CHAINS:
        chain = ",".join(c["name"] for c in _fixture(name)["curves"][1:])
        slots.append((("fundcycle", "--surface", name, "--curves", chain,
                       "--oracle", "--json"),))
    for slot, build in _generated_models().items():
        names = [f"{slot}_v{v}" for v in range(MODEL_VARIANTS)]
        for name in names:
            models[name] = build(name)
        if slot.startswith("block"):
            slots.append(tuple(argv for name in names
                               for argv in zariski(f"@{name}", models[name], name)))
        else:
            slots.append(tuple(
                ("fundcycle", "--surface", f"@{name}", "--curves",
                 ",".join(c["name"] for c in models[name]["curves"]), "--oracle", "--json")
                for name in names))
    return slots, models


# -- registry ------------------------------------------------------------------

WORKLOADS = ("cli_sweep", "ade_obstruction", "oracle_crosscheck")


def plan(workload: str, seed: int) -> Plan:
    if workload == "cli_sweep":
        return Plan(workload, seed, tuple(_sweep_slots()), {})
    if workload == "ade_obstruction":
        return Plan(workload, seed, tuple(_ade_slots()), {})
    if workload == "oracle_crosscheck":
        slots, models = _oracle_slots()
        return Plan(workload, seed, tuple(slots), models)
    raise KeyError(workload)


def catalogue(workload: str) -> tuple[dict[str, dict], list[Argv]]:
    """Every model and command any seed of the workload can use: seeds
    differ only in the order of the variants."""
    p = plan(workload, 0)
    return p.models, [argv for variants in p.slots for argv in variants]


def command_key(argv: Argv) -> str:
    """Identity of a command in expected.json: its arguments, with generated
    model files named by ``@name`` rather than by path."""
    return " ".join(argv)
