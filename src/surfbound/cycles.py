"""Fundamental cycles of negative definite connected curve configurations.

The production path is the classical least-fix-point iteration: start from
the reduced sum of the component's curves and, while some curve still meets
the cycle positively, add that curve (lowest index first). The cross-check
enumerates integer vectors in a coefficient box by increasing total degree
and returns the first solution level, which must be a singleton.

The sublevel set {Z >= 1 : Z.C_i <= 0} is closed under coordinatewise
minimum whenever distinct curves meet nonnegatively (a model invariant), so
the unique minimum exists and is the unique minimizer of total degree. That
is what lets the oracle stop at the first nonempty level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import lattice
from .errors import (
    BoxExhausted,
    ModelInconsistent,
    NotConnected,
    NotNegativeDefinite,
)
from .surface import DivisorClass, SurfaceModel

_LAUFER_STEP_CAP = 100_000


@dataclass(frozen=True)
class FundamentalCycle:
    component: tuple[int, ...]
    coefficients: tuple[int, ...]  # aligned with component
    divisor: DivisorClass
    multiplicity: int  # -Z^2, the multiplicity of the contracted point
    genus: int  # arithmetic genus of Z


def _component_setup(
    model: SurfaceModel, component: Sequence[int]
) -> tuple[tuple[int, ...], list[list[int]]]:
    comp = tuple(sorted(set(int(i) for i in component)))
    if not comp:
        raise NotConnected("empty curve configuration")
    gram = model.curve_gram(comp)
    if not lattice.is_negative_definite(gram):
        raise NotNegativeDefinite(
            "configuration Gram matrix is not negative definite"
        )
    if model.connected_components(comp) != (comp,):
        raise NotConnected("configuration is not connected")
    return comp, gram


def _build_cycle(
    model: SurfaceModel, comp: tuple[int, ...], coeffs: Sequence[int]
) -> FundamentalCycle:
    divisor = model.divisor_from_curves(dict(zip(comp, coeffs)))
    z2 = model.self_intersection(divisor)
    if z2 >= 0:
        raise ModelInconsistent("cycle self-intersection must be negative")
    genus = model.arithmetic_genus(divisor)
    if genus < 0:
        raise ModelInconsistent(
            "fundamental cycle has negative arithmetic genus; the "
            "configuration is not realizable by curves on a surface"
        )
    return FundamentalCycle(
        component=comp,
        coefficients=tuple(int(c) for c in coeffs),
        divisor=divisor,
        multiplicity=int(-z2),
        genus=genus,
    )


def fundamental_cycle(
    model: SurfaceModel, component: Sequence[int]
) -> FundamentalCycle:
    """Least effective cycle Z >= sum(C_i) with Z.C_i <= 0 for all i."""
    comp, gram = _component_setup(model, component)
    r = len(comp)
    coeffs = [1] * r
    # pairing[i] = Z.C_i, updated incrementally as curves are added
    pairing = [sum(gram[i][j] for j in range(r)) for i in range(r)]
    for _ in range(_LAUFER_STEP_CAP):
        bad = next((i for i in range(r) if pairing[i] > 0), None)
        if bad is None:
            return _build_cycle(model, comp, coeffs)
        coeffs[bad] += 1
        for i in range(r):
            pairing[i] += gram[i][bad]
    raise ModelInconsistent("cycle iteration did not terminate")


def cycle_bruteforce_oracle(
    model: SurfaceModel, component: Sequence[int], box: int = 12
) -> FundamentalCycle:
    """Independent brute force over the coefficient box {1..box}^r.

    Vectors are generated by increasing total degree with branch pruning;
    the first level containing a solution must contain exactly one, and that
    vector is the coordinatewise minimum of the whole solution set.
    """
    comp, gram = _component_setup(model, component)
    r = len(comp)
    if box < 1:
        raise BoxExhausted("box must allow coefficient 1")
    # min_future[i][p]: least possible remaining contribution to Z.C_i from
    # coordinates p..r-1, using n_j >= 1 off the diagonal (entries there are
    # nonnegative) and n_i <= box on the diagonal (entry negative).
    min_future = [[0] * (r + 1) for _ in range(r)]
    for i in range(r):
        for p in range(r - 1, -1, -1):
            contrib = box * gram[i][p] if p == i else gram[i][p]
            min_future[i][p] = min_future[i][p + 1] + contrib

    found: list[tuple[int, ...]] = []

    def extend(level: int, depth: int, remaining: int,
               partial: list[int], stack: list[int]) -> None:
        if depth == r:
            if all(partial[i] <= 0 for i in range(r)):
                found.append(tuple(stack))
            return
        tail = r - depth - 1
        low = max(1, remaining - tail * box)
        high = min(box, remaining - tail)
        for v in range(low, high + 1):
            nxt = [partial[i] + v * gram[i][depth] for i in range(r)]
            if any(nxt[i] + min_future[i][depth + 1] > 0 for i in range(r)):
                continue
            stack.append(v)
            extend(level, depth + 1, remaining - v, nxt, stack)
            stack.pop()

    for level in range(r, r * box + 1):
        extend(level, 0, level, [0] * r, [])
        if found:
            if len(found) > 1:
                raise ModelInconsistent(
                    "minimal cycle is not unique; distinct curves must meet "
                    "nonnegatively for the search to be well posed"
                )
            return _build_cycle(model, comp, found[0])
    raise BoxExhausted(f"no cycle found with coefficients up to {box}")

