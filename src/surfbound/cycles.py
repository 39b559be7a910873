"""Fundamental cycles of negative definite connected curve configurations.

The production path is the classical least-fix-point iteration: start from
the reduced sum of the component's curves and, while some curve still meets
the cycle positively, add that curve (lowest index first). The cross-check
searches a coefficient box depth first for the solutions of least total
degree, with the least total found so far as its bound; there must be
exactly one.

The sublevel set {Z >= 1 : Z.C_i <= 0} is closed under coordinatewise
minimum whenever distinct curves meet nonnegatively (a model invariant), so
the unique minimum exists and is the unique minimizer of total degree. That
is what lets the oracle look for the least total degree alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

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
    model: SurfaceModel, component: Sequence[int], *, gram: Optional[list[list[int]]] = None
) -> FundamentalCycle:
    """Least effective cycle Z >= sum(C_i) with Z.C_i <= 0 for all i. Given gram, the Gram
    block of a component that bounds.Analysis has checked, it skips the curve checks."""
    comp, gram = _component_setup(model, component) if gram is None else (tuple(component), gram)
    coeffs = [1] * len(comp)
    # pairing[i] = Z.C_i, updated by a row of the symmetric Gram per step
    pairing = [sum(row) for row in gram]
    for _ in range(_LAUFER_STEP_CAP):
        bad = next((i for i, p in enumerate(pairing) if p > 0), None)
        if bad is None:
            return _build_cycle(model, comp, coeffs)
        coeffs[bad] += 1
        pairing = list(map(add, pairing, gram[bad]))
    raise ModelInconsistent("cycle iteration did not terminate")


def _least_points(
    gram: Sequence[Sequence[int]], box: int
) -> list[tuple[int, ...]]:
    """Every n in {1..box}^r with gram.n <= 0 at the least total degree.

    One depth-first search, coordinates in order and values upward. The
    least total found so far bounds every branch, so a value that would pass
    it ends its loop; a smaller total clears the points kept so far.
    """
    r = len(gram)
    columns = [[gram[i][p] for i in range(r)] for p in range(r)]
    # An entry g adds at least min(g, g*box) to its row over the box,
    # whatever its sign. slack[i] is (gram.n)_i over the coordinates set so
    # far plus that least addition from the rest; a branch lives while every
    # slack[i] <= 0.
    lows = [[min(g, g * box) for g in column] for column in columns]
    best = r * box + 1
    points: list[tuple[int, ...]] = []
    point = [0] * r

    def extend(depth: int, total: int, slack: list[int]) -> None:
        nonlocal best
        if depth == r:
            if total < best:
                best = total
                points.clear()
            points.append(tuple(point))
            return
        column = columns[depth]
        nxt = [s - low for s, low in zip(slack, lows[depth])]
        left = r - depth - 1
        for v in range(1, box + 1):
            if total + v + left > best:
                break
            nxt = list(map(add, nxt, column))
            if max(nxt) > 0:
                continue
            point[depth] = v
            extend(depth + 1, total + v, nxt)

    extend(0, 0, [sum(row) for row in zip(*lows)])
    return points


def cycle_bruteforce_oracle(
    model: SurfaceModel,
    component: Sequence[int],
    box: int = 12,
    *,
    gram: Optional[list[list[int]]] = None,
) -> FundamentalCycle:
    """Independent brute force over the coefficient box {1..box}^r.

    It searches the box for the solutions of least total degree, of which
    there must be exactly one: the coordinatewise minimum of the whole
    solution set. Given gram, the Gram block of a component that the caller
    has checked, as for fundamental_cycle, it skips the curve checks.
    """
    comp, gram = _component_setup(model, component) if gram is None else (tuple(component), gram)
    points = _least_points(gram, box)
    if not points:
        raise BoxExhausted(f"no cycle found with coefficients up to {box}")
    if len(points) > 1:
        raise ModelInconsistent(
            "minimal cycle is not unique; distinct curves must meet "
            "nonnegatively for the search to be well posed"
        )
    return _build_cycle(model, comp, points[0])
