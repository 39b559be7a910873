"""Zariski decomposition of pseudo-effective divisor classes.

Two independent routes compute the same decomposition D = P + N:

  * zariski_decompose grows the support of N from the curves the positive
    part still meets negatively, re-solving until P is nef on the model;
  * zariski_oracle takes N as the least point of {N >= 0 : sum_i N_i
    C_i.C_j <= D.C_j for every curve j}, so that P is the largest nef
    subdivisor of D (T. Bauer, J. Algebraic Geom. 18, 2009), by a linear
    program that shares no code with support growth.

Both work in integers, on the pairings m*D.C_j (m the common denominator of
D), and build a Fraction only for the coefficients that are kept. Support
growth solves (D - N).C_i = 0 on a support: one fraction-free elimination
of the negated Gram block (lattice.negated_elimination) is at once the
definiteness test and the factorization, and adjugate_solve gives
y = det*m*N on the support. P is nef exactly when det*m*D.C_j - C_j.Y >= 0
for every curve j: Y = sum_i y_i C_i meets all curves in one kernel call.

Both enforce the full contract before returning: P nef against the model,
N effective with negative definite support (support growth by its
elimination, the oracle by a test of its own), and P orthogonal to every
support curve.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import lattice
from .errors import ModelInconsistent, NotPseudoEffective
from .surface import DivisorClass, SurfaceModel

Q = Fraction


class ZariskiDecomposition(NamedTuple):
    positive: DivisorClass
    negative: DivisorClass
    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]  # aligned with support


class H1Correction(NamedTuple):
    """Cohomological correction data attached to the negative part F = N.

    The leading coefficient is c2 = -F^2/2, the linear one c1 = F.K/2, and
    the sliding constant is the callable c0(b) = -(b*F.K/2 - b^2*F^2/2).
    """

    c2: Fraction
    c1: Fraction

    def c0(self, b) -> Fraction:
        b = Q(b)
        return -self.c1 * b - self.c2 * b * b


def _pseudo_effective_precheck(model: SurfaceModel, d: DivisorClass) -> None:
    if model.ample_reference is not None and not model.is_pseudo_effective_model(d):
        raise NotPseudoEffective("divisor pairs negatively with the ample reference class")


def _finalize(
    model: SurfaceModel, d: DivisorClass, solved: dict[int, int], den: int
) -> ZariskiDecomposition:
    """The decomposition whose negative part has the coefficients
    solved[i] / den, solved in integers and den = det*m > 0. The caller
    answers for the negative definiteness of the support."""
    support = tuple(i for i in sorted(solved) if solved[i])
    if any(solved[i] < 0 for i in support):
        raise NotPseudoEffective(
            "negative part acquired a negative coefficient; the divisor is "
            "not pseudo-effective on this model or the curve list is incomplete"
        )
    negative = model.divisor_from_curves({i: solved[i] for i in support}, den)
    positive = d - negative
    for i, p in enumerate(model.scaled_curve_pairings(positive)[0]):
        if p < 0:
            raise ModelInconsistent("positive part is not nef after stabilizing")
        if i in support and p != 0:
            raise ModelInconsistent("positive part meets its own support")
    coeffs = tuple(Q(solved[i], den) for i in support)
    return ZariskiDecomposition(positive, negative, support, coeffs)


def zariski_decompose(model: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Support-growth decomposition.

    Starting from an empty support, repeatedly add every curve the current
    positive part meets negatively and re-solve (D - N).C_j = 0 on the
    enlarged support. The support only grows, so the loop ends after at most
    one pass per curve.
    """
    _pseudo_effective_precheck(model, d)
    dc, m = model.scaled_curve_pairings(d)
    support: tuple[int, ...] = ()
    det, y, p = 1, [], dc
    for _ in range(len(model.curves) + 1):
        violators = [j for j, x in enumerate(p) if x < 0]
        if not violators:
            # the support was eliminated, so each block inside it is
            # negative definite too
            return _finalize(model, d, dict(zip(support, y)), det * m)
        support = tuple(sorted(set(support) | set(violators)))
        eliminated = lattice.negated_elimination(model.curve_gram(support))
        if eliminated is None:
            raise NotPseudoEffective(
                "candidate support is not negative definite; the divisor is "
                "not pseudo-effective on this model or the curve list is "
                "incomplete"
            )
        det, rows = eliminated
        # y = adj(-Gram)(-m*D.C) = det*m*N on the support, and then
        # p = det*m*P.C_j = det*m*D.C_j - C_j.(sum_i y_i C_i) for every curve j
        y = lattice.adjugate_solve(rows, [-dc[i] for i in support])
        n = model.divisor_from_curves(dict(zip(support, y))).num
        p = [det * a - b for a, b in zip(dc, model.curve_sums(model.gram_times(n)))]
    raise ModelInconsistent("support iteration failed to stabilize")


def _pivot(
    rows: list[list[int]], basis: list[int], cost: list[int], det: int, leave: int, enter: int
) -> int:
    """A fraction-free pivot on rows[leave][enter]. Each entry is det times
    the entry of the rational tableau, det the determinant of the basis; a
    pivot on p turns each entry outside the pivot row into (v*p - f*w)/det,
    an exact division, and p becomes det. Returns p."""
    top = rows[leave]
    p = top[enter]
    for row in (*rows, cost):
        if row is not top:
            f = row[enter]
            row[:] = [(v * p - f * w) // det for v, w in zip(row, top)]
    basis[leave] = enter
    return p


def _minimize(
    rows: list[list[int]], basis: list[int], cost: list[int], det: int, columns: int
) -> int:
    """Simplex pivots by Bland's rule until no column below columns has a
    negative reduced cost, or the objective, a sum of variables >= 0, is 0.
    The entering column is the least with a negative reduced cost; the
    leaving row has the least ratio rhs/entry over the positive entries,
    ties to the least basic variable. The pivot is positive, and so is det;
    both programs are bounded below, so the entering column has one."""
    while cost[-1]:
        enter = next((k for k in range(columns) if cost[k] < 0), None)
        if enter is None:
            break
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0 and (
                leave < 0
                or (row[-1] * rows[leave][enter], basis[i])
                < (rows[leave][-1] * a, basis[leave])
            ):
                leave = i
        det = _pivot(rows, basis, cost, det, leave, enter)
    return det


def _least_point(
    pairings: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[tuple[int, dict[int, int]]]:
    """(det, {i: det*x_i for x_i > 0}) for the least point x of
    {x >= 0 : sum_i x_i pairings[i][j] <= b_j for every j}, None when the set
    is empty.

    The matrix is symmetric with entries >= 0 off the diagonal, so the set
    is closed under the coordinatewise minimum, and its least point is the
    one minimizer of sum(x). A two-phase simplex finds it on the rows
    pairings[j].x + s_j = b_j with slacks s_j >= 0. A row with b_j < 0 is
    negated and gets an artificial variable; phase one minimizes their sum,
    phase two minimizes sum(x). Columns: x, the slacks, the artificials."""
    r = len(b)
    short = [j for j in range(r) if b[j] < 0]
    rows, basis = [], list(range(r, 2 * r))
    for j in range(r):
        sign = -1 if b[j] < 0 else 1
        rows.append([sign * g for g in pairings[j]] + [0] * (r + len(short)) + [sign * b[j]])
        rows[j][r + j] = sign
    for k, j in enumerate(short, 2 * r):
        rows[j][k] = 1
        basis[j] = k
    det = 1
    if short:
        # reduced costs of the sum of the artificials, their own columns 0
        cost = [-sum(col) for col in zip(*(rows[j] for j in short))]
        cost[2 * r : -1] = [0] * len(short)
        det = _minimize(rows, basis, cost, det, 2 * r)
        if cost[-1]:
            return None
        for i, row in enumerate(rows):
            if basis[i] >= 2 * r:
                # an artificial left in the basis at level 0: pivot it out on
                # a nonzero entry, on the negated row if the entry is negative
                # (the rhs is 0, so the negated row still holds)
                k = next(k for k in range(2 * r) if row[k])
                if row[k] < 0:
                    row[:] = [-v for v in row]
                det = _pivot(rows, basis, cost, det, i, k)
        rows = [row[: 2 * r] + row[-1:] for row in rows]
    # reduced costs of sum(x): det for each x less the rows of the basic x
    cost = [det] * r + [0] * (r + 1)
    for row, k in zip(rows, basis):
        if k < r:
            cost = [c - v for c, v in zip(cost, row)]
    det = _minimize(rows, basis, cost, det, 2 * r)
    return det, {k: row[-1] for row, k in zip(rows, basis) if k < r and row[-1]}


def zariski_oracle(model: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Independent cross-check: N is the least point of {N >= 0 :
    sum_i N_i C_i.C_j <= D.C_j for every curve j}, solved as a linear
    program in the integers m*N_i. An empty polyhedron means that no
    subdivisor of D is nef."""
    _pseudo_effective_precheck(model, d)
    dc, m = model.scaled_curve_pairings(d)
    solved = _least_point(model.curve_pairings, dc)
    if solved is None:
        raise NotPseudoEffective(
            "no effective combination N of the listed curves leaves D - N nef; "
            "the divisor is not pseudo-effective on this model or the curve list "
            "is incomplete"
        )
    det, x = solved
    decomposition = _finalize(model, d, x, det * m)
    if not lattice.is_negative_definite(model.curve_gram(decomposition.support)):
        raise ModelInconsistent("support Gram is not negative definite")
    return decomposition


def kappa_is_two(model: SurfaceModel, decomposition: ZariskiDecomposition) -> bool:
    """True when the positive part is big, the numerical stand-in for
    maximal Kodaira dimension."""
    return model.self_intersection(decomposition.positive) > 0


def h1_correction(model: SurfaceModel, decomposition: ZariskiDecomposition) -> H1Correction:
    """Correction coefficients attached to the negative part."""
    f = decomposition.negative
    c2 = -model.self_intersection(f) / 2
    c1 = model.intersect(f, model.canonical_class) / 2
    return H1Correction(c2=c2, c1=c1)
