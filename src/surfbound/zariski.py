"""Zariski decomposition of pseudo-effective divisor classes.

Two independent routes compute the same decomposition D = P + N:

  * zariski_decompose grows the support of N from the curves the positive
    part still meets negatively, re-solving until P is nef on the model;
  * zariski_oracle tries every curve subset with negative definite Gram and
    keeps the unique candidate satisfying the defining conditions.

Both solve (D - N).C_i = 0 on a support in curve coordinates and in
integers. With m the common denominator of D, the pairings m*D.C_j are
computed once. One fraction-free elimination of the negated Gram block
(lattice.negated_elimination) is at once the definiteness test and the
factorization, and adjugate_solve gives y = det*m*N on the support. A
coefficient of N is negative exactly when its y_i is, and P is nef
exactly when det*m*D.C_j - sum_i y_i C_i.C_j >= 0 for every curve j, from
the integer curve_pairings. A Fraction is built only for the coefficients
that are kept.

Both enforce the full contract before returning: P nef against the model,
N effective with negative definite support, and P orthogonal to every
support curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from . import lattice
from .errors import (
    AmbiguousDecomposition,
    ModelInconsistent,
    NotPseudoEffective,
)
from .surface import DivisorClass, SurfaceModel

Q = Fraction


@dataclass(frozen=True)
class ZariskiDecomposition:
    positive: DivisorClass
    negative: DivisorClass
    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]  # aligned with support


@dataclass(frozen=True)
class H1Correction:
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
    if model.ample_reference is not None:
        href = model.divisor(model.ample_reference)
        if model.intersect(d, href) < 0:
            raise NotPseudoEffective(
                "divisor pairs negatively with the ample reference class"
            )


def _negative_part(
    dc: Sequence[int], support: Sequence[int], rows: Sequence[Sequence[int]]
) -> list[int]:
    """y = adj(-Gram)(-m*D.C) = det*m*N on support, the solve of
    (D - N).C_i = 0; dc holds the integers m*D.C_j."""
    return lattice.adjugate_solve(rows, [-dc[i] for i in support])


def _positive_pairings(
    model: SurfaceModel, dc: Sequence[int], support: Sequence[int], det: int, y: Sequence[int]
) -> list[int]:
    """det*m*P.C_j for every curve j."""
    p = [det * x for x in dc]
    for i, yi in zip(support, y):
        if yi:
            p = [a - yi * g for a, g in zip(p, model.curve_pairings[i])]
    return p


def _kept(support: Sequence[int], y: Sequence[int], den: int) -> dict[int, Fraction]:
    return {i: Q(yi, den) for i, yi in zip(support, y) if yi}


def _finalize(
    model: SurfaceModel, d: DivisorClass, solved: dict[int, Fraction]
) -> ZariskiDecomposition:
    support = tuple(i for i in sorted(solved) if solved[i] != 0)
    coeffs = tuple(solved[i] for i in support)
    if any(c < 0 for c in coeffs):
        raise NotPseudoEffective(
            "negative part acquired a negative coefficient; the divisor is "
            "not pseudo-effective on this model or the curve list is incomplete"
        )
    negative = model.divisor_from_curves(dict(zip(support, coeffs)))
    positive = d - negative
    for i in range(len(model.curves)):
        p = model.pair_curve(positive, i)
        if p < 0:
            raise ModelInconsistent("positive part is not nef after stabilizing")
        if i in support and p != 0:
            raise ModelInconsistent("positive part meets its own support")
    if not lattice.is_negative_definite(model.curve_gram(support)):
        raise ModelInconsistent("support Gram lost negative definiteness")
    return ZariskiDecomposition(positive, negative, support, coeffs)


def zariski_decompose(model: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Support-growth decomposition.

    Starting from an empty support, repeatedly add every curve the current
    positive part meets negatively and re-solve (D - N).C_j = 0 on the
    enlarged support. The support only grows, so the loop ends after at most
    one pass per curve.
    """
    if d.rank != model.rank:
        d = model.divisor(d.coords)
    _pseudo_effective_precheck(model, d)
    dc, m = model.scaled_curve_pairings(d)
    support: tuple[int, ...] = ()
    det, y, p = 1, [], dc
    for _ in range(len(model.curves) + 1):
        violators = [j for j, x in enumerate(p) if x < 0]
        if not violators:
            return _finalize(model, d, _kept(support, y, det * m))
        support = tuple(sorted(set(support) | set(violators)))
        eliminated = lattice.negated_elimination(model.curve_gram(support))
        if eliminated is None:
            raise NotPseudoEffective(
                "candidate support is not negative definite; the divisor is "
                "not pseudo-effective on this model or the curve list is "
                "incomplete"
            )
        det, rows = eliminated
        y = _negative_part(dc, support, rows)
        p = _positive_pairings(model, dc, support, det, y)
    raise ModelInconsistent("support iteration failed to stabilize")


# Models whose subset tables _negative_definite_subsets keeps, least
# recently used first out, so a long-lived process does not grow it
# without limit. 64 holds the 51 models of the benchmark's
# oracle_crosscheck workload, which revisits each of them.
SUBSET_CACHE_MODELS = 64


@lru_cache(maxsize=SUBSET_CACHE_MODELS)
def _negative_definite_subsets(
    model: SurfaceModel,
) -> tuple[tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]], ...]:
    """Every curve subset with negative definite Gram block, with the
    determinant and the rows of the elimination of the negated block, the
    rows kept immutable."""
    indices = range(len(model.curves))
    out = []
    for size in range(len(model.curves) + 1):
        for subset in combinations(indices, size):
            eliminated = lattice.negated_elimination(model.curve_gram(subset))
            if eliminated is not None:
                det, rows = eliminated
                out.append((subset, det, tuple(map(tuple, rows))))
    return tuple(out)


def zariski_oracle(model: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Exhaustive cross-check: solve on every negative definite subset and
    keep the unique candidate meeting the defining conditions."""
    if d.rank != model.rank:
        d = model.divisor(d.coords)
    _pseudo_effective_precheck(model, d)
    dc, m = model.scaled_curve_pairings(d)
    candidates: dict[tuple[tuple[int, Fraction], ...], dict[int, Fraction]] = {}
    for subset, det, rows in _negative_definite_subsets(model):
        y = _negative_part(dc, subset, rows)
        if any(x < 0 for x in y):
            continue
        if any(x < 0 for x in _positive_pairings(model, dc, subset, det, y)):
            continue
        solved = _kept(subset, y, det * m)
        candidates[tuple(solved.items())] = solved
    if not candidates:
        raise NotPseudoEffective(
            "no subset produced a valid decomposition; the divisor is not "
            "pseudo-effective on this model or the curve list is incomplete"
        )
    if len(candidates) > 1:
        raise AmbiguousDecomposition(
            f"{len(candidates)} distinct decompositions satisfy the defining "
            "conditions; this is a bug"
        )
    (solved,) = candidates.values()
    return _finalize(model, d, solved)


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
