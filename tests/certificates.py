"""Certificates that check a result from a model's dense data alone.

Each check reads only the Gram matrix and the curve coordinates of a model,
as plain lists of integers, and sums in Fractions. It imports nothing from
surfbound, so a fault in a kernel of the package cannot hide in the check
of its own result. Finding a certificate may use the package; checking it
does not. A check that fails raises CertificateError with the reason.

  * Negative definiteness. Distinct curves meet nonnegatively, so minus the
    Gram block of a set of curves has off-diagonal entries <= 0. Such a
    symmetric matrix is positive definite exactly when some vector y > 0
    has -G.y > 0 entrywise: it is then a nonsingular M-matrix (A. Berman
    and R. J. Plemmons, Nonnegative Matrices in the Mathematical Sciences,
    1994, ch. 6). y = adj(-G).1 is one such vector.
  * Zariski decomposition. D = P + N with P nef on every listed curve,
    N >= 0, P.C_i = 0 on the support of N, and that support negative
    definite. These conditions fix the decomposition (O. Zariski, Ann. of
    Math. 76, 1962; T. Bauer, A simple proof for the existence of Zariski
    decompositions on surfaces, J. Algebraic Geom. 18, 2009), so the check
    is complete.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class CertificateError(AssertionError):
    """A certificate does not prove what it claims."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CertificateError(reason)


def gram_product(gram: Sequence[Sequence[int]], v: Sequence) -> list:
    """G.v, each row summed over the nonzero coordinates of v only."""
    support = [(j, Fraction(x)) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in support), Fraction(0)) for row in gram]


def check_negative_definite(block: Sequence[Sequence[int]], y: Sequence) -> None:
    """Check that the symmetric block, with entries >= 0 off its diagonal,
    is negative definite by the certificate y > 0 with -block.y > 0."""
    n = len(block)
    _require(all(len(row) == n for row in block), "block is not square")
    _require(len(y) == n, f"certificate has {len(y)} entries for a block of {n}")
    for i in range(n):
        for j in range(i + 1, n):
            _require(block[i][j] == block[j][i], f"block is not symmetric at ({i}, {j})")
            _require(block[i][j] >= 0, f"block entry ({i}, {j}) is negative")
    _require(all(x > 0 for x in y), "certificate has an entry <= 0")
    for i, value in enumerate(gram_product(block, y)):
        _require(value < 0, f"row {i} of block.y is {value}, not negative")


def check_zariski(
    gram: Sequence[Sequence[int]],
    curves: Sequence[Sequence[int]],
    d: Sequence,
    positive: Sequence,
    support: Sequence[int],
    coefficients: Sequence,
    y: Sequence,
) -> None:
    """Check that D = P + N is the Zariski decomposition of D on the listed
    curves, N = sum of coefficients[k] times curve support[k], with y the
    definiteness certificate of the support's Gram block. d, positive and
    the coefficients are rationals; gram and curves are integers."""
    rank = len(gram)
    _require(len(support) == len(coefficients), "support and coefficients differ in length")
    _require(list(support) == sorted(set(support)), "support is not sorted and distinct")
    _require(all(0 <= i < len(curves) for i in support), "support names an unknown curve")
    _require(all(Fraction(c) > 0 for c in coefficients), "N has a coefficient <= 0")
    negative = [Fraction(0)] * rank
    for i, c in zip(support, coefficients):
        negative = [t + Fraction(c) * x for t, x in zip(negative, curves[i])]
    total = [Fraction(p) + q for p, q in zip(positive, negative)]
    _require(total == [Fraction(x) for x in d], "P + N is not D")
    p_times = gram_product(gram, positive)
    in_support = set(support)
    for j, curve in enumerate(curves):
        pairing = sum((x * w for x, w in zip(curve, p_times) if x), Fraction(0))
        _require(pairing >= 0, f"P.C_{j} = {pairing} < 0: P is not nef")
        _require(j not in in_support or pairing == 0, f"P.C_{j} = {pairing} on the support")
    columns = [gram_product(gram, curves[i]) for i in support]
    block = [
        [sum((x * w for x, w in zip(curves[i], column) if x), Fraction(0)) for column in columns]
        for i in support
    ]
    check_negative_definite(block, y)
