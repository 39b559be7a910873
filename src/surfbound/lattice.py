"""Exact linear algebra for symmetric integer pairing matrices.

Everything runs on arbitrary-precision integers and fractions.Fraction; no
floating point enters any decision path. Matrices are sequences of rows.

The production kernel is negated_elimination: one fraction-free Bareiss
pass over the negation of a symmetric integer Gram block, without row
exchanges, stopping at the first pivot <= 0 (Bareiss, Math. Comp. 22, 1968).
Its pivots are the leading principal minors of -m, so it is the Sylvester
test behind is_negative_definite; when it reaches the end it is an integer
LDL' factorization of -m, and adjugate_solve turns it into det(-m) (-m)^-1 b
for integer b. So one step is both the definiteness test and the
factorization. Every definite solve of the package runs on it without
building a Fraction: the support-growth Zariski decomposition, the
obstruction search and the correction divisors of bounds.

The other determinant-adjacent routines are deliberately independent of it
and of one another so they can cross-check each other in tests:

  * determinant  -- Bareiss fraction-free elimination with row swaps
  * signature    -- symmetric reduction by congruences of determinant +-1,
                    each trailing row integers over a positive denominator,
                    a step touching only the rows that meet its pivot; it
                    checks a model's Gram when the model is loaded

The box oracle of bounds takes the cofactors of its inverse from
determinant. The Fraction solves, the leading minors and the Fraction
congruence pivots that the tests check against live in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import Optional, Sequence

from .errors import RankMismatch

Q = Fraction


# No caller in the package; the tests use it, and the benchmark's tracer
# test (perfbench/tests) wraps it by name.
def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise RankMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return sum((Q(a) * Q(b) for a, b in zip(u, v)), Q(0))


def is_symmetric(m: Sequence[Sequence]) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix.

    The intermediate divisions are exact by the Sylvester identity, so the
    whole computation stays in the integers.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    if any(len(row) != n for row in a):
        raise RankMismatch("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate_solve(rows: Sequence[Sequence[int]], b: Sequence[int]) -> list[int]:
    """det(q) q^-1 b = adj(q) b for an integer vector b and q = -m, from
    the rows of negated_elimination(m).

    The forward pass is replayed on b, with the same exact divisions, and an
    exact back substitution follows: with D = det(q) = rows[-1][-1], the
    entry y_k = D x_k satisfies rows[k][k] y_k = D b'_k - sum_{j>k}
    rows[k][j] y_j, and y_k is an integer by Cramer's rule."""
    n = len(rows)
    if len(b) != n:
        raise RankMismatch(f"rhs length {len(b)} does not match matrix size {n}")
    y = [int(x) for x in b]
    prev = 1
    for k in range(n):
        top = rows[k]
        pivot = top[k]
        for i in range(k + 1, n):
            y[i] = (y[i] * pivot - top[i] * y[k]) // prev
        prev = pivot
    det = prev
    for k in reversed(range(n)):
        top = rows[k]
        y[k] = (det * y[k] - sum(top[j] * y[j] for j in range(k + 1, n))) // top[k]
    return y


def negated_elimination(
    m: Sequence[Sequence[int]],
) -> Optional[tuple[int, list[list[int]]]]:
    """Fraction-free Bareiss elimination of -m for a symmetric integer
    matrix m, without row exchanges: (det(-m), rows) when m is negative
    definite, None at the first pivot <= 0. The empty block gives (1, []).

    Row k of rows holds, from column k on, the eliminated row of -m:
    rows[k][k] = D_{k+1}, the leading principal minor of -m of size k + 1,
    and, for j > k, rows[k][j] is the minor of -m on rows 0..k and columns
    0..k-1, j. By symmetry rows[k][j] is also the numerator L_jk * D_{k+1}
    of column k of the unit lower factor of -m = L D L', whose diagonal is
    D_{k+1} / D_k. Only the upper triangle is eliminated; entries left of
    the diagonal are stale. The rows feed adjugate_solve. Costs O(n^3)
    integer operations, or less on an early stop."""
    rows = [[-int(x) for x in row] for row in m]
    n = len(rows)
    prev = 1
    for k in range(n):
        top = rows[k]
        pivot = top[k]
        if pivot <= 0:
            return None
        for i in range(k + 1, n):
            row, factor = rows[i], top[i]
            for j in range(i, n):
                row[j] = (row[j] * pivot - factor * top[j]) // prev
        prev = pivot
    return prev, rows


def is_negative_definite(m: Sequence[Sequence[int]]) -> bool:
    """Sylvester criterion on -m: every leading principal minor of -m is
    positive, i.e. negated_elimination reaches the end. The empty matrix
    counts as negative definite (vacuously)."""
    return is_symmetric(m) and negated_elimination(m) is not None


def signature(m: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric integer matrix, by
    congruences of determinant +-1: a swap toward a nonzero diagonal entry,
    an off-diagonal borrow when every trailing diagonal entry is 0, and the
    symmetric elimination step, whose row form alone gives the Schur
    complement by symmetry. Row r of the trailing block is the integers
    rows[r] over dens[r] > 0, so a pivot has the sign of its numerator, and a
    step touches only the rows with a nonzero entry in the pivot column."""
    n = len(m)
    rows, dens = [list(row) for row in m], [1] * n
    plus = zero = 0
    for i in range(n):
        if not rows[i][i]:
            j = next((j for j in range(i + 1, n) if rows[j][j]), None)
            if j is not None:
                rows[i], rows[j], dens[i], dens[j] = rows[j], rows[i], dens[j], dens[i]
                for row in rows[i:]:
                    row[i], row[j] = row[j], row[i]
            else:
                # Every trailing diagonal entry vanishes: add row and column
                # j to row and column i, which leaves 2*a_ij on the diagonal.
                j = next((j for j in range(i + 1, n) if rows[i][j]), None)
                if j is None:  # row i is zero on the trailing block
                    zero += 1
                    continue
                di, dj = dens[i], dens[j]
                rows[i] = [x * dj + y * di for x, y in zip(rows[i], rows[j])]
                dens[i] = di * dj
                for row in rows[i:]:
                    row[i] += row[j]
        top = rows[i]
        p = top[i]
        plus += p > 0
        tail = top[i + 1 :]
        for r in range(i + 1, n):
            row = rows[r]
            f = row[i]
            if f:
                new = [p * x - f * y for x, y in zip(row[i + 1 :], tail)]
                den = dens[r] * p
                if den < 0:
                    new, den = [-x for x in new], -den
                g = gcd(den, *new)
                row[i + 1 :] = [x // g for x in new] if g > 1 else new
                dens[r] = den // g
    return plus, n - plus - zero, zero


def is_characteristic(k: Sequence[int], m: Sequence[Sequence[int]]) -> bool:
    """True when k pairs with every basis vector to the parity of its square,
    i.e. (m k)_i + m_ii is even for all i. Linearity makes checking the basis
    sufficient for x.G.k = x.G.x mod 2 on the whole lattice."""
    if len(k) != len(m):
        raise RankMismatch("characteristic test needs a vector of full rank")
    return not any((sum(map(mul, row, k)) + row[i]) % 2 for i, row in enumerate(m))


def sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), exact on perfect squares."""
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    big = x.numerator * x.denominator
    s = isqrt(big)
    if s * s == big:
        return Q(s, x.denominator)
    return Q(s + 1, x.denominator)


def sqrt_bracket(x: Fraction, max_width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] around sqrt(x) with hi - lo <= max_width.

    Dyadic refinement of the integer square root; equivalent to bisection
    but with a closed-form step count.
    """
    if x < 0:
        raise ValueError("sqrt of a negative rational")
    if max_width <= 0:
        raise ValueError("bracket width must be positive")
    num, den = x.numerator, x.denominator
    big = num * den
    # the least shift with 1 / (2^shift den) <= p / q: 2^shift >= need,
    # need = ceil(q / (p den))
    p, q = max_width.numerator, max_width.denominator
    need = -(-q // (p * den))
    shift = (need - 1).bit_length()
    scaled = big << (2 * shift)
    s = isqrt(scaled)
    lo = Q(s, (1 << shift) * den)
    hi = lo if s * s == scaled else Q(s + 1, (1 << shift) * den)
    return lo, hi
