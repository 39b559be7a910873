"""Integer points of the sublevel sets of positive definite forms.

An obstruction set is the set of nonzero n >= 0 with n'Qn + linear.n / m <=
bound, for Q = -G and G the Gram block of the curves orthogonal to A: the
integers linear_i = m (T - K).C_i carry the one denominator m of T - K.
Each value times m is an integer, so the condition reads m n'Qn + linear.n
<= top for the integer top = floor(m bound), and each function takes m and
top. Each also takes the (det, rows) that lattice.negated_elimination makes
of G: bounds.Analysis eliminates its support once, reversed, for every search
on it, linear reversed to match. This module finds those points by the
short-vector search of Fincke and Pohst in integers, counts them without
keeping them, and finds their least value, all by the one descent of
_intervals, with a floor on the budget that a leaf keeps: 0 for the points
and their count, and for the least value a floor that rises with each better
leaf. Every step is exact, and no Fraction is made but the values reported.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from . import lattice

Q = Fraction
Eliminated = tuple[int, list[list[int]]]  # (det(Q), rows) of lattice.negated_elimination(G)


class _SearchForm(NamedTuple):
    """The search for m n'Qn + linear.n <= top in integers, Q = -G.

    The elimination of the Gram block G gives the column
    numerators of Q = L D L' and, on their diagonal, the leading minors
    D_1..D_r of Q. With g = 2 D_r m and C = adj(Q) linear, the centre of the
    ellipsoid is -c for c = C / g, and the condition reads (n + c)'Q(n + c)
    <= R with g^2 R = B = 4 D_r^2 m top + D_r linear.C, an integer. Writing
    W_j = D_j g y_j for the coordinates y of L'(n + c), it becomes sum_j e_j
    W_j^2 <= P B, where P = lcm(D_j D_{j-1}) and e_j = P / (D_j D_{j-1}).
    W_j = D_j g n_j + sh_j, and sh_j depends only on the coordinates after
    j."""

    budget: int  # P B
    weight: list[int]  # e_j
    scale: list[int]  # D_j g
    base: list[int]  # the part of sh_j that does not depend on n
    tails: list[list[int]]  # g L_ij D_j for i > j: sh_j = base_j + tails_j . n_{j+1..}
    den: int  # P g^2: a leaf with budget `rest` left has value top / m - rest / den


def _search_form(
    eliminated: Eliminated, linear: Sequence[int], m: int, top: int
) -> Optional[_SearchForm]:
    """The integer set-up of the search on the eliminated Gram block, or
    None when the sublevel set is empty (B < 0)."""
    r = len(linear)
    det, rows = eliminated
    minors = [rows[k][k] for k in range(r)]
    g = 2 * det * m
    centre = lattice.adjugate_solve(rows, linear)
    budget = 4 * det * det * m * top + det * sum(map(mul, linear, centre))
    if budget < 0:
        return None
    pairs = [low * high for low, high in zip([1, *minors], minors)]
    p = lcm(*pairs)
    return _SearchForm(
        budget=p * budget,
        weight=[p // x for x in pairs],
        scale=[x * g for x in minors],
        base=[sum(map(mul, rows[j][j:], centre[j:])) for j in range(r)],
        tails=[[g * x for x in rows[j][j + 1:]] for j in range(r)],
        den=p * g * g,
    )


def _intervals(
    form: _SearchForm, point: list[int], floor: Sequence[int] = (0,)
) -> Iterator[tuple[int, int, int, int]]:
    """The depth-first descent of the search, without its last level.

    Coordinates are fixed from last to first, each over a rising interval.
    Once n_{j+1..r-1} are fixed, the budget left above the floor, floor[0],
    bounds n_j: e_j W_j^2 <= left - floor[0] exactly when |W_j| <=
    isqrt((left - floor[0]) // e_j), never when left < floor[0], and floor
    divisions turn that into an interval of n_j. For each nonempty interval
    of n_0 this yields (low, high, sh_0, left), with n_1..n_{r-1} in
    point[1:]: each n_0 in [low, high] is a point of the set whose leaf keeps
    left - e_0 W_0^2 >= floor[0]. The loop resumes one frame per interval,
    and a consumer may raise the floor between intervals, as least_value
    does."""
    budget, weight, scale, base, tails, _ = form
    r = len(weight)
    lefts = [0] * r + [budget]  # lefts[j + 1]: the budget left for n_0..n_j
    highs = [0] * r
    shifts = [0] * r
    j = r - 1
    while True:
        shift = base[j] + sum(map(mul, tails[j], point[j + 1:]))
        spare = lefts[j + 1] - floor[0]
        s = isqrt(spare // weight[j]) if spare >= 0 else -1
        low, high = max(0, -((s + shift) // scale[j])), (s - shift) // scale[j]
        if j and low <= high:
            point[j], highs[j], shifts[j] = low, high, shift
        else:
            if low <= high:
                yield low, high, shift, lefts[1]
            j += 1
            while j < r and point[j] == highs[j]:
                point[j] = 0
                j += 1
            if j == r:
                return
            point[j] += 1
        w = scale[j] * point[j] + shifts[j]
        lefts[j] = lefts[j + 1] - weight[j] * w * w
        j -= 1


def count_points(eliminated: Eliminated, linear: Sequence[int], m: int, top: int) -> int:
    """The number of n >= 0, zero included, with linear.n - m n'Gn <= top:
    the descent adds the length of each interval of n_0 and keeps no point."""
    form = _search_form(eliminated, linear, m, top)
    if form is None:
        return 0
    return sum(high - low + 1 for low, high, _, _ in _intervals(form, [0] * len(form.weight)))


def fincke_pohst(
    eliminated: Eliminated, linear: Sequence[int], m: int, top: int
) -> Iterator[tuple[tuple[int, ...], int, list[Fraction]]]:
    """All nonzero n >= 0 with linear.n - m n'Gn <= top, with their values
    (linear.n - m n'Gn) / m, by the depth-first short-vector search of
    Fincke and Pohst (Math. Comp. 44, 1985), in integers, on the set-up of
    _SearchForm and the descent of _intervals.

    The hits come run by run, as (tail, first, values): the points (v,
    *tail) for v = first, first + 1, ... have these values, in this order.
    So the search meets points in the lexicographic order of their reversed
    coordinate tuples. Every condition is exact, so every leaf is a hit, and
    the budget `rest` left at a leaf gives its value top / m - rest / (P
    g^2), one Fraction per distinct value. This is a generator: set-up and
    search both run as it is read."""
    form = _search_form(eliminated, linear, m, top)
    if form is None:
        return
    e, a, den = form.weight[0], form.scale[0], form.den
    # One Fraction per distinct value, by the budget left at the leaf: the
    # values repeat, as they lie between tau and the bound with a bounded
    # denominator. The cap keeps the memory flat whatever the input.
    values: dict[int, Fraction] = {}
    point = [0] * len(linear)
    for low, high, shift, left in _intervals(form, point):
        tail = tuple(point[1:])
        if not low and not any(tail):
            low = 1  # the zero point
        run = []
        for v in range(low, high + 1):
            w = a * v + shift
            rest = left - e * w * w
            value = values.get(rest)
            if value is None:
                if len(values) > 4096:
                    values.clear()
                value = values[rest] = Q(top * den - m * rest, m * den)
            run.append(value)
        if run:
            yield tail, low, run


def least_value(
    eliminated: Eliminated, linear: Sequence[int], m: int, top: int
) -> Optional[Fraction]:
    """The least value (linear.n - m n'Gn) / m over nonzero n >= 0 in the
    sublevel set at top, or None when that set is empty.

    The least value is the leaf that keeps the most budget, which the
    descent of _intervals finds with a floor that starts at 0 and rises with
    each better leaf. The best leaf of each interval of n_0 is the n_0
    nearest -sh_0 / (D_0 g) but the zero point, and it raises the floor to
    one above its budget."""
    form = _search_form(eliminated, linear, m, top)
    if form is None:
        return None
    e, a, den = form.weight[0], form.scale[0], form.den
    point, floor = [0] * len(linear), [0]
    best = -1
    for low, high, shift, left in _intervals(form, point, floor):
        lowest = 0 if any(point[1:]) else 1  # the zero point is no leaf
        v = min(max((a - 2 * shift) // (2 * a), low, lowest), high)
        if v >= lowest:
            w = a * v + shift
            best = left - e * w * w
            floor[0] = best + 1
    return None if best < 0 else Q(top * den - m * best, m * den)
