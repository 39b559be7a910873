"""Integer points of the sublevel sets of positive definite forms.

An obstruction set is the set of nonzero n >= 0 with n'Qn + linear.n / m <=
bound, for Q = -G and G the Gram block of the curves orthogonal to A: the
integers linear_i = m (T - K).C_i carry the one denominator m of T - K.
Each value times m is an integer, so the condition reads m n'Qn + linear.n
<= top for the integer top = floor(m bound).

The search is set up once per analysis: search_form takes the (det, rows)
that lattice.negated_elimination makes of G, with linear and m, and gives
the SearchForm that every level shares, its budget at a top being one
product and one sum. bounds.Analysis keeps one, on its support reversed,
linear reversed to match. count_points, least_value and fincke_pohst take
it together with top. They find the points by the short-vector search of
Fincke and Pohst in integers, count them without keeping them, and find
their least value, all by the one descent of _intervals, with a floor on
the budget that a leaf keeps: 0 for the points and their count, and for the
least value a floor that rises with each better leaf.

fincke_pohst gives the points in runs of integer budgets: a leaf that keeps
the budget `rest` has the value top / m - rest / den (SearchForm.value), so
a larger rest is a smaller value. divisor_runs adds the divisor of each
run's first point, and expand turns runs into rows with their values.
Every step is exact, and no Fraction is made but the values asked for.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import lattice

Q = Fraction
Eliminated = tuple[int, list[list[int]]]  # (det(Q), rows) of lattice.negated_elimination(G)


class SearchForm(NamedTuple):
    """The search for m n'Qn + linear.n <= top in integers, Q = -G, at every top.

    The elimination of the Gram block G gives the column
    numerators of Q = L D L' and, on their diagonal, the leading minors
    D_1..D_r of Q. With g = 2 D_r m and C = adj(Q) linear, the centre of the
    ellipsoid is -c for c = C / g, and the condition reads (n + c)'Q(n + c)
    <= R with g^2 R = B = 4 D_r^2 m top + D_r linear.C, an integer. Writing
    W_j = D_j g y_j for the coordinates y of L'(n + c), it becomes sum_j e_j
    W_j^2 <= P B, where P = lcm(D_j D_{j-1}) and e_j = P / (D_j D_{j-1}).
    W_j = D_j g n_j + sh_j, and sh_j depends only on the coordinates after
    j. Only P B depends on top, and the set is empty when it is negative."""

    slope: int  # 4 P D_r^2 m
    offset: int  # P D_r linear.C: the budget P B at top is slope * top + offset
    weight: list[int]  # e_j
    scale: list[int]  # D_j g
    base: list[int]  # the part of sh_j that does not depend on n
    tails: list[list[int]]  # g L_ij D_j for i > j: sh_j = base_j + tails_j . n_{j+1..}
    m: int
    den: int  # P g^2

    def value(self, top: int, rest: int) -> Fraction:
        """The value (linear.n - m n'Gn) / m of a point of the set at top
        whose leaf keeps the budget rest: top / m - rest / den."""
        return Q(top * self.den - self.m * rest, self.m * self.den)


def search_form(eliminated: Eliminated, linear: Sequence[int], m: int) -> SearchForm:
    """The integer set-up of the search on the eliminated Gram block."""
    r = len(linear)
    det, rows = eliminated
    minors = [rows[k][k] for k in range(r)]
    g = 2 * det * m
    centre = lattice.adjugate_solve(rows, linear)
    pairs = [low * high for low, high in zip([1, *minors], minors)]
    p = lcm(*pairs)
    return SearchForm(
        slope=4 * p * det * det * m,
        offset=p * det * sum(map(mul, linear, centre)),
        weight=[p // x for x in pairs],
        scale=[x * g for x in minors],
        base=[sum(map(mul, rows[j][j:], centre[j:])) for j in range(r)],
        tails=[[g * x for x in rows[j][j + 1:]] for j in range(r)],
        m=m,
        den=p * g * g,
    )


def _intervals(
    form: SearchForm, top: int, point: list[int], floor: Sequence[int] = (0,)
) -> Iterator[tuple[int, int, int, int]]:
    """The depth-first descent of the search at top, without its last level.

    Coordinates are fixed from last to first, each over a rising interval.
    Once n_{j+1..r-1} are fixed, the budget left above the floor, floor[0],
    bounds n_j: e_j W_j^2 <= left - floor[0] exactly when |W_j| <=
    isqrt((left - floor[0]) // e_j), never when left < floor[0], and floor
    divisions turn that into an interval of n_j. For each nonempty interval
    of n_0 this yields (low, high, sh_0, left), with n_1..n_{r-1} in
    point[1:]: each n_0 in [low, high] is a point of the set whose leaf keeps
    left - e_0 W_0^2 >= floor[0]. The loop resumes one frame per interval,
    and a consumer may raise the floor between intervals, as least_value
    does. A negative budget yields nothing."""
    slope, offset, weight, scale, base, tails, _, _ = form
    r = len(weight)
    lefts = [0] * r + [slope * top + offset]  # lefts[j + 1]: the budget left for n_0..n_j
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


def count_points(form: SearchForm, top: int) -> int:
    """The number of n >= 0, zero included, with linear.n - m n'Gn <= top:
    the descent adds the length of each interval of n_0 and keeps no point."""
    return sum(high - low + 1 for low, high, _, _ in _intervals(form, top, [0] * len(form.weight)))


def fincke_pohst(form: SearchForm, top: int) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """All nonzero n >= 0 with linear.n - m n'Gn <= top, by the depth-first
    short-vector search of Fincke and Pohst (Math. Comp. 44, 1985), in
    integers, on the descent of _intervals.

    The hits come run by run, as (tail, first, rests): the points (v, *tail)
    for v = first, first + 1, ... keep these budgets at their leaves, in
    this order, and form.value(top, rest) is the value of each. So the
    search meets points in the lexicographic order of their reversed
    coordinate tuples. Every condition is exact, so every leaf is a hit.
    This is a generator: the search runs as it is read."""
    e, a = form.weight[0], form.scale[0]
    point = [0] * len(form.weight)
    for low, high, shift, left in _intervals(form, top, point):
        tail = tuple(point[1:])
        if not low and not any(tail):
            low = 1  # the zero point
            if high < 1:
                continue
        yield tail, low, [left - e * (w := a * v + shift) * w for v in range(low, high + 1)]


# (head, first, divisor coordinates at first, rests): the entries (*head, v),
# v = first, first + 1, ..., whose leaves keep the budgets rests
Run = tuple[tuple[int, ...], int, tuple[int, ...], list[int]]


def divisor_runs(
    found: Iterable[tuple[tuple[int, ...], int, list[int]]],
    terms: Sequence[Sequence[tuple[int, int]]],
    step: Sequence[int],
) -> Iterator[Run]:
    """The runs of fincke_pohst on the reversed support of curves whose
    sparse coordinates (index, coefficient) are terms, in the support's
    order, and the last of which has the coordinates step: each as (head,
    first, coords, rests), for head the tail reversed and coords the
    divisor first step + sum head_i C_i. The search meets the points in the
    lexicographic order of their reversed coordinates, so the heads come
    sorted. Along a run only the last coefficient rises, so each entry is
    one step more than the one before."""
    for tail, first, rests in found:
        head = tail[::-1]
        coords = [first * x for x in step]
        for coeff, curve in zip(head, terms):
            if coeff:
                for j, x in curve:
                    coords[j] += coeff * x
        yield head, first, tuple(coords), rests


def expand(
    runs: Iterable[Run], step: Sequence[int], value: Callable[[int], Fraction]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """The (coefficients, coordinates, value) of each entry of runs, in
    order: the entry (*head, v) of the run (head, first, coords, rests) has
    the coordinates coords + (v - first) step and the value value(rest) of
    its rest, one Fraction each."""
    for head, first, coords, rests in runs:
        for v, rest in enumerate(rests, first):
            yield (*head, v), coords, value(rest)
            coords = tuple(map(add, coords, step))


def least_value(form: SearchForm, top: int) -> Optional[Fraction]:
    """The least value (linear.n - m n'Gn) / m over nonzero n >= 0 in the
    sublevel set at top, or None when that set is empty.

    The least value is the leaf that keeps the most budget, which the
    descent of _intervals finds with a floor that starts at 0 and rises with
    each better leaf. The best leaf of each interval of n_0 is the n_0
    nearest -sh_0 / (D_0 g) but the zero point, and it raises the floor to
    one above its budget."""
    e, a = form.weight[0], form.scale[0]
    point, floor = [0] * len(form.weight), [0]
    best = -1
    for low, high, shift, left in _intervals(form, top, point, floor):
        lowest = 0 if any(point[1:]) else 1  # the zero point is no leaf
        v = min(max((a - 2 * shift) // (2 * a), low, lowest), high)
        if v >= lowest:
            w = a * v + shift
            best = left - e * w * w
            floor[0] = best + 1
    return None if best < 0 else form.value(top, best)
