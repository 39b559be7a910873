"""Effective thresholds for multiple linear systems n*A + T.

All quantities are exact rationals. The central threshold is

    vanishing_threshold(A, T) = ((K - T).A + 2)^2 / (4 A^2) - (K - T)^2 / 4

for a nef and big class A: above k plus this value, failure of
(k-1)-very-ampleness forces an obstruction divisor supported on the curves
orthogonal to A, and those are enumerable. The rest of the module builds
the derived objects: the obstruction quadratic and its root brackets, the
minimal obstruction value, determinant-scaled correction divisors, the
separating divisor, ring-generation levels, and the comparison against the
two classical general-surface very-ampleness bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, wraps
from itertools import combinations, product
from math import floor
from operator import add, mul
from typing import Iterator, Optional, Sequence

from . import lattice, search
from .cycles import FundamentalCycle, fundamental_cycle
from .errors import (
    IntegralityFailure,
    ModelInconsistent,
    NonpositiveInput,
    NonpositiveLP,
    NonpositiveX,
    NotAmple,
    NotBig,
    UnverifiableHypothesis,
)
from .surface import DivisorClass, SurfaceModel

Q = Fraction

BRACKET_WIDTH = Q(1, 1024)


class _PositiveInfinity:
    """Exact stand-in for the minimum over an empty obstruction set."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"

    def __gt__(self, other) -> bool:
        return not isinstance(other, _PositiveInfinity)

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, _PositiveInfinity)


INFINITY = _PositiveInfinity()


def least_integer_above(bound: Fraction) -> int:
    """Smallest integer strictly greater than an exact rational."""
    return floor(bound) + 1


# -- core thresholds -------------------------------------------------------


def vanishing_threshold(model: SurfaceModel, a: DivisorClass, t: DivisorClass) -> Fraction:
    """Base rational threshold controlling when very-ampleness failures of
    n*A + T must come from curves orthogonal to A."""
    a2 = model.self_intersection(a)
    if a2 <= 0:
        raise NotBig("class needs positive self-intersection")
    w = model.canonical_class - t
    wa = model.intersect(w, a)
    return (wa + 2) ** 2 / (4 * a2) - model.self_intersection(w) / 4


@dataclass(frozen=True)
class HodgeDefect:
    """h = (A.(T-K))^2 - A^2 (T-K)^2, with the proportionality witness.

    Every model's Gram matrix is nondegenerate of signature (1, r-1), so for
    big A it is negative definite on the classes orthogonal to A. By this,
    the Hodge index theorem, h >= 0 with equality exactly when T - K is a
    rational multiple of A: proportional is h == 0, and then the multiple is
    ratio = A.(T-K) / A^2."""

    value: Fraction
    proportional: bool
    ratio: Optional[Fraction]


@dataclass(frozen=True)
class ThresholdCheck:
    holds: bool
    strict_branch: bool
    proportional_branch: bool
    # true when only the proportional branch fired: the model certifies
    # numerical proportionality, while the underlying statement wants
    # linear equivalence T = K + lambda*A
    numerical_equivalence_caveat: bool


def threshold_holds(analysis: Analysis, n: int, k: int) -> ThresholdCheck:
    """Disjunctive hypothesis: n > k + threshold, or k = 0 with T - K
    numerically proportional to A and n >= threshold."""
    bound = analysis.threshold_at(analysis.t)
    strict = Q(n) > k + bound
    proportional = k == 0 and analysis.hodge.proportional and Q(n) >= bound
    return ThresholdCheck(
        holds=strict or proportional,
        strict_branch=strict,
        proportional_branch=proportional,
        numerical_equivalence_caveat=proportional and not strict,
    )


# -- the obstruction quadratic ---------------------------------------------


@dataclass(frozen=True)
class RootBracket:
    low: Fraction
    high: Fraction


def _bracket_shifted_sqrt(
    offset: Fraction, radicand: Fraction, scale: Fraction, width: Fraction
) -> RootBracket:
    """Bracket of (offset + sqrt(radicand)) / scale with the given width."""
    lo, hi = lattice.sqrt_bracket(radicand, width * scale)
    return RootBracket((offset + lo) / scale, (offset + hi) / scale)


@dataclass(frozen=True)
class ObstructionQuadratic:
    """f(x) = x^2 - (A.L) x + h/4 + k A^2 where L = n*A + T - K.

    An obstruction divisor D for (k-1)-very-ampleness of n*A + T satisfies
    f(D.A) <= 0, so the smaller root x1 caps nothing and the bracket
    [x1_low, x1_high] locates the relevant sign change. The identity
    f(1) = A^2 (k + threshold - n) ties the quadratic to the main bound.
    """

    linear: Fraction  # coefficient of x is -linear, i.e. linear = A.L
    constant: Fraction  # h/4 + k A^2, equals f(0)
    f_at_zero: Fraction
    f_at_one: Fraction
    discriminant: Fraction
    small_root: Optional[RootBracket]
    square_gap_root: RootBracket


# -- obstruction enumeration ------------------------------------------------

# (coefficients, divisor coordinates, value): the form of an obstruction entry
Row = tuple[tuple[int, ...], tuple[int, ...], Fraction]


@dataclass(frozen=True)
class ObstructionSet:
    support: tuple[int, ...]  # curve indices orthogonal to A
    bound: Fraction  # entries satisfy value <= bound
    entries: ObstructionEntries


class ObstructionEntries:
    """The entries of the obstruction set of an analysis at one bound, as
    rows made by the ordered search each time rows() is called; nothing is
    kept. len() is the counting descent (Analysis.obstruction_count)."""

    __slots__ = ("_analysis", "_bound")

    def __init__(self, analysis: Analysis, bound: Fraction) -> None:
        self._analysis = analysis
        self._bound = bound

    def __len__(self) -> int:
        return self._analysis.obstruction_count(self._bound)

    def rows(self) -> Iterator[Row]:
        """The row of each entry, sorted by coefficients.

        The search meets points in the lexicographic order of their reversed
        coordinate tuples, so on Analysis.elimination, of the reversed
        support, it meets the coefficient tuples in sorted order. A divisor
        is an integer sum of the support curves' coordinates; along a run
        only the last coefficient rises, by one curve at a time."""
        analysis = self._analysis
        if not analysis.support:
            return
        linear, m = analysis.obstruction_form
        runs = search.fincke_pohst(analysis.elimination, linear, m, floor(m * self._bound))
        model = analysis.model
        terms = [model.curve_terms[i] for i in analysis.support]
        last = model.curves[analysis.support[-1]].coords
        for tail, first, values in runs:
            head = tail[::-1]
            coords = [first * x for x in last]
            for coeff, curve in zip(head, terms):
                if coeff:
                    for j, x in curve:
                        coords[j] += coeff * x
            coords = tuple(coords)
            for v, value in enumerate(values, first):
                yield (*head, v), coords, value
                coords = tuple(map(add, coords, last))


def _enumerate_box(analysis: Analysis, k) -> ObstructionSet:
    """The obstruction set at level k. Its entries keep no row: the ordered
    search runs each time their rows() is called. The benchmark's
    tracer (perfbench/tracing.py) wraps this function by name and sums len()
    of the entries, so it keeps the name of the box loop it replaced. Only
    callers that print entries come here; counts and emptiness run the
    counting descent (Analysis.obstruction_count)."""
    bound = Q(k)
    return ObstructionSet(analysis.support, bound, ObstructionEntries(analysis, bound))


def _sublevel_box(
    q_matrix: Sequence[Sequence[int]], linear: Sequence[int], m: int, top: int
) -> Optional[list[tuple[int, int]]]:
    """Integer bounding box for {n >= 0 : m n'Qn + linear.n <= top} with Q
    positive definite. Completing the square gives the centre -c for
    c = Q^-1 linear / 2m and the radius R = top / m + linear'Q^-1 linear /
    4m^2; the per-coordinate half-width is sqrt(R * (Q^-1)_ii). Q^-1 is
    adj(Q) / det(Q), each cofactor a lattice.determinant. Outward rounding
    keeps the box sound."""
    r = len(linear)
    det = lattice.determinant(q_matrix)
    minor = lambda i, j: [row[:j] + row[j + 1 :] for t, row in enumerate(q_matrix) if t != i]
    adj = [[(-1) ** (i + j) * lattice.determinant(minor(i, j)) for j in range(r)] for i in range(r)]
    adj_linear = [sum(map(mul, row, linear)) for row in adj]
    radius = Q(4 * det * m * top + sum(map(mul, linear, adj_linear)), 4 * det * m * m)
    if radius < 0:
        return None
    box = []
    for i in range(r):
        center = Q(adj_linear[i], 2 * det * m)
        half = lattice.sqrt_upper(radius * adj[i][i] / det)
        low = max(0, -floor(center + half))  # ceil(-c - half) = -floor(c + half)
        high = floor(-center + half)
        if high < low:
            return None
        box.append((low, high))
    return box


def _box_product(
    q_matrix: Sequence[Sequence[int]], linear: Sequence[int], m: int, top: int
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every point of the bounding box, tested one by one. A point is scored
    by the integer m n'Qn + linear.n: for each head of the point, a
    quadratic in its last coordinate v. Its value is the score over m."""
    box = _sublevel_box(q_matrix, linear, m, top)
    if box is None:
        return []
    scaled = [[m * x for x in row] for row in q_matrix]
    *heads, (low, high) = box
    hits = []
    for head in product(*(range(lo, hi + 1) for lo, hi in heads)):
        base = sum(c * (sum(map(mul, row, head)) + l) for c, row, l in zip(head, scaled, linear))
        slope = 2 * sum(map(mul, scaled[-1], head)) + linear[-1]
        for v in range(low, high + 1):
            score = base + v * (slope + v * scaled[-1][-1])
            if score <= top and (v or any(head)):
                hits.append(((*head, v), Q(score, m)))
    return hits


def obstruction_oracle(analysis: Analysis, k) -> list[Row]:
    """Brute-force cross-check of Analysis.enumerate_obstructions: the rows
    of the obstruction set at level k, sorted as ObstructionEntries.rows()
    yields them, from every point of the outward-rounded bounding box of the
    sublevel ellipsoid. With the search it shares only the linear term of
    the obstruction form, reversed back; it negates the Gram block of the
    support to Q and packs each divisor from the curve columns itself. Its
    cost is the box volume, so it is meant for small inputs."""
    model, support = analysis.model, analysis.support
    if not support:
        return []
    linear, m = analysis.obstruction_form
    q_matrix = [[-x for x in row] for row in model.curve_gram(support)]
    columns = list(zip(*(model.curves[i].coords for i in support)))
    hits = sorted(_box_product(q_matrix, linear[::-1], m, floor(m * Q(k))))
    return [(n, tuple(sum(map(mul, c, n)) for c in columns), value) for n, value in hits]


# -- correction divisors -----------------------------------------------------


@dataclass(frozen=True)
class CorrectionDivisor:
    level: int  # the k it repairs
    support: tuple[int, ...]
    sigma: tuple[Fraction, ...]  # deficiency per support curve
    det_abs: int
    coefficients: tuple[int, ...]
    divisor: DivisorClass


@dataclass(frozen=True)
class SeparatingPiece:
    component: tuple[int, ...]
    from_fundamental_cycle: bool
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class SeparatingDivisor:
    divisor: DivisorClass
    pieces: tuple[SeparatingPiece, ...]


# -- classical conditions -----------------------------------------------------


@dataclass(frozen=True)
class ConditionFlags:
    k: int
    matsusaka: bool  # A is ample against the model
    laufer_ramanujam: bool  # T.C >= K.C + k on every curve orthogonal to A
    artin: bool  # the curves orthogonal to A form a rational configuration


# -- ring generation -----------------------------------------------------------


def ring_step_threshold(analysis: Analysis, l: int, p: int, v_is_zero: bool) -> Fraction:
    """Bound N(A, l, p): for n > N the degree-n piece of the section ring is
    the product of the degree-l and degree-(n-l) pieces. The branch depends
    on whether the relevant correction class V vanishes; when it does not,
    the worst case k = l^2 A^2 enters."""
    if l < 1 or p < 1:
        raise NonpositiveInput("ring step levels l and p must be positive integers")
    model, a2 = analysis.model, analysis.a2
    base = Q(2 * l + p - 1)
    if v_is_zero:
        alt = 3 * l + model.canonical_pairing(analysis.a) / a2
    else:
        k = l * l * a2
        alt = k + analysis.threshold_at(model.zero_divisor()) + l
    return max(base, alt)


@dataclass(frozen=True)
class RingGeneration:
    multiplier_level: int  # l: generators live in degrees <= l... relations use it
    stability_level: int  # p: h^1 input level
    case: str  # "rational" or "no_fixed_part"
    doubled_bound: Fraction  # the ring is generated once 2m exceeds this
    least_m: int


# -- one analysis of n*A + T -------------------------------------------------------


# A cached analysis outlives its command, so its memo would keep an entry for
# every k a long-lived process asks about: it keeps at most MEMO_SIZE.
MEMO_SIZE = 32


def _memoized(method):
    """Keep a method's results in its analysis, keyed by the arguments; past
    MEMO_SIZE results the least recently used is dropped, so the entries
    every command reads, such as threshold_at(T), stay."""

    @wraps(method)
    def wrapper(self, *args):
        memo, key = self._memo, (method.__name__, *args)
        memo[key] = memo.pop(key) if key in memo else method(self, *args)
        if len(memo) > MEMO_SIZE:
            del memo[next(iter(memo))]
        return memo[key]

    return wrapper


@dataclass(frozen=True, eq=False)
class Analysis:
    """The system n*A + T for a nef and big class A, and everything derived
    from it. Building one checks A once: model.exceptional_curves checks
    that A is nef and big, and the one elimination of the curves orthogonal
    to A, which every search and solve on them reads, that their block is
    negative definite; so the cycles of its components skip that check.
    Each derived value is computed on first use and kept on the instance.
    Analysis(...) builds afresh; analysis_of keeps analyses across calls."""

    model: SurfaceModel
    a: DivisorClass
    t: DivisorClass
    support: tuple[int, ...] = field(init=False)  # curves orthogonal to A
    _memo: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", self.model.exceptional_curves(self.a))
        object.__setattr__(self, "_memo", {})
        if self.elimination is None:
            raise ModelInconsistent(
                "curves orthogonal to a big class must span a negative "
                "definite block"
            )

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return self.model.connected_components(self.support)

    @_memoized
    def cycle(self, component: tuple[int, ...]) -> FundamentalCycle:
        return fundamental_cycle(self.model, component, gram=self.model.curve_gram(component))

    @cached_property
    def rational(self) -> bool:
        """Every component has a fundamental cycle of arithmetic genus 0."""
        return all(self.cycle(comp).genus == 0 for comp in self.components)

    @_memoized
    def threshold_at(self, twist: DivisorClass) -> Fraction:
        """vanishing_threshold(A, twist), for T or any other twist."""
        return vanishing_threshold(self.model, self.a, twist)

    def level_at(self, twist: DivisorClass) -> int:
        return least_integer_above(self.threshold_at(twist))

    @cached_property
    def a2(self) -> Fraction:
        return self.model.self_intersection(self.a)

    @cached_property
    def aw(self) -> Fraction:
        """A.(T - K)."""
        return self.model.intersect(self.a, self.t - self.model.canonical_class)

    @property
    def ample(self) -> bool:
        """A is nef and big, so it is ample when no listed curve is orthogonal."""
        return not self.support

    @cached_property
    def hodge(self) -> HodgeDefect:
        w = self.t - self.model.canonical_class
        value = self.aw * self.aw - self.a2 * self.model.self_intersection(w)
        ratio = self.aw / self.a2 if value == 0 else None
        return HodgeDefect(value=value, proportional=value == 0, ratio=ratio)

    @_memoized
    def multiple_gap(self, k: int) -> RootBracket:
        """Bracket of the least real n with (n*A + T - K)^2 > 4k; past its
        upper end the square-gap hypothesis of the obstruction argument
        holds. The radicand h + 4 k A^2 is nonnegative for k >= 0."""
        radicand = self.hodge.value + 4 * k * self.a2
        if radicand < 0:
            raise ModelInconsistent("square-gap radicand negative for big A")
        return _bracket_shifted_sqrt(-self.aw, radicand, self.a2, BRACKET_WIDTH)

    def quadratic(self, n, k: int) -> ObstructionQuadratic:
        """The obstruction quadratic of n*A + T at level k."""
        al = Q(n) * self.a2 + self.aw  # A.L for L = n*A + T - K
        constant = self.hodge.value / 4 + k * self.a2
        disc = al * al - 4 * constant
        small = None
        if disc >= 0:
            # x1 = (A.L - sqrt(disc)) / 2; bracket the sqrt to within 1/1024.
            lo, hi = lattice.sqrt_bracket(disc, BRACKET_WIDTH)
            small = RootBracket((al - hi) / 2, (al - lo) / 2)
        return ObstructionQuadratic(
            linear=al,
            constant=constant,
            f_at_zero=constant,
            f_at_one=1 - al + constant,
            discriminant=disc,
            small_root=small,
            square_gap_root=self.multiple_gap(k),
        )

    def degree_cap(self, k: int, x) -> Fraction:
        """Exact n-threshold beyond which every obstruction divisor D for
        (k-1)-very-ampleness has D.A < x. At x = 1 this reproduces the main
        bound k + threshold_at(T) exactly."""
        x = Q(x)
        if x <= 0:
            raise NonpositiveX("degree cap must be positive")
        f0 = self.hodge.value / 4 + k * self.a2
        return (x - self.aw + f0 / x) / self.a2

    @cached_property
    def elimination(self) -> Optional[search.Eliminated]:
        """lattice.negated_elimination of the support's Gram block in reversed
        order, as ObstructionEntries.rows needs; counts and tau do not depend on it."""
        return lattice.negated_elimination(self.model.curve_gram(self.support[::-1]))

    @_memoized
    def deficits(self, twist: DivisorClass) -> tuple[list[int], int]:
        """model.scaled_curve_pairings(K - twist): m (K - twist).C_i for
        every listed curve, and m."""
        return self.model.scaled_curve_pairings(self.model.canonical_class - twist)

    @cached_property
    def obstruction_form(self) -> tuple[list[int], int]:
        """The linear term of the obstruction form linear.n / m - n'Gn, G
        the Gram block of the support, whose value is T.D - K.D - D^2 for D =
        sum n_i C_i: the integers linear_i = m (T - K).C_i on the support,
        reversed as in the elimination, and m, the denominator of T - K."""
        dc, m = self.deficits(self.t)
        return [-dc[i] for i in self.support[::-1]], m

    @_memoized
    def obstruction_count(self, k) -> int:
        """The number of effective nonzero D supported on the curves
        orthogonal to A with T.D - K.D - D^2 <= k, by the counting descent of
        the search (search.count_points), which keeps no point and whose work
        grows with the lattice points near the sublevel ellipsoid, not with
        its bounding box. D = 0 has value 0, so it is counted when k >= 0."""
        if not self.support:
            return 0
        linear, m = self.obstruction_form  # m times a value is an integer
        return search.count_points(self.elimination, linear, m, floor(m * k)) - (k >= 0)

    def enumerate_obstructions(self, k) -> ObstructionSet:
        """The obstruction set at level k, whose rows the ordered search
        makes on demand, sorted lexicographically by coefficients."""
        return _enumerate_box(self, k)

    @cached_property
    def obstruction_minimum(self):
        """tau, the minimum of T.D - K.D - D^2 over effective nonzero D
        orthogonal to A; positive infinity when no curve is orthogonal.

        A single curve C_i already realizes the value (T-K).C_i - C_i^2, so
        the sublevel set at the best single-curve value is nonempty, and the
        one descent of the search, with a floor that rises with each better
        leaf (search.least_value), finds the minimum without listing the set."""
        if not self.support:
            return INFINITY
        linear, m = self.obstruction_form
        pairings = self.model.curve_pairings
        single = min(x - m * pairings[i][i] for i, x in zip(self.support[::-1], linear))
        tau = search.least_value(self.elimination, linear, m, single)
        if tau is None:
            raise ModelInconsistent("sublevel set lost its single-curve witness")
        return tau

    def correction_divisor(self, k: int) -> CorrectionDivisor:
        """Effective divisor E with E.C_i = -|det| * deficiency_i on the curves
        orthogonal to A. Subtracting it repairs the pairing condition
        (T - E).C_i >= K.C_i + k. Cramer scaling by |det| makes E integral."""
        return self._correction(self.t, k, self.support)

    @_memoized
    def _correction(self, t: DivisorClass, k: int, support: tuple[int, ...]) -> CorrectionDivisor:
        model = self.model
        if not support:
            return CorrectionDivisor(k, (), (), 1, (), model.zero_divisor())
        # m times the deficiency max((K - T).C_i + k, 0) of the pairing
        # condition, m the common denominator of K - T
        dc, m = self.deficits(t)
        scaled = [max(dc[i] + k * m, 0) for i in support]
        # gram x = -|det| sigma is adj(-gram) sigma = m x (-gram is positive definite, of
        # det |det|), solved on the reversed block: adj(PMP') = P adj(M) P' for a reversal P
        det_abs, rows = self.elimination if support == self.support else (
            lattice.negated_elimination(model.curve_gram(support[::-1])))
        solved = lattice.adjugate_solve(rows, scaled[::-1])[::-1]
        for i, y in zip(support, solved):
            if y % m or y < 0:
                raise IntegralityFailure(
                    f"correction coefficient for curve {model.curves[i].name} is {Q(y, m)}; "
                    "expected a nonnegative integer"
                )
        coeffs = tuple(y // m for y in solved)
        return CorrectionDivisor(
            level=k,
            support=support,
            sigma=tuple(Q(s, m) for s in scaled),
            det_abs=det_abs,
            coefficients=coeffs,
            divisor=model.divisor_from_curves(dict(zip(support, coeffs))),
        )

    @cached_property
    def separating_divisor(self) -> SeparatingDivisor:
        """Per component: the level-0 correction divisor of T = 0 when it is
        nonzero, otherwise the fundamental cycle. The sum is never zero on a
        nonempty configuration, which is what the connected-fibers
        threshold needs."""
        pieces = []
        for comp in self.components:
            corr = self._correction(self.model.zero_divisor(), 0, comp)
            from_cycle = corr.divisor.is_zero
            coeffs = self.cycle(comp).coefficients if from_cycle else corr.coefficients
            pieces.append(SeparatingPiece(comp, from_cycle, coeffs))
        total = {i: c for piece in pieces for i, c in zip(piece.component, piece.coefficients)}
        return SeparatingDivisor(self.model.divisor_from_curves(total), tuple(pieces))

    def condition_check(self, k: int) -> ConditionFlags:
        linear, m = self.obstruction_form
        return ConditionFlags(
            k=k,
            matsusaka=self.ample,
            laufer_ramanujam=all(x >= k * m for x in linear),
            artin=self.rational,
        )

    def ring_generation_threshold(self, *, no_fixed_part: bool = False) -> RingGeneration:
        """Degree bound for generation of the section ring of A; T plays no
        part.

        The rational-configuration hypothesis is checked on the model;
        absence of a fixed part is not checkable here and must be asserted by
        the caller. The step bound is evaluated at level l+1, whose
        worst-case correction constant is (l+1)^2 A^2.
        """
        zero = self.model.zero_divisor()
        base_level = self.level_at(zero)
        l = 1 + base_level
        if self.rational:
            case = "rational"
            p = base_level
        elif no_fixed_part:
            case = "no_fixed_part"
            e1 = self._correction(zero, 1, self.support)
            p = 1 + max(base_level, self.level_at(-e1.divisor))
        else:
            raise UnverifiableHypothesis(
                "need either a rational orthogonal configuration (fails on this "
                "model) or the caller's assertion that |A| has no fixed part"
            )
        if l < 1 or p < 1:
            raise NonpositiveLP(
                f"ring generation needs positive levels, got l={l}, p={p}"
            )
        doubled = ring_step_threshold(self, l + 1, p, v_is_zero=self.rational)
        return RingGeneration(
            multiplier_level=l,
            stability_level=p,
            case=case,
            doubled_bound=doubled,
            least_m=least_integer_above(doubled / 2),
        )


# Analyses by (id(model), A, T), least recently used first, so that a sweep of
# commands over n, k and the subcommand derives one system once. Each entry's
# analysis holds its model, so that id cannot be reused while the entry lives;
# a key by value would hash the Gram matrix at every lookup (0.5 ms for A250).
# 96 serves every reuse within a pass of the benchmark's cli_sweep (at most 85).
ANALYSIS_CACHE_SIZE = 96
_analyses: dict = {}


def analysis_of(model: SurfaceModel, a: DivisorClass, t: DivisorClass) -> Analysis:
    """The cached analysis of n*A + T on this model object, else a new one,
    which is stored. A build that raises stores nothing."""
    key = (id(model), a, t)
    analysis = _analyses.pop(key, None)
    if analysis is None:
        analysis = Analysis(model, a, t)
        if len(_analyses) >= ANALYSIS_CACHE_SIZE:
            del _analyses[next(iter(_analyses))]
    _analyses[key] = analysis
    return analysis


# -- comparison with the classical bounds ---------------------------------------


@dataclass(frozen=True)
class MatsusakaComparison:
    """Very-ampleness thresholds for n*H, H ample: the two published
    general-surface bounds built from H.(K + 4H) and H.(K + 2H), and this
    calculator's 2 + vanishing_threshold(H, 0)."""

    bound_k_plus_4h: Fraction
    bound_k_plus_2h: Fraction
    bound_here: Fraction

    @property
    def least_n_k_plus_4h(self) -> int:
        return least_integer_above(self.bound_k_plus_4h)

    @property
    def least_n_k_plus_2h(self) -> int:
        return least_integer_above(self.bound_k_plus_2h)

    @property
    def least_n_here(self) -> int:
        return least_integer_above(self.bound_here)


def matsusaka_compare(analysis: Analysis) -> MatsusakaComparison:
    """The comparison for the class H = analysis.a, which must be ample on
    the model; the twist of the analysis plays no part."""
    if not analysis.ample:
        raise NotAmple("comparison needs a class that is ample on the model")
    model = analysis.model
    h2 = analysis.a2
    kh = model.canonical_pairing(analysis.a)
    return MatsusakaComparison(
        bound_k_plus_4h=((kh + 4 * h2 + 1) ** 2 / h2 + 3) / 2,
        bound_k_plus_2h=((kh + 2 * h2 + 1) ** 2 / h2 + 7) / 2,
        bound_here=2 + analysis.threshold_at(model.zero_divisor()),
    )


# -- named threshold table -------------------------------------------------------


@dataclass(frozen=True)
class ThresholdEntry:
    key: str
    statement: str
    bound: Optional[Fraction]  # conclusion holds for integer n > bound
    least_n: Optional[int]
    established: bool  # hypotheses verified on the model or asserted
    requires: tuple[str, ...] = ()
    caveats: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)


def theorem_thresholds(
    analysis: Analysis,
    *,
    k: int = 0,
    n: Optional[int] = None,
    no_fixed_part: bool = False,
    base_point_free: bool = False,
) -> dict[str, ThresholdEntry]:
    """Exact n-thresholds for the calculator's effectivity statements.

    Every entry reports its rational bound, the least admissible integer n,
    whether its hypothesis holds (verified on the model or asserted), and
    what it relies on. Each entry names at most one hypothesis, a triple
    (holds, requires, caveat), and one rule makes the entry from it: the
    entry is established exactly when the hypothesis holds, lists its
    requires, and adds the caveat when it fails. An entry without a
    hypothesis is established and requires nothing. Inapplicable statements
    stay in the table with established=False and an explanation rather than
    disappearing.
    """
    model, t = analysis.model, analysis.t
    zero = model.zero_divisor()
    conditions = analysis.condition_check(k)
    components = analysis.components
    names = ["+".join(model.curves[i].name for i in comp) for comp in components]
    cycles = [analysis.cycle(comp) for comp in components]
    base = analysis.threshold_at(zero)
    level = analysis.level_at(t)
    entries: dict[str, ThresholdEntry] = {}

    def add(key, statement, bound, hypothesis=None, caveats=(), extras=None):
        holds, requires, caveat = hypothesis or (True, (), None)
        entries[key] = ThresholdEntry(
            key=key,
            statement=statement,
            bound=bound,
            least_n=None if bound is None else least_integer_above(bound),
            established=holds,
            requires=tuple(requires),
            caveats=caveats + (() if holds else (caveat,)),
            extras=extras or {},
        )

    rational = (
        conditions.artin,
        ("rational orthogonal configuration",),
        "the orthogonal configuration is not rational",
    )
    asserted = (
        no_fixed_part,
        ("asserted: |A| has no fixed part",),
        "not asserted: |A| may have a fixed part",
    )

    # k-very-ampleness via the obstruction mechanism.
    count = analysis.obstruction_count(k)
    requires = []
    if conditions.matsusaka:
        requires.append("ample on the model")
    if conditions.laufer_ramanujam:
        requires.append(f"pairing condition at k={k}")
    if not count:
        requires.append("empty obstruction set")
    add(
        "k_very_ample",
        f"n*A + T is {k - 1}-very ample for n above the bound",
        k + analysis.threshold_at(t),
        (
            bool(requires),
            requires,
            "no sufficient condition verified: obstruction divisors exist "
            "and neither the ample nor the pairing condition holds",
        ),
        extras={"k": k, "obstruction_count": count},
    )

    # Degree of very-ampleness from the minimal obstruction value.
    tau = analysis.obstruction_minimum
    min_degree_extras: dict = {"tau": tau, "vanishing_level": level}
    if n is not None and Q(n) >= level and tau >= 1:
        cap = n - level - 1
        degree = cap if tau is INFINITY else min(tau - 2, cap)
        min_degree_extras["degree_at_n"] = degree
    add(
        "min_degree",
        "n*A + T is min(tau - 2, n - level - 1)-very ample for n >= level",
        Q(level - 1),
        (tau >= 1, ("tau >= 1",), "tau < 1: no degree is certified"),
        extras=min_degree_extras,
    )

    # Rational configuration: cohomology vanishing and freeness for T = 0.
    add("h1_vanishes_rational", "h^1(n*A) = 0", base, rational)
    add("base_point_free_rational", "|n*A| is base point free", 1 + base, rational)

    # h^1 localizes on the level-0 correction divisor.
    e0 = analysis.correction_divisor(0)
    add(
        "h1_localizes",
        "h^1(n*A + T) equals its restriction to the level-0 correction divisor",
        analysis.threshold_at(t - e0.divisor),
        caveats=("threshold only; the restricted value itself is not computed",),
        extras={"correction": e0},
    )

    # The fixed part of |n*A + T| is bounded by the level-1 correction.
    e1 = analysis.correction_divisor(1)
    add(
        "fixed_part_bounded",
        "the fixed part of |n*A + T| is at most the level-1 correction divisor",
        1 + analysis.threshold_at(t - e1.divisor),
        extras={"correction": e1},
    )

    # Per rational component: the fixed part of |n*A| avoids it (T = 0).
    e1_zero = analysis._correction(zero, 1, analysis.support)
    for comp, comp_names, cycle in zip(components, names, cycles):
        rest = {
            i: c
            for i, c in zip(e1_zero.support, e1_zero.coefficients)
            if i not in comp
        }
        rest_divisor = model.divisor_from_curves(rest)
        add(
            f"fixed_part_avoids_{comp_names}",
            f"the fixed part of |n*A| is supported away from {comp_names}",
            1 + analysis.threshold_at(-rest_divisor),
            (
                cycle.genus == 0,
                (f"component {comp_names} is rational",),
                "component is not rational",
            ),
            extras={"component": comp, "complement_coefficients": rest},
        )

    # Asserted absence of a fixed part.
    add(
        "base_point_free_asserted",
        "|n*A| is base point free",
        1 + base,
        asserted,
        caveats=("relies on a user assertion",) if no_fixed_part else (),
    )
    add(
        "h0_chi_offset",
        "h^0(n*A + T) equals chi(n*A + T) plus a constant independent of n",
        max(1 + base, 1 + analysis.threshold_at(t - e1.divisor)),
        asserted,
        caveats=("threshold only; the constant itself is not computed",),
    )

    # Birational morphism contracting exactly the orthogonal curves, and its
    # connected fibers: free in the rational case, otherwise via the
    # separating divisor. Both rest on base point freeness or rationality.
    morphism_requires = ["asserted: |A| is base point free"] if base_point_free else []
    if conditions.artin:
        morphism_requires += rational[1]  # what the rational hypothesis requires
        multiplicities = {name: cycle.multiplicity for name, cycle in zip(names, cycles)}
        fiber_bound = 2 + base
        fiber_extras: dict = {}
    else:
        multiplicities = {}
        sep = analysis.separating_divisor
        fiber_bound = max(2 + base, analysis.threshold_at(-sep.divisor))
        fiber_extras = {"separating": sep}
    morphism = (
        base_point_free or conditions.artin,
        morphism_requires or ("base point freeness or rationality",),
    )
    add(
        "birational_morphism",
        "n*A maps the model onto a normal surface, an isomorphism away from "
        "the orthogonal curves, contracting each component to a point",
        2 + base,
        (*morphism, "neither base point freeness (assertable) nor rationality holds"),
        extras={"components": components, "multiplicities": multiplicities},
    )
    add(
        "connected_fibers",
        "the contraction above has connected fibers",
        fiber_bound,
        (*morphism, "inherits the birational morphism hypotheses"),
        extras=fiber_extras,
    )

    # Sharper separation of component images in the rational case.
    if conditions.artin and len(components) >= 2:
        pair_bounds = {
            f"{x}|{y}": 2 + base - Q(cx.multiplicity + cy.multiplicity, 4)
            for (x, cx), (y, cy) in combinations(zip(names, cycles), 2)
        }
        add(
            "component_separation",
            "images of distinct orthogonal components are separated",
            max(pair_bounds.values()),
            rational,
            extras={"pair_bounds": pair_bounds},
        )

    # Ring generation.
    try:
        ring = analysis.ring_generation_threshold(no_fixed_part=no_fixed_part)
    except (NonpositiveLP, UnverifiableHypothesis) as exc:
        ring_bound, ring_extras = None, None
        ring_hypothesis = (False, (), f"not applicable: {exc}")
    else:
        ring_bound = ring.doubled_bound / 2
        ring_hypothesis = rational if ring.case == "rational" else asserted
        ring_extras = {"ring": ring}
    add(
        "ring_generated",
        "the section ring of A is generated in degrees <= m",
        ring_bound,
        ring_hypothesis,
        extras=ring_extras,
    )

    return entries


# -- aggregate report ----------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    threshold: Fraction
    level: int
    canonical_threshold: Fraction  # 1/A^2, which is vanishing_threshold(A, K)
    hodge: HodgeDefect
    tau: object  # Fraction or INFINITY
    conditions: ConditionFlags
    correction: CorrectionDivisor
    separating: SeparatingDivisor
    obstructions: ObstructionSet
    multiple_gap: RootBracket
    quadratic: Optional[ObstructionQuadratic]
    check: Optional[ThresholdCheck]
    thresholds: dict[str, ThresholdEntry]
    matsusaka: Optional[MatsusakaComparison]


def build_bound_report(
    analysis: Analysis,
    *,
    k: int = 0,
    n: Optional[int] = None,
    no_fixed_part: bool = False,
    base_point_free: bool = False,
) -> BoundReport:
    t = analysis.t
    quadratic = None
    check = None
    if n is not None:
        quadratic = analysis.quadratic(n, k)
        check = threshold_holds(analysis, n, k)
    return BoundReport(
        threshold=analysis.threshold_at(t),
        level=analysis.level_at(t),
        canonical_threshold=1 / analysis.a2,
        hodge=analysis.hodge,
        tau=analysis.obstruction_minimum,
        conditions=analysis.condition_check(k),
        correction=analysis.correction_divisor(k),
        separating=analysis.separating_divisor,
        obstructions=analysis.enumerate_obstructions(k),
        multiple_gap=analysis.multiple_gap(k),
        quadratic=quadratic,
        check=check,
        thresholds=theorem_thresholds(
            analysis,
            k=k,
            n=n,
            no_fixed_part=no_fixed_part,
            base_point_free=base_point_free,
        ),
        matsusaka=matsusaka_compare(analysis) if analysis.ample else None,
    )
