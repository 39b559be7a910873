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
from itertools import product
from math import ceil, floor
from typing import Optional, Sequence

from . import lattice
from .cycles import fundamental_cycle, is_rational_configuration
from .errors import (
    IntegralityFailure,
    ModelInconsistent,
    NonpositiveInput,
    NonpositiveLP,
    NonpositiveX,
    NotAmple,
    NotBig,
    NotNefBig,
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


def _require_big(model: SurfaceModel, a: DivisorClass) -> Fraction:
    a2 = model.self_intersection(a)
    if a2 <= 0:
        raise NotBig("class needs positive self-intersection")
    return a2


def _require_nef_big(model: SurfaceModel, a: DivisorClass) -> Fraction:
    if not model.is_nef_model(a):
        raise NotNefBig("class is not nef against the listed curves")
    return _require_big(model, a)


# -- core thresholds -------------------------------------------------------


def vanishing_threshold(model: SurfaceModel, a: DivisorClass, t: DivisorClass) -> Fraction:
    """Base rational threshold controlling when very-ampleness failures of
    n*A + T must come from curves orthogonal to A."""
    a2 = _require_big(model, a)
    w = model.canonical_class - t
    wa = model.intersect(w, a)
    return (wa + 2) ** 2 / (4 * a2) - model.self_intersection(w) / 4


def vanishing_level(model: SurfaceModel, a: DivisorClass, t: DivisorClass) -> int:
    """Least integer strictly above the vanishing threshold."""
    return least_integer_above(vanishing_threshold(model, a, t))


@dataclass(frozen=True)
class HodgeDefect:
    value: Fraction
    proportional: bool
    ratio: Optional[Fraction]


def _proportionality(a: DivisorClass, v: DivisorClass) -> tuple[bool, Optional[Fraction]]:
    """Is v = ratio * a as coordinate vectors?"""
    if a.is_zero:
        return (v.is_zero, Q(0) if v.is_zero else None)
    pivot = next(i for i, c in enumerate(a.coords) if c != 0)
    ratio = v.coords[pivot] / a.coords[pivot]
    if all(v.coords[i] == ratio * a.coords[i] for i in range(a.rank)):
        return True, ratio
    return False, None


def hodge_defect(model: SurfaceModel, a: DivisorClass, t: DivisorClass) -> HodgeDefect:
    """h = (A.(T-K))^2 - A^2 (T-K)^2, with the proportionality witness.

    For big A the Hodge index shape of the lattice forces h >= 0 with
    equality exactly when T - K is a rational multiple of A. For A^2 <= 0
    the sign can go either way; callers needing the inequality must check
    bigness themselves.
    """
    v = t - model.canonical_class
    va = model.intersect(v, a)
    value = va * va - model.self_intersection(a) * model.self_intersection(v)
    proportional, ratio = _proportionality(a, v)
    return HodgeDefect(value=value, proportional=proportional, ratio=ratio)


@dataclass(frozen=True)
class ThresholdCheck:
    holds: bool
    strict_branch: bool
    proportional_branch: bool
    # true when only the proportional branch fired: the model certifies
    # numerical proportionality, while the underlying statement wants
    # linear equivalence T = K + lambda*A
    numerical_equivalence_caveat: bool


def threshold_holds(
    model: SurfaceModel, a: DivisorClass, t: DivisorClass, n: int, k: int
) -> ThresholdCheck:
    """Disjunctive hypothesis: n > k + threshold, or k = 0 with T - K
    numerically proportional to A and n >= threshold."""
    _require_nef_big(model, a)
    bound = vanishing_threshold(model, a, t)
    strict = Q(n) > k + bound
    proportional = (
        k == 0
        and hodge_defect(model, a, t).proportional
        and Q(n) >= bound
    )
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

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    @property
    def is_exact(self) -> bool:
        return self.low == self.high


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

    @property
    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (Q(1), -self.linear, self.constant)

    def value(self, x) -> Fraction:
        x = Q(x)
        return x * x - self.linear * x + self.constant


def multiple_gap_bracket(
    model: SurfaceModel, a: DivisorClass, t: DivisorClass, k: int
) -> RootBracket:
    """Bracket of the least real n with (n*A + T - K)^2 > 4k; past its
    upper end the square-gap hypothesis of the obstruction argument holds.
    The radicand h + 4 k A^2 is nonnegative for big A and k >= 0."""
    a2 = _require_big(model, a)
    w = t - model.canonical_class
    radicand = hodge_defect(model, a, t).value + 4 * k * a2
    if radicand < 0:
        raise ModelInconsistent("square-gap radicand negative for big A")
    return _bracket_shifted_sqrt(
        -model.intersect(a, w), radicand, a2, BRACKET_WIDTH
    )


def obstruction_quadratic(
    model: SurfaceModel, a: DivisorClass, t: DivisorClass, n, k: int
) -> ObstructionQuadratic:
    a2 = _require_big(model, a)
    w = t - model.canonical_class  # T - K
    ell = Q(n) * a + w  # L = n*A + T - K
    al = model.intersect(a, ell)
    h = hodge_defect(model, a, t).value
    constant = h / 4 + k * a2
    f0 = constant
    f1 = 1 - al + constant
    disc = al * al - 4 * constant
    small = None
    if disc >= 0:
        # x1 = (A.L - sqrt(disc)) / 2; bracket the sqrt to within 1/1024.
        lo, hi = lattice.sqrt_bracket(disc, BRACKET_WIDTH)
        small = RootBracket((al - hi) / 2, (al - lo) / 2)
    gap = multiple_gap_bracket(model, a, t, k)
    return ObstructionQuadratic(
        linear=al,
        constant=constant,
        f_at_zero=f0,
        f_at_one=f1,
        discriminant=disc,
        small_root=small,
        square_gap_root=gap,
    )


def degree_cap_threshold(
    model: SurfaceModel, a: DivisorClass, t: DivisorClass, k: int, x
) -> Fraction:
    """Exact n-threshold beyond which every obstruction divisor D for
    (k-1)-very-ampleness has D.A < x. At x = 1 this reproduces the main
    bound k + vanishing_threshold exactly."""
    x = Q(x)
    if x <= 0:
        raise NonpositiveX("degree cap must be positive")
    a2 = _require_big(model, a)
    w = t - model.canonical_class
    f0 = hodge_defect(model, a, t).value / 4 + k * a2
    return -model.intersect(a, w) / a2 + x / a2 + f0 / (x * a2)


# -- obstruction enumeration ------------------------------------------------


@dataclass(frozen=True)
class ObstructionEntry:
    coefficients: tuple[int, ...]  # aligned with the support indices
    divisor: DivisorClass
    value: Fraction  # T.D - K.D - D^2


@dataclass(frozen=True)
class ObstructionSet:
    support: tuple[int, ...]  # curve indices orthogonal to A
    bound: Fraction  # entries satisfy value <= bound
    entries: tuple[ObstructionEntry, ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def witness_minimum(self) -> Optional[ObstructionEntry]:
        if not self.entries:
            return None
        return min(self.entries, key=lambda e: (e.value, e.coefficients))


def _obstruction_setup(
    model: SurfaceModel, a: DivisorClass, t: DivisorClass
) -> tuple[tuple[int, ...], list[list[int]], list[Fraction]]:
    """Support, Q = -Gram on it and linear term (T - K).C_i of the
    obstruction form n'Qn + linear.n, whose value is T.D - K.D - D^2 for
    D = sum n_i C_i."""
    support = model.exceptional_curves(a)
    q_matrix = [[-x for x in row] for row in model.curve_gram(support)]
    w = t - model.canonical_class
    linear = [model.pair_curve(w, i) for i in support]
    return support, q_matrix, linear


def _obstruction_set(
    model: SurfaceModel,
    support: tuple[int, ...],
    bound: Fraction,
    hits: Sequence[tuple[tuple[int, ...], Fraction]],
) -> ObstructionSet:
    entries = [
        ObstructionEntry(coeffs, model.divisor_from_curves(dict(zip(support, coeffs))), value)
        for coeffs, value in sorted(hits)
    ]
    return ObstructionSet(support=support, bound=bound, entries=tuple(entries))


def _ldl(q_matrix: Sequence[Sequence[int]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact Q = L D L' with L unit lower triangular; every pivot of D must
    be positive, as Q = -Gram of a negative definite block is."""
    r = len(q_matrix)
    lower = [[Q(int(i == j)) for j in range(r)] for i in range(r)]
    diag: list[Fraction] = []
    for j in range(r):
        pivot = q_matrix[j][j] - sum((lower[j][m] ** 2 * diag[m] for m in range(j)), Q(0))
        if pivot <= 0:
            raise ModelInconsistent("obstruction form is not positive definite")
        diag.append(pivot)
        for i in range(j + 1, r):
            lower[i][j] = (
                q_matrix[i][j]
                - sum((lower[i][m] * lower[j][m] * diag[m] for m in range(j)), Q(0))
            ) / pivot
    return lower, diag


def _fincke_pohst(
    q_matrix: Sequence[Sequence[int]], linear: Sequence[Fraction], bound: Fraction
) -> list[tuple[tuple[int, ...], Fraction]]:
    """All nonzero n >= 0 with n'Qn + linear.n <= bound, by the depth-first
    short-vector search of Fincke and Pohst (Math. Comp. 44, 1985).

    With c = Q^-1 linear / 2 the condition reads (n + c)'Q(n + c) <= R for
    R = bound + c'Qc = bound + linear.c / 2. Writing Q = L D L' splits the
    left side into sum_j d_j y_j^2 with y_j = n_j + c_j + sum_{i>j} L_ij
    (n_i + c_i), so once n_{j+1..r-1} are fixed, the radius left bounds n_j
    to an interval. The search fixes coordinates from last to first; the
    interval is rounded outward and every leaf is checked exactly.
    """
    r = len(linear)
    lower, diag = _ldl(q_matrix)
    # c from L D L' c = linear / 2: forward, diagonal, then back substitution
    z: list[Fraction] = []
    for i in range(r):
        z.append(linear[i] / 2 - sum(lower[i][m] * z[m] for m in range(i)))
    center = [zi / di for zi, di in zip(z, diag)]
    for i in reversed(range(r)):
        center[i] -= sum(lower[m][i] * center[m] for m in range(i + 1, r))
    radius = bound + sum(x * c for x, c in zip(linear, center)) / 2
    hits: list[tuple[tuple[int, ...], Fraction]] = []
    if radius < 0:
        return hits
    point = [0] * r
    # y_j = n_j + shift_j; the part of shift_j that does not depend on n
    offset = [
        center[j] + sum(lower[i][j] * center[i] for i in range(j + 1, r)) for j in range(r)
    ]

    def descend(j: int, left: Fraction) -> None:
        shift = offset[j] + sum(lower[i][j] * point[i] for i in range(j + 1, r) if point[i])
        half = lattice.sqrt_upper(left / diag[j])
        for v in range(max(0, ceil(-shift - half)), floor(half - shift) + 1):
            y = v + shift
            rest = left - diag[j] * y * y
            if rest < 0:
                continue
            point[j] = v
            if j:
                descend(j - 1, rest)
            elif any(point):
                nonzero = [i for i in range(r) if point[i]]
                quad = sum(q_matrix[i][m] * point[i] * point[m] for i in nonzero for m in nonzero)
                value = quad + sum(linear[i] * point[i] for i in nonzero)
                if value <= bound:
                    hits.append((tuple(point), value))
        point[j] = 0

    descend(r - 1, radius)
    return hits


def _enumerate_box(model: SurfaceModel, a: DivisorClass, t: DivisorClass, k) -> ObstructionSet:
    """Production obstruction enumeration, by the search of _fincke_pohst.

    The name is older than the search: the benchmark's tracer
    (perfbench/tracing.py) wraps this function by name to count
    enumerations and their entries, so it keeps the name of the box loop
    it replaced and the search lives in a private helper it calls.
    """
    bound = Q(k)
    support, q_matrix, linear = _obstruction_setup(model, a, t)
    hits = _fincke_pohst(q_matrix, linear, bound) if support else []
    return _obstruction_set(model, support, bound, hits)


def enumerate_obstructions(
    model: SurfaceModel, a: DivisorClass, t: DivisorClass, k
) -> ObstructionSet:
    """All effective nonzero D supported on the curves orthogonal to A with
    T.D - K.D - D^2 <= k, sorted lexicographically by coefficients.

    The depth-first Fincke-Pohst search drops a partial point as soon as the
    radius left for its remaining coordinates is negative, so its work
    grows with the number of lattice points near the sublevel ellipsoid,
    not with the volume of the ellipsoid's bounding box."""
    return _enumerate_box(model, a, t, k)


def _sublevel_box(
    q_matrix: Sequence[Sequence], linear: Sequence[Fraction], bound: Fraction,
    margin: Fraction,
) -> Optional[list[tuple[int, int]]]:
    """Integer bounding box for {n >= 0 : n'Qn + linear.n <= bound} with Q
    positive definite. Completing the square gives the ellipsoid radius R;
    the per-coordinate half-width is sqrt(R * (Q^-1)_ii). Outward rounding
    keeps the box sound; margin >= 1 inflates it."""
    r = len(linear)
    inv = lattice.matrix_inverse(q_matrix)
    center = [sum(inv[i][j] * linear[j] for j in range(r)) / 2 for i in range(r)]
    radius = bound + lattice.dot(center, lattice.mat_vec(q_matrix, center))
    if radius < 0:
        return None
    box = []
    for i in range(r):
        half = margin * lattice.sqrt_upper(radius * inv[i][i])
        low = max(0, -floor(center[i] + half))  # ceil(-c - half) = -floor(c + half)
        high = floor(-center[i] + half)
        if high < low:
            return None
        box.append((low, high))
    return box


def _box_product(
    q_matrix: Sequence[Sequence[int]], linear: Sequence[Fraction], bound: Fraction,
    margin: Fraction,
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every point of the (inflated) bounding box, tested one by one."""
    box = _sublevel_box(q_matrix, linear, bound, margin)
    if box is None:
        return []
    hits = []
    r = len(box)
    for coeffs in product(*(range(lo, hi + 1) for lo, hi in box)):
        if not any(coeffs):
            continue
        quad = sum(
            coeffs[i] * q_matrix[i][j] * coeffs[j]
            for i in range(r)
            for j in range(r)
        )
        value = quad + sum(linear[i] * coeffs[i] for i in range(r))
        if value <= bound:
            hits.append((coeffs, value))
    return hits


def obstruction_oracle(
    model: SurfaceModel, a: DivisorClass, t: DivisorClass, k, margin=Q(2)
) -> ObstructionSet:
    """Brute-force cross-check of enumerate_obstructions: every point of the
    ellipsoid's bounding box, inflated by margin >= 1, is tested. With the
    search it shares only the set-up of the form (support, Q and linear
    term) and the packing of hits into entries. Its cost is the box
    volume, so it is meant for small inputs."""
    margin = Q(margin)
    if margin < 1:
        raise NonpositiveInput("oracle box margin must be at least 1")
    bound = Q(k)
    support, q_matrix, linear = _obstruction_setup(model, a, t)
    hits = _box_product(q_matrix, linear, bound, margin) if support else []
    return _obstruction_set(model, support, bound, hits)


def obstruction_minimum(model: SurfaceModel, a: DivisorClass, t: DivisorClass):
    """Minimum of T.D - K.D - D^2 over effective nonzero D orthogonal to A;
    positive infinity when no curve is orthogonal (the ample case).

    A single curve C_i already realizes the value (T-K).C_i - C_i^2, so the
    sublevel set at the best single-curve value is nonempty and one
    enumeration pass suffices.
    """
    support = model.exceptional_curves(a)
    if not support:
        return INFINITY
    w = t - model.canonical_class
    single = [
        model.pair_curve(w, i) - model.curve_pairings[i][i] for i in support
    ]
    sublevel = _enumerate_box(model, a, t, min(single))
    if sublevel.is_empty:
        raise ModelInconsistent("sublevel set lost its single-curve witness")
    return min(e.value for e in sublevel.entries)


# -- correction divisors -----------------------------------------------------


@dataclass(frozen=True)
class CorrectionDivisor:
    level: int  # the k it repairs
    support: tuple[int, ...]
    sigma: tuple[Fraction, ...]  # deficiency per support curve
    det_abs: int
    coefficients: tuple[int, ...]
    divisor: DivisorClass


def lr_deficiency(
    model: SurfaceModel,
    a: DivisorClass,
    t: DivisorClass,
    k: int,
    subset: Optional[Sequence[int]] = None,
) -> dict[int, Fraction]:
    """Per-curve deficiency max(K.C - T.C + k, 0) on the curves orthogonal
    to A (or a chosen subset of them)."""
    support = model.exceptional_curves(a) if subset is None else tuple(sorted(subset))
    w = model.canonical_class - t
    out = {}
    for i in support:
        gap = model.pair_curve(w, i) + k
        out[i] = gap if gap > 0 else Q(0)
    return out


def correction_divisor(
    model: SurfaceModel,
    a: DivisorClass,
    t: DivisorClass,
    k: int,
    subset: Optional[Sequence[int]] = None,
) -> CorrectionDivisor:
    """Effective divisor E with E.C_i = -|det| * deficiency_i on the curves
    orthogonal to A. Subtracting it repairs the pairing condition
    (T - E).C_i >= K.C_i + k. Cramer scaling by |det| makes E integral."""
    sigma_map = lr_deficiency(model, a, t, k, subset)
    support = tuple(sorted(sigma_map))
    if not support:
        return CorrectionDivisor(
            level=k,
            support=(),
            sigma=(),
            det_abs=1,
            coefficients=(),
            divisor=model.zero_divisor(),
        )
    gram = model.curve_gram(support)
    det_abs = abs(lattice.determinant(gram))
    rhs = [-det_abs * sigma_map[i] for i in support]
    solved = lattice.solve_linear(gram, rhs)
    coeffs = []
    for i, x in zip(support, solved):
        if x.denominator != 1 or x < 0:
            raise IntegralityFailure(
                f"correction coefficient for curve {model.curves[i].name} is {x}; "
                "expected a nonnegative integer"
            )
        coeffs.append(int(x))
    return CorrectionDivisor(
        level=k,
        support=support,
        sigma=tuple(sigma_map[i] for i in support),
        det_abs=det_abs,
        coefficients=tuple(coeffs),
        divisor=model.divisor_from_curves(dict(zip(support, coeffs))),
    )


@dataclass(frozen=True)
class SeparatingPiece:
    component: tuple[int, ...]
    from_fundamental_cycle: bool
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class SeparatingDivisor:
    divisor: DivisorClass
    pieces: tuple[SeparatingPiece, ...]


def separating_divisor(model: SurfaceModel, a: DivisorClass) -> SeparatingDivisor:
    """Per connected component of the curves orthogonal to A: the level-0
    correction divisor when it is nonzero, otherwise the fundamental cycle.
    The sum is never zero on a nonempty configuration, which is what the
    connected-fibers threshold needs."""
    support = model.exceptional_curves(a)
    zero_t = model.zero_divisor()
    total = model.zero_divisor()
    pieces = []
    for comp in model.connected_components(support):
        corr = correction_divisor(model, a, zero_t, 0, subset=comp)
        if corr.divisor.is_zero:
            cyc = fundamental_cycle(model, comp)
            pieces.append(SeparatingPiece(comp, True, cyc.coefficients))
            total = total + cyc.divisor
        else:
            pieces.append(SeparatingPiece(comp, False, corr.coefficients))
            total = total + corr.divisor
    return SeparatingDivisor(divisor=total, pieces=tuple(pieces))


# -- classical conditions -----------------------------------------------------


@dataclass(frozen=True)
class ConditionFlags:
    k: int
    matsusaka: bool  # A is ample against the model
    laufer_ramanujam: bool  # T.C >= K.C + k on every curve orthogonal to A
    artin: bool  # the curves orthogonal to A form a rational configuration


def condition_check(
    model: SurfaceModel, a: DivisorClass, t: DivisorClass, k: int
) -> ConditionFlags:
    support = model.exceptional_curves(a)
    w = t - model.canonical_class
    lr = all(model.pair_curve(w, i) >= k for i in support)
    return ConditionFlags(
        k=k,
        matsusaka=model.is_ample_model(a),
        laufer_ramanujam=lr,
        artin=is_rational_configuration(model, support),
    )


# -- ring generation -----------------------------------------------------------


def ring_step_threshold(
    model: SurfaceModel, a: DivisorClass, l: int, p: int, v_is_zero: bool
) -> Fraction:
    """Bound N(A, l, p): for n > N the degree-n piece of the section ring is
    the product of the degree-l and degree-(n-l) pieces. The branch depends
    on whether the relevant correction class V vanishes; when it does not,
    the worst case k = l^2 A^2 enters."""
    if l < 1 or p < 1:
        raise NonpositiveInput("ring step levels l and p must be positive integers")
    a2 = _require_nef_big(model, a)
    base = Q(2 * l + p - 1)
    if v_is_zero:
        alt = 3 * l + model.intersect(model.canonical_class, a) / a2
    else:
        k = l * l * a2
        alt = k + vanishing_threshold(model, a, model.zero_divisor()) + l
    return max(base, alt)


@dataclass(frozen=True)
class RingGeneration:
    multiplier_level: int  # l: generators live in degrees <= l... relations use it
    stability_level: int  # p: h^1 input level
    case: str  # "rational" or "no_fixed_part"
    doubled_bound: Fraction  # the ring is generated once 2m exceeds this
    least_m: int


def ring_generation_threshold(
    model: SurfaceModel, a: DivisorClass, *, no_fixed_part: bool = False
) -> RingGeneration:
    """Degree bound for generation of the section ring of A.

    The rational-configuration hypothesis is checked on the model; absence
    of a fixed part is not checkable here and must be asserted by the
    caller. The step bound is evaluated at level l+1, whose worst-case
    correction constant is (l+1)^2 A^2.
    """
    _require_nef_big(model, a)
    zero = model.zero_divisor()
    rational = is_rational_configuration(model, model.exceptional_curves(a))
    base_level = vanishing_level(model, a, zero)
    l = 1 + base_level
    if rational:
        case = "rational"
        p = base_level
    elif no_fixed_part:
        case = "no_fixed_part"
        e1 = correction_divisor(model, a, zero, 1)
        p = 1 + max(base_level, vanishing_level(model, a, -e1.divisor))
    else:
        raise UnverifiableHypothesis(
            "need either a rational orthogonal configuration (fails on this "
            "model) or the caller's assertion that |A| has no fixed part"
        )
    if l < 1 or p < 1:
        raise NonpositiveLP(
            f"ring generation needs positive levels, got l={l}, p={p}"
        )
    doubled = ring_step_threshold(model, a, l + 1, p, v_is_zero=rational)
    least_m = least_integer_above(doubled / 2)
    return RingGeneration(
        multiplier_level=l,
        stability_level=p,
        case=case,
        doubled_bound=doubled,
        least_m=least_m,
    )


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


def matsusaka_compare(model: SurfaceModel, h: DivisorClass) -> MatsusakaComparison:
    if not model.is_ample_model(h):
        raise NotAmple("comparison needs a class that is ample on the model")
    h2 = model.self_intersection(h)
    kh = model.canonical_pairing(h)
    quartic = ((kh + 4 * h2 + 1) ** 2 / h2 + 3) / 2
    quadratic = ((kh + 2 * h2 + 1) ** 2 / h2 + 7) / 2
    ours = 2 + vanishing_threshold(model, h, model.zero_divisor())
    return MatsusakaComparison(
        bound_k_plus_4h=quartic,
        bound_k_plus_2h=quadratic,
        bound_here=ours,
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


def _entry(key, statement, bound, established, requires=(), caveats=(), extras=None):
    return ThresholdEntry(
        key=key,
        statement=statement,
        bound=bound,
        least_n=None if bound is None else least_integer_above(bound),
        established=established,
        requires=tuple(requires),
        caveats=tuple(caveats),
        extras=extras or {},
    )


def theorem_thresholds(
    model: SurfaceModel,
    a: DivisorClass,
    t: DivisorClass,
    *,
    k: int = 0,
    n: Optional[int] = None,
    no_fixed_part: bool = False,
    base_point_free: bool = False,
) -> dict[str, ThresholdEntry]:
    """Exact n-thresholds for the calculator's effectivity statements.

    Every entry reports its rational bound, the least admissible integer n,
    whether its hypotheses were verified (or user-asserted), and what it
    relies on. Inapplicable statements stay in the table with
    established=False and an explanation rather than disappearing.
    """
    _require_nef_big(model, a)
    zero = model.zero_divisor()
    conditions = condition_check(model, a, t, k)
    support = model.exceptional_curves(a)
    components = model.connected_components(support)
    base = vanishing_threshold(model, a, zero)
    base_level = vanishing_level(model, a, zero)
    entries: dict[str, ThresholdEntry] = {}

    def add(entry: ThresholdEntry) -> None:
        entries[entry.key] = entry

    # k-very-ampleness via the obstruction mechanism.
    obstructions = enumerate_obstructions(model, a, t, k)
    requires = []
    if conditions.matsusaka:
        requires.append("ample on the model")
    if conditions.laufer_ramanujam:
        requires.append(f"pairing condition at k={k}")
    if obstructions.is_empty:
        requires.append("empty obstruction set")
    add(_entry(
        "k_very_ample",
        f"n*A + T is {k - 1}-very ample for n above the bound",
        k + vanishing_threshold(model, a, t),
        established=bool(requires),
        requires=requires,
        caveats=() if requires else (
            "no sufficient condition verified: obstruction divisors exist "
            "and neither the ample nor the pairing condition holds",
        ),
        extras={"k": k, "obstruction_count": len(obstructions.entries)},
    ))

    # Degree of very-ampleness from the minimal obstruction value.
    tau = obstruction_minimum(model, a, t)
    min_degree_extras: dict = {
        "tau": tau,
        "vanishing_level": vanishing_level(model, a, t),
    }
    if n is not None and Q(n) >= vanishing_level(model, a, t) and tau >= 1:
        lvl = vanishing_level(model, a, t)
        cap = n - lvl - 1
        degree = cap if isinstance(tau, _PositiveInfinity) else min(tau - 2, cap)
        min_degree_extras["degree_at_n"] = degree
    add(_entry(
        "min_degree",
        "n*A + T is min(tau - 2, n - level - 1)-very ample for n >= level",
        Q(vanishing_level(model, a, t) - 1),
        established=tau >= 1,
        requires=("tau >= 1",),
        caveats=() if tau >= 1 else ("tau < 1: no degree is certified",),
        extras=min_degree_extras,
    ))

    # Rational configuration: cohomology vanishing and freeness for T = 0.
    add(_entry(
        "h1_vanishes_rational",
        "h^1(n*A) = 0",
        base,
        established=conditions.artin,
        requires=("rational orthogonal configuration",),
        caveats=() if conditions.artin else (
            "the orthogonal configuration is not rational",
        ),
    ))
    add(_entry(
        "base_point_free_rational",
        "|n*A| is base point free",
        1 + base,
        established=conditions.artin,
        requires=("rational orthogonal configuration",),
        caveats=() if conditions.artin else (
            "the orthogonal configuration is not rational",
        ),
    ))

    # h^1 localizes on the level-0 correction divisor.
    e0 = correction_divisor(model, a, t, 0)
    add(_entry(
        "h1_localizes",
        "h^1(n*A + T) equals its restriction to the level-0 correction divisor",
        vanishing_threshold(model, a, t - e0.divisor),
        established=True,
        caveats=("threshold only; the restricted value itself is not computed",),
        extras={"correction": e0},
    ))

    # The fixed part of |n*A + T| is bounded by the level-1 correction.
    e1 = correction_divisor(model, a, t, 1)
    add(_entry(
        "fixed_part_bounded",
        "the fixed part of |n*A + T| is at most the level-1 correction divisor",
        1 + vanishing_threshold(model, a, t - e1.divisor),
        established=True,
        extras={"correction": e1},
    ))

    # Per rational component: the fixed part of |n*A| avoids it (T = 0).
    e1_zero = correction_divisor(model, a, zero, 1)
    for comp in components:
        comp_names = "+".join(model.curves[i].name for i in comp)
        rational_comp = is_rational_configuration(model, comp)
        rest = {
            i: c
            for i, c in zip(e1_zero.support, e1_zero.coefficients)
            if i not in comp
        }
        rest_divisor = model.divisor_from_curves(rest)
        add(_entry(
            f"fixed_part_avoids_{comp_names}",
            f"the fixed part of |n*A| is supported away from {comp_names}",
            1 + vanishing_threshold(model, a, -rest_divisor),
            established=rational_comp,
            requires=(f"component {comp_names} is rational",),
            caveats=() if rational_comp else ("component is not rational",),
            extras={"component": comp, "complement_coefficients": rest},
        ))

    # Asserted absence of a fixed part.
    add(_entry(
        "base_point_free_asserted",
        "|n*A| is base point free",
        1 + base,
        established=no_fixed_part,
        requires=("asserted: |A| has no fixed part",),
        caveats=(
            ("relies on a user assertion",)
            if no_fixed_part
            else ("not asserted: |A| may have a fixed part",)
        ),
    ))
    h0_bound = max(1 + base, 1 + vanishing_threshold(model, a, t - e1.divisor))
    add(_entry(
        "h0_chi_offset",
        "h^0(n*A + T) equals chi(n*A + T) plus a constant independent of n",
        h0_bound,
        established=no_fixed_part,
        requires=("asserted: |A| has no fixed part",),
        caveats=("threshold only; the constant itself is not computed",)
        + (() if no_fixed_part else ("not asserted: |A| may have a fixed part",)),
    ))

    # Birational morphism contracting exactly the orthogonal curves.
    birational_ok = base_point_free or conditions.artin
    birational_requires = []
    if base_point_free:
        birational_requires.append("asserted: |A| is base point free")
    if conditions.artin:
        birational_requires.append("rational orthogonal configuration")
    multiplicities = {}
    if conditions.artin:
        for comp in components:
            comp_names = "+".join(model.curves[i].name for i in comp)
            multiplicities[comp_names] = fundamental_cycle(model, comp).multiplicity
    add(_entry(
        "birational_morphism",
        "n*A maps the model onto a normal surface, an isomorphism away from "
        "the orthogonal curves, contracting each component to a point",
        2 + base,
        established=birational_ok,
        requires=tuple(birational_requires) or ("base point freeness or rationality",),
        caveats=() if birational_ok else (
            "neither base point freeness (assertable) nor rationality holds",
        ),
        extras={"components": components, "multiplicities": multiplicities},
    ))

    # Connected fibers: free in the rational case, otherwise via the
    # separating divisor.
    if conditions.artin:
        fiber_bound = 2 + base
        fiber_extras: dict = {}
    else:
        sep = separating_divisor(model, a)
        fiber_bound = max(2 + base, vanishing_threshold(model, a, -sep.divisor))
        fiber_extras = {"separating": sep}
    add(_entry(
        "connected_fibers",
        "the contraction above has connected fibers",
        fiber_bound,
        established=birational_ok,
        requires=tuple(birational_requires) or ("base point freeness or rationality",),
        caveats=() if birational_ok else (
            "inherits the birational morphism hypotheses",
        ),
        extras=fiber_extras,
    ))

    # Sharper separation of component images in the rational case.
    if conditions.artin and len(components) >= 2:
        pair_bounds = {}
        for x in range(len(components)):
            for y in range(x + 1, len(components)):
                mx = fundamental_cycle(model, components[x]).multiplicity
                my = fundamental_cycle(model, components[y]).multiplicity
                names = (
                    "+".join(model.curves[i].name for i in components[x]),
                    "+".join(model.curves[i].name for i in components[y]),
                )
                pair_bounds["|".join(names)] = 2 + base - Q(mx + my, 4)
        add(_entry(
            "component_separation",
            "images of distinct orthogonal components are separated",
            max(pair_bounds.values()),
            established=True,
            requires=("rational orthogonal configuration",),
            extras={"pair_bounds": pair_bounds},
        ))

    # Ring generation.
    try:
        ring = ring_generation_threshold(model, a, no_fixed_part=no_fixed_part)
        add(_entry(
            "ring_generated",
            "the section ring of A is generated in degrees <= m",
            ring.doubled_bound / 2,
            established=True,
            requires=(
                ("rational orthogonal configuration",)
                if ring.case == "rational"
                else ("asserted: |A| has no fixed part",)
            ),
            extras={"ring": ring},
        ))
    except (NonpositiveLP, UnverifiableHypothesis) as exc:
        add(_entry(
            "ring_generated",
            "the section ring of A is generated in degrees <= m",
            None,
            established=False,
            caveats=(f"not applicable: {exc}",),
        ))

    return entries


# -- aggregate report ----------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    threshold: Fraction
    level: int
    canonical_threshold: Fraction  # vanishing_threshold(A, K), equals 1/A^2
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
    model: SurfaceModel,
    a: DivisorClass,
    t: DivisorClass,
    *,
    k: int = 0,
    n: Optional[int] = None,
    no_fixed_part: bool = False,
    base_point_free: bool = False,
) -> BoundReport:
    _require_nef_big(model, a)
    quadratic = None
    check = None
    if n is not None:
        quadratic = obstruction_quadratic(model, a, t, n, k)
        check = threshold_holds(model, a, t, n, k)
    comparison = None
    if model.is_ample_model(a):
        comparison = matsusaka_compare(model, a)
    return BoundReport(
        threshold=vanishing_threshold(model, a, t),
        level=vanishing_level(model, a, t),
        canonical_threshold=vanishing_threshold(model, a, model.canonical_class),
        hodge=hodge_defect(model, a, t),
        tau=obstruction_minimum(model, a, t),
        conditions=condition_check(model, a, t, k),
        correction=correction_divisor(model, a, t, k),
        separating=separating_divisor(model, a),
        obstructions=enumerate_obstructions(model, a, t, k),
        multiple_gap=multiple_gap_bracket(model, a, t, k),
        quadratic=quadratic,
        check=check,
        thresholds=theorem_thresholds(
            model,
            a,
            t,
            k=k,
            n=n,
            no_fixed_part=no_fixed_part,
            base_point_free=base_point_free,
        ),
        matsusaka=comparison,
    )
