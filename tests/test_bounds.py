"""Effective bounds: thresholds, obstruction sets, corrections, ring generation.

Frozen expected values were computed independently (closed forms on rank-one
and ruled models, hand-solved linear systems on the root configurations)
before being asserted here.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from collections import Counter
from fractions import Fraction as Q
from itertools import product

import pytest

from surfbound import bounds, lattice, reporting, search, zariski
from surfbound.cli import run_subcommand
from surfbound.bounds import (
    BRACKET_WIDTH,
    INFINITY,
    Analysis,
    build_bound_report,
    least_integer_above,
    matsusaka_compare,
    obstruction_oracle,
    ring_step_threshold,
    theorem_thresholds,
    threshold_holds,
    vanishing_threshold,
)
from surfbound.errors import (
    IntegralityFailure,
    NonpositiveInput,
    NonpositiveLP,
    NonpositiveX,
    NotAmple,
    NotBig,
    NotNefBig,
    UnverifiableHypothesis,
)
from surfbound.surface import DivisorClass, SurfaceModel
from surfbound.surface_io import parse_divisor

from generators import (
    ADE_TYPES,
    any_class,
    big_class,
    block_model,
    construct_polarization,
    coordinate_ratio,
    hodge_model,
    least_value_reference,
    plumbing_configuration,
    plumbing_elliptic,
    plumbing_mixed,
    polarization,
    solve_linear,
)

POSITIVE_ROOTS = {
    "a": lambda n: n * (n + 1) // 2,
    "d": lambda n: n * (n - 1),
    "e": {6: 36, 7: 63, 8: 120}.get,
}


def count_calls(monkeypatch, calls: Counter, owner, name: str) -> None:
    """Count the calls of owner.name in calls[name] for one test."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def single_curve_value(analysis: Analysis) -> Q:
    """The least value of one orthogonal curve, where tau's search starts."""
    linear, m = analysis.obstruction_form  # on the support reversed
    pairings = analysis.model.curve_pairings
    return min(Q(x, m) - pairings[i][i] for i, x in zip(analysis.support[::-1], linear))


def assert_search_matches_box(analysis: Analysis, levels) -> None:
    """The integer search against the box oracle at every level and at the
    single-curve value: the same entries, values included, the count
    without entries, and the tau of the descent with a floor against the
    least value the box finds."""
    single = single_curve_value(analysis)
    for k in (*levels, single):
        slow = obstruction_oracle(analysis, k)
        assert list(analysis.enumerate_obstructions(k).entries.rows()) == slow
        assert analysis.obstruction_count(k) == len(slow)
    witnesses = obstruction_oracle(analysis, single)
    assert analysis.obstruction_minimum == min(value for _, _, value in witnesses)


def forward_hits(analysis: Analysis, k) -> list:
    """(coefficients, value) of every hit of the search run on the support
    in its own order, unsorted: the reference for the ordered search. It
    eliminates the forward block itself, apart from the analysis'."""
    if not analysis.support:
        return []
    linear, m = analysis.obstruction_form
    eliminated = lattice.negated_elimination(analysis.model.curve_gram(analysis.support))
    form, top = search.search_form(eliminated, linear[::-1], m), math.floor(m * k)
    return [
        ((v, *tail), form.value(top, rest))
        for tail, first, rests in search.fincke_pohst(form, top)
        for v, rest in enumerate(rests, first)
    ]


def assert_ordered_and_counted(analysis: Analysis, levels) -> list[int]:
    """The search on the reversed support meets the hits in sorted order,
    each with the divisor of its coefficients, and the counting descent
    counts them; returns the counts."""
    model, support = analysis.model, analysis.support
    counts = []
    for k in levels:
        hits = forward_hits(analysis, k)
        rows = list(analysis.enumerate_obstructions(k).entries.rows())
        assert [(c, v) for c, _, v in rows] == sorted(hits)
        for c, coords, _ in rows:
            assert DivisorClass(coords) == model.divisor_from_curves(dict(zip(support, c)))
        assert analysis.obstruction_count(k) == len(hits)
        counts.append(len(hits))
    return counts


def double_cover(d: int) -> SurfaceModel:
    """Rank-one model of a double plane branched in degree 2d."""
    return SurfaceModel.create(
        name=f"double_cover_d{d}",
        gram=[[2]],
        canonical=[d - 3],
        curves=[("H", [1])],
        ample_reference=[1],
    )


def plane() -> SurfaceModel:
    return SurfaceModel.create(name="plane", gram=[[1]], canonical=[-3])


@pytest.fixture
def f2(fixture_models):
    return fixture_models["hirzebruch_f2"]


@pytest.fixture
def a2(fixture_models):
    return fixture_models["a2_resolution"]


class TestVanishingThreshold:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_double_cover_closed_form(self, d):
        model = double_cover(d)
        h = model.divisor([1])
        zero = model.zero_divisor()
        assert vanishing_threshold(model, h, zero) == Q(2 * d - 5, 2)
        assert Analysis(model, h, zero).level_at(zero) == d - 2

    def test_ruled_surface(self, f2):
        a = f2.divisor([2, 1])
        zero = f2.zero_divisor()
        assert vanishing_threshold(f2, a, zero) == Q(-3, 2)
        assert Analysis(f2, a, zero).level_at(zero) == -1

    def test_canonical_twist_is_inverse_square(self, fixture_models):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            got = vanishing_threshold(model, a, model.canonical_class)
            assert got == 1 / model.self_intersection(a)

    def test_needs_big_class(self, f2):
        with pytest.raises(NotBig):
            vanishing_threshold(f2, f2.curve_divisor(0), f2.zero_divisor())

    def test_least_integer_above(self):
        assert least_integer_above(Q(-3, 2)) == -1
        assert least_integer_above(Q(2)) == 3
        assert least_integer_above(Q(5, 2)) == 3


class TestImmutableAnalysis:
    """Analysis is a plain class that keeps the contract of a frozen record
    compared by identity; the result records are NamedTuples."""

    @pytest.mark.parametrize("field", ["model", "a", "t", "support", "_memo", "hodge", "new"])
    def test_an_analysis_refuses_assignment(self, f2, field):
        analysis = Analysis(f2, f2.divisor([2, 1]), f2.zero_divisor())
        with pytest.raises(AttributeError, match="immutable"):
            setattr(analysis, field, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(analysis, field)
        assert analysis.support == (f2.curve_index("s"),)

    def test_records_refuse_assignment(self, f2):
        analysis = Analysis(f2, f2.divisor([2, 1]), f2.zero_divisor())
        report = build_bound_report(analysis, n=3)
        for record, field in [
            (report, "threshold"),
            (report.hodge, "value"),
            (report.correction, "divisor"),
            (report.thresholds["k_very_ample"], "extras"),
            (analysis.cycles[0], "coefficients"),
        ]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_equality_is_identity_and_repr_names_the_fields(self, f2):
        a, zero = f2.divisor([2, 1]), f2.zero_divisor()
        analysis = Analysis(f2, a, zero)
        assert analysis == analysis and analysis != Analysis(f2, a, zero)
        assert hash(analysis) == object.__hash__(analysis)
        assert repr(analysis) == (
            f"Analysis(model={f2!r}, a=DivisorClass(num=(2, 1), den=1), "
            f"t=DivisorClass(num=(0, 0), den=1), support={analysis.support!r})"
        )


class TestHodgeDefect:
    def test_rank_one_always_proportional(self):
        model = double_cover(5)
        h = model.divisor([1])
        defect = Analysis(model, h, model.zero_divisor()).hodge
        assert defect.value == 0
        assert defect.proportional
        assert defect.ratio == Q(-2)  # T - K = -(d-3)H against A = H

    def test_proportional_twist(self, f2):
        a = f2.divisor([2, 1])
        defect = Analysis(f2, a, f2.zero_divisor()).hodge
        assert defect.value == 0
        assert defect.proportional and defect.ratio == 2

    def test_non_proportional_twist(self, f2):
        a = f2.divisor([2, 1])
        defect = Analysis(f2, a, f2.curve_divisor(0)).hodge
        assert defect.value == 1
        assert not defect.proportional and defect.ratio is None

    def test_zero_twist_of_canonical(self, f2):
        a = f2.divisor([2, 1])
        defect = Analysis(f2, a, f2.canonical_class).hodge
        assert defect.value == 0
        assert defect.proportional and defect.ratio == 0

    def test_proportionality_agrees_with_the_coordinates(self, rng):
        # the defect decides proportionality by the Hodge index theorem, the
        # reference by dividing coordinates; the twists are T = K + lambda A,
        # the same moved by a unit vector or a random class, and a random T
        for trial in range(90):
            if trial % 3 == 0:
                model, change = hodge_model(rng, rng.randint(2, 5))
                a = big_class(rng, model, change)
            else:
                if trial % 3 == 1:
                    model = block_model(rng, rng.choice(([2], [3], [1, 2])), extra_multiples=1)
                else:
                    model = plumbing_configuration(rng)
                a = polarization(model).scale(rng.randint(1, 3))
            k = model.canonical_class
            on_line = k + a.scale(Q(rng.randint(-6, 6), rng.randint(1, 4)))
            j = rng.randrange(model.rank)
            unit = model.divisor([int(i == j) for i in range(model.rank)])
            nudge = Q(rng.choice((-1, 1)), rng.randint(1, 5))
            twists = (on_line, on_line + unit.scale(nudge),
                      on_line + any_class(rng, model), any_class(rng, model))
            for t in twists:
                defect = Analysis(model, a, t).hodge
                ratio = coordinate_ratio(a, t - k)
                assert defect.proportional == (ratio is not None)
                assert defect.ratio == ratio


class TestThresholdHolds:
    def test_strict_branch(self):
        model = double_cover(5)
        h = model.divisor([1])
        zero = model.zero_divisor()
        assert threshold_holds(Analysis(model, h, zero), n=5, k=2).holds
        assert threshold_holds(Analysis(model, h, zero), n=5, k=2).strict_branch
        assert not threshold_holds(Analysis(model, h, zero), n=4, k=2).holds

    def test_proportional_branch_carries_caveat(self):
        model = plane()
        h = model.divisor([1])
        k_class = model.canonical_class
        check = threshold_holds(Analysis(model, h, k_class), n=1, k=0)
        assert check.holds
        assert not check.strict_branch
        assert check.proportional_branch
        assert check.numerical_equivalence_caveat

    def test_strict_branch_suppresses_caveat(self):
        model = plane()
        h = model.divisor([1])
        check = threshold_holds(Analysis(model, h, model.canonical_class), n=2, k=0)
        assert check.holds and check.strict_branch
        assert not check.numerical_equivalence_caveat

    def test_proportional_branch_needs_level_zero(self):
        model = plane()
        h = model.divisor([1])
        check = threshold_holds(Analysis(model, h, model.canonical_class), n=1, k=1)
        assert not check.holds

    def test_monotone_in_n(self, f2):
        a = f2.divisor([2, 1])
        t = f2.curve_divisor(0)
        results = [threshold_holds(Analysis(f2, a, t), n, 1).holds for n in range(-3, 6)]
        assert results == sorted(results)  # once true, stays true


class TestObstructionQuadratic:
    @pytest.mark.parametrize("n,k", [(0, 0), (1, 0), (3, 1), (5, 2), (-2, 3)])
    def test_value_at_one_identity(self, fixture_models, n, k):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            t = model.canonical_class
            quad = Analysis(model, a, t).quadratic(n, k)
            threshold = vanishing_threshold(model, a, t)
            expected = model.self_intersection(a) * (k + threshold - n)
            assert quad.f_at_one == expected
            assert 1 - quad.linear + quad.constant == expected
            assert quad.f_at_zero == quad.constant

    def test_coefficients_match_value(self, f2):
        # f(x) = x^2 - (A.L) x + h/4 + k A^2 for L = n*A + T - K, from its
        # fields, against A.L on the model and the stored values of f
        a = f2.divisor([2, 1])
        quad = Analysis(f2, a, f2.zero_divisor()).quadratic(n=3, k=1)
        f = lambda x: x * x - quad.linear * x + quad.constant
        assert quad.linear == f2.intersect(a, 3 * a - f2.canonical_class)
        assert f(0) == quad.f_at_zero
        assert f(1) == quad.f_at_one
        assert quad.discriminant == quad.linear**2 - 4 * quad.constant

    def test_exact_root_at_proportional_boundary(self):
        # T = K and n at the threshold: f(0) = f(1)-ish degenerate case where
        # the smaller root is exactly zero
        model = plane()
        h = model.divisor([1])
        quad = Analysis(model, h, model.canonical_class).quadratic(n=1, k=0)
        assert quad.f_at_zero == 0
        assert quad.f_at_one == 0
        assert quad.small_root is not None
        assert quad.small_root.low == quad.small_root.high
        assert quad.small_root.low == 0

    def test_negative_discriminant_drops_root(self):
        model = plane()
        h = model.divisor([1])
        quad = Analysis(model, h, model.canonical_class).quadratic(n=1, k=1)
        assert quad.discriminant < 0
        assert quad.small_root is None

    def test_root_bracket_sign_change(self, f2):
        a = f2.divisor([2, 1])
        quad = Analysis(f2, a, f2.zero_divisor()).quadratic(n=4, k=0)
        root = quad.small_root
        assert root is not None
        assert root.high - root.low <= BRACKET_WIDTH
        f = lambda x: x * x - quad.linear * x + quad.constant
        assert f(root.low) >= 0
        assert f(root.high) <= 0

    def test_accepts_rational_n(self, f2):
        a = f2.divisor([2, 1])
        quad = Analysis(f2, a, f2.zero_divisor()).quadratic(Q(7, 2), 0)
        threshold = vanishing_threshold(f2, a, f2.zero_divisor())
        assert quad.f_at_one == 2 * (threshold - Q(7, 2))


class TestMultipleGapBracket:
    def test_bracket_is_tight_and_taken(self, fixture_models):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            t = model.zero_divisor()
            for k in (0, 1, 3):
                gap = Analysis(model, a, t).multiple_gap(k)
                assert gap.high - gap.low <= BRACKET_WIDTH
                # strictly past the bracket the square gap holds
                n = gap.high + Q(1, 1000)
                ell = n * a + t - model.canonical_class
                assert model.self_intersection(ell) > 4 * k

    def test_exact_on_perfect_square(self):
        model = plane()
        h = model.divisor([1])
        gap = Analysis(model, h, model.canonical_class).multiple_gap(1)
        assert gap.low == gap.high == 2

    def test_independent_of_n(self, f2):
        a = f2.divisor([2, 1])
        t = f2.curve_divisor(0)
        quads = [Analysis(f2, a, t).quadratic(n, 1) for n in (0, 3, 11)]
        assert len({q.square_gap_root for q in quads}) == 1


class TestDegreeCaps:
    def test_double_cover_values(self):
        model = double_cover(5)
        h = model.divisor([1])
        zero = model.zero_divisor()
        analysis = Analysis(model, h, zero)
        assert analysis.degree_cap(k=0, x=2) == 3
        assert analysis.degree_cap(k=2, x=2) == 4
        assert analysis.degree_cap(k=2, x=1) == Q(9, 2)

    @pytest.mark.parametrize("k", range(4))
    def test_cap_at_one_is_main_threshold(self, fixture_models, k):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            t = model.canonical_class
            got = Analysis(model, a, t).degree_cap(k=k, x=1)
            assert got == k + vanishing_threshold(model, a, t)

    def test_rejects_nonpositive_cap(self, f2):
        a = f2.divisor([2, 1])
        for x in (0, -1, Q(-1, 2)):
            with pytest.raises(NonpositiveX):
                Analysis(f2, a, f2.zero_divisor()).degree_cap(k=0, x=x)


class TestObstructionEnumeration:
    def test_root_configuration_level_two(self, a2):
        h = a2.divisor([1, 0, 0])
        obs = Analysis(a2, h, a2.zero_divisor()).enumerate_obstructions(2)
        assert obs.support == (1, 2)  # curve 0 is the plane class h
        rows = list(obs.entries.rows())
        got = {coefficients: value for coefficients, _, value in rows}
        assert got == {(1, 0): 2, (0, 1): 2, (1, 1): 2}
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_root_configuration_level_one_empty(self, a2):
        h = a2.divisor([1, 0, 0])
        assert Analysis(a2, h, a2.zero_divisor()).obstruction_count(1) == 0

    def test_ample_class_sees_nothing(self):
        model = double_cover(4)
        h = model.divisor([1])
        for k in (0, 1, 5, 50):
            assert Analysis(model, h, model.zero_divisor()).obstruction_count(k) == 0

    @pytest.mark.parametrize("kind,size", ADE_TYPES)
    def test_level_two_finds_exactly_the_positive_roots(self, fixture_models, kind, size):
        # with A = h and T = 0 the value of D is -D^2, so the level-two set
        # is the effective classes of square -2: the positive roots
        model = fixture_models[f"ade_{kind}{size}"]
        h = model.curve_divisor(model.curve_index("h"))
        zero = model.zero_divisor()
        obs = Analysis(model, h, zero).enumerate_obstructions(2)
        assert len(obs.entries) == POSITIVE_ROOTS[kind](size)
        for _, coords, value in obs.entries.rows():
            assert model.self_intersection(DivisorClass(coords)) == -2
            assert value == 2
        assert Analysis(model, h, zero).obstruction_count(0) == 0
        assert Analysis(model, h, zero).obstruction_count(1) == 0

    @pytest.mark.parametrize("name,levels", [("ade_e6", (0, 1, 2)), ("ade_e7", (0,))])
    def test_search_matches_box_on_exceptional_types(self, fixture_models, rng, name, levels):
        model = fixture_models[name]
        h = model.curve_divisor(model.curve_index("h"))
        curves = range(1, len(model.curves))
        twists = [model.zero_divisor(), model.canonical_class]
        for _ in range(4):
            twists.append(model.divisor_from_curves(
                {i: rng.choice((-1, 0, 0, 1)) for i in curves}
            ))
        for t in twists:
            for k in levels:
                fast = Analysis(model, h, t).enumerate_obstructions(k)
                slow = obstruction_oracle(Analysis(model, h, t), k)
                assert list(fast.entries.rows()) == slow

    def test_search_matches_box_on_random_blocks(self, rng):
        for trial in range(40):
            sizes = rng.choice(([1], [2], [3], [4], [5], [2, 2], [2, 3], [1, 4]))
            model = block_model(rng, sizes, name=f"fp{trial}")
            a = polarization(model)
            t = model.divisor([rng.randint(-3, 3) for _ in range(model.rank)])
            for k in range(4):
                fast = Analysis(model, a, t).enumerate_obstructions(k)
                slow = obstruction_oracle(Analysis(model, a, t), k)
                assert list(fast.entries.rows()) == slow

    @pytest.mark.parametrize("name", ["ade_a4", "ade_a5", "ade_d4", "ade_d5", "ade_e6"])
    def test_search_matches_box_on_rational_twists(self, fixture_models, name):
        # rational twists give a rational linear term, and the single-curve
        # value a rational bound; the last two twists put tau below it, and
        # their sets at k >= 0 are too large for the box, so only the
        # single-curve level is checked there
        model = fixture_models[name]
        h = model.curve_divisor(model.curve_index("h"))
        for twist, levels in (
            ("3/2*c2", (0, 1, 2)),
            ("c1-c3", (0, 1, 2)),
            ("1/2*c1+2/3*c3-c2", (0, 1, 2)),
            ("2*c1+5/2*c3", ()),
            ("4*c1-c2", ()),
        ):
            assert_search_matches_box(Analysis(model, h, parse_divisor(model, twist)), levels)

    def test_search_matches_box_on_random_rational_blocks(self, rng):
        below = 0
        for trial in range(25):
            sizes = rng.choice(([1], [2], [3], [4], [5], [2, 2], [2, 3], [1, 4]))
            model = block_model(rng, sizes, name=f"fq{trial}")
            t = model.divisor(
                [Q(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(model.rank)]
            )
            analysis = Analysis(model, polarization(model), t)
            assert_search_matches_box(analysis, (1,))
            below += analysis.obstruction_minimum < single_curve_value(analysis)
        assert below >= 5  # the floor had to rise past one curve's value

    def test_counts_and_tau_build_no_entries(self, fixture_models, monkeypatch):
        calls = Counter()
        original = bounds._enumerate_box

        def counted(*args):
            calls["_enumerate_box"] += 1
            return original(*args)

        monkeypatch.setattr(bounds, "_enumerate_box", counted)
        model = fixture_models["ade_e8"]
        h = model.curve_divisor(model.curve_index("h"))
        analysis = Analysis(model, h, model.zero_divisor())
        # 120 positive roots at k = 2; the 1065 at k = 4 was also counted
        # by an independent Fraction LDL' search
        assert [analysis.obstruction_count(k) for k in range(5)] == [0, 0, 120, 120, 1065]
        assert analysis.obstruction_minimum == 2
        assert not calls
        assert len(analysis.enumerate_obstructions(4).entries) == 1065
        assert calls["_enumerate_box"] == 1

    def test_ordered_search_and_count_on_e8(self, fixture_models):
        model = fixture_models["ade_e8"]
        h = model.curve_divisor(model.curve_index("h"))
        analysis = Analysis(model, h, model.zero_divisor())
        counts = assert_ordered_and_counted(analysis, range(11))
        assert counts[:5] == [0, 0, 120, 120, 1065]
        assert counts[10] == 22490

    def test_ordered_search_and_count_on_random_rational_blocks(self, rng):
        for trial in range(25):
            sizes = rng.choice(([1], [2], [3], [4], [5], [2, 2], [2, 3], [1, 4]))
            model = block_model(rng, sizes, name=f"fo{trial}")
            t = model.divisor(
                [Q(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(model.rank)]
            )
            analysis = Analysis(model, polarization(model), t)
            assert_ordered_and_counted(
                analysis, (-1, 0, 1, 2, 3, Q(7, 2), single_curve_value(analysis))
            )

    def test_entries_are_rows_made_on_demand(self, a2):
        h = a2.divisor([1, 0, 0])
        obs = Analysis(a2, h, a2.zero_divisor()).enumerate_obstructions(2)
        slow = obstruction_oracle(Analysis(a2, h, a2.zero_divisor()), 2)
        assert len(obs.entries) == 3
        rows = list(obs.entries.rows())
        assert rows == slow
        assert list(obs.entries.rows()) == rows  # every call searches again
        assert all(type(x) is int for _, coords, _ in rows + slow for x in coords)

    def test_pairing_condition_empties_the_set(self, rng):
        # after subtracting the correction divisor the pairing condition
        # holds, and then no obstruction survives at that level
        for trial in range(15):
            model = block_model(rng, [rng.randint(2, 3)], name=f"lr{trial}")
            a = polarization(model)
            t = model.divisor([rng.randint(-2, 2) for _ in range(model.rank)])
            for k in (0, 1, 2):
                repair = Analysis(model, a, t).correction_divisor(k)
                repaired = Analysis(model, a, t - repair.divisor)
                assert all(v == 0 for v in repaired.correction_divisor(k).sigma)
                assert repaired.obstruction_count(k) == 0


class TestObstructionMinimum:
    def test_known_minima(self, f2, a2):
        assert Analysis(f2, f2.divisor([2, 1]), f2.zero_divisor()).obstruction_minimum == 2
        assert Analysis(a2, a2.divisor([1, 0, 0]), a2.zero_divisor()).obstruction_minimum == 2

    def test_ample_case_is_infinite(self):
        for d in (3, 4, 5):
            model = double_cover(d)
            got = Analysis(model, model.divisor([1]), model.zero_divisor()).obstruction_minimum
            assert got is INFINITY

    def test_infinite_iff_no_orthogonal_curves(self, fixture_models):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            tau = Analysis(model, a, model.zero_divisor()).obstruction_minimum
            assert (tau is INFINITY) == (model.exceptional_curves(a) == ())

    def test_least_value_matches_the_reference_descent(self, fixture_models, rng):
        # the search that tau runs, on what obstruction_minimum hands it,
        # against the recursive branch and bound it replaced: seeded twists
        # on the ADE fixtures, and the twist family whose centre moves out of
        # the orthant as N grows
        names = [f"ade_{kind}{size}" for kind, size in ADE_TYPES if kind != "a" or size >= 3]
        draws = []
        for _ in range(150):
            model = fixture_models[rng.choice(names)]
            coefficients = [Q(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(model.rank)]
            t = model.divisor(coefficients)
            if rng.random() < 0.3:
                t = t + model.canonical_class
            a = model.curve_divisor(model.curve_index("h")).scale(rng.randint(1, 3))
            draws.append(Analysis(model, a, t))
        d7 = fixture_models["ade_d7"]
        for n in (25, 50, 100, 200):
            t = d7.divisor([0, Q(3, 2), 1, 2, Q(-n, 2), Q(1, 3), 0, 1])
            draws.append(Analysis(d7, parse_divisor(d7, "1/2*h"), t))
        outside = 0
        for analysis in draws:
            linear, m = analysis.obstruction_form
            top = int(m * single_curve_value(analysis))  # m times a value is an integer
            args = analysis.elimination, linear, m, top
            form = search.search_form(*args[:3])
            tau = search.least_value(form, top)
            assert tau == least_value_reference(*args)
            assert search.least_value(form, int(m * tau) - 1) is None
            order = analysis.support[::-1]  # the order of the elimination
            gram = [[analysis.model.curve_pairings[i][j] for j in order] for i in order]
            outside += min(solve_linear(gram, linear)) < 0  # the centre, times 2m
        assert outside >= 120, outside  # 151 of the 154

    def test_the_floor_rises_with_each_better_leaf(self, fixture_models, monkeypatch):
        # a floor that never rises still finds tau, but only after the
        # descent has walked the whole sublevel set: on the twist family at
        # N = 100 the rising floor takes 328 intervals of n_0 on the reversed
        # support (584 on the support in its own order), a flat floor far
        # more than the cap
        cap = 1750
        yielded = 0
        intervals = search._intervals

        def capped(*args):
            nonlocal yielded
            for interval in intervals(*args):
                yielded += 1
                if yielded > cap:
                    raise AssertionError(f"tau took more than {cap} intervals")
                yield interval

        monkeypatch.setattr(search, "_intervals", capped)
        d7 = fixture_models["ade_d7"]
        t = d7.divisor([0, Q(3, 2), 1, 2, -50, Q(1, 3), 0, 1])
        assert Analysis(d7, parse_divisor(d7, "1/2*h"), t).obstruction_minimum == Q(-6923, 6)

    def test_minimum_is_attained_and_sharp(self, a2):
        h = a2.divisor([1, 0, 0])
        zero = a2.zero_divisor()
        tau = Analysis(a2, h, zero).obstruction_minimum
        at = list(Analysis(a2, h, zero).enumerate_obstructions(tau).entries.rows())
        assert at
        assert min(value for _, _, value in at) == tau
        assert Analysis(a2, h, zero).obstruction_count(tau - 1) == 0

    def test_infinity_comparisons(self):
        assert INFINITY > 10**12
        assert INFINITY >= Q(10**12)
        assert not INFINITY < 10**12
        assert INFINITY <= INFINITY
        assert not INFINITY > INFINITY


class TestCorrectionDivisor:
    def test_ruled_level_one(self, f2):
        a = f2.divisor([2, 1])
        e1 = Analysis(f2, a, f2.zero_divisor()).correction_divisor(1)
        assert e1.support == (1,)
        assert e1.coefficients == (1,)
        assert e1.det_abs == 2
        assert e1.divisor.coords == f2.curve_divisor(1).coords

    def test_root_configuration_level_two(self, a2):
        h = a2.divisor([1, 0, 0])
        ek = Analysis(a2, h, a2.zero_divisor()).correction_divisor(2)
        assert ek.support == (1, 2)
        assert ek.sigma == (Q(2), Q(2))
        assert ek.det_abs == 3
        assert ek.coefficients == (6, 6)

    def test_zero_when_no_deficiency(self, f2):
        a = f2.divisor([2, 1])
        e0 = Analysis(f2, a, f2.zero_divisor()).correction_divisor(0)
        assert e0.divisor.is_zero
        assert e0.coefficients == (0,)

    def test_deficiency_map(self, a2):
        h = a2.divisor([1, 0, 0])
        analysis = Analysis(a2, h, a2.zero_divisor())

        def deficiency(k):
            corr = analysis.correction_divisor(k)
            return dict(zip(corr.support, corr.sigma))

        assert deficiency(2) == {1: Q(2), 2: Q(2)}
        assert deficiency(-1) == {1: Q(0), 2: Q(0)}

    def test_repair_property_random(self, rng):
        sizes_pool = ([2], [3], [4], [2, 2])
        for trial in range(20):
            model = block_model(rng, rng.choice(sizes_pool), name=f"rep{trial}")
            a = polarization(model)
            t = model.divisor([rng.randint(-3, 3) for _ in range(model.rank)])
            for k in range(4):
                ek = Analysis(model, a, t).correction_divisor(k)
                assert all(c >= 0 for c in ek.coefficients)
                repaired = t - ek.divisor
                for i in model.exceptional_curves(a):
                    c = model.curve_divisor(i)
                    assert model.intersect(repaired, c) >= (
                        model.canonical_pairing(c) + k
                    )

    def test_subset_restriction(self, rng):
        model = block_model(rng, [2, 2], name="subset")
        a = polarization(model)
        t = model.zero_divisor()
        analysis = Analysis(model, a, t)
        full = analysis.correction_divisor(3)
        left = analysis._correction(t, 3, (0, 1))
        assert left.support == (0, 1)
        # blocks decouple, so the unscaled solutions agree; the published
        # coefficients differ only by the Cramer determinant factor
        assert [c * left.det_abs for c in full.coefficients[:2]] == [
            c * full.det_abs for c in left.coefficients
        ]


    def test_matches_the_fraction_solve_on_rational_twists(self, rng):
        # the adjugate solve against determinant and solve_linear: rational
        # twists give rational deficiencies, whose solution is either the
        # same integer vector or a fraction that both routes reject
        outcomes = Counter()
        for trial in range(20):
            model = block_model(rng, rng.choice(([2], [3], [4], [2, 2])), name=f"cq{trial}")
            a = polarization(model)
            t = model.divisor(
                [Q(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(model.rank)]
            )
            for k in range(3):
                analysis = Analysis(model, a, t)
                support = analysis.support
                w = model.canonical_class - t
                sigma = [
                    max(model.intersect(w, model.curve_divisor(i)) + k, Q(0)) for i in support
                ]
                gram = model.curve_gram(support)
                det_abs = abs(lattice.determinant(gram))
                want = solve_linear(gram, [-det_abs * x for x in sigma])
                if all(x.denominator == 1 and x >= 0 for x in want):
                    corr = analysis.correction_divisor(k)
                    assert corr.det_abs == det_abs
                    assert list(corr.coefficients) == want
                    outcomes["integral"] += 1
                else:
                    with pytest.raises(IntegralityFailure):
                        analysis.correction_divisor(k)
                    outcomes["rejected"] += 1
        assert outcomes["integral"] >= 5 and outcomes["rejected"] >= 5


class TestSeparatingDivisor:
    def test_ruled_uses_fundamental_cycle(self, f2):
        sep = Analysis(f2, f2.divisor([2, 1]), f2.zero_divisor()).separating_divisor
        assert sep.divisor.coords == (Q(0), Q(1))
        (piece,) = sep.pieces
        assert piece.from_fundamental_cycle
        assert piece.coefficients == (1,)

    def test_root_configuration_cycle(self, a2):
        sep = Analysis(a2, a2.divisor([1, 0, 0]), a2.zero_divisor()).separating_divisor
        (piece,) = sep.pieces
        assert piece.from_fundamental_cycle
        assert piece.coefficients == (1, 1)

    def test_elliptic_uses_correction(self, rng):
        model = plumbing_elliptic(rng)
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = construct_polarization(model, [0], e0)
        sep = Analysis(model, a, model.zero_divisor()).separating_divisor
        (piece,) = sep.pieces
        assert not piece.from_fundamental_cycle
        # K.C = points - 9 > 0 forces a correction of exactly that size
        points = model.rank - 1
        assert piece.coefficients == (points - 9,)
        assert not sep.divisor.is_zero


class TestConditionFlags:
    def test_ruled_levels(self, f2):
        a = f2.divisor([2, 1])
        zero = f2.zero_divisor()
        at0 = Analysis(f2, a, zero).condition_check(0)
        assert at0.laufer_ramanujam and at0.artin and not at0.matsusaka
        at1 = Analysis(f2, a, zero).condition_check(1)
        assert not at1.laufer_ramanujam

    def test_ample_class(self):
        model = double_cover(5)
        flags = Analysis(model, model.divisor([1]), model.zero_divisor()).condition_check(0)
        assert flags.matsusaka and flags.laufer_ramanujam and flags.artin

    def test_elliptic_not_artin(self, rng):
        model = plumbing_elliptic(rng)
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = construct_polarization(model, [0], e0)
        flags = Analysis(model, a, model.zero_divisor()).condition_check(0)
        assert not flags.artin


class TestRingGeneration:
    def test_step_threshold_branches(self, f2):
        a = f2.divisor([2, 1])
        analysis = Analysis(f2, a, f2.zero_divisor())
        assert ring_step_threshold(analysis, 2, 1, v_is_zero=True) == 4
        assert ring_step_threshold(analysis, 2, 1, v_is_zero=False) == Q(17, 2)
        with pytest.raises(NonpositiveInput):
            ring_step_threshold(analysis, 0, 1, v_is_zero=True)

    def test_double_cover_quintic(self):
        model = double_cover(5)
        analysis = Analysis(model, model.divisor([1]), model.zero_divisor())
        ring = analysis.ring_generation_threshold()
        assert ring.case == "rational"
        assert ring.multiplier_level == 4
        assert ring.stability_level == 3
        assert ring.doubled_bound == 17
        assert ring.least_m == 9

    def test_double_cover_quartic(self):
        model = double_cover(4)
        analysis = Analysis(model, model.divisor([1]), model.zero_divisor())
        ring = analysis.ring_generation_threshold()
        assert ring.doubled_bound == 13
        assert ring.least_m == 7

    def test_ruled_surface_inapplicable(self, f2):
        with pytest.raises(NonpositiveLP):
            Analysis(f2, f2.divisor([2, 1]), f2.zero_divisor()).ring_generation_threshold()

    def test_elliptic_needs_assertion(self, rng):
        model = plumbing_elliptic(rng)
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = construct_polarization(model, [0], e0)
        analysis = Analysis(model, a, model.zero_divisor())
        if analysis.level_at(model.zero_divisor()) < 1:
            pytest.skip("polarization too small for the ring statement")
        with pytest.raises(UnverifiableHypothesis):
            analysis.ring_generation_threshold()
        ring = analysis.ring_generation_threshold(no_fixed_part=True)
        assert ring.case == "no_fixed_part"
        assert 2 * ring.least_m > ring.doubled_bound


class TestMatsusakaComparison:
    def test_quintic_values(self):
        model = double_cover(5)
        cmp = matsusaka_compare(Analysis(model, model.divisor([1]), model.zero_divisor()))
        assert cmp.bound_k_plus_4h == Q(175, 4)
        assert cmp.bound_k_plus_2h == Q(95, 4)
        assert cmp.bound_here == Q(9, 2)
        assert cmp.least_n_k_plus_4h == 44
        assert cmp.least_n_k_plus_2h == 24
        assert cmp.least_n_here == 5

    def test_cubic_values(self):
        model = double_cover(3)
        cmp = matsusaka_compare(Analysis(model, model.divisor([1]), model.zero_divisor()))
        assert cmp.bound_k_plus_4h == Q(87, 4)
        assert cmp.bound_k_plus_2h == Q(39, 4)
        assert cmp.bound_here == Q(5, 2)

    def test_needs_ample(self, f2):
        with pytest.raises(NotAmple):
            matsusaka_compare(Analysis(f2, f2.divisor([2, 1]), f2.zero_divisor()))


def _nonrational_tables():
    """(system, options, table) for seeded systems whose orthogonal
    curves are not a rational configuration, which no fixture has: one
    elliptic curve, and an elliptic curve beside a chain of three rational
    curves, each contracted by A. T is 0 or K, k is 0 or 1, and every
    combination of the two assertions is taken."""
    elliptic = plumbing_elliptic(random.Random("thresholds"))
    mixed = plumbing_mixed(random.Random("thresholds"))
    for model, h in (
        (elliptic, polarization(elliptic)),
        (mixed, mixed.divisor(mixed.ample_reference)),
    ):
        a = construct_polarization(model, range(len(model.curves)), h)
        for twist, t in (("0", model.zero_divisor()), ("K", model.canonical_class)):
            analysis = Analysis(model, a, t)
            for options in product((0, 1), (False, True), (False, True)):
                k, no_fixed_part, base_point_free = options
                table = theorem_thresholds(
                    analysis,
                    k=k,
                    n=3,
                    no_fixed_part=no_fixed_part,
                    base_point_free=base_point_free,
                )
                yield f"{model.name} T={twist}", options, table


class TestTheoremThresholds:
    # sha256 of the JSON tables of _nonrational_tables, per model and twist;
    # no fixture reaches these branches, so neither the golden snapshots nor
    # the benchmark digests would see them change
    NONRATIONAL_DIGESTS = {
        "elliptic T=0": "98059ef1d83043a81b72c01f53eac83826a0ac50c4b2253ffc6ab39b26976fb7",
        "elliptic T=K": "2c4c3371c1c975513137920d049c757adb6463933e985c89a491016401aff688",
        "mixed T=0": "62c2772d57d2756299600f9cd8d468effe4cd134755e4140aa1859d422dbd464",
        "mixed T=K": "3a5e5f90b44ff6c12ebd3641b84997ae280a98c10eb41338944df03ace6e73e8",
    }

    def test_nonrational_tables_are_pinned(self):
        digests = {}
        for system, (_, no_fixed_part, base_point_free), table in _nonrational_tables():
            # the branches that only a configuration that is not rational reaches
            assert not table["h1_vanishes_rational"].established
            assert not table["fixed_part_avoids_c1"].established
            assert "separating" in table["connected_fibers"].extras
            assert table["birational_morphism"].established == base_point_free
            ring = table["ring_generated"]
            if no_fixed_part:
                assert ring.established and ring.extras["ring"].case == "no_fixed_part"
            else:
                assert ring.caveats[0].startswith("not applicable")
            if system.startswith("mixed"):
                assert table["fixed_part_avoids_c2+c3+c4"].established  # the chain
            out = io.StringIO()
            reporting.dump_json(table, out)
            digests.setdefault(system, hashlib.sha256()).update(out.getvalue().encode())
        assert {key: d.hexdigest() for key, d in digests.items()} == self.NONRATIONAL_DIGESTS

    def test_ruled_table(self, f2):
        a = f2.divisor([2, 1])
        table = theorem_thresholds(Analysis(f2, a, f2.zero_divisor()), k=0, n=1)
        expected_keys = {
            "k_very_ample",
            "min_degree",
            "h1_vanishes_rational",
            "base_point_free_rational",
            "h1_localizes",
            "fixed_part_bounded",
            "fixed_part_avoids_s",
            "base_point_free_asserted",
            "h0_chi_offset",
            "birational_morphism",
            "connected_fibers",
            "ring_generated",
        }
        assert expected_keys <= set(table)
        assert "component_separation" not in table  # single component

        # single component: the complement is empty, so the avoidance bound
        # degenerates to 1 + the base threshold
        avoid = table["fixed_part_avoids_s"]
        assert avoid.bound == Q(-1, 2) and avoid.least_n == 0 and avoid.established

        # the fixed part itself is capped via the level-1 correction, E_1 = s
        bounded = table["fixed_part_bounded"]
        assert bounded.bound == 0 and bounded.least_n == 1

        degree = table["min_degree"].extras
        assert degree["tau"] == 2
        assert degree["degree_at_n"] == 0  # min(tau - 2, n - level - 1) at n = 1

        birational = table["birational_morphism"]
        assert birational.established
        assert birational.bound == Q(1, 2) and birational.least_n == 1
        assert birational.extras["multiplicities"] == {"s": 2}

        ring = table["ring_generated"]
        assert not ring.established
        assert ring.bound is None
        assert any("not applicable" in c for c in ring.caveats)

    def test_bound_least_n_consistency(self, fixture_models):
        tables = [table for *_, table in _nonrational_tables()]
        for name in ("ade_a2", "ade_d4", "hirzebruch_f2"):
            model = fixture_models[name]
            a = model.divisor(model.ample_reference)
            tables.append(theorem_thresholds(Analysis(model, a, model.zero_divisor())))
        for table in tables:
            for entry in table.values():
                if entry.bound is None:
                    assert entry.least_n is None
                else:
                    assert entry.least_n == least_integer_above(entry.bound)
                    assert entry.least_n > entry.bound >= entry.least_n - 1
                # an entry whose hypothesis fails says why
                assert entry.established or entry.caveats, entry.key

    def test_component_separation_needs_two_components(self):
        # two disjoint (-2)-curves inside a blown-up plane lattice
        model = SurfaceModel.create(
            name="two_a1",
            gram=[
                [1, 0, 0, 0, 0],
                [0, -1, 0, 0, 0],
                [0, 0, -1, 0, 0],
                [0, 0, 0, -1, 0],
                [0, 0, 0, 0, -1],
            ],
            canonical=[-3, 1, 1, 1, 1],
            curves=[("c1", [0, 1, -1, 0, 0]), ("c2", [0, 0, 0, 1, -1])],
        )
        a = model.divisor([1, 0, 0, 0, 0])
        table = theorem_thresholds(Analysis(model, a, model.zero_divisor()))
        entry = table["component_separation"]
        assert entry.established
        pair = entry.extras["pair_bounds"]
        assert len(pair) == 1
        # base threshold is -1 here and both multiplicities are 2
        assert entry.bound == 2 + Q(-1) - Q(2 + 2, 4) == 0
        assert entry.least_n == 1

    def test_assertions_flip_establishment(self, f2):
        a = f2.divisor([2, 1])
        zero = f2.zero_divisor()
        bare = theorem_thresholds(Analysis(f2, a, zero))
        asserted = theorem_thresholds(Analysis(f2, a, zero), no_fixed_part=True)
        assert not bare["base_point_free_asserted"].established
        assert asserted["base_point_free_asserted"].established
        assert not bare["h0_chi_offset"].established
        assert asserted["h0_chi_offset"].established

    def test_nonrational_case_uses_separating_divisor(self, rng):
        model = plumbing_elliptic(rng)
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = construct_polarization(model, [0], e0)
        table = theorem_thresholds(Analysis(model, a, model.zero_divisor()))
        assert not table["h1_vanishes_rational"].established
        fibers = table["connected_fibers"]
        assert "separating" in fibers.extras
        base = vanishing_threshold(model, a, model.zero_divisor())
        sep = Analysis(model, a, model.zero_divisor()).separating_divisor
        assert fibers.bound == max(
            2 + base, vanishing_threshold(model, a, -sep.divisor)
        )


class TestBoundReport:
    def test_ruled_report(self, f2):
        a = f2.divisor([2, 1])
        report = build_bound_report(Analysis(f2, a, f2.zero_divisor()), k=0, n=2)
        assert report.threshold == Q(-3, 2)
        assert report.level == -1
        assert report.canonical_threshold == Q(1, 2)
        assert report.tau == 2
        assert report.quadratic is not None and report.check is not None
        assert report.check.holds
        assert report.matsusaka is None  # a is not ample on this model
        assert report.multiple_gap.high - report.multiple_gap.low <= BRACKET_WIDTH

    def test_ample_report_carries_comparison(self):
        model = double_cover(5)
        report = build_bound_report(Analysis(model, model.divisor([1]), model.zero_divisor()))
        assert report.matsusaka is not None
        assert report.tau is INFINITY
        assert report.quadratic is None and report.check is None

    def test_report_without_n_still_brackets_gap(self, a2):
        h = a2.divisor([1, 0, 0])
        analysis = Analysis(a2, h, a2.zero_divisor())
        report = build_bound_report(analysis, k=1)
        assert report.multiple_gap is not None
        assert analysis.obstruction_count(1) == 0  # level 1 has no obstructions
        assert report.correction.level == 1


class TestAnalysis:
    def test_report_derives_each_value_once(self, monkeypatch, capsys):
        # one report builds one analysis: A is checked once, the one
        # component gets one fundamental cycle, and the only enumeration
        # with entries is the printed obstruction set at k; the count and
        # tau need none
        calls = Counter()
        count_calls(monkeypatch, calls, SurfaceModel, "exceptional_curves")
        count_calls(monkeypatch, calls, bounds, "_enumerate_box")
        count_calls(monkeypatch, calls, bounds, "fundamental_cycle")
        count_calls(monkeypatch, calls, zariski, "zariski_decompose")
        # the Hodge defect and the gap bracket, each derived once although
        # the report, the quadratic and the check all read them
        count_calls(monkeypatch, calls, bounds, "HodgeDefect")
        count_calls(monkeypatch, calls, bounds, "_bracket_shifted_sqrt")
        system = ["--surface", "ade_e6", "--divisor", "2*h", "--twist=1*h+c1",
                  "-k", "2", "-n", "5", "--json"]
        assert run_subcommand(["report", *system]) == 0
        assert capsys.readouterr().out
        assert calls == {
            "exceptional_curves": 1,
            "_enumerate_box": 1,
            "fundamental_cycle": 1,
            "zariski_decompose": 1,
            "HodgeDefect": 1,
            "_bracket_shifted_sqrt": 1,
        }
        # bounds on the same system finds the report's analysis in the cache
        calls.clear()
        assert run_subcommand(["bounds", *system]) == 0
        assert capsys.readouterr().out
        assert calls["HodgeDefect"] == 0
        assert calls["_bracket_shifted_sqrt"] == 0
        assert calls["exceptional_curves"] == 0

    def test_report_compares_with_the_classical_bounds_from_the_analysis(
        self, monkeypatch, capsys
    ):
        # the comparison reads the analysis' ampleness and its threshold at
        # T = 0: A is ample as no curve is orthogonal to it, so its curve
        # pairings are made once, by exceptional_curves; the report's one
        # threshold is at T = 0, as its canonical threshold is 1/A^2
        calls = Counter()
        count_calls(monkeypatch, calls, SurfaceModel, "exceptional_curves")
        count_calls(monkeypatch, calls, bounds, "vanishing_threshold")
        system = ["--surface", "double_cover_d5", "--divisor", "H", "-k", "2", "-n", "5"]
        assert run_subcommand(["report", *system]) == 0
        assert "k_plus_4h" in capsys.readouterr().out
        assert calls == {"exceptional_curves": 1, "vanishing_threshold": 1}

    @pytest.mark.parametrize(
        "command, limits",
        [
            ("thresholds --surface ade_e6 --divisor h --twist=K -k 1", (1, 3, 13, 1)),
            ("report --surface ade_e6 --divisor h --twist=K -k 2 -n 5", (1, 5, 18, 1)),
            ("ek --surface ade_d6 --divisor h -k 1", (1, 2, 4, 1)),
            ("compare-matsusaka --surface double_cover_d5 --divisor H", (1, 1, 6, 0)),
            ("bounds --surface ade_e6 --divisor 2*h --twist=1*h+c1 -k 2 -n 5", (1, 2, 10, 1)),
            ("zariski --surface ade_e8 --divisor h+c1", (1, 2, 5, 0)),
            ("exceptional --surface ade_e8 --divisor h", (1, 1, 5, 1)),
            ("obstructions --surface ade_d4 --divisor h -k 2", (1, 2, 1, 0)),
            ("tau --surface ade_e7 --divisor h --twist=K", (1, 2, 1, 0)),
            # A is orthogonal to c1, c2 and to c4, c5, c6: two components,
            # each solved on by the separating divisor
            ("report --surface ade_d6 --divisor=2*h-c1-2*c2-3*c3-3*c4-3/2*c5-3/2*c6 -k 1",
             (3, 4, 25, 1)),
            # the oracle searches the block that the stepwise route checked
            ("fundcycle --surface ade_e8 --curves c1,c2,c3,c4,c5,c6,c7,c8 --oracle",
             (1, 0, 6, 1)),
        ],
        ids=["thresholds", "report", "ek", "compare-matsusaka", "bounds", "zariski",
             "exceptional", "obstructions", "tau", "report-two-components", "fundcycle-oracle"],
    )
    def test_a_command_derives_each_datum_once(self, command, limits, monkeypatch, capsys):
        # with the model cache warm and the analysis cache empty, the calls
        # left are the analysis' own: one elimination of the support, plus
        # one of each component that a correction solves on when there are
        # several; one set of pairings (K - T).C_i per twist; the components
        # found once; and at most one set-up of the search, which every level
        # shares. The limits are the counts this design reaches
        argv = command.split()
        assert run_subcommand(argv) == 0
        bounds.analysis_of.cache_clear()
        calls = Counter()
        count_calls(monkeypatch, calls, lattice, "negated_elimination")
        count_calls(monkeypatch, calls, SurfaceModel, "scaled_curve_pairings")
        count_calls(monkeypatch, calls, SurfaceModel, "intersect")
        count_calls(monkeypatch, calls, SurfaceModel, "connected_components")
        count_calls(monkeypatch, calls, SurfaceModel, "exceptional_curves")
        count_calls(monkeypatch, calls, search, "search_form")
        assert run_subcommand(argv) == 0
        assert capsys.readouterr().out
        names = ("negated_elimination", "scaled_curve_pairings", "intersect",
                 "connected_components")
        assert all(calls[name] <= limit for name, limit in zip(names, limits)), calls
        assert calls["search_form"] <= 1, calls
        # a third run finds the analysis in the cache and derives none of it;
        # zariski and fundcycle build no analysis
        calls.clear()
        assert run_subcommand(argv) == 0
        assert capsys.readouterr().out
        if argv[0] not in ("zariski", "fundcycle"):
            assert calls["negated_elimination"] == calls["exceptional_curves"] == 0, calls
            assert calls["search_form"] == 0, calls

    def test_the_commands_on_one_system_set_the_search_up_once(self, monkeypatch, capsys):
        # report, obstructions, thresholds and tau search at several levels
        # and bounds: all on the one set-up of their analysis
        calls = Counter()
        count_calls(monkeypatch, calls, search, "search_form")
        system = "--surface ade_e6 --divisor h --twist=K".split()
        for command in ("report -k 2 -n 5", "obstructions -k 2", "obstructions -k 3 --json",
                        "thresholds -k 1", "tau"):
            assert run_subcommand([*command.split(), *system]) == 0
            assert capsys.readouterr().out
        assert calls == {"search_form": 1}

    def test_rejects_a_class_that_is_not_nef_and_big(self, f2):
        with pytest.raises(NotNefBig):
            Analysis(f2, f2.curve_divisor(1), f2.zero_divisor())  # s.s = -2
        with pytest.raises(NotNefBig):
            Analysis(f2, f2.curve_divisor(0), f2.zero_divisor())  # f.f = 0
        # big but not nef: (3f + 2s)^2 = 4 and (3f + 2s).s = -1; the plain
        # threshold accepts it, the analysis and its formulas do not
        big = f2.divisor([3, 2])
        assert vanishing_threshold(f2, big, f2.zero_divisor()) == -1
        with pytest.raises(NotNefBig):
            Analysis(f2, big, f2.zero_divisor())
