"""Effective bounds: thresholds, obstruction sets, corrections, ring generation.

Frozen expected values were computed independently (closed forms on rank-one
and ruled models, hand-solved linear systems on the root configurations)
before being asserted here.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from surfbound import bounds
from surfbound.bounds import (
    BRACKET_WIDTH,
    INFINITY,
    build_bound_report,
    condition_check,
    correction_divisor,
    degree_cap_threshold,
    enumerate_obstructions,
    hodge_defect,
    least_integer_above,
    lr_deficiency,
    matsusaka_compare,
    multiple_gap_bracket,
    obstruction_minimum,
    obstruction_oracle,
    obstruction_quadratic,
    ring_generation_threshold,
    ring_step_threshold,
    separating_divisor,
    theorem_thresholds,
    threshold_holds,
    vanishing_level,
    vanishing_threshold,
)
from surfbound.errors import (
    ModelInconsistent,
    NonpositiveInput,
    NonpositiveLP,
    NonpositiveX,
    NotAmple,
    NotBig,
    UnverifiableHypothesis,
)
from surfbound.surface import SurfaceModel

from generators import ADE_TYPES, block_model, plumbing_elliptic, polarization

POSITIVE_ROOTS = {
    "a": lambda n: n * (n + 1) // 2,
    "d": lambda n: n * (n - 1),
    "e": {6: 36, 7: 63, 8: 120}.get,
}


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
        assert vanishing_threshold(model, h, model.zero_divisor()) == Q(2 * d - 5, 2)
        assert vanishing_level(model, h, model.zero_divisor()) == d - 2

    def test_ruled_surface(self, f2):
        a = f2.divisor([2, 1])
        assert vanishing_threshold(f2, a, f2.zero_divisor()) == Q(-3, 2)
        assert vanishing_level(f2, a, f2.zero_divisor()) == -1

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


class TestHodgeDefect:
    def test_rank_one_always_proportional(self):
        model = double_cover(5)
        h = model.divisor([1])
        defect = hodge_defect(model, h, model.zero_divisor())
        assert defect.value == 0
        assert defect.proportional
        assert defect.ratio == Q(-2)  # T - K = -(d-3)H against A = H

    def test_proportional_twist(self, f2):
        a = f2.divisor([2, 1])
        defect = hodge_defect(f2, a, f2.zero_divisor())
        assert defect.value == 0
        assert defect.proportional and defect.ratio == 2

    def test_non_proportional_twist(self, f2):
        a = f2.divisor([2, 1])
        defect = hodge_defect(f2, a, f2.curve_divisor(0))
        assert defect.value == 1
        assert not defect.proportional and defect.ratio is None

    def test_zero_twist_of_canonical(self, f2):
        a = f2.divisor([2, 1])
        defect = hodge_defect(f2, a, f2.canonical_class)
        assert defect.value == 0
        assert defect.proportional and defect.ratio == 0


class TestThresholdHolds:
    def test_strict_branch(self):
        model = double_cover(5)
        h = model.divisor([1])
        zero = model.zero_divisor()
        assert threshold_holds(model, h, zero, n=5, k=2).holds
        assert threshold_holds(model, h, zero, n=5, k=2).strict_branch
        assert not threshold_holds(model, h, zero, n=4, k=2).holds

    def test_proportional_branch_carries_caveat(self):
        model = plane()
        h = model.divisor([1])
        k_class = model.canonical_class
        check = threshold_holds(model, h, k_class, n=1, k=0)
        assert check.holds
        assert not check.strict_branch
        assert check.proportional_branch
        assert check.numerical_equivalence_caveat

    def test_strict_branch_suppresses_caveat(self):
        model = plane()
        h = model.divisor([1])
        check = threshold_holds(model, h, model.canonical_class, n=2, k=0)
        assert check.holds and check.strict_branch
        assert not check.numerical_equivalence_caveat

    def test_proportional_branch_needs_level_zero(self):
        model = plane()
        h = model.divisor([1])
        check = threshold_holds(model, h, model.canonical_class, n=1, k=1)
        assert not check.holds

    def test_monotone_in_n(self, f2):
        a = f2.divisor([2, 1])
        t = f2.curve_divisor(0)
        results = [threshold_holds(f2, a, t, n, 1).holds for n in range(-3, 6)]
        assert results == sorted(results)  # once true, stays true


class TestObstructionQuadratic:
    @pytest.mark.parametrize("n,k", [(0, 0), (1, 0), (3, 1), (5, 2), (-2, 3)])
    def test_value_at_one_identity(self, fixture_models, n, k):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            t = model.canonical_class
            quad = obstruction_quadratic(model, a, t, n, k)
            threshold = vanishing_threshold(model, a, t)
            expected = model.self_intersection(a) * (k + threshold - n)
            assert quad.f_at_one == expected
            assert quad.value(1) == expected
            assert quad.value(0) == quad.f_at_zero == quad.constant

    def test_coefficients_match_value(self, f2):
        a = f2.divisor([2, 1])
        quad = obstruction_quadratic(f2, a, f2.zero_divisor(), n=3, k=1)
        one, minus_l, const = quad.coefficients
        for x in (Q(0), Q(1), Q(-2), Q(7, 3)):
            assert quad.value(x) == one * x * x + minus_l * x + const

    def test_exact_root_at_proportional_boundary(self):
        # T = K and n at the threshold: f(0) = f(1)-ish degenerate case where
        # the smaller root is exactly zero
        model = plane()
        h = model.divisor([1])
        quad = obstruction_quadratic(model, h, model.canonical_class, n=1, k=0)
        assert quad.f_at_zero == 0
        assert quad.f_at_one == 0
        assert quad.small_root is not None and quad.small_root.is_exact
        assert quad.small_root.low == 0

    def test_negative_discriminant_drops_root(self):
        model = plane()
        h = model.divisor([1])
        quad = obstruction_quadratic(model, h, model.canonical_class, n=1, k=1)
        assert quad.discriminant < 0
        assert quad.small_root is None

    def test_root_bracket_sign_change(self, f2):
        a = f2.divisor([2, 1])
        quad = obstruction_quadratic(f2, a, f2.zero_divisor(), n=4, k=0)
        root = quad.small_root
        assert root is not None
        assert root.width <= BRACKET_WIDTH
        assert quad.value(root.low) >= 0
        assert quad.value(root.high) <= 0

    def test_accepts_rational_n(self, f2):
        a = f2.divisor([2, 1])
        quad = obstruction_quadratic(f2, a, f2.zero_divisor(), Q(7, 2), 0)
        threshold = vanishing_threshold(f2, a, f2.zero_divisor())
        assert quad.f_at_one == 2 * (threshold - Q(7, 2))


class TestMultipleGapBracket:
    def test_bracket_is_tight_and_taken(self, fixture_models):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            t = model.zero_divisor()
            for k in (0, 1, 3):
                gap = multiple_gap_bracket(model, a, t, k)
                assert gap.width <= BRACKET_WIDTH
                # strictly past the bracket the square gap holds
                n = gap.high + Q(1, 1000)
                ell = n * a + t - model.canonical_class
                assert model.self_intersection(ell) > 4 * k

    def test_exact_on_perfect_square(self):
        model = plane()
        h = model.divisor([1])
        gap = multiple_gap_bracket(model, h, model.canonical_class, k=1)
        assert gap.is_exact and gap.low == 2

    def test_independent_of_n(self, f2):
        a = f2.divisor([2, 1])
        t = f2.curve_divisor(0)
        quads = [obstruction_quadratic(f2, a, t, n, 1) for n in (0, 3, 11)]
        assert len({q.square_gap_root for q in quads}) == 1


class TestDegreeCaps:
    def test_double_cover_values(self):
        model = double_cover(5)
        h = model.divisor([1])
        zero = model.zero_divisor()
        assert degree_cap_threshold(model, h, zero, k=0, x=2) == 3
        assert degree_cap_threshold(model, h, zero, k=2, x=2) == 4
        assert degree_cap_threshold(model, h, zero, k=2, x=1) == Q(9, 2)

    @pytest.mark.parametrize("k", range(4))
    def test_cap_at_one_is_main_threshold(self, fixture_models, k):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            t = model.canonical_class
            got = degree_cap_threshold(model, a, t, k=k, x=1)
            assert got == k + vanishing_threshold(model, a, t)

    def test_rejects_nonpositive_cap(self, f2):
        a = f2.divisor([2, 1])
        for x in (0, -1, Q(-1, 2)):
            with pytest.raises(NonpositiveX):
                degree_cap_threshold(f2, a, f2.zero_divisor(), k=0, x=x)


class TestObstructionEnumeration:
    def test_root_configuration_level_two(self, a2):
        h = a2.divisor([1, 0, 0])
        obs = enumerate_obstructions(a2, h, a2.zero_divisor(), 2)
        assert obs.support == (1, 2)  # curve 0 is the plane class h
        got = {e.coefficients: e.value for e in obs.entries}
        assert got == {(1, 0): 2, (0, 1): 2, (1, 1): 2}
        assert [e.coefficients for e in obs.entries] == sorted(
            e.coefficients for e in obs.entries
        )

    def test_root_configuration_level_one_empty(self, a2):
        h = a2.divisor([1, 0, 0])
        assert enumerate_obstructions(a2, h, a2.zero_divisor(), 1).is_empty

    def test_ample_class_sees_nothing(self):
        model = double_cover(4)
        h = model.divisor([1])
        for k in (0, 1, 5, 50):
            assert enumerate_obstructions(model, h, model.zero_divisor(), k).is_empty

    def test_oracle_margins_agree(self, a2, rng):
        h = a2.divisor([1, 0, 0])
        zero = a2.zero_divisor()
        for k in range(-1, 6):
            fast = enumerate_obstructions(a2, h, zero, k)
            for margin in (Q(1), Q(2), Q(7, 2), Q(5)):
                slow = obstruction_oracle(a2, h, zero, k, margin=margin)
                assert fast.entries == slow.entries

    def test_oracle_rejects_deflating_margin(self, a2):
        h = a2.divisor([1, 0, 0])
        with pytest.raises(NonpositiveInput):
            obstruction_oracle(a2, h, a2.zero_divisor(), 2, margin=Q(1, 2))

    @pytest.mark.parametrize("kind,size", ADE_TYPES)
    def test_level_two_finds_exactly_the_positive_roots(self, fixture_models, kind, size):
        # with A = h and T = 0 the value of D is -D^2, so the level-two set
        # is the effective classes of square -2: the positive roots
        model = fixture_models[f"ade_{kind}{size}"]
        h = model.curve_divisor(model.curve_index("h"))
        zero = model.zero_divisor()
        obs = enumerate_obstructions(model, h, zero, 2)
        assert len(obs.entries) == POSITIVE_ROOTS[kind](size)
        for entry in obs.entries:
            assert model.self_intersection(entry.divisor) == -2
            assert entry.value == 2
        assert enumerate_obstructions(model, h, zero, 0).is_empty
        assert enumerate_obstructions(model, h, zero, 1).is_empty

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
                fast = enumerate_obstructions(model, h, t, k)
                slow = obstruction_oracle(model, h, t, k, margin=1)
                assert fast.entries == slow.entries

    def test_search_matches_box_on_random_blocks(self, rng):
        for trial in range(40):
            sizes = rng.choice(([1], [2], [3], [4], [5], [2, 2], [2, 3], [1, 4]))
            model = block_model(rng, sizes, name=f"fp{trial}")
            a = polarization(model)
            t = model.divisor([rng.randint(-3, 3) for _ in range(model.rank)])
            for k in range(4):
                fast = enumerate_obstructions(model, a, t, k)
                slow = obstruction_oracle(model, a, t, k, margin=1)
                assert fast.entries == slow.entries

    def test_search_rejects_indefinite_form(self):
        with pytest.raises(ModelInconsistent):
            bounds._ldl([[1, 2], [2, 1]])

    def test_pairing_condition_empties_the_set(self, rng):
        # after subtracting the correction divisor the pairing condition
        # holds, and then no obstruction survives at that level
        for trial in range(15):
            model = block_model(rng, [rng.randint(2, 3)], name=f"lr{trial}")
            a = polarization(model)
            t = model.divisor([rng.randint(-2, 2) for _ in range(model.rank)])
            for k in (0, 1, 2):
                repair = correction_divisor(model, a, t, k)
                repaired = t - repair.divisor
                assert all(
                    v == 0 for v in lr_deficiency(model, a, repaired, k).values()
                )
                assert enumerate_obstructions(model, a, repaired, k).is_empty


class TestObstructionMinimum:
    def test_known_minima(self, f2, a2):
        assert obstruction_minimum(f2, f2.divisor([2, 1]), f2.zero_divisor()) == 2
        assert obstruction_minimum(a2, a2.divisor([1, 0, 0]), a2.zero_divisor()) == 2

    def test_ample_case_is_infinite(self):
        for d in (3, 4, 5):
            model = double_cover(d)
            got = obstruction_minimum(model, model.divisor([1]), model.zero_divisor())
            assert got is INFINITY

    def test_infinite_iff_no_orthogonal_curves(self, fixture_models):
        for model in fixture_models.values():
            a = model.divisor(model.ample_reference)
            tau = obstruction_minimum(model, a, model.zero_divisor())
            assert (tau is INFINITY) == (model.exceptional_curves(a) == ())

    def test_minimum_is_attained_and_sharp(self, a2):
        h = a2.divisor([1, 0, 0])
        zero = a2.zero_divisor()
        tau = obstruction_minimum(a2, h, zero)
        at = enumerate_obstructions(a2, h, zero, tau)
        assert not at.is_empty
        assert min(e.value for e in at.entries) == tau
        assert enumerate_obstructions(a2, h, zero, tau - 1).is_empty

    def test_infinity_comparisons(self):
        assert INFINITY > 10**12
        assert INFINITY >= Q(10**12)
        assert not INFINITY < 10**12
        assert INFINITY <= INFINITY
        assert not INFINITY > INFINITY


class TestCorrectionDivisor:
    def test_ruled_level_one(self, f2):
        a = f2.divisor([2, 1])
        e1 = correction_divisor(f2, a, f2.zero_divisor(), 1)
        assert e1.support == (1,)
        assert e1.coefficients == (1,)
        assert e1.det_abs == 2
        assert e1.divisor.coords == f2.curve_divisor(1).coords

    def test_root_configuration_level_two(self, a2):
        h = a2.divisor([1, 0, 0])
        ek = correction_divisor(a2, h, a2.zero_divisor(), 2)
        assert ek.support == (1, 2)
        assert ek.sigma == (Q(2), Q(2))
        assert ek.det_abs == 3
        assert ek.coefficients == (6, 6)

    def test_zero_when_no_deficiency(self, f2):
        a = f2.divisor([2, 1])
        e0 = correction_divisor(f2, a, f2.zero_divisor(), 0)
        assert e0.divisor.is_zero
        assert e0.coefficients == (0,)

    def test_deficiency_map(self, a2):
        h = a2.divisor([1, 0, 0])
        sig = lr_deficiency(a2, h, a2.zero_divisor(), 2)
        assert sig == {1: Q(2), 2: Q(2)}
        assert lr_deficiency(a2, h, a2.zero_divisor(), -1) == {1: Q(0), 2: Q(0)}

    def test_repair_property_random(self, rng):
        sizes_pool = ([2], [3], [4], [2, 2])
        for trial in range(20):
            model = block_model(rng, rng.choice(sizes_pool), name=f"rep{trial}")
            a = polarization(model)
            t = model.divisor([rng.randint(-3, 3) for _ in range(model.rank)])
            for k in range(4):
                ek = correction_divisor(model, a, t, k)
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
        full = correction_divisor(model, a, t, 3)
        left = correction_divisor(model, a, t, 3, subset=(0, 1))
        assert left.support == (0, 1)
        # blocks decouple, so the unscaled solutions agree; the published
        # coefficients differ only by the Cramer determinant factor
        assert [c * left.det_abs for c in full.coefficients[:2]] == [
            c * full.det_abs for c in left.coefficients
        ]


class TestSeparatingDivisor:
    def test_ruled_uses_fundamental_cycle(self, f2):
        sep = separating_divisor(f2, f2.divisor([2, 1]))
        assert sep.divisor.coords == (Q(0), Q(1))
        (piece,) = sep.pieces
        assert piece.from_fundamental_cycle
        assert piece.coefficients == (1,)

    def test_root_configuration_cycle(self, a2):
        sep = separating_divisor(a2, a2.divisor([1, 0, 0]))
        (piece,) = sep.pieces
        assert piece.from_fundamental_cycle
        assert piece.coefficients == (1, 1)

    def test_elliptic_uses_correction(self, rng):
        model = plumbing_elliptic(rng)
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = model.construct_polarization([0], e0)
        sep = separating_divisor(model, a)
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
        at0 = condition_check(f2, a, zero, 0)
        assert at0.laufer_ramanujam and at0.artin and not at0.matsusaka
        at1 = condition_check(f2, a, zero, 1)
        assert not at1.laufer_ramanujam

    def test_ample_class(self):
        model = double_cover(5)
        flags = condition_check(model, model.divisor([1]), model.zero_divisor(), 0)
        assert flags.matsusaka and flags.laufer_ramanujam and flags.artin

    def test_elliptic_not_artin(self, rng):
        model = plumbing_elliptic(rng)
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = model.construct_polarization([0], e0)
        flags = condition_check(model, a, model.zero_divisor(), 0)
        assert not flags.artin


class TestRingGeneration:
    def test_step_threshold_branches(self, f2):
        a = f2.divisor([2, 1])
        assert ring_step_threshold(f2, a, 2, 1, v_is_zero=True) == 4
        assert ring_step_threshold(f2, a, 2, 1, v_is_zero=False) == Q(17, 2)
        with pytest.raises(NonpositiveInput):
            ring_step_threshold(f2, a, 0, 1, v_is_zero=True)

    def test_double_cover_quintic(self):
        model = double_cover(5)
        ring = ring_generation_threshold(model, model.divisor([1]))
        assert ring.case == "rational"
        assert ring.multiplier_level == 4
        assert ring.stability_level == 3
        assert ring.doubled_bound == 17
        assert ring.least_m == 9

    def test_double_cover_quartic(self):
        model = double_cover(4)
        ring = ring_generation_threshold(model, model.divisor([1]))
        assert ring.doubled_bound == 13
        assert ring.least_m == 7

    def test_ruled_surface_inapplicable(self, f2):
        with pytest.raises(NonpositiveLP):
            ring_generation_threshold(f2, f2.divisor([2, 1]))

    def test_elliptic_needs_assertion(self, rng):
        model = plumbing_elliptic(rng)
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = model.construct_polarization([0], e0)
        if bounds.vanishing_level(model, a, model.zero_divisor()) < 1:
            pytest.skip("polarization too small for the ring statement")
        with pytest.raises(UnverifiableHypothesis):
            ring_generation_threshold(model, a)
        ring = ring_generation_threshold(model, a, no_fixed_part=True)
        assert ring.case == "no_fixed_part"
        assert 2 * ring.least_m > ring.doubled_bound


class TestMatsusakaComparison:
    def test_quintic_values(self):
        model = double_cover(5)
        cmp = matsusaka_compare(model, model.divisor([1]))
        assert cmp.bound_k_plus_4h == Q(175, 4)
        assert cmp.bound_k_plus_2h == Q(95, 4)
        assert cmp.bound_here == Q(9, 2)
        assert cmp.least_n_k_plus_4h == 44
        assert cmp.least_n_k_plus_2h == 24
        assert cmp.least_n_here == 5

    def test_cubic_values(self):
        model = double_cover(3)
        cmp = matsusaka_compare(model, model.divisor([1]))
        assert cmp.bound_k_plus_4h == Q(87, 4)
        assert cmp.bound_k_plus_2h == Q(39, 4)
        assert cmp.bound_here == Q(5, 2)

    def test_needs_ample(self, f2):
        with pytest.raises(NotAmple):
            matsusaka_compare(f2, f2.divisor([2, 1]))


class TestTheoremThresholds:
    def test_ruled_table(self, f2):
        a = f2.divisor([2, 1])
        table = theorem_thresholds(f2, a, f2.zero_divisor(), k=0, n=1)
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
        for name in ("ade_a2", "ade_d4", "hirzebruch_f2"):
            model = fixture_models[name]
            a = model.divisor(model.ample_reference)
            table = theorem_thresholds(model, a, model.zero_divisor())
            for entry in table.values():
                if entry.bound is None:
                    assert entry.least_n is None
                else:
                    assert entry.least_n == least_integer_above(entry.bound)
                    assert entry.least_n > entry.bound >= entry.least_n - 1

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
        table = theorem_thresholds(model, a, model.zero_divisor())
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
        bare = theorem_thresholds(f2, a, zero)
        asserted = theorem_thresholds(f2, a, zero, no_fixed_part=True)
        assert not bare["base_point_free_asserted"].established
        assert asserted["base_point_free_asserted"].established
        assert not bare["h0_chi_offset"].established
        assert asserted["h0_chi_offset"].established

    def test_nonrational_case_uses_separating_divisor(self, rng):
        model = plumbing_elliptic(rng)
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = model.construct_polarization([0], e0)
        table = theorem_thresholds(model, a, model.zero_divisor())
        assert not table["h1_vanishes_rational"].established
        fibers = table["connected_fibers"]
        assert "separating" in fibers.extras
        base = vanishing_threshold(model, a, model.zero_divisor())
        sep = separating_divisor(model, a)
        assert fibers.bound == max(
            2 + base, vanishing_threshold(model, a, -sep.divisor)
        )


class TestBoundReport:
    def test_ruled_report(self, f2):
        a = f2.divisor([2, 1])
        report = build_bound_report(f2, a, f2.zero_divisor(), k=0, n=2)
        assert report.threshold == Q(-3, 2)
        assert report.level == -1
        assert report.canonical_threshold == Q(1, 2)
        assert report.tau == 2
        assert report.quadratic is not None and report.check is not None
        assert report.check.holds
        assert report.matsusaka is None  # a is not ample on this model
        assert report.multiple_gap.width <= BRACKET_WIDTH

    def test_ample_report_carries_comparison(self):
        model = double_cover(5)
        report = build_bound_report(model, model.divisor([1]), model.zero_divisor())
        assert report.matsusaka is not None
        assert report.tau is INFINITY
        assert report.quadratic is None and report.check is None

    def test_report_without_n_still_brackets_gap(self, a2):
        h = a2.divisor([1, 0, 0])
        report = build_bound_report(a2, h, a2.zero_divisor(), k=1)
        assert report.multiple_gap is not None
        assert report.obstructions.is_empty  # level 1 has no obstructions
        assert report.correction.level == 1
