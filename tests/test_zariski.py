"""Zariski decomposition: known splittings, defining properties, dual routes."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from surfbound import zariski
from surfbound.errors import NotPseudoEffective
from surfbound.zariski import h1_correction, kappa_is_two, zariski_decompose, zariski_oracle

from generators import block_model, effective_combination


def check_defining_properties(model, d, dec):
    # N >= 0 supported on a negative definite block
    assert all(c > 0 for c in dec.coefficients)
    assert dec.support == tuple(sorted(dec.support))
    # P nef against every listed curve, orthogonal to the support of N
    for i in range(len(model.curves)):
        p = model.pair_curve(dec.positive, i)
        assert p >= 0
        if i in dec.support:
            assert p == 0
    assert (dec.positive + dec.negative).coords == d.coords


class TestKnownDecompositions:
    def test_ruled_surface_section_plus_fiber(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        d = model.divisor([1, 1])  # f + s
        dec = zariski_decompose(model, d)
        assert dec.positive.coords == (Q(1), Q(1, 2))
        assert dec.negative.coords == (Q(0), Q(1, 2))
        assert dec.support == (1,)
        assert dec.coefficients == (Q(1, 2),)

    def test_nef_divisor_is_its_own_positive_part(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        d = model.divisor([3, 1])
        dec = zariski_decompose(model, d)
        assert dec.negative.is_zero
        assert dec.support == ()

    def test_blown_up_plane(self, fixture_models):
        model = fixture_models["blowup_p2"]
        # L + 3E pairs +1 with L but -2 with E; E carries the negative part
        e = model.curve_divisor(model.curve_index("E"))
        ell = model.curve_divisor(model.curve_index("L"))
        d = ell + 3 * e
        dec = zariski_decompose(model, d)
        assert dec.positive.coords == (ell + e).coords
        assert dec.negative.coords == (2 * e).coords

    def test_idempotent_on_positive_part(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        dec = zariski_decompose(model, model.divisor([1, 1]))
        again = zariski_decompose(model, dec.positive)
        assert again.negative.is_zero
        assert again.positive.coords == dec.positive.coords

    def test_not_pseudo_effective_raises(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(model, model.divisor([-1, 0]))

    def test_negative_multiple_of_section_rejected(self, fixture_models):
        model = fixture_models["blowup_p2"]
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(model, model.divisor([-2, 1]))


class TestKappaAndCorrection:
    def test_kappa_two_iff_positive_square(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        positive = zariski_decompose(model, model.divisor([3, 1])).positive
        assert kappa_is_two(model, zariski_decompose(model, positive))
        fiber_dec = zariski_decompose(model, model.curve_divisor(0))
        assert not kappa_is_two(model, zariski_decompose(model, fiber_dec.positive))

    def test_correction_coefficients(self, fixture_models):
        model = fixture_models["blowup_p2"]
        e = model.curve_divisor(0)
        corr = h1_correction(model, zariski_decompose(model, 2 * e))
        # F = 2E: c2 = -F^2/2 = 2, c1 = F.K/2 = -1, c0(b) = -c1 b - c2 b^2
        assert corr.c2 == Q(2)
        assert corr.c1 == Q(-1)
        assert corr.c0(1) == Q(-1)

    def test_correction_of_half_section(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        corr = h1_correction(model, zariski_decompose(model, model.divisor([1, 1])))
        assert corr.c2 == Q(1, 4)
        assert corr.c1 == Q(0)
        assert corr.c0(1) == Q(-1, 4)

    def test_zero_negative_part_vanishes(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        corr = h1_correction(model, zariski_decompose(model, model.zero_divisor()))
        assert corr.c2 == 0 and corr.c1 == 0 and corr.c0(5) == 0


class TestDualRoutes:
    """The fast support-growth pass and the exhaustive subset oracle must
    agree exactly on every draw."""

    SIZE_CHOICES = ([2], [3], [4], [2, 2], [1, 3], [1, 2])

    def test_oracle_agrees_on_fixtures(self, fixture_models):
        for model in fixture_models.values():
            for coords in ([1, 1], [2, 1], [1, 0]):
                d = model.divisor((coords + [0] * model.rank)[: model.rank])
                try:
                    fast = zariski_decompose(model, d)
                except NotPseudoEffective:
                    with pytest.raises(NotPseudoEffective):
                        zariski_oracle(model, d)
                    continue
                slow = zariski_oracle(model, d)
                assert fast == slow

    def test_oracle_agrees_on_random_effective_divisors(self, rng):
        for trial in range(60):
            sizes = rng.choice(self.SIZE_CHOICES)
            model = block_model(
                rng, sizes, extra_multiples=rng.randint(0, 2), name=f"t{trial}"
            )
            d = effective_combination(rng, model)
            fast = zariski_decompose(model, d)
            slow = zariski_oracle(model, d)
            assert fast == slow
            check_defining_properties(model, d, fast)

    def test_rational_multiples_scale_both_parts(self, rng):
        # D = P + N gives c*D = c*P + c*N for rational c > 0; the solve
        # clears the denominator of c*D
        for trial in range(30):
            model = block_model(rng, rng.choice(self.SIZE_CHOICES), name=f"q{trial}")
            d = effective_combination(rng, model)
            c = Q(rng.randint(1, 7), rng.randint(2, 9))
            dec = zariski_decompose(model, d)
            scaled = zariski_decompose(model, c * d)
            assert scaled == zariski_oracle(model, c * d)
            assert scaled.positive == c * dec.positive
            assert scaled.negative == c * dec.negative

    def test_oracle_cache_stays_bounded(self, rng):
        # more distinct models than the subset cache keeps: the oldest
        # tables are evicted and the results stay right
        bound = zariski.SUBSET_CACHE_MODELS
        for trial in range(bound + 8):
            model = block_model(rng, [rng.randint(1, 2)], name=f"cache{trial}")
            d = effective_combination(rng, model)
            assert zariski_oracle(model, d) == zariski_decompose(model, d)
        assert zariski._negative_definite_subsets.cache_info().currsize <= bound

    def test_idempotence_on_random_draws(self, rng):
        for trial in range(20):
            model = block_model(rng, [rng.randint(2, 4)], name=f"i{trial}")
            d = effective_combination(rng, model)
            dec = zariski_decompose(model, d)
            again = zariski_decompose(model, dec.positive)
            assert again.negative.is_zero
