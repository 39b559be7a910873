"""Fundamental cycles: Laufer iteration against the brute-force oracle."""

from __future__ import annotations

import pytest

from surfbound.bounds import Analysis
from surfbound.cycles import cycle_bruteforce_oracle, fundamental_cycle
from surfbound.errors import ModelInconsistent, NotConnected, NotNegativeDefinite

from generators import (
    ADE_TYPES,
    construct_polarization,
    plumbing_configuration,
    plumbing_elliptic,
    polarization,
)


class TestRootConfigurations:
    @pytest.mark.parametrize("kind,size", ADE_TYPES)
    def test_laufer_matches_oracle(self, kind, size, fixture_models):
        model = fixture_models[f"ade_{kind}{size}"]
        component = tuple(range(1, size + 1))  # curve 0 is the plane class
        fast = fundamental_cycle(model, component)
        slow = cycle_bruteforce_oracle(model, component)
        assert fast == slow
        assert fast.genus == 0
        assert fast.multiplicity == 2  # rational double point

    def test_chain_cycle_is_reduced(self, fixture_models):
        model = fixture_models["a2_resolution"]
        cycle = fundamental_cycle(model, (1, 2))
        assert cycle.coefficients == (1, 1)
        assert cycle.multiplicity == 2
        assert cycle.divisor.coords == (
            model.curve_divisor(1) + model.curve_divisor(2)
        ).coords

    def test_largest_exceptional_cycle(self, fixture_models):
        model = fixture_models["ade_e8"]
        cycle = fundamental_cycle(model, range(1, 9))
        assert cycle.coefficients == (2, 4, 6, 5, 4, 3, 2, 3)


class TestEllipticConfigurations:
    def test_single_elliptic_curve(self, rng):
        model = plumbing_elliptic(rng)
        cycle = fundamental_cycle(model, [0])
        assert cycle.coefficients == (1,)
        assert cycle.genus == 1
        assert cycle.multiplicity == -model.self_intersection(model.curve_divisor(0))
        e0 = model.divisor([1] + [0] * (model.rank - 1))
        a = construct_polarization(model, [0], e0)
        assert not Analysis(model, a, model.zero_divisor()).rational


class TestValidationAndEdges:
    def test_empty_component_rejected(self, fixture_models):
        model = fixture_models["a2_resolution"]
        with pytest.raises(NotConnected):
            fundamental_cycle(model, ())

    def test_disconnected_component_rejected(self, rng):
        from generators import block_model

        model = block_model(rng, [2, 2])
        with pytest.raises(NotConnected):
            fundamental_cycle(model, (0, 2))

    def test_non_negative_definite_rejected(self, fixture_models):
        model = fixture_models["a2_resolution"]
        with pytest.raises(NotNegativeDefinite):
            fundamental_cycle(model, (0,))  # the plane class has square +1

    def test_rationality_of_empty_set(self, fixture_models):
        model = fixture_models["a2_resolution"]
        ample = model.divisor(model.ample_reference)
        analysis = Analysis(model, ample, model.zero_divisor())
        assert analysis.support == ()
        assert analysis.rational

    def test_rationality_splits_by_component(self, rng):
        from generators import block_model

        model = block_model(rng, [2, 3])
        analysis = Analysis(model, polarization(model), model.zero_divisor())
        assert analysis.components == model.connected_components(range(5))
        assert analysis.rational == all(
            fundamental_cycle(model, comp).genus == 0
            for comp in model.connected_components(range(5))
        )


class TestDualRoutes:
    def test_random_plumbing_configurations(self, rng):
        for _ in range(40):
            model = plumbing_configuration(rng)
            component = tuple(range(len(model.curves)))
            for comp in model.connected_components(component):
                fast = fundamental_cycle(model, comp)
                slow = cycle_bruteforce_oracle(model, comp)
                assert fast == slow
                assert fast.genus >= 0
                assert all(c >= 1 for c in fast.coefficients)
                # defining property: Z pairs nonpositively with its support
                for i in comp:
                    assert model.pair_curve(fast.divisor, i) <= 0
