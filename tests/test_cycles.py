"""Fundamental cycles: Laufer iteration against the brute-force oracle."""

from __future__ import annotations

from itertools import product

import pytest

from surfbound import cycles, lattice
from surfbound.bounds import Analysis
from surfbound.cycles import cycle_bruteforce_oracle, fundamental_cycle
from surfbound.errors import (
    BoxExhausted,
    ModelInconsistent,
    NotConnected,
    NotNegativeDefinite,
)

from generators import (
    ADE_TYPES,
    construct_polarization,
    least_points_by_level,
    plumbing_configuration,
    plumbing_elliptic,
    polarization,
)

# Negative definite, with a negative pairing of distinct curves, so the
# solutions are not closed under coordinatewise minimum: (2,1,2) and (2,2,1)
# both have the least total degree 5 in the box {1..6}^3.
TIE_GRAM = [[-3, 2, 2], [2, -4, -1], [2, -1, -2]]


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


class TestBoxSearch:
    def test_tie_gram_has_two_least_points(self):
        points = cycles._least_points(TIE_GRAM, 6)
        assert sorted(points) == [(2, 1, 2), (2, 2, 1)]
        solutions = [
            n
            for n in product(range(1, 7), repeat=3)
            if all(sum(g * x for g, x in zip(row, n)) <= 0 for row in TIE_GRAM)
        ]
        least = min(map(sum, solutions))
        assert sorted(points) == [n for n in solutions if sum(n) == least]

    def test_tie_raises_model_inconsistent(self, monkeypatch):
        # Model validation rejects negative pairings of distinct curves, so
        # the Gram is handed to the oracle in place of its model setup.
        monkeypatch.setattr(
            cycles, "_component_setup", lambda model, component: ((0, 1, 2), TIE_GRAM)
        )
        with pytest.raises(ModelInconsistent, match="not unique"):
            cycle_bruteforce_oracle(None, (0, 1, 2), box=6)

    def test_box_below_the_largest_coefficient(self, fixture_models):
        model = fixture_models["ade_e8"]
        with pytest.raises(BoxExhausted) as caught:
            cycle_bruteforce_oracle(model, range(1, 9), box=5)
        assert str(caught.value) == "no cycle found with coefficients up to 5"
        with pytest.raises(BoxExhausted):
            cycle_bruteforce_oracle(model, range(1, 9), box=0)
        cycle = cycle_bruteforce_oracle(model, range(1, 9), box=6)
        assert cycle.coefficients == (2, 4, 6, 5, 4, 3, 2, 3)

    def test_matches_level_reference_on_random_grams(self, rng):
        # Entries in [-5, 3], negative on the diagonal; each Gram has a
        # positive row sum, so (1, ..., 1) is not a solution and the search
        # has work to do.
        seen = {"ties": 0, "empty": 0, "negative_pairings": 0}
        for _ in range(300):
            while True:
                r = rng.randint(2, 4)
                gram = [[0] * r for _ in range(r)]
                for i in range(r):
                    for j in range(i, r):
                        gram[i][j] = gram[j][i] = rng.randint(-5, -1 if i == j else 3)
                if max(map(sum, gram)) > 0 and lattice.is_negative_definite(gram):
                    break
            box = rng.randint(1, 6)
            points = cycles._least_points(gram, box)
            assert sorted(points) == sorted(least_points_by_level(gram, box)), (gram, box)
            seen["ties"] += len(points) > 1
            seen["empty"] += not points
            seen["negative_pairings"] += any(
                gram[i][j] < 0 for i in range(r) for j in range(i)
            )
        assert all(seen.values()), seen
