"""Surface model construction, validation, pairings, positivity."""

from __future__ import annotations

import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbound.errors import (
    ModelInconsistent,
    NonIntegralGenus,
    NotAmple,
    NotNefBig,
    NoAmpleReference,
    ValidationError,
)
from surfbound.surface import DivisorClass, SurfaceModel

from generators import (
    big_class,
    block_model,
    construct_polarization,
    hodge_model,
    polarization,
)

F2 = dict(
    name="f2",
    gram=[[0, 1], [1, -2]],
    canonical=[-4, -2],
    curves=[("f", [1, 0]), ("s", [0, 1])],
    ample_reference=[3, 1],
)


# One entry of each integer field, by its path, set to a given value.
NON_INTEGER_SLOTS = {
    "gram[0][1]": lambda x: dict(gram=[[0, x], [1, -2]]),
    "canonical[1]": lambda x: dict(canonical=[-4, x]),
    "curves[1].coords[0]": lambda x: dict(curves=[("f", [1, 0]), ("s", [x, 1])]),
    "ample_reference[0]": lambda x: dict(ample_reference=[x, 1]),
}


def make(**overrides):
    data = {**F2, **overrides}
    return SurfaceModel.create(**data)


class TestValidation:
    def test_valid_model_builds(self):
        model = make()
        assert model.rank == 2
        assert [c.name for c in model.curves] == ["f", "s"]

    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValidationError, match="symmetric"):
            make(gram=[[0, 1], [2, -2]])

    def test_rejects_wrong_signature(self):
        with pytest.raises(ValidationError, match="signature"):
            make(gram=[[1, 0], [0, 1]], canonical=[1, 1], curves=[], ample_reference=None)

    def test_rejects_non_characteristic_canonical(self):
        with pytest.raises(ValidationError, match="characteristic"):
            make(canonical=[-3, -2])

    def test_rejects_canonical_length(self):
        with pytest.raises(ValidationError, match="canonical: expected 2 entries, got 3"):
            make(canonical=[-4, -2, 0])

    @pytest.mark.parametrize("bad", [2.9, "3", True, None, Q(5, 2)], ids=repr)
    @pytest.mark.parametrize("path", NON_INTEGER_SLOTS)
    def test_rejects_non_integer_entries(self, path, bad):
        # nothing is coerced: int(2.9) would build a different model
        with pytest.raises(ValidationError, match=re.escape(f"{path}: expected an integer")):
            make(**NON_INTEGER_SLOTS[path](bad))

    @pytest.mark.parametrize(
        "curve,message",
        [
            ((7, [1, 0]), "curves[0].name: expected a string"),
            (("f", [1, 0], 1), "curves[0].effective: expected true or false"),
            (("f", [1, 0], "yes"), "curves[0].effective: expected true or false"),
            (("f",), "curves[0]: expected (name, coords[, effective])"),
            ({"name": "f", "coords": [1, 0]}, "curves[0]: expected (name, coords[, effective])"),
            (5, "curves[0]: expected (name, coords[, effective])"),
            (("f", [1, 0], True, "x"), "curves[0]: expected (name, coords[, effective])"),
        ],
    )
    def test_rejects_curve_field_types(self, curve, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            make(curves=[curve])

    def test_rejects_duplicate_curve_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make(curves=[("f", [1, 0]), ("f", [0, 1])])

    def test_rejects_reserved_curve_name(self):
        with pytest.raises(ValidationError):
            make(curves=[("K", [1, 0])])

    def test_rejects_zero_curve(self):
        with pytest.raises(ValidationError):
            make(curves=[("z", [0, 0])])

    def test_rejects_negative_pairing_between_curves(self):
        # two distinct irreducible curves never meet negatively
        with pytest.raises(ValidationError, match="impossible"):
            make(curves=[("s", [0, 1]), ("t", [-1, 1])], ample_reference=None)

    def test_rejects_non_ample_reference(self):
        with pytest.raises(ValidationError, match="ample"):
            make(ample_reference=[0, 1])

    def test_curve_name_syntax(self):
        with pytest.raises(ValidationError):
            make(curves=[("bad name", [1, 0])])


class TestPairings:
    def test_intersection_numbers(self):
        model = make()
        f, s = model.curve_divisor(0), model.curve_divisor(1)
        assert model.self_intersection(f) == 0
        assert model.self_intersection(s) == -2
        assert model.intersect(f, s) == 1
        assert model.canonical_pairing(f) == -2
        assert model.canonical_pairing(s) == 0

    def test_pair_curve_matches_intersect_on_fixtures(self, fixture_models, rng):
        for name, model in fixture_models.items():
            for _ in range(3):
                d = model.divisor(
                    [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(model.rank)]
                )
                for i in range(len(model.curves)):
                    got = model.pair_curve(d, i)
                    assert got == model.intersect(d, model.curve_divisor(i)), name
                    assert isinstance(got, Q)

    def test_pair_curve_matches_intersect_on_hodge_models(self, rng):
        # hodge models carry no curves: one random nonzero class is a valid
        # curve list, since a single curve has no partner to meet negatively
        for _ in range(40):
            rank = rng.randint(1, 5)
            bare, _ = hodge_model(rng, rank)
            coords = [rng.randint(-3, 3) for _ in range(rank - 1)] + [rng.randint(1, 3)]
            model = SurfaceModel.create(
                name=bare.name, gram=bare.gram, canonical=bare.canonical,
                curves=[("c", coords)],
            )
            d = model.divisor(
                [Q(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rank)]
            )
            assert model.pair_curve(d, 0) == model.intersect(d, model.curve_divisor(0))

    def test_pair_curve_rejects_wrong_rank(self):
        from surfbound.errors import RankMismatch

        model = make()
        with pytest.raises(RankMismatch):
            model.pair_curve(DivisorClass.zero(3), 0)

    def test_divisor_arithmetic(self):
        model = make()
        d = model.divisor([2, 1]) - model.divisor([1, 0])
        assert d.coords == (Q(1), Q(1))
        assert (3 * d).coords == (Q(3), Q(3))
        assert (-d).coords == (Q(-1), Q(-1))

    def test_genus_of_fiber_and_section(self):
        model = make()
        assert model.arithmetic_genus(model.curve_divisor(0)) == 0
        assert model.arithmetic_genus(model.curve_divisor(1)) == 0
        assert model.arithmetic_genus(model.zero_divisor()) == 1

    def test_genus_rejects_fractional(self):
        model = make()
        with pytest.raises(NonIntegralGenus):
            model.arithmetic_genus(model.divisor([Q(1, 2), 0]))

    @given(st.randoms(use_true_random=False), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_genus_always_integral(self, rng, rank):
        model, u = hodge_model(rng, rank)
        coords = [rng.randint(-6, 6) for _ in range(rank)]
        model.arithmetic_genus(model.divisor(coords))  # must not raise


class TestPositivity:
    def test_flags_on_f2(self):
        model = make()
        ample = model.divisor([3, 1])
        assert model.self_intersection(ample) > 0 and model.exceptional_curves(ample) == ()
        assert model.is_pseudo_effective_model(ample)
        fiber = model.curve_divisor(0)
        assert model.self_intersection(fiber) == 0
        assert model.is_pseudo_effective_model(fiber)

    def test_pseudo_effective_needs_reference(self):
        model = make(ample_reference=None)
        with pytest.raises(NoAmpleReference):
            model.is_pseudo_effective_model(model.curve_divisor(0))

    @given(st.randoms(use_true_random=False), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_big_class_generator_contract(self, rng, rank):
        model, u = hodge_model(rng, rank)
        a = big_class(rng, model, u)
        assert model.self_intersection(a) > 0


class TestExceptionalConfigurations:
    def test_orthogonal_curves_of_polarization(self, rng):
        model = block_model(rng, [2, 3], extra_multiples=1)
        a = polarization(model)
        exc = model.exceptional_curves(a)
        assert exc == tuple(range(5))  # the five block curves, not h

    def test_rejects_non_nef(self):
        model = make()
        with pytest.raises(NotNefBig):
            model.exceptional_curves(model.divisor([0, 1]))

    def test_rejects_non_big(self):
        model = make()
        with pytest.raises(NotNefBig):
            model.exceptional_curves(model.curve_divisor(0))

    def test_connected_components(self, rng):
        model = block_model(rng, [2, 3])
        comps = model.connected_components(range(5))
        assert sorted(len(c) for c in comps) == [2, 3]
        assert model.connected_components(()) == ()

    def test_construct_polarization_orthogonality(self, fixture_models):
        model = fixture_models["a2_resolution"]
        ample = model.divisor(model.ample_reference)
        built = construct_polarization(model, [1, 2], ample)
        assert built.is_integral
        assert model.pair_curve(built, 1) == 0
        assert model.pair_curve(built, 2) == 0
        assert model.pair_curve(built, 0) > 0
        assert model.self_intersection(built) > 0

    def test_construct_polarization_needs_ample(self):
        model = make()
        with pytest.raises(NotAmple):
            construct_polarization(model, [1], model.curve_divisor(0))

    def test_construct_polarization_rejects_positive_block(self):
        model = make()
        from surfbound.errors import NotNegativeDefinite

        with pytest.raises(NotNegativeDefinite):
            construct_polarization(model, [0], model.divisor([3, 1]))


class TestDivisorClass:
    def test_of_normalizes_to_fractions(self):
        d = DivisorClass.of([1, "1/2"])
        assert d.coords == (Q(1), Q(1, 2))
        assert not d.is_integral
        assert not d.is_zero

    def test_zero(self):
        z = DivisorClass.zero(3)
        assert z.is_zero and z.rank == 3

    def test_rank_mismatch_add(self):
        from surfbound.errors import RankMismatch

        with pytest.raises(RankMismatch):
            DivisorClass.zero(2) + DivisorClass.zero(3)
