"""Surface model construction, validation, pairings, positivity."""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbound import surface_io
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
    du_val_chain,
    fraction_pairing,
    hodge_model,
    mat_vec,
    matrix_inverse,
    model_in_basis,
    plumbing_chain,
    plumbing_tree,
    polarization,
    random_rational,
    random_rationals,
    random_unimodular,
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


class TestModelValue:
    """== compares the fields, and hash agrees with it, so a cache keyed by a
    model's value finds what an equal model put there."""

    def test_a_model_rebuilt_from_its_data_is_equal_and_hashes_alike(self, fixture_models):
        for name, model in fixture_models.items():
            again = surface_io.surface_from_data(surface_io.surface_to_data(model))
            assert again is not model, name
            assert again == model and hash(again) == hash(model), name

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(name="g"),
            dict(gram=[[2, 1], [1, -2]]),
            dict(curves=[("f", [1, 0]), ("s", [0, 1], False)]),
        ],
        ids=["name", "gram-entry", "effective-flag"],
    )
    def test_models_that_differ_in_one_field_are_not_equal(self, overrides):
        assert make() == make()
        assert make(**overrides) != make()


MODEL_FIELDS = ("name", "gram", "canonical", "curves", "ample_reference")


class TestImmutableValues:
    """DivisorClass and SurfaceModel are plain classes with the contract of a
    frozen record: the caches key on their value, so no field may change
    after construction, equal values hash alike, and repr names the fields."""

    @pytest.mark.parametrize("field", ["num", "den", "coords", "new"])
    def test_a_divisor_refuses_assignment(self, field):
        d = DivisorClass.of([1, "1/2"])
        with pytest.raises(AttributeError, match="immutable"):
            setattr(d, field, (0, 0))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(d, field)
        assert (d.num, d.den, d.coords) == ((2, 1), 2, (Q(1), Q(1, 2)))

    @pytest.mark.parametrize("field", [*MODEL_FIELDS, "curve_pairings", "new"])
    def test_a_model_and_its_curves_refuse_assignment(self, field):
        model = make()
        with pytest.raises(AttributeError, match="immutable"):
            setattr(model, field, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(model, field)
        with pytest.raises(AttributeError):
            model.curves[0].name = "g"
        assert model == make() and hash(model) == hash(make())

    def test_equal_values_hash_alike_and_only_match_their_own_type(self):
        d = DivisorClass.of([1, "1/2"])
        same = DivisorClass.from_integers((4, 2), 4)
        assert d == same and hash(d) == hash(same) == hash(((2, 1), 2))
        assert d != ((2, 1), 2) and ((2, 1), 2) != d
        assert d != DivisorClass.of([1, "1/3"])
        model = make()
        assert model != tuple(getattr(model, field) for field in MODEL_FIELDS)

    def test_repr_names_each_field(self):
        assert repr(DivisorClass.of([1, "1/2"])) == "DivisorClass(num=(2, 1), den=2)"
        assert repr(make()) == (
            "SurfaceModel(name='f2', gram=((0, 1), (1, -2)), canonical=(-4, -2), "
            "curves=(CurveClass(name='f', coords=(1, 0), effective=True), "
            "CurveClass(name='s', coords=(0, 1), effective=True)), ample_reference=(3, 1))"
        )


class TestPairings:
    def test_intersection_numbers(self):
        model = make()
        f, s = model.curve_divisor(0), model.curve_divisor(1)
        assert model.self_intersection(f) == 0
        assert model.self_intersection(s) == -2
        assert model.intersect(f, s) == 1
        assert model.canonical_pairing(f) == -2
        assert model.canonical_pairing(s) == 0

    def test_scaled_curve_pairings_rejects_wrong_rank(self):
        from surfbound.errors import RankMismatch

        model = make()
        with pytest.raises(RankMismatch):
            model.scaled_curve_pairings(DivisorClass.zero(3))

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
        assert model.intersect(built, model.curve_divisor(1)) == 0
        assert model.intersect(built, model.curve_divisor(2)) == 0
        assert model.intersect(built, model.curve_divisor(0)) > 0
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


def assert_matches(d: DivisorClass, ref) -> None:
    """d holds the reference's coordinates in lowest terms over den > 0."""
    assert d.coords == ref and all(type(c) is Q for c in d.coords)
    assert d.den > 0 and gcd(d.den, *d.num) == 1
    assert all(type(x) is int for x in d.num)
    assert d.den == lcm(*(c.denominator for c in ref))
    assert (d.rank, d.is_zero, d.is_integral) == (len(ref), ref.is_zero, ref.is_integral)


class TestIntegerFields:
    """DivisorClass on random rational vectors against FractionDivisor, the
    Fraction-tuple reference: large numerators and denominators, both
    signs, zero entries, and pairs with and without a shared denominator."""

    def draw_pair(self, rng):
        rank = rng.randint(1, 6)
        den = rng.choice([None, None, 1, rng.randint(2, 10**12)])
        return random_rationals(rng, rank, den), random_rationals(rng, rank, den)

    def test_arithmetic_agrees_with_the_reference(self, rng):
        for _ in range(400):
            u, v = self.draw_pair(rng)
            f = random_rational(rng)
            du, dv = DivisorClass(u), DivisorClass(v)
            assert_matches(du, u)
            assert_matches(du + dv, u + v)
            assert_matches(du - dv, u - v)
            assert_matches(du - du, u - u)
            assert_matches(-du, -u)
            assert_matches(du.scale(f), u.scale(f))
            assert_matches(f * du, u.scale(f))
            assert_matches(du.scale(f.numerator), u.scale(f.numerator))

    def test_equality_and_hash_agree_with_the_reference(self, rng):
        for _ in range(200):
            u, v = self.draw_pair(rng)
            du, dv = DivisorClass(u), DivisorClass(v)
            routes = [
                DivisorClass.of(map(str, u)),
                (du + dv) - dv,
                -(-du),
                du.scale(Q(3, 7)).scale(Q(7, 3)),
                DivisorClass.from_integers([5 * x for x in du.num], 5 * du.den),
            ]
            for d in routes:
                assert d == du and hash(d) == hash(du)
                assert (d.num, d.den) == (du.num, du.den)
            assert (du == dv) == (u == v)
            assert (du != dv) == (u != v)
        # equal classes collapse in a set exactly as their coordinate tuples do
        vectors = [random_rationals(rng, 3, rng.choice([None, 1, 4])) for _ in range(60)]
        vectors += vectors[:20]
        assert len({DivisorClass(u) for u in vectors}) == len(set(vectors))

    def test_from_integers_reduces(self):
        d = DivisorClass.from_integers([4, -6, 0], 8)
        assert (d.num, d.den) == ((2, -3, 0), 4)
        z = DivisorClass.from_integers([0, 0], 5)
        assert (z.num, z.den) == ((0, 0), 1) and z == DivisorClass.zero(2)

    def test_pairings_agree_with_fraction_dot_products(self, rng):
        models = [
            block_model(rng, [2, 3], extra_multiples=2),
            plumbing_chain(rng, 4),
            plumbing_tree(rng, 5),
            hodge_model(rng, 4)[0],
            make(),
        ]
        for model in models:
            for _ in range(25):
                u = random_rationals(rng, model.rank, rng.choice([None, 1, 12]))
                v = random_rationals(rng, model.rank)
                d, e = DivisorClass(u), DivisorClass(v)
                assert model.intersect(d, e) == fraction_pairing(model.gram, u, v)
                assert model.self_intersection(d) == fraction_pairing(model.gram, u, u)
                scaled, m = model.scaled_curve_pairings(d)
                assert m == lcm(*(c.denominator for c in u))
                for i, curve in enumerate(model.curves):
                    pairing = fraction_pairing(model.gram, u, curve.coords)
                    assert model.intersect(d, model.curve_divisor(i)) == pairing
                    assert scaled[i] == m * pairing


def moved_fixture(rng, name: str) -> SurfaceModel:
    """The bundled fixture in a random unimodular basis, drawn again until
    some curve has nonzero coordinates of both signs."""
    model = surface_io.load_fixture(name)
    while True:
        u = random_unimodular(rng, model.rank)
        data = model_in_basis(model, u, matrix_inverse(u))
        if any(min(c["coords"]) < 0 < max(c["coords"]) for c in data["curves"]):
            return surface_io.surface_from_data(data, origin=name)


# fixtures of rank at least 3, so that a moved curve has several coordinates
MOVED = ("a2_resolution", "ade_a4", "ade_d6", "ade_e8")


class TestCurveTerms:
    """The pairing kernel gram_times sums over the sparse gram_terms, and
    curve_pairings and divisor_from_curves over the sparse curve_terms; the
    reference sums every coordinate in Fractions."""

    @pytest.mark.parametrize("name", [*MOVED, "chain"])
    def test_sparse_sums_equal_dense_fraction_sums(self, rng, name):
        model = du_val_chain(20) if name == "chain" else moved_fixture(rng, name)
        coords = [c.coords for c in model.curves]
        vectors = coords + [
            [rng.choice([0, rng.randint(-30, 30)]) for _ in range(model.rank)]
            for _ in range(20)
        ]
        for v in vectors:
            assert model.gram_times(v) == mat_vec(model.gram, v)
        assert model.curve_pairings == tuple(
            tuple(fraction_pairing(model.gram, c, b) for b in coords) for c in coords
        )
        for _ in range(20):
            picked = rng.sample(range(len(coords)), rng.randint(1, len(coords)))
            coefficients = {i: rng.randint(-9, 9) for i in picked}
            den = rng.choice([1, 2, 6])
            dense = [Q(0)] * model.rank
            for i, n in coefficients.items():
                dense = [t + Q(n * x, den) for t, x in zip(dense, coords[i])]
            assert model.divisor_from_curves(coefficients, den) == DivisorClass(dense)


def dense_fixture(rng, name: str) -> SurfaceModel:
    """The bundled fixture in a random unimodular basis, drawn again until
    its Gram matrix has no zero entry."""
    model = surface_io.load_fixture(name)
    while True:
        u = random_unimodular(rng, model.rank)
        columns = list(zip(*u))
        gu = [[sum(map(mul, row, col)) for col in columns] for row in model.gram]
        # entry (i, j) of u'Gu is column i of u against column j of Gu
        if all(sum(map(mul, a, b)) for a in columns for b in zip(*gu)):
            data = model_in_basis(model, u, matrix_inverse(u))
            return surface_io.surface_from_data(data, origin=name)


class TestGramTerms:
    """intersect sums over the sparse gram_terms; the reference sums every
    Gram entry in Fractions."""

    @pytest.mark.parametrize("name", [*MOVED, "chain"])
    def test_pairings_equal_dense_fraction_sums(self, rng, name):
        model = du_val_chain(60) if name == "chain" else dense_fixture(rng, name)
        vectors = [c.coords for c in model.curves] + [model.canonical]
        vectors += [random_rationals(rng, model.rank, rng.choice([None, 1, 6])) for _ in range(12)]
        for _ in range(30):
            u, v = rng.choice(vectors), rng.choice(vectors)
            d, e = DivisorClass(map(Q, u)), DivisorClass(map(Q, v))
            assert model.intersect(d, e) == fraction_pairing(model.gram, u, v)
            assert model.self_intersection(d) == fraction_pairing(model.gram, u, u)

