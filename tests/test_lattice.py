"""Exact linear algebra: determinants, inertia, solving, parity, sqrt brackets."""

from __future__ import annotations

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbound import lattice
from surfbound.errors import RankMismatch, SingularMatrix

from generators import ADE_TYPES, ade_gram, random_unimodular

# negated Cartan matrices and their determinant magnitudes
EXPECTED_DET = {
    ("a", m): m + 1 for m in range(1, 9)
} | {("d", m): 4 for m in range(4, 9)} | {("e", 6): 3, ("e", 7): 2, ("e", 8): 1}


def _symmetric(draw_entries, n):
    return st.lists(
        st.lists(draw_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(
        lambda rows: [
            [rows[i][j] if i <= j else rows[j][i] for j in range(n)] for i in range(n)
        ]
    )


small_symmetric = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: _symmetric(st.integers(-5, 5), n)
)


def permutation_determinant(m):
    """Leibniz expansion, the independent reference for small matrices."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= m[i][perm[i]]
        total += prod
    return total


class TestDeterminant:
    @given(small_symmetric)
    @settings(max_examples=150, deadline=None)
    def test_matches_permutation_expansion(self, m):
        assert lattice.determinant(m) == permutation_determinant(m)

    @pytest.mark.parametrize("kind,size", ADE_TYPES)
    def test_root_lattice_determinants(self, kind, size):
        gram = ade_gram(kind, size)
        assert abs(lattice.determinant(gram)) == EXPECTED_DET[(kind, size)]

    def test_stays_integer_despite_fractions_inside(self):
        m = [[2, 3, 1], [3, 2, 4], [1, 4, 2]]
        d = lattice.determinant(m)
        assert isinstance(d, int)
        assert d == permutation_determinant(m)


class TestSolveLinear:
    def test_integral_solution(self):
        x = lattice.solve_linear([[-2, 1], [1, -2]], [-3, -3])
        assert x == [Q(3), Q(3)]

    def test_fractional_solution(self):
        x = lattice.solve_linear([[-2, 1], [1, -2]], [-1, 0])
        assert x == [Q(2, 3), Q(1, 3)]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lattice.solve_linear([[1, 1], [1, 1]], [1, 0])

    def test_wrong_rhs_length(self):
        with pytest.raises(RankMismatch):
            lattice.solve_linear([[1]], [1, 2])

    @given(small_symmetric, st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, m, data):
        n = len(m)
        if lattice.determinant(m) == 0:
            with pytest.raises(SingularMatrix):
                lattice.solve_linear(m, [0] * n)
            return
        b = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        x = lattice.solve_linear(m, b)
        assert lattice.mat_vec(m, x) == [Q(v) for v in b]

    def test_inverse_round_trip(self):
        m = [[0, 1], [1, -2]]
        inv = lattice.matrix_inverse(m)
        prod = [
            [sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert prod == [[1, 0], [0, 1]]


def seeded_positive_definite(rng, n):
    """B'B + I for a random integer B: symmetric positive definite."""
    b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    return [
        [sum(b[t][i] * b[t][j] for t in range(n)) + (i == j) for j in range(n)]
        for i in range(n)
    ]


class TestSymmetricElimination:
    def test_minors_and_adjugate_solve_match_the_oracles(self, rng):
        for trial in range(60):
            n = 1 + trial % 8
            m = seeded_positive_definite(rng, n)
            minors, rows = lattice.symmetric_elimination(m)
            assert minors == lattice.leading_principal_minors(m)
            assert minors[-1] == lattice.determinant(m)
            b = [rng.randint(-9, 9) for _ in range(n)]
            scaled = lattice.adjugate_solve(rows, b)
            assert all(isinstance(y, int) for y in scaled)
            assert scaled == [minors[-1] * x for x in lattice.solve_linear(m, b)]

    def test_rows_give_the_ldl_factors(self, rng):
        # m = L D L' with L_jk = rows[k][j] / D_{k+1}, D_k = minors[k] / minors[k-1]
        for n in range(1, 7):
            m = seeded_positive_definite(rng, n)
            minors, rows = lattice.symmetric_elimination(m)
            lower = [
                [Q(rows[k][j], minors[k]) if j >= k else Q(0) for k in range(n)]
                for j in range(n)
            ]
            diag = [Q(d, prev) for d, prev in zip(minors, [1, *minors])]
            rebuilt = [
                [sum(lower[i][k] * diag[k] * lower[j][k] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert rebuilt == m

    @pytest.mark.parametrize("kind,size", ADE_TYPES)
    def test_negated_root_lattices(self, kind, size):
        q = [[-x for x in row] for row in ade_gram(kind, size)]
        minors, rows = lattice.symmetric_elimination(q)
        assert minors[-1] == EXPECTED_DET[(kind, size)]
        ones = [1] * size
        assert lattice.adjugate_solve(rows, ones) == [
            minors[-1] * x for x in lattice.solve_linear(q, ones)
        ]

    @given(small_symmetric)
    @settings(max_examples=150, deadline=None)
    def test_stops_at_the_first_nonpositive_minor(self, m):
        minors, _ = lattice.symmetric_elimination(m)
        expected = []
        for minor in lattice.leading_principal_minors(m):
            if minor <= 0:
                break
            expected.append(minor)
        assert minors == expected

    def test_wrong_rhs_length(self):
        _, rows = lattice.symmetric_elimination([[2, 1], [1, 2]])
        with pytest.raises(RankMismatch):
            lattice.adjugate_solve(rows, [1])


class TestSignature:
    @given(small_symmetric)
    @settings(max_examples=150, deadline=None)
    def test_parts_sum_to_rank(self, m):
        plus, minus, zero = lattice.signature(m)
        assert plus + minus + zero == len(m)
        assert zero == 0 or lattice.determinant(m) == 0

    @given(small_symmetric)
    @settings(max_examples=150, deadline=None)
    def test_pivot_product_is_determinant(self, m):
        pivots = lattice.congruence_pivots(m)
        prod = Q(1)
        for p in pivots:
            prod *= p
        assert prod == lattice.determinant(m)

    @given(small_symmetric, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_unimodular_congruence(self, m, rng):
        n = len(m)
        u = random_unimodular(rng, n)
        conj = [
            [
                sum(u[k][i] * m[k][t] * u[t][j] for k in range(n) for t in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert lattice.signature(conj) == lattice.signature(m)

    @given(small_symmetric)
    @settings(max_examples=150, deadline=None)
    def test_negative_definite_iff_all_minus(self, m):
        expected = lattice.signature(m) == (0, len(m), 0)
        assert lattice.is_negative_definite(m) == expected
        # Sylvester on the separately computed minors: the k-th has sign (-1)^k
        minors = lattice.leading_principal_minors(m)
        assert all((-1) ** k * minor > 0 for k, minor in enumerate(minors, 1)) == expected

    @pytest.mark.parametrize("kind,size", ADE_TYPES)
    def test_root_lattices_negative_definite(self, kind, size):
        assert lattice.is_negative_definite(ade_gram(kind, size))

    def test_zero_block_needs_off_diagonal_borrow(self):
        # hyperbolic plane: both diagonal entries vanish
        assert lattice.signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_minors_track_sylvester(self):
        m = [[-2, 1], [1, -2]]
        assert lattice.leading_principal_minors(m) == [-2, 3]


class TestCharacteristic:
    def test_odd_unimodular_needs_odd_vector(self):
        assert not lattice.is_characteristic([0], [[1]])
        assert lattice.is_characteristic([1], [[1]])

    def test_even_lattice_accepts_zero(self):
        m = [[-2, 1], [1, -2]]
        assert lattice.is_characteristic([0, 0], m)
        assert not lattice.is_characteristic([1, 0], m)

    @given(small_symmetric)
    @settings(max_examples=150, deadline=None)
    def test_constructed_vector_is_characteristic(self, m):
        try:
            k = lattice.characteristic_vector(m)
        except SingularMatrix:
            return  # singular mod 2 with inconsistent parity cannot occur; guard anyway
        assert lattice.is_characteristic(k, m)

    def test_shift_by_two_preserves(self):
        m = [[1, 0], [0, -1]]
        k = lattice.characteristic_vector(m)
        shifted = [k[0] + 2, k[1] - 4]
        assert lattice.is_characteristic(shifted, m)


class TestSqrtBrackets:
    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_integer_bounds(self, n):
        x = Q(n)
        low, up = lattice.sqrt_lower(x), lattice.sqrt_upper(x)
        assert low * low <= x <= up * up
        assert low <= up

    @given(st.integers(0, 3000))
    @settings(max_examples=200, deadline=None)
    def test_perfect_squares_exact(self, n):
        x = Q(n * n)
        assert lattice.sqrt_lower(x) == n == lattice.sqrt_upper(x)

    def test_rational_square_exact(self):
        assert lattice.sqrt_lower(Q(9, 4)) == Q(3, 2)
        assert lattice.sqrt_upper(Q(9, 4)) == Q(3, 2)

    @given(
        st.fractions(
            min_value=0, max_value=10**4, max_denominator=997
        ),
        st.integers(4, 14),
    )
    @settings(max_examples=200, deadline=None)
    def test_bracket_width(self, x, exponent):
        width = Q(1, 2**exponent)
        low, up = lattice.sqrt_bracket(x, width)
        assert low * low <= x <= up * up
        assert up - low <= width

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lattice.sqrt_lower(Q(-1))
