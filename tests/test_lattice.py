"""Exact linear algebra: determinants, inertia, solving, parity, sqrt brackets."""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbound import lattice
from surfbound.errors import RankMismatch, SingularMatrix

from generators import (
    ADE_TYPES,
    ade_gram,
    characteristic_vector,
    mat_vec,
    matrix_inverse,
    random_unimodular,
    solve_linear,
)

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
        x = solve_linear([[-2, 1], [1, -2]], [-3, -3])
        assert x == [Q(3), Q(3)]

    def test_fractional_solution(self):
        x = solve_linear([[-2, 1], [1, -2]], [-1, 0])
        assert x == [Q(2, 3), Q(1, 3)]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear([[1, 1], [1, 1]], [1, 0])

    def test_wrong_rhs_length(self):
        with pytest.raises(RankMismatch):
            solve_linear([[1]], [1, 2])

    @given(small_symmetric, st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, m, data):
        n = len(m)
        if lattice.determinant(m) == 0:
            with pytest.raises(SingularMatrix):
                solve_linear(m, [0] * n)
            return
        b = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        x = solve_linear(m, b)
        assert mat_vec(m, x) == [Q(v) for v in b]

    def test_inverse_round_trip(self):
        m = [[0, 1], [1, -2]]
        inv = matrix_inverse(m)
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


def negate(m):
    return [[-x for x in row] for row in m]


def eliminate(m):
    """The leading minors of a positive definite m, read from the diagonal
    of the rows of negated_elimination(-m), with the determinant and the
    rows."""
    det, rows = lattice.negated_elimination(negate(m))
    return [rows[k][k] for k in range(len(m))], det, rows


class TestSymmetricElimination:
    def test_minors_and_adjugate_solve_match_the_oracles(self, rng):
        for trial in range(60):
            n = 1 + trial % 8
            m = seeded_positive_definite(rng, n)
            minors, det, rows = eliminate(m)
            assert minors == lattice.leading_principal_minors(m)
            assert det == minors[-1] == lattice.determinant(m)
            b = [rng.randint(-9, 9) for _ in range(n)]
            scaled = lattice.adjugate_solve(rows, b)
            assert all(isinstance(y, int) for y in scaled)
            assert scaled == [det * x for x in solve_linear(m, b)]

    def test_rows_give_the_ldl_factors(self, rng):
        # m = L D L' with L_jk = rows[k][j] / D_{k+1}, D_k = minors[k] / minors[k-1]
        for n in range(1, 7):
            m = seeded_positive_definite(rng, n)
            minors, _, rows = eliminate(m)
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
        gram = ade_gram(kind, size)
        q = negate(gram)
        det, rows = lattice.negated_elimination(gram)
        assert det == rows[-1][-1] == EXPECTED_DET[(kind, size)]
        assert [rows[k][k] for k in range(size)] == lattice.leading_principal_minors(q)
        assert lattice.negated_elimination(q) is None
        ones = [1] * size
        assert lattice.adjugate_solve(rows, ones) == [det * x for x in solve_linear(q, ones)]

    @given(small_symmetric)
    @settings(max_examples=150, deadline=None)
    def test_stops_at_the_first_nonpositive_minor(self, m):
        # None exactly when some leading minor of -m is <= 0; otherwise the
        # diagonal of the rows holds those minors
        minors = lattice.leading_principal_minors(negate(m))
        eliminated = lattice.negated_elimination(m)
        assert (eliminated is None) == any(minor <= 0 for minor in minors)
        if eliminated is not None:
            det, rows = eliminated
            assert [rows[k][k] for k in range(len(m))] == minors
            assert det == minors[-1]

    def test_wrong_rhs_length(self):
        _, rows = lattice.negated_elimination([[-2, -1], [-1, -2]])
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
        eliminated = lattice.negated_elimination(m)
        assert (eliminated is not None) == expected
        if eliminated is not None:
            assert eliminated[0] == (-1) ** len(m) * lattice.determinant(m)
        # Sylvester on the separately computed minors: the k-th has sign (-1)^k
        minors = lattice.leading_principal_minors(m)
        assert all((-1) ** k * minor > 0 for k, minor in enumerate(minors, 1)) == expected

    @pytest.mark.parametrize("kind,size", ADE_TYPES)
    def test_root_lattices_negative_definite(self, kind, size):
        assert lattice.is_negative_definite(ade_gram(kind, size))

    def test_empty_block(self):
        assert lattice.is_negative_definite([])
        assert lattice.negated_elimination([]) == (1, [])

    def test_zero_block_needs_off_diagonal_borrow(self):
        # hyperbolic plane: both diagonal entries vanish
        assert lattice.signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_minors_track_sylvester(self):
        m = [[-2, 1], [1, -2]]
        assert lattice.leading_principal_minors(m) == [-2, 3]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def seeded_symmetric(rng, n):
    """A symmetric integer matrix of any inertia; one draw in three is B'DB
    for a short B and D = diag(+-1), so singular matrices occur too."""
    if rng.randrange(3):
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
    d = [rng.choice([-1, 1]) for _ in b]
    return [
        [sum(d[t] * b[t][i] * b[t][j] for t in range(len(b))) for j in range(n)]
        for i in range(n)
    ]


def descartes_inertia(sympy, m):
    """(n_plus, n_minus, n_zero) from the sign changes of the characteristic
    polynomial's coefficients. A symmetric matrix has only real eigenvalues,
    so Descartes' rule of signs counts the positive and, on p(-x), the
    negative roots exactly."""
    coeffs = sympy.Matrix(m).charpoly().all_coeffs()  # leading coefficient 1 first
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def changes(seq):
        signs = [c > 0 for c in seq if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    degree = len(coeffs) - 1
    return changes(coeffs), changes([c * (-1) ** (degree - i) for i, c in enumerate(coeffs)]), zero


class TestKernelAgainstSympy:
    """The integer kernel and the signature against sympy's independent
    determinant, adjugate and characteristic polynomial."""

    def test_minors_are_determinants(self, sympy, rng):
        for trial in range(60):
            n = 1 + trial % 6
            m = seeded_symmetric(rng, n) if trial % 2 else seeded_positive_definite(rng, n)
            dets = [sympy.Matrix(m)[: k + 1, : k + 1].det() for k in range(n)]
            eliminated = lattice.negated_elimination(negate(m))
            assert (eliminated is None) == any(d <= 0 for d in dets)
            if eliminated is not None:
                det, rows = eliminated
                assert [rows[k][k] for k in range(n)] == dets
                assert det == sympy.Matrix(m).det()

    def test_adjugate_solve_is_the_adjugate(self, sympy, rng):
        for trial in range(40):
            n = 1 + trial % 6
            m = seeded_positive_definite(rng, n)
            _, _, rows = eliminate(m)
            adj = sympy.Matrix(m).adjugate()
            b = [rng.randint(-9, 9) for _ in range(n)]
            assert lattice.adjugate_solve(rows, b) == list(adj * sympy.Matrix(b))
            # a rational right-hand side, its denominators cleared by their
            # lcm as the Zariski solve clears those of m*D.C
            rational = [Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            den = lcm(*(x.denominator for x in rational))
            cleared = [x.numerator * (den // x.denominator) for x in rational]
            exact = adj * sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                                        for x in rational])
            assert lattice.adjugate_solve(rows, cleared) == list(den * exact)

    def test_signature_is_the_inertia_of_the_charpoly(self, sympy, rng):
        for trial in range(60):
            m = seeded_symmetric(rng, 1 + trial % 6)
            assert lattice.signature(m) == descartes_inertia(sympy, m)


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
            k = characteristic_vector(m)
        except SingularMatrix:
            return  # singular mod 2 with inconsistent parity cannot occur; guard anyway
        assert lattice.is_characteristic(k, m)

    def test_shift_by_two_preserves(self):
        m = [[1, 0], [0, -1]]
        k = characteristic_vector(m)
        shifted = [k[0] + 2, k[1] - 4]
        assert lattice.is_characteristic(shifted, m)


class TestSqrtBrackets:
    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_integer_bounds(self, n):
        x = Q(n)
        up = lattice.sqrt_upper(x)
        assert x <= up * up
        assert n == 0 or (up - 1) ** 2 < x

    @given(st.integers(0, 3000))
    @settings(max_examples=200, deadline=None)
    def test_perfect_squares_exact(self, n):
        x = Q(n * n)
        assert lattice.sqrt_upper(x) == n

    def test_rational_square_exact(self):
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
            lattice.sqrt_upper(Q(-1))
        with pytest.raises(ValueError):
            lattice.sqrt_bracket(Q(-1), Q(1, 4))
