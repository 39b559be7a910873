"""Random surface-model builders shared across the test suite.

Three families, each shaped so that the property under test is a theorem
rather than an accident of the draw:

- hodge models: unimodular change of basis applied to diag(1, -1, ..., -1),
  no curves. Valid signature and characteristic canonical class by
  construction; used for the pure-lattice identities.
- block models: [[1]] (+) one or two diagonally dominant tree blocks, unit
  curves on the blocks, extra multiples of the polarizing class as benign
  curves. The class e0 is nef and big with the blocks as its orthogonal
  curves; used for Zariski, correction and obstruction tests.
- plumbing configurations: curve systems written inside a blown-up plane
  lattice diag(1, -1, ..., -1) with K = (-3, 1, ..., 1), so every drawn
  curve has honest nonnegative arithmetic genus and the fundamental-cycle
  genus bound is a theorem for them. Chains with arbitrary weights, trees,
  and elliptic plane-cubic classes.

It also holds the Fraction solves (solve_linear, matrix_inverse, mat_vec)
and the leading principal minors (leading_principal_minors), kept as
references for the integer kernel of surfbound.lattice, the Fraction
congruence pivots (congruence_pivots, pivot_inertia), kept as a reference
for lattice.signature, the level-by-level search (least_points_by_level),
kept as a reference for the depth-first search of the cycle oracle, the
recursive branch and bound of tau (least_value_reference), kept as a
reference for search.least_value, and a divisor class as a plain tuple of
Fractions (FractionDivisor, fraction_pairing), kept as a reference for the
integer fields of surfbound.surface.DivisorClass, and the coordinate test of
proportionality (coordinate_ratio), kept as a reference for the Hodge
defect. model_in_basis writes a model's file in another basis of its
lattice.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from operator import mul

from surfbound import lattice, search, surface_io
from surfbound.errors import CalculatorError, NotAmple, NotNegativeDefinite, RankMismatch
from surfbound.surface import DivisorClass, SurfaceModel


# -- reference Fraction solves -------------------------------------------------


class SingularMatrix(CalculatorError):
    """Linear solve was attempted against a singular matrix."""


def leading_principal_minors(m) -> list[int]:
    """Determinants of the leading k-by-k blocks, k = 1..n."""
    n = len(m)
    return [lattice.determinant([row[: k + 1] for row in m[: k + 1]]) for k in range(n)]


def mat_vec(m, v) -> list[Fraction]:
    return [lattice.dot(row, v) for row in m]


def solve_linear(m, b) -> list[Fraction]:
    """Solve m x = b exactly over the rationals by Gauss-Jordan elimination.

    Raises SingularMatrix when no pivot can be found, RankMismatch when the
    right-hand side has the wrong length.
    """
    n = len(m)
    if len(b) != n:
        raise RankMismatch(f"rhs length {len(b)} does not match matrix size {n}")
    a = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(m)]
    if any(len(row) != n + 1 for row in a):
        raise RankMismatch("solve_linear needs a square matrix")
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col] / p
            for c in range(col, n + 1):
                a[r][c] -= f * a[col][c]
    return [a[i][n] / a[i][i] for i in range(n)]


def matrix_inverse(m) -> list[list[Fraction]]:
    """Exact inverse, column by column."""
    n = len(m)
    cols = [solve_linear(m, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def congruence_pivots(m) -> list[Fraction]:
    """Diagonalize a symmetric matrix by congruence and return the diagonal,
    in Fractions: the reference for lattice.signature, which makes the same
    moves on integer rows over row denominators.

    Only three elementary moves are used, each a congruence by a matrix of
    determinant +-1: simultaneous row/column swap, simultaneous row/column
    addition, and the symmetric elimination step. Consequently the product
    of the returned pivots equals the determinant exactly, not just in sign.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    for i in range(n):
        if a[i][i] == 0:
            pivot_row = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if pivot_row is not None:
                j = pivot_row
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                # Every trailing diagonal entry vanishes; borrow an
                # off-diagonal one. With a[i][i] == a[j][j] == 0 the move
                # leaves 2*a[i][j] on the diagonal.
                off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    continue  # row i is zero on the trailing block
                j = off
                for c in range(n):
                    a[i][c] += a[j][c]
                for r in range(n):
                    a[r][i] += a[r][j]
        p = a[i][i]
        # Row elimination alone reproduces the congruence values on the
        # trailing block: the new diagonal a_rr - f*a_ir already includes
        # the -2f*a_ir + f^2*p of the two-sided update, and off-diagonal
        # pairs stay equal by symmetry of the Schur complement.
        for r in range(i + 1, n):
            f = a[r][i] / p
            if f == 0:
                continue
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return [a[i][i] for i in range(n)]


def pivot_inertia(m) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) read from the signs of congruence_pivots."""
    pivots = congruence_pivots(m)
    plus = sum(1 for p in pivots if p > 0)
    minus = sum(1 for p in pivots if p < 0)
    return plus, minus, len(pivots) - plus - minus


def least_points_by_level(gram, box) -> list[tuple[int, ...]]:
    """The points n of {1..box}^r with gram.n <= 0 at the least total degree.

    Each total degree from r upward gets its own search from the root, and
    the first level that holds a point is the answer; [] when none does.
    Branches are pruned by the least that the coordinates left can add to
    each row, min(g, g*box) for an entry g of either sign.
    """
    r = len(gram)
    min_future = [[0] * (r + 1) for _ in range(r)]
    for i in range(r):
        for p in range(r - 1, -1, -1):
            g = gram[i][p]
            min_future[i][p] = min_future[i][p + 1] + min(g, g * box)
    found: list[tuple[int, ...]] = []

    def extend(depth, remaining, partial, stack):
        if depth == r:
            if all(x <= 0 for x in partial):
                found.append(tuple(stack))
            return
        tail = r - depth - 1
        for v in range(max(1, remaining - tail * box), min(box, remaining - tail) + 1):
            nxt = [partial[i] + v * gram[i][depth] for i in range(r)]
            if any(nxt[i] + min_future[i][depth + 1] > 0 for i in range(r)):
                continue
            stack.append(v)
            extend(depth + 1, remaining - v, nxt, stack)
            stack.pop()

    for level in range(r, r * box + 1):
        extend(0, level, [0] * r, [])
        if found:
            return found
    return []


def least_value_reference(eliminated, linear, m, top):
    """The least value (linear.n - m n'Gn) / m over nonzero n >= 0 in the
    sublevel set at top, or None when that set is empty.

    Branch and bound on the descent that search._intervals makes: the least
    value is the leaf with the largest budget left. Each interval is tried
    from its centre outward, so the budget falls along it; a node whose
    budget is no larger than the best leaf's ends the interval."""
    form = search.search_form(eliminated, linear, m)
    slope, offset, weight, scale, base, tails, _, den = form
    budget = slope * top + offset
    if budget < 0:
        return None
    point = [0] * len(linear)
    best = -1

    def descend(j: int, left: int) -> None:
        nonlocal best
        shift = base[j] + sum(map(mul, tails[j], point[j + 1:]))
        a, e = scale[j], weight[j]
        s = isqrt(left // e)
        values = range(max(0, -((s + shift) // a)), (s - shift) // a + 1)
        for v in sorted(values, key=lambda v: abs(a * v + shift)):
            w = a * v + shift
            rest = left - e * w * w
            if rest <= best:
                break
            point[j] = v
            if j:
                descend(j - 1, rest)
            elif any(point):
                best = rest
        point[j] = 0

    descend(len(linear) - 1, budget)
    return None if best < 0 else Fraction(top * den - m * best, m * den)


# -- reference Fraction-tuple divisor classes -----------------------------------


class FractionDivisor(tuple):
    """A divisor class as the plain tuple of its Fraction coordinates, with
    the operations of DivisorClass done coordinate by coordinate."""

    def __add__(self, other):
        return FractionDivisor(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return FractionDivisor(a - b for a, b in zip(self, other))

    def __neg__(self):
        return FractionDivisor(-a for a in self)

    def scale(self, factor):
        return FractionDivisor(Fraction(factor) * a for a in self)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self)

    @property
    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self)


def fraction_pairing(gram, u, v) -> Fraction:
    """u'.gram.v, summed in Fractions."""
    return sum(
        (Fraction(x) * g * y for x, row in zip(u, gram) for g, y in zip(row, v)), Fraction(0)
    )


def random_rational(rng: random.Random, den=None) -> Fraction:
    """Zero a quarter of the time, otherwise either sign, with numerator and
    denominator of 1 to 30 digits; den fixes the denominator before
    reduction."""
    if rng.random() < 0.25:
        return Fraction(0)
    digits = rng.choice([1, 2, 6, 30])
    p = rng.choice([-1, 1]) * rng.randint(1, 10**digits)
    return Fraction(p, den or rng.choice([1, rng.randint(1, 10**digits)]))


def random_rationals(rng: random.Random, rank: int, den=None) -> FractionDivisor:
    return FractionDivisor(random_rational(rng, den) for _ in range(rank))


def coordinate_ratio(a: DivisorClass, v: DivisorClass):
    """The rational lambda with v = lambda * a coordinate by coordinate, or
    None when there is none; a is not zero. The reference for the Hodge
    defect's proportionality, which reads the pairings instead."""
    pivot = next(i for i, c in enumerate(a.coords) if c)
    ratio = v.coords[pivot] / a.coords[pivot]
    return ratio if all(x == ratio * y for x, y in zip(v.coords, a.coords)) else None


# -- random models --------------------------------------------------------------


def _matmul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(mid)) for j in range(m)]
        for i in range(n)
    ]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def random_unimodular(rng: random.Random, rank: int):
    """Integer matrix of determinant +-1 via random elementary moves."""
    u = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
        if i == j:
            continue
        move = rng.randrange(3)
        if move == 0:
            c = rng.choice([-2, -1, 1, 2])
            for t in range(rank):
                u[j][t] += c * u[i][t]
        elif move == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


def model_in_basis(model: SurfaceModel, u, inverse, order=None) -> dict:
    """The model file of model in the basis of the columns of u, with the
    curves listed in the given order of their indices."""
    data = surface_io.surface_to_data(model)
    if order is not None:
        data["curves"] = [data["curves"][i] for i in order]
    if u is None:
        return data
    new = lambda v: [int(x) for x in mat_vec(inverse, v)]  # integral: det u = +-1
    data["gram"] = _matmul(_transpose(u), _matmul(data["gram"], u))
    data["canonical"] = new(data["canonical"])
    for curve in data["curves"]:
        curve["coords"] = new(curve["coords"])
    if "ample_reference" in data:
        data["ample_reference"] = new(data["ample_reference"])
    return data


def _solve_int(matrix, rhs):
    solved = solve_linear(matrix, rhs)
    assert all(x.denominator == 1 for x in solved)
    return [int(x) for x in solved]


def characteristic_vector(m):
    """Some characteristic vector for a symmetric integer matrix.

    Solves (m k)_i = m_ii over GF(2). The system is always consistent: for
    v in the mod-2 kernel, v.(diag) = v.G.v = 0 mod 2, so the right-hand
    side is orthogonal to the kernel.
    """
    n = len(m)
    a = [[m[i][j] % 2 for j in range(n)] + [m[i][i] % 2] for i in range(n)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        for r in range(n):
            if r != row and a[r][col]:
                a[r] = [(x + y) % 2 for x, y in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
    if any(a[r][n] for r in range(row, n)):
        raise SingularMatrix("no characteristic vector: inconsistent parity system")
    k = [0] * n
    for r, c in pivots:
        k[c] = a[r][n]
    return k


def construct_polarization(model: SurfaceModel, indices, h: DivisorClass) -> DivisorClass:
    """Integral nef and big class |det| h + E orthogonal to the requested
    negative definite curves, for an integral ample class h.

    With G the Gram block of the curves, E = sum e_k C_k for e = adj(-G)
    (h.C): then E.C = G e = -|det| (h.C) on the block. adj(-G) has
    nonnegative entries, since -G is positive definite with nonpositive
    off-diagonal entries, so E is effective.
    """
    idx = sorted(set(int(i) for i in indices))
    pairings = model.scaled_curve_pairings(h)[0]
    if model.self_intersection(h) <= 0 or not all(p > 0 for p in pairings):
        raise NotAmple("polarization construction needs an ample base class")
    eliminated = lattice.negated_elimination(model.curve_gram(idx))
    if eliminated is None:
        raise NotNegativeDefinite("requested curve collection is not negative definite")
    det, rows = eliminated
    assert h.is_integral
    e = lattice.adjugate_solve(
        rows, [int(model.intersect(h, model.curve_divisor(i))) for i in idx]
    )
    assert all(x >= 0 for x in e)
    result = det * h + model.divisor_from_curves(dict(zip(idx, e)))
    assert set(idx) <= set(model.exceptional_curves(result))
    return result


def hodge_model(rng: random.Random, rank: int):
    """Curveless model with a scrambled hyperbolic-type gram matrix.

    Returns (model, basis_change) so callers can draw classes whose
    positivity is known in the diagonalizing coordinates."""
    u = random_unimodular(rng, rank)
    diag = [[0] * rank for _ in range(rank)]
    diag[0][0] = 1
    for i in range(1, rank):
        diag[i][i] = -1
    gram = _matmul(_transpose(u), _matmul(diag, u))
    # K characteristic for gram  <=>  U K characteristic for diag  <=>  odd entries
    odd = [rng.choice([-3, -1, 1, 3]) for _ in range(rank)]
    canonical = _solve_int(u, odd)
    model = SurfaceModel.create(
        name=f"hodge_rank{rank}", gram=gram, canonical=canonical
    )
    return model, u


def big_class(rng: random.Random, model: SurfaceModel, basis_change):
    """Class with positive self-intersection on a hodge model."""
    rank = model.rank
    tail = [rng.randint(-3, 3) for _ in range(rank - 1)]
    head = 1 + sum(abs(x) for x in tail) + rng.randint(0, 2)
    a = model.divisor(_solve_int(basis_change, [head] + tail))
    assert model.self_intersection(a) > 0
    return a


def any_class(rng: random.Random, model: SurfaceModel):
    return model.divisor([rng.randint(-4, 4) for _ in range(model.rank)])


def dominant_tree_block(rng: random.Random, size: int):
    """Negative-definite symmetric block: tree edges with weights 1 or 2,
    diagonals strictly dominating the incident weight sums."""
    block = [[0] * size for _ in range(size)]
    for child in range(1, size):
        parent = rng.randrange(child)
        weight = rng.choice([1, 1, 1, 2])
        block[child][parent] = block[parent][child] = weight
    for i in range(size):
        incident = sum(block[i][j] for j in range(size) if j != i)
        block[i][i] = -(incident + 1 + rng.randint(0, 2))
    assert lattice.is_negative_definite(block)
    return block


def block_model(
    rng: random.Random,
    sizes,
    extra_multiples: int = 0,
    name: str = "block",
) -> SurfaceModel:
    """[[1]] (+) tree blocks; curves are the block unit vectors plus
    optional positive multiples of e0. e0 itself is nef and big and its
    orthogonal curve set is exactly the block curves."""
    blocks = [dominant_tree_block(rng, s) for s in sizes]
    rank = 1 + sum(sizes)
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    offset = 1
    for block in blocks:
        s = len(block)
        for i in range(s):
            for j in range(s):
                gram[offset + i][offset + j] = block[i][j]
        offset += s
    base = characteristic_vector(gram)
    canonical = [b + 2 * rng.randint(-2, 2) for b in base]
    curves = []
    for i in range(1, rank):
        unit = [1 if j == i else 0 for j in range(rank)]
        curves.append((f"c{i}", unit))
    for mult in range(1, extra_multiples + 1):
        coords = [mult if j == 0 else 0 for j in range(rank)]
        curves.append((f"h{mult}" if mult > 1 else "h", coords))
    return SurfaceModel.create(
        name=name, gram=gram, canonical=canonical, curves=curves
    )


def polarization(model: SurfaceModel):
    """The nef and big class e0 of a block model."""
    return model.divisor([1] + [0] * (model.rank - 1))


def effective_combination(rng: random.Random, model: SurfaceModel, cap: int = 3):
    """Nonnegative integer combination of the listed curves, nonzero."""
    while True:
        coeffs = [rng.randint(0, cap) for _ in model.curves]
        if any(coeffs):
            break
    total = model.zero_divisor()
    for i, c in enumerate(coeffs):
        total = total + c * model.curve_divisor(i)
    return total


# -- plumbing configurations in a blown-up plane lattice ----------------------


def _blowup_model(classes, name: str, ample_reference=None) -> SurfaceModel:
    rank = max(len(c) for c in classes)
    padded = [list(c) + [0] * (rank - len(c)) for c in classes]
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    canonical = [-3] + [1] * (rank - 1)
    curves = [(f"c{i + 1}", coords) for i, coords in enumerate(padded)]
    return SurfaceModel.create(
        name=name,
        gram=gram,
        canonical=canonical,
        curves=curves,
        ample_reference=ample_reference,
    )


def blown_up_plane(points: int) -> SurfaceModel:
    """The plane blown up in distinct points, with the exceptional curves
    E_1..E_r (named c1..cr) as its curves; coordinates are (L, E_1..E_r)."""
    return _blowup_model([[0] * i + [1] for i in range(1, points + 1)], f"blowup{points}")


def effective_class(rng: random.Random, model: SurfaceModel, cap: int = 2) -> DivisorClass:
    """A random nonnegative combination of the line and exceptional classes
    of a blown-up plane model, plus a nonzero sum of its curves. It is
    effective but pairs with the curves in both signs, so its negative part
    varies."""
    coords = [rng.randint(0, cap) for _ in range(model.rank)]
    return model.divisor(coords) + effective_combination(rng, model, cap=1)


def plumbing_chain(rng: random.Random, length: int) -> SurfaceModel:
    """Chain of rational curves with self-intersections in -2..-4."""
    classes = []
    start = 1
    for _ in range(length):
        width = rng.choice([1, 1, 2, 3])
        cls = [0] * (start + width + 1)
        cls[start] = 1
        for j in range(start + 1, start + width + 1):
            cls[j] = -1
        classes.append(cls)
        start += width
    return _blowup_model(classes, f"chain{length}")


def plumbing_tree(rng: random.Random, nodes: int) -> SurfaceModel:
    """Tree of rational curves, strictly diagonally dominant by giving
    every non-root node at least one private blown-up point."""
    children: list[list[int]] = [[] for _ in range(nodes)]
    for child in range(1, nodes):
        children[rng.randrange(child)].append(child)
    lead = [0] * nodes
    counter = 1
    lead[0] = counter
    counter += 1
    classes = []
    for node in range(nodes):
        cls_indices = []
        for child in children[node]:
            lead[child] = counter
            cls_indices.append(counter)
            counter += 1
        extra = rng.randint(1, 2) if node else rng.randint(0 if children[0] else 1, 2)
        for _ in range(extra):
            cls_indices.append(counter)
            counter += 1
        cls = [0] * counter
        cls[lead[node]] = 1
        for idx in cls_indices:
            cls[idx] = -1
        classes.append(cls)
    return _blowup_model(classes, f"tree{nodes}")


def plumbing_elliptic(rng: random.Random) -> SurfaceModel:
    """One plane cubic through 10..12 blown-up points: genus one, negative."""
    points = rng.randint(10, 12)
    cls = [3] + [-1] * points
    return _blowup_model([cls], "elliptic")


def plumbing_mixed(rng: random.Random) -> SurfaceModel:
    """A plane cubic through 10..12 blown-up points beside a chain of one to
    three (-2)-curves E_i - E_(i+1) on further points: one component of
    genus one and one rational component. The ample reference (c + 3) L -
    (c + 1) E_(p+1) - ... - E_(p+c+1), for a chain of c curves on the points
    after the first p, pairs positively with every curve."""
    points = rng.randint(10, 12)
    chain = rng.randint(1, 3)
    rank = points + chain + 2
    classes = [[3] + [-1] * points]
    for j in range(points + 1, points + chain + 1):
        cls = [0] * rank
        cls[j], cls[j + 1] = 1, -1
        classes.append(cls)
    ample = [chain + 3] + [0] * points + list(range(-chain - 1, 0))
    return _blowup_model(classes, "mixed", ample)


def plumbing_configuration(rng: random.Random) -> SurfaceModel:
    kind = rng.randrange(3)
    if kind == 0:
        return plumbing_chain(rng, rng.randint(2, 5))
    if kind == 1:
        return plumbing_tree(rng, rng.randint(2, 6))
    return plumbing_elliptic(rng)


def ade_gram(kind: str, size: int):
    """Negated Cartan matrix of the given type."""
    if kind == "a":
        edges = [(i, i + 1) for i in range(size - 1)]
    elif kind == "d":
        edges = [(i, i + 1) for i in range(size - 2)] + [(size - 3, size - 1)]
    else:
        edges = [(i, i + 1) for i in range(size - 2)] + [(2, size - 1)]
    block = [[-2 if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j in edges:
        block[i][j] = block[j][i] = 1
    return block


def du_val_chain(n: int) -> SurfaceModel:
    """h of square 1 and the chain c1..cn of an A_n singularity, each curve
    a unit vector, as `scripts/oneshot.py chains` draws them at scale."""
    gram = [[1] + [0] * n] + [[0] + row for row in ade_gram("a", n)]
    unit = lambda i: [int(i == j) for j in range(n + 1)]
    curves = [("h", unit(0))] + [(f"c{i}", unit(i)) for i in range(1, n + 1)]
    return SurfaceModel.create(f"a{n}", gram, [-3] + [0] * n, curves)


ADE_TYPES = (
    [("a", m) for m in range(1, 9)]
    + [("d", m) for m in range(4, 9)]
    + [("e", m) for m in (6, 7, 8)]
)
