"""Seeded surface models for the benchmark, written as plain JSON data.

The benchmark hands the program only model files and command-line
arguments, so these builders use no code of the package. Each family is
valid by construction:

- block models: [[1]] (+) diagonally dominant tree blocks. Every block is
  negative definite, the class e0 is nef and big with the block curves as
  its orthogonal set, and e0 scaled minus the block curves is ample.
- plumbing configurations: curves written in the blown-up plane lattice
  diag(1, -1, ..., -1) with K = (-3, 1, ..., 1), so every curve has an
  honest arithmetic genus. Chains and trees are rational, the plane cubic
  through ten or more points has genus one.
"""

from __future__ import annotations

from math import isqrt
from random import Random


def _characteristic_vector(gram: list[list[int]]) -> list[int]:
    """Solve (G k)_i = G_ii over GF(2); the system is always consistent."""
    n = len(gram)
    rows = [[gram[i][j] % 2 for j in range(n)] + [gram[i][i] % 2] for i in range(n)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(n):
            if i != r and rows[i][col]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    k = [0] * n
    for row, col in pivots:
        k[col] = rows[row][n]
    return k


def _tree_block(rng: Random, size: int) -> list[list[int]]:
    block = [[0] * size for _ in range(size)]
    for child in range(1, size):
        parent = rng.randrange(child)
        block[child][parent] = block[parent][child] = rng.choice((1, 1, 1, 2))
    for i in range(size):
        incident = sum(block[i][j] for j in range(size) if j != i)
        block[i][i] = -(incident + 1 + rng.randint(0, 2))
    return block


def block_model(rng: Random, sizes: tuple[int, ...], name: str) -> dict:
    """[[1]] (+) tree blocks; curves c1.. are the block unit vectors and h
    is e0. The ample reference m*e0 - sum(c_i) pairs with c_j to minus the
    j-th row sum of its block, which diagonal dominance makes positive."""
    rank = 1 + sum(sizes)
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    offset = 1
    for size in sizes:
        block = _tree_block(rng, size)
        for i in range(size):
            for j in range(size):
                gram[offset + i][offset + j] = block[i][j]
        offset += size
    canonical = [b + 2 * rng.randint(-2, 2) for b in _characteristic_vector(gram)]
    curves = [
        {"name": f"c{i}", "coords": [int(j == i) for j in range(rank)]}
        for i in range(1, rank)
    ]
    curves.append({"name": "h", "coords": [int(j == 0) for j in range(rank)]})
    block_sum = -sum(gram[i][j] for i in range(1, rank) for j in range(1, rank))
    scale = isqrt(block_sum) + 1
    return {
        "schema": 1,
        "name": name,
        "gram": gram,
        "canonical": canonical,
        "curves": curves,
        "ample_reference": [scale] + [-1] * (rank - 1),
    }


def _blowup_model(classes: list[list[int]], name: str) -> dict:
    rank = max(len(c) for c in classes)
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    return {
        "schema": 1,
        "name": name,
        "gram": gram,
        "canonical": [-3] + [1] * (rank - 1),
        "curves": [
            {"name": f"c{i + 1}", "coords": list(c) + [0] * (rank - len(c))}
            for i, c in enumerate(classes)
        ],
    }


def plumbing_chain(rng: Random, length: int, name: str) -> dict:
    """Chain of rational curves with self-intersections -2 to -4: each
    curve is e_lead minus the next one to three exceptional classes, and
    the last of those is the lead of the following curve."""
    classes = []
    lead = 1
    for _ in range(length):
        width = rng.choice((1, 1, 2, 3))
        cls = [0] * (lead + width + 1)
        cls[lead] = 1
        for j in range(lead + 1, lead + width + 1):
            cls[j] = -1
        classes.append(cls)
        lead += width
    return _blowup_model(classes, name)


def plumbing_tree(rng: Random, nodes: int, name: str) -> dict:
    """Tree of rational curves. A node is its lead class minus the leads
    of its children and one or two private points, so the Gram block is
    strictly diagonally dominant."""
    children: list[list[int]] = [[] for _ in range(nodes)]
    for child in range(1, nodes):
        children[rng.randrange(child)].append(child)
    lead = [0] * nodes
    lead[0] = 1
    counter = 2
    classes = []
    for node in range(nodes):
        minus = []
        for child in children[node]:
            lead[child] = counter
            minus.append(counter)
            counter += 1
        for _ in range(rng.randint(1, 2)):
            minus.append(counter)
            counter += 1
        cls = [0] * counter
        cls[lead[node]] = 1
        for idx in minus:
            cls[idx] = -1
        classes.append(cls)
    return _blowup_model(classes, name)


def plumbing_elliptic(rng: Random, name: str) -> dict:
    """One plane cubic through 10 to 12 blown-up points: genus one."""
    return _blowup_model([[3] + [-1] * rng.randint(10, 12)], name)


def pseudo_effective_divisor(rng: Random, data: dict, cap: int = 2) -> list[int]:
    """Ample reference plus a nonzero effective combination of the listed
    curves: it pairs positively with the ample class, so it is
    pseudo-effective on the model."""
    curves = [c["coords"] for c in data["curves"]]
    while True:
        coeffs = [rng.randint(0, cap) for _ in curves]
        if any(coeffs):
            break
    total = list(data["ample_reference"])
    for a, coords in zip(coeffs, curves):
        total = [t + a * x for t, x in zip(total, coords)]
    return total
