"""Regenerate the bundled surface fixtures.

Three families: double covers of the plane (rank one, H^2 = 2, K = (d-3)H
for branch degree 2d), two rank-two toy surfaces used throughout the tests,
and resolutions carrying a single rational double point of each type A, D,
E below rank nine. The du Val gram blocks are negated Cartan matrices; the
ample reference is a*h - adj(C).1 with a minimal, which pairs to |det C|
with every exceptional curve.
"""

import json
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from surfbound import lattice
from surfbound.surface import SurfaceModel
from surfbound.surface_io import surface_from_data, surface_to_data

OUT = Path(__file__).resolve().parents[1] / "src" / "surfbound" / "fixtures"

EXPECTED_DETS = {"a": lambda m: m + 1, "d": lambda m: 4, "e": {6: 3, 7: 2, 8: 1}}


def cartan(kind: str, m: int) -> list[list[int]]:
    edges = []
    if kind == "a":
        edges = [(i, i + 1) for i in range(m - 1)]
    elif kind == "d":
        edges = [(i, i + 1) for i in range(m - 2)] + [(m - 3, m - 1)]
    elif kind == "e":
        edges = [(i, i + 1) for i in range(m - 2)] + [(2, m - 1)]
    mat = [[2 if i == j else 0 for j in range(m)] for i in range(m)]
    for i, j in edges:
        mat[i][j] = mat[j][i] = -1
    return mat


def du_val_model(kind: str, m: int) -> dict:
    c = cartan(kind, m)
    det = lattice.determinant(c)
    want = EXPECTED_DETS[kind]
    assert det == (want[m] if isinstance(want, dict) else want(m)), (kind, m, det)
    # the Gram block -C is negative definite, so its elimination runs to the
    # end and gives x = -adj(C).1, which pairs each exceptional curve to
    # |det C|; divide by the gcd to keep the polarization primitive on the block
    eliminated = lattice.negated_elimination([[-v for v in row] for row in c])
    assert eliminated is not None and eliminated[0] == det, (kind, m, eliminated)
    x = [-v for v in lattice.adjugate_solve(eliminated[1], [1] * m)]
    assert all(v < 0 for v in x), (kind, m, x)
    g = 0
    for v in x:
        g = gcd(g, v)
    x = [v // g for v in x]
    quad = -sum(x[i] * c[i][j] * x[j] for i in range(m) for j in range(m))

    def bounds_at(a: int):
        h2 = Fraction(a * a + quad)
        if h2 <= 0:
            return None
        kh = Fraction(-3 * a)
        ours = 2 + (kh + 2) ** 2 / (4 * h2) - Fraction(9, 4)
        b41 = ((kh + 4 * h2 + 1) ** 2 / h2 + 3) / 2
        b42 = ((kh + 2 * h2 + 1) ** 2 / h2 + 7) / 2
        return ours, b42, b41

    # grow the degree until this calculator's very-ampleness bound beats
    # both classical ones (it tends to 2 while they grow quadratically)
    a = 1
    while True:
        got = bounds_at(a)
        if got is not None and got[0] < got[1] <= got[2]:
            break
        a += 1
    rank = m + 1
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(m):
        for j in range(m):
            gram[i + 1][j + 1] = -c[i][j]
    unit = lambda i: [1 if j == i else 0 for j in range(rank)]
    return {
        "schema": 1,
        "name": f"ade_{kind}{m}",
        "gram": gram,
        "canonical": [-3] + [0] * m,
        "curves": [{"name": "h", "coords": unit(0)}]
        + [{"name": f"c{i + 1}", "coords": unit(i + 1)} for i in range(m)],
        "ample_reference": [a] + x,
        "notes": f"rank-one du Val singularity of type {kind.upper()}{m}, resolved",
    }


def double_cover(d: int) -> dict:
    return {
        "schema": 1,
        "name": f"double_cover_d{d}",
        "gram": [[2]],
        "canonical": [d - 3],
        "curves": [{"name": "H", "coords": [1]}],
        "ample_reference": [1],
        "notes": f"double plane branched along a smooth curve of degree {2 * d}",
    }


HAND_WRITTEN = [
    {
        "schema": 1,
        "name": "hirzebruch_f2",
        "gram": [[0, 1], [1, -2]],
        "canonical": [-4, -2],
        "curves": [
            {"name": "f", "coords": [1, 0]},
            {"name": "s", "coords": [0, 1]},
        ],
        "ample_reference": [3, 1],
        "notes": "ruled surface with a section of square -2; basis (fiber, section)",
    },
    {
        "schema": 1,
        "name": "blowup_p2",
        "gram": [[1, 0], [0, -1]],
        "canonical": [-3, 1],
        "curves": [
            {"name": "E", "coords": [0, 1]},
            {"name": "L", "coords": [1, -1]},
        ],
        "ample_reference": [2, -1],
        "notes": "plane blown up in a point; basis (line, exceptional curve)",
    },
    {
        "schema": 1,
        "name": "a2_resolution",
        "gram": [[1, 0, 0], [0, -2, 1], [0, 1, -2]],
        "canonical": [-3, 0, 0],
        "curves": [
            {"name": "h", "coords": [1, 0, 0]},
            {"name": "c1", "coords": [0, 1, 0]},
            {"name": "c2", "coords": [0, 0, 1]},
        ],
        "ample_reference": [2, -1, -1],
        "notes": "cusp resolution: two (-2)-curves meeting once, plus a polarizing class",
    },
]


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    files = []
    for d in range(3, 9):
        files.append(double_cover(d))
    files.extend(HAND_WRITTEN)
    for m in range(1, 9):
        files.append(du_val_model("a", m))
    for m in range(4, 9):
        files.append(du_val_model("d", m))
    for m in (6, 7, 8):
        files.append(du_val_model("e", m))
    for data in files:
        model = surface_from_data(data, origin=data["name"])
        assert isinstance(model, SurfaceModel)
        assert surface_to_data(model) == {
            k: v for k, v in data.items() if k != "notes"
        }, data["name"]
        path = OUT / f"{data['name']}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        print("wrote", path.name)
    print(f"{len(files)} fixtures")


if __name__ == "__main__":
    main()
