"""Print the effective-bound table for the double plane cover family.

For the degree-d cover (H^2 = 2, K = (d-3)H) the table lists the vanishing
threshold, the first level where vanishing holds, the 2-very-ampleness
threshold, and both classical general-surface bounds next to ours. The
whole row is exact; the floats are display only.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from surfbound import bounds
from surfbound.surface_io import load_fixture


def main() -> None:
    header = (
        "d", "threshold", "level", "very ample at", "ours", "K+2H", "K+4H"
    )
    rows = [header]
    for d in range(3, 9):
        model = load_fixture(f"double_cover_d{d}")
        a = model.divisor(model.ample_reference)
        zero = model.zero_divisor()
        analysis = bounds.Analysis(model, a, zero)
        table = bounds.theorem_thresholds(analysis, k=2)
        cmp = bounds.matsusaka_compare(analysis)
        rows.append((
            str(d),
            str(analysis.threshold_at(zero)),
            str(analysis.level_at(zero)),
            f"n >= {table['k_very_ample'].least_n}",
            str(cmp.least_n_here),
            str(cmp.least_n_k_plus_2h),
            str(cmp.least_n_k_plus_4h),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for j, row in enumerate(rows):
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if j == 0:
            print("  ".join("-" * w for w in widths))


if __name__ == "__main__":
    main()
