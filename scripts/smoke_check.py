"""Quick consistency pass over the core modules; not part of the test suite."""

import sys
from fractions import Fraction as Q

sys.path.insert(0, "src")

from surfbound.surface import SurfaceModel
from surfbound import bounds, cycles, surface_io, zariski

f2 = SurfaceModel.create(
    name="hirzebruch_f2",
    gram=[[0, 1], [1, -2]],
    canonical=[-4, -2],
    curves=[("f", [1, 0]), ("s", [0, 1])],
    ample_reference=[3, 1],
)

a = f2.divisor([2, 1])  # s + 2f
zero = f2.zero_divisor()

assert f2.self_intersection(a) == 2
assert bounds.vanishing_threshold(f2, a, zero) == Q(-3, 2)
fa = bounds.Analysis(f2, a, zero)
assert fa.level_at(zero) == -1
assert fa.obstruction_minimum == 2

e1 = fa.correction_divisor(1)
assert e1.coefficients == (1,) and e1.support == (1,), e1

sep = fa.separating_divisor
assert sep.divisor.coords == (Q(0), Q(1)), sep

dec = zariski.zariski_decompose(f2, f2.divisor([1, 1]))  # f + s
assert dec.coefficients == (Q(1, 2),), dec
assert dec.positive.coords == (Q(1), Q(1, 2)), dec

orac = zariski.zariski_oracle(f2, f2.divisor([1, 1]))
assert orac.positive == dec.positive

cyc = cycles.fundamental_cycle(f2, (1,))
assert cyc.multiplicity == 2 and cyc.genus == 0

chk = bounds.threshold_holds(fa, n=0, k=0)
assert chk.holds and chk.strict_branch, chk

quad = fa.quadratic(n=0, k=0)
assert quad.f_at_one == f2.self_intersection(a) * (0 + Q(-3, 2) - 0), quad

print("f2 ok")

a2 = SurfaceModel.create(
    name="a2_resolution",
    gram=[[1, 0, 0], [0, -2, 1], [0, 1, -2]],
    canonical=[-3, 0, 0],
    curves=[("c1", [0, 1, 0]), ("c2", [0, 0, 1])],
    ample_reference=[2, -1, -1],
)
h = a2.divisor([1, 0, 0])
z0 = a2.zero_divisor()
ah = bounds.Analysis(a2, h, z0)
assert ah.obstruction_minimum == 2
obs2 = ah.enumerate_obstructions(2)
got = {e.coefficients: e.value for e in obs2.entries}
assert got == {(1, 0): 2, (0, 1): 2, (1, 1): 2}, got
obs1 = ah.enumerate_obstructions(1)
assert obs1.is_empty
ek2 = ah.correction_divisor(2)
assert ek2.coefficients == (6, 6) == tuple(
    int(c) for c in ek2.divisor.coords[1:]
), ek2
cy = cycles.fundamental_cycle(a2, (0, 1))
assert cy.coefficients == (1, 1) and cy.multiplicity == 2 and cy.genus == 0
assert cy.divisor == ah.separating_divisor.divisor
orc = cycles.cycle_bruteforce_oracle(a2, (0, 1))
assert orc.coefficients == cy.coefficients
print("a2 ok")

# E8 with A = h, T = 0: the level-two obstructions are the 120 positive
# roots. A bounding-box enumeration visits 907,200 points here and takes
# over a minute; the search takes a fraction of a second.
e8 = surface_io.load_fixture("ade_e8")
he8 = e8.curve_divisor(e8.curve_index("h"))
z8 = e8.zero_divisor()
e8h = bounds.Analysis(e8, he8, z8)
assert len(e8h.enumerate_obstructions(2).entries) == 120
assert e8h.obstruction_minimum == 2
# the count at level 10 comes from the search alone, with no entry built
assert e8h.obstruction_count(10) == 22490
print("e8 ok")

# double covers: rank one, H^2 = 2, K = (d - 3) H
for d, (want_m, want_ring) in {
    3: (Q(25, 8) - Q(0) / 4, None),
    5: (None, 9),
    4: (None, 7),
}.items():
    dc = SurfaceModel.create(
        name=f"double_cover_d{d}",
        gram=[[2]],
        canonical=[d - 3],
        curves=[("H", [1])],
        ample_reference=[1],
    )
    hh = dc.divisor([1])
    zz = dc.zero_divisor()
    m_val = bounds.vanishing_threshold(dc, hh, zz)
    kh = 2 * (d - 3)
    assert m_val == Q((kh + 2) ** 2, 8) - Q(kh * (d - 3), 4)
    dch = bounds.Analysis(dc, hh, zz)
    assert dch.obstruction_minimum is bounds.INFINITY
    if want_ring is not None:
        ring = dch.ring_generation_threshold()
        assert ring.least_m == want_ring, (d, ring)
    if d == 5:
        t2 = dch.degree_cap(k=0, x=2)
        assert t2 == 3, t2
        t2k = dch.degree_cap(k=2, x=2)
        assert t2k == 4, t2k
        t1 = dch.degree_cap(k=2, x=1)
        assert t1 == 2 + bounds.vanishing_threshold(dc, hh, zz) == Q(9, 2)
        cmpd = bounds.matsusaka_compare(dch)
        assert cmpd.bound_k_plus_4h == Q(175, 4), cmpd
        assert cmpd.bound_k_plus_2h == Q(95, 4), cmpd
        assert cmpd.bound_here == Q(9, 2), cmpd
    if d == 3:
        cmpd = bounds.matsusaka_compare(dch)
        assert cmpd.bound_k_plus_4h == Q(87, 4), cmpd
        assert cmpd.bound_k_plus_2h == Q(39, 4), cmpd
        assert cmpd.bound_here == Q(5, 2), cmpd
print("double covers ok")

bp = SurfaceModel.create(
    name="blowup_p2",
    gram=[[1, 0], [0, -1]],
    canonical=[-3, 1],
    curves=[("E", [0, 1]), ("L", [1, -1])],
    ample_reference=[2, -1],
)
d = bp.divisor([1, -2])  # H + 2E in (H, E) coords is (1, 2)? no: E coeff sign
dec = zariski.zariski_decompose(bp, bp.divisor([1, 2]))
# H + 2E: P should be H - ... check against oracle instead of a frozen value
assert dec.positive == zariski.zariski_oracle(bp, bp.divisor([1, 2])).positive
h1c = zariski.h1_correction(bp, dec)
print("blowup ok", dec.positive.coords, dec.negative.coords, h1c)

rep = bounds.build_bound_report(fa, k=0, n=2)
assert rep.tau == 2 and rep.level == -1
assert "k_very_ample" in rep.thresholds and "ring_generated" in rep.thresholds
print("report ok:", sorted(rep.thresholds))
print("all smoke checks passed")
