"""Acceptance checks: one test per release criterion, each with a wall budget.

Every assertion here is exact (Fraction equality or integer equality); the
budgets catch algorithmic regressions, not flaky timing. The per-criterion
PASS/FAIL table is printed by the terminal summary hook in conftest.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction as Q

from surfbound import bounds, cycles, lattice
import surfbound.zariski as zariski
from surfbound.bounds import INFINITY
from surfbound.cli import run_subcommand
from surfbound.surface_io import surface_from_data, surface_to_data

from generators import (
    ADE_TYPES,
    any_class,
    big_class,
    block_model,
    effective_combination,
    hodge_model,
    plumbing_configuration,
    polarization,
)


def assert_budget(started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion exceeded {limit}s budget ({elapsed:.2f}s)"


def test_criterion_1_double_cover_family(fixture_models):
    # degree-d double plane covers: the vanishing threshold is d - 5/2, the
    # level is d - 2, and both the 2-very-ampleness table entry and the
    # comparison bound first hold at n = d
    started = time.monotonic()
    for d in range(3, 9):
        model = fixture_models[f"double_cover_d{d}"]
        a = model.divisor(model.ample_reference)
        zero = model.zero_divisor()
        analysis = bounds.Analysis(model, a, zero)
        assert bounds.vanishing_threshold(model, a, zero) == Q(2 * d - 5, 2)
        assert analysis.level_at(zero) == d - 2
        table = bounds.theorem_thresholds(analysis, k=2)
        assert table["k_very_ample"].least_n == d
        assert bounds.matsusaka_compare(analysis).least_n_here == d
    assert_budget(started, 1.0)


def test_criterion_2_canonical_threshold(fixture_models, rng):
    # twisting by the canonical class always gives threshold 1/A^2, hence
    # level 2 when A^2 = 1 and level 1 otherwise
    started = time.monotonic()
    for name, model in fixture_models.items():
        a = model.divisor(model.ample_reference)
        square = model.self_intersection(a)
        k_class = model.canonical_class
        assert bounds.vanishing_threshold(model, a, k_class) == 1 / square
        level = bounds.Analysis(model, a, k_class).level_at(k_class)
        assert level == (2 if square == 1 else 1), name
    for _ in range(200):
        model, change = hodge_model(rng, rng.randint(2, 6))
        a = big_class(rng, model, change)
        square = model.self_intersection(a)
        k_class = model.canonical_class
        assert bounds.vanishing_threshold(model, a, k_class) == 1 / square
        level = bounds.Analysis(model, a, k_class).level_at(k_class)
        assert level == (2 if square == 1 else 1)
    assert_budget(started, 5.0)


def _check_decomposition(model, d, dec):
    assert dec.positive + dec.negative == d
    assert all(c > 0 for c in dec.coefficients)
    for i in range(len(model.curves)):
        pairing = model.intersect(dec.positive, model.curve_divisor(i))
        assert pairing >= 0
        if i in dec.support:
            assert pairing == 0
    if dec.support:
        gram = [
            [model.intersect(model.curve_divisor(i), model.curve_divisor(j))
             for j in dec.support]
            for i in dec.support
        ]
        assert lattice.signature(gram) == (0, len(dec.support), 0)


def test_criterion_3_zariski_dual_route(fixture_models, rng):
    # support growth and the least-point linear program agree on every
    # fixture and on 500 random effective divisors; the nef part decomposes
    # trivially
    started = time.monotonic()
    for name, model in fixture_models.items():
        a = model.divisor(model.ample_reference)
        mix = a + 2 * model.curve_divisor(rng.randrange(len(model.curves)))
        for d in (a, mix):
            fast = zariski.zariski_decompose(model, d)
            slow = zariski.zariski_oracle(model, d)
            assert fast.positive == slow.positive, name
            assert fast.negative == slow.negative, name
            _check_decomposition(model, d, fast)
    sizes_pool = ([2], [3], [4], [2, 2], [1, 3], [1, 2])
    for trial in range(500):
        model = block_model(
            rng,
            rng.choice(sizes_pool),
            extra_multiples=rng.randint(0, 2),
            name=f"zar{trial}",
        )
        d = effective_combination(rng, model)
        fast = zariski.zariski_decompose(model, d)
        slow = zariski.zariski_oracle(model, d)
        assert fast.positive == slow.positive
        assert fast.negative == slow.negative
        _check_decomposition(model, d, fast)
        again = zariski.zariski_decompose(model, fast.positive)
        assert again.positive == fast.positive
        assert again.negative.is_zero
    assert_budget(started, 30.0)


def test_criterion_4_fundamental_cycles(fixture_models, rng):
    # stepwise construction equals the box search on the sixteen
    # rational double point fixtures and on 200 random plumbing models
    started = time.monotonic()
    for kind, size in ADE_TYPES:
        model = fixture_models[f"ade_{kind}{size}"]
        component = tuple(range(1, len(model.curves)))
        fast = cycles.fundamental_cycle(model, component)
        slow = cycles.cycle_bruteforce_oracle(model, component)
        assert fast == slow, kind
        assert fast.genus == 0
        assert fast.multiplicity == 2
    for _ in range(200):
        model = plumbing_configuration(rng)
        everything = tuple(range(len(model.curves)))
        for component in model.connected_components(everything):
            fast = cycles.fundamental_cycle(model, component)
            slow = cycles.cycle_bruteforce_oracle(model, component)
            assert fast == slow
            assert fast.genus >= 0
            assert all(c >= 1 for c in fast.coefficients)
            for i in component:
                assert model.intersect(fast.divisor, model.curve_divisor(i)) <= 0
    assert_budget(started, 30.0)


def test_criterion_5_correction_divisors(fixture_models, rng):
    # the correction divisor has nonnegative integer coefficients at
    # determinant scale, realizes the prescribed pairings, and repairs the
    # pairing condition for the twist it was built from
    started = time.monotonic()

    def check(model, a):
        orthogonal = model.exceptional_curves(a)
        for k in range(4):
            t = model.divisor([rng.randint(-2, 2) for _ in range(model.rank)])
            corr = bounds.Analysis(model, a, t).correction_divisor(k)
            assert corr.support == orthogonal
            assert all(isinstance(c, int) and c >= 0 for c in corr.coefficients)
            scaled = model.divisor_from_curves(
                dict(zip(corr.support, corr.coefficients))
            )
            for i, sigma in zip(corr.support, corr.sigma):
                curve = model.curve_divisor(i)
                assert sigma == max(
                    model.canonical_pairing(curve) - model.intersect(t, curve) + k,
                    Q(0),
                )
                assert model.intersect(scaled, curve) == -corr.det_abs * sigma
            repaired = t - corr.divisor
            for i in orthogonal:
                curve = model.curve_divisor(i)
                assert model.intersect(repaired, curve) >= (
                    model.canonical_pairing(curve) + k
                )
            again = bounds.Analysis(model, a, repaired).correction_divisor(k)
            assert all(v == 0 for v in again.sigma)

    for kind, size in ADE_TYPES:
        model = fixture_models[f"ade_{kind}{size}"]
        check(model, model.curve_divisor(0))
    a2 = fixture_models["a2_resolution"]
    check(a2, a2.curve_divisor(0))
    f2 = fixture_models["hirzebruch_f2"]
    check(f2, f2.divisor([2, 1]))
    pone = fixture_models["blowup_p2"]
    check(pone, pone.divisor([1, 0]))
    for trial in range(100):
        sizes = rng.choice(([2], [3], [4], [2, 2], [1, 2]))
        model = block_model(rng, sizes, name=f"corr{trial}")
        check(model, polarization(model))
    assert_budget(started, 10.0)


def test_criterion_6_obstruction_enumeration(fixture_models, rng):
    # the tight bounding box and the inflated oracle box find exactly the
    # same obstruction divisors; the minimum is infinite precisely when no
    # curve is orthogonal to the class
    started = time.monotonic()
    a2 = fixture_models["a2_resolution"]
    f2 = fixture_models["hirzebruch_f2"]
    zero_a2 = a2.zero_divisor()
    zero_f2 = f2.zero_divisor()
    assert bounds.Analysis(a2, a2.divisor([1, 0, 0]), zero_a2).obstruction_minimum == 2
    assert bounds.Analysis(f2, f2.divisor([2, 1]), zero_f2).obstruction_minimum == 2
    for name, model in fixture_models.items():
        a = model.divisor(model.ample_reference)
        tau = bounds.Analysis(model, a, model.zero_divisor()).obstruction_minimum
        assert (tau is INFINITY) == (not model.exceptional_curves(a)), name
        assert tau is INFINITY  # ample references pair positively everywhere
        assert bounds.Analysis(model, a, model.zero_divisor()).obstruction_count(3) == 0
    small = ("ade_a1", "ade_a2", "ade_a3", "ade_a4", "ade_d4", "a2_resolution")
    structured = [(fixture_models[n], fixture_models[n].curve_divisor(0)) for n in small]
    structured.append((f2, f2.divisor([2, 1])))
    for model, a in structured:
        zero = model.zero_divisor()
        tau = bounds.Analysis(model, a, zero).obstruction_minimum
        assert tau is not INFINITY
        for k in range(3):
            analysis = bounds.Analysis(model, a, zero)
            fast = list(analysis.enumerate_obstructions(k).entries.rows())
            slow = bounds.obstruction_oracle(bounds.Analysis(model, a, zero), k)
            assert fast == slow
            assert (analysis.obstruction_count(k) == 0) == (k < tau)
            if fast:
                assert min(value for _, _, value in fast) == tau
    for trial in range(100):
        sizes = rng.choice(([2], [3], [1, 2]))
        model = block_model(
            rng, sizes, extra_multiples=rng.randint(0, 1), name=f"obs{trial}"
        )
        a = polarization(model)
        t = model.divisor([rng.randint(-2, 2) for _ in range(model.rank)])
        k = rng.randint(0, 2)
        analysis = bounds.Analysis(model, a, t)
        fast = list(analysis.enumerate_obstructions(k).entries.rows())
        slow = bounds.obstruction_oracle(bounds.Analysis(model, a, t), k)
        assert fast == slow
        tau = bounds.Analysis(model, a, t).obstruction_minimum
        assert (analysis.obstruction_count(k) == 0) == (tau > k)
    assert_budget(started, 30.0)


def test_criterion_7_quadratic_identity(rng):
    # f(1) = A^2 (k + threshold - n) exactly, and the index defect of the
    # twist is nonnegative, vanishing only on proportional classes
    started = time.monotonic()
    for _ in range(500):
        model, change = hodge_model(rng, rng.randint(2, 5))
        a = big_class(rng, model, change)
        t = any_class(rng, model)
        n = rng.randint(1, 6)
        k = rng.randint(0, 4)
        square = model.self_intersection(a)
        analysis = bounds.Analysis(model, a, t)
        quad = analysis.quadratic(n, k)
        threshold = bounds.vanishing_threshold(model, a, t)
        assert quad.f_at_one == square * (k + threshold - n)
        assert 1 - quad.linear + quad.constant == quad.f_at_one
        defect = analysis.hodge
        assert defect.value >= 0
        assert (defect.value == 0) == defect.proportional
    assert_budget(started, 5.0)


def test_criterion_8_matsusaka_comparison(fixture_models):
    # frozen values for the degree-5 double cover, and the bound computed
    # here beats both classical general-surface bounds on every fixture
    started = time.monotonic()
    d5 = fixture_models["double_cover_d5"]
    h = d5.divisor(d5.ample_reference)
    comparison = bounds.matsusaka_compare(bounds.Analysis(d5, h, d5.zero_divisor()))
    assert comparison.bound_k_plus_4h == Q(175, 4)
    assert comparison.bound_k_plus_2h == Q(95, 4)
    assert comparison.bound_here == Q(9, 2)
    assert comparison.least_n_k_plus_4h == 44
    assert comparison.least_n_k_plus_2h == 24
    assert comparison.least_n_here == 5
    for name, model in fixture_models.items():
        h = model.divisor(model.ample_reference)
        c = bounds.matsusaka_compare(bounds.Analysis(model, h, model.zero_divisor()))
        assert c.bound_here < c.bound_k_plus_2h <= c.bound_k_plus_4h, name
    assert_budget(started, 1.0)


SKEWED_F2 = {
    "schema": 1,
    "name": "skewed_f2",
    "gram": [[0, 1], [1, -4]],
    "canonical": [-4, -2],
    "curves": [
        {"name": "f", "coords": [1, 0]},
        {"name": "s", "coords": [0, 1]},
    ],
    "ample_reference": [5, 1],
}


def test_criterion_9_io_and_oracle_wiring(fixture_models, capsys, monkeypatch):
    # model files round-trip exactly, repeated CLI runs are byte-identical,
    # and a wrong fast route is caught by --oracle instead of passing
    started = time.monotonic()
    for name, model in fixture_models.items():
        assert surface_from_data(surface_to_data(model), origin=name) == model
    args = [
        "zariski", "--surface", "hirzebruch_f2",
        "--divisor", "f + s", "--json", "--oracle",
    ]
    assert run_subcommand(args) == 0
    first = capsys.readouterr().out
    assert run_subcommand(args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["positive"]["text"] == "1,1/2"
    assert payload["negative"]["text"] == "0,1/2"
    assert payload["oracle_checked"] is True

    # same curve names, different self-intersections: decomposing against
    # this lattice gives a negative part of 3/4 s instead of 1/2 s
    variant = surface_from_data(SKEWED_F2)
    genuine = zariski.zariski_decompose
    monkeypatch.setattr(
        zariski, "zariski_decompose", lambda model, d: genuine(variant, d)
    )
    code = run_subcommand(
        ["zariski", "--surface", "hirzebruch_f2", "--divisor", "f + s", "--oracle"]
    )
    assert code == 3
    assert "oracle mismatch" in capsys.readouterr().err
    assert_budget(started, 5.0)
