"""Zariski decomposition: known splittings, defining properties, dual routes."""

from __future__ import annotations

import json
import time
from fractions import Fraction as Q

import pytest

from surfbound import surface_io, zariski
from surfbound.cli import run_subcommand
from surfbound.errors import NotPseudoEffective, RankMismatch
from surfbound.surface import DivisorClass
from surfbound.zariski import h1_correction, kappa_is_two, zariski_decompose, zariski_oracle

from generators import (
    block_model,
    blown_up_plane,
    effective_class,
    effective_combination,
    plumbing_chain,
    plumbing_tree,
)


def check_defining_properties(model, d, dec):
    # N >= 0 supported on a negative definite block
    assert all(c > 0 for c in dec.coefficients)
    assert dec.support == tuple(sorted(dec.support))
    # P nef against every listed curve, orthogonal to the support of N
    for i in range(len(model.curves)):
        p = model.intersect(dec.positive, model.curve_divisor(i))
        assert p >= 0
        if i in dec.support:
            assert p == 0
    assert (dec.positive + dec.negative).coords == d.coords


class TestKnownDecompositions:
    def test_ruled_surface_section_plus_fiber(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        d = model.divisor([1, 1])  # f + s
        dec = zariski_decompose(model, d)
        assert dec.positive.coords == (Q(1), Q(1, 2))
        assert dec.negative.coords == (Q(0), Q(1, 2))
        assert dec.support == (1,)
        assert dec.coefficients == (Q(1, 2),)

    def test_nef_divisor_is_its_own_positive_part(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        d = model.divisor([3, 1])
        dec = zariski_decompose(model, d)
        assert dec.negative.is_zero
        assert dec.support == ()

    def test_blown_up_plane(self, fixture_models):
        model = fixture_models["blowup_p2"]
        # L + 3E pairs +1 with L but -2 with E; E carries the negative part
        e = model.curve_divisor(model.curve_index("E"))
        ell = model.curve_divisor(model.curve_index("L"))
        d = ell + 3 * e
        dec = zariski_decompose(model, d)
        assert dec.positive.coords == (ell + e).coords
        assert dec.negative.coords == (2 * e).coords

    def test_idempotent_on_positive_part(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        dec = zariski_decompose(model, model.divisor([1, 1]))
        again = zariski_decompose(model, dec.positive)
        assert again.negative.is_zero
        assert again.positive.coords == dec.positive.coords

    def test_not_pseudo_effective_raises(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(model, model.divisor([-1, 0]))

    def test_negative_multiple_of_section_rejected(self, fixture_models):
        model = fixture_models["blowup_p2"]
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(model, model.divisor([-2, 1]))


class TestKappaAndCorrection:
    def test_kappa_two_iff_positive_square(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        positive = zariski_decompose(model, model.divisor([3, 1])).positive
        assert kappa_is_two(model, zariski_decompose(model, positive))
        fiber_dec = zariski_decompose(model, model.curve_divisor(0))
        assert not kappa_is_two(model, zariski_decompose(model, fiber_dec.positive))

    def test_correction_coefficients(self, fixture_models):
        model = fixture_models["blowup_p2"]
        e = model.curve_divisor(0)
        corr = h1_correction(model, zariski_decompose(model, 2 * e))
        # F = 2E: c2 = -F^2/2 = 2, c1 = F.K/2 = -1, c0(b) = -c1 b - c2 b^2
        assert corr.c2 == Q(2)
        assert corr.c1 == Q(-1)
        assert corr.c0(1) == Q(-1)

    def test_correction_of_half_section(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        corr = h1_correction(model, zariski_decompose(model, model.divisor([1, 1])))
        assert corr.c2 == Q(1, 4)
        assert corr.c1 == Q(0)
        assert corr.c0(1) == Q(-1, 4)

    def test_zero_negative_part_vanishes(self, fixture_models):
        model = fixture_models["hirzebruch_f2"]
        corr = h1_correction(model, zariski_decompose(model, model.zero_divisor()))
        assert corr.c2 == 0 and corr.c1 == 0 and corr.c0(5) == 0


class TestDualRoutes:
    """The fast support-growth pass and the linear-program oracle must
    agree exactly on every draw."""

    SIZE_CHOICES = ([2], [3], [4], [2, 2], [1, 3], [1, 2])

    def test_oracle_agrees_on_fixtures(self, fixture_models):
        for model in fixture_models.values():
            for coords in ([1, 1], [2, 1], [1, 0]):
                d = model.divisor((coords + [0] * model.rank)[: model.rank])
                try:
                    fast = zariski_decompose(model, d)
                except NotPseudoEffective:
                    with pytest.raises(NotPseudoEffective):
                        zariski_oracle(model, d)
                    continue
                slow = zariski_oracle(model, d)
                assert fast == slow

    def test_oracle_agrees_on_random_effective_divisors(self, rng):
        for trial in range(60):
            sizes = rng.choice(self.SIZE_CHOICES)
            model = block_model(
                rng, sizes, extra_multiples=rng.randint(0, 2), name=f"t{trial}"
            )
            d = effective_combination(rng, model)
            fast = zariski_decompose(model, d)
            slow = zariski_oracle(model, d)
            assert fast == slow
            check_defining_properties(model, d, fast)

    def test_rational_multiples_scale_both_parts(self, rng):
        # D = P + N gives c*D = c*P + c*N for rational c > 0; the solve
        # clears the denominator of c*D
        for trial in range(30):
            model = block_model(rng, rng.choice(self.SIZE_CHOICES), name=f"q{trial}")
            d = effective_combination(rng, model)
            c = Q(rng.randint(1, 7), rng.randint(2, 9))
            dec = zariski_decompose(model, d)
            scaled = zariski_decompose(model, c * d)
            assert scaled == zariski_oracle(model, c * d)
            assert scaled.positive == c * dec.positive
            assert scaled.negative == c * dec.negative

    def test_oracle_runs_at_scale(self, rng):
        # the least-point program grows polynomially with the curves, where a
        # search over curve subsets would not end: the plane blown up in 20,
        # 30 and 40 points with D = 3L + 2 sum E_i, and seeded chains and
        # trees of 12 to 30 curves with effective divisors that pair with
        # the curves in both signs
        for points in (20, 30, 40):
            model = blown_up_plane(points)
            d = model.divisor([3] + [2] * points)
            dec = zariski_oracle(model, d)
            assert dec == zariski_decompose(model, d)
            assert dec.support == tuple(range(points))
            assert set(dec.coefficients) == {2}
        for trial in range(8):
            build = plumbing_chain if trial % 2 else plumbing_tree
            model = build(rng, rng.randint(12, 30))
            for _ in range(3):
                d = effective_class(rng, model)
                dec = zariski_oracle(model, d)
                assert dec == zariski_decompose(model, d)
                check_defining_properties(model, d, dec)

    @pytest.mark.parametrize("route", [zariski_decompose, zariski_oracle])
    def test_a_class_of_another_rank_raises_rank_mismatch(self, fixture_models, route):
        # with an ample reference the pseudo-effectivity check pairs D
        # first; without one the curve pairings do
        f2, plane = fixture_models["hirzebruch_f2"], blown_up_plane(2)
        assert f2.ample_reference is not None and plane.ample_reference is None
        for model in (f2, plane):
            for rank in (model.rank - 1, model.rank + 1):
                with pytest.raises(RankMismatch):
                    route(model, DivisorClass.of([1] * rank))

    def test_idempotence_on_random_draws(self, rng):
        for trial in range(20):
            model = block_model(rng, [rng.randint(2, 4)], name=f"i{trial}")
            d = effective_combination(rng, model)
            dec = zariski_decompose(model, d)
            again = zariski_decompose(model, dec.positive)
            assert again.negative.is_zero


@pytest.fixture
def pivots(monkeypatch):
    """Every simplex pivot of the oracle, as (leaving basic variable, its
    rhs, the pivot entry), recorded before the pivot."""
    seen = []
    pivot = zariski._pivot

    def spy(rows, basis, cost, det, leave, enter):
        seen.append((basis[leave], rows[leave][-1], rows[leave][enter]))
        return pivot(rows, basis, cost, det, leave, enter)

    monkeypatch.setattr(zariski, "_pivot", spy)
    return seen


def least_point(model, expression):
    d = surface_io.parse_divisor(model, expression)
    dc, _ = model.scaled_curve_pairings(d)
    return d, dc, zariski._least_point(model.curve_pairings, dc)


class TestLinearProgram:
    """One test per branch of the oracle's two-phase simplex. Columns are
    the r curve coefficients, then the r slacks, then the artificials."""

    def test_nef_divisor_needs_no_artificial(self, fixture_models, pivots):
        model = fixture_models["ade_e8"]
        d, dc, solved = least_point(model, "h")
        assert min(dc) == 0
        assert solved == (1, {})
        assert pivots == []
        assert zariski_oracle(model, d) == zariski_decompose(model, d)

    def test_artificials_find_the_negative_part(self, fixture_models, pivots):
        # f + s meets s negatively: phase one pivots the artificial of s out
        model = fixture_models["hirzebruch_f2"]
        d, dc, solved = least_point(model, "f + s")
        assert dc == [1, -1]
        det, x = solved
        assert {i: Q(v, det) for i, v in x.items()} == {1: Q(1, 2)}
        assert pivots and pivots[0][0] == 2 * len(dc)
        dec = zariski_oracle(model, d)
        assert dec == zariski_decompose(model, d)
        assert dec.coefficients == (Q(1, 2),)

    def test_infeasible_program_is_not_pseudo_effective(self, fixture_models, capsys):
        # f - s passes the ample-reference check (it pairs 0 with 3f + s), but
        # no N >= 0 makes (f - s - N).f = -1 - N_s nonnegative
        model = fixture_models["hirzebruch_f2"]
        d, dc, solved = least_point(model, "f - s")
        assert model.is_pseudo_effective_model(d)
        assert solved is None
        with pytest.raises(NotPseudoEffective):
            zariski_oracle(model, d)
        argv = ["zariski", "--surface", "hirzebruch_f2", "--divisor", "f-s", "--oracle"]
        assert run_subcommand(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_degenerate_vertex(self, fixture_models, pivots):
        # h + c1 pairs 0 with c3..c8, off the support, so their slacks are
        # basic at level 0. Entering c1 ties the ratio of its artificial (2/2)
        # with that of the slack of c2 (1/1); Bland's rule lets the slack, the
        # lesser basic variable, leave
        model = fixture_models["ade_e8"]
        d, dc, solved = least_point(model, "h + c1")
        assert dc == [1, -2, 1, 0, 0, 0, 0, 0, 0]
        assert pivots[0] == (len(dc) + 2, 1, 1)
        det, x = solved
        assert {i: Q(v, det) for i, v in x.items()} == {1: Q(1)}
        assert zariski_oracle(model, d) == zariski_decompose(model, d)

    def test_zero_level_artificial_is_driven_out(self, fixture_models, pivots):
        # 3E on the blown-up plane: E enters on a tie between its own
        # artificial and the slack of L, the slack leaves, and the artificial
        # stays basic at level 0 with the entry -1 under L in its row
        model = fixture_models["blowup_p2"]
        d, dc, solved = least_point(model, "3*E")
        assert dc == [-3, 3]
        assert solved == (1, {0: 3})
        artificial = 2 * len(dc)
        assert (artificial, 0, 1) in pivots
        dec = zariski_oracle(model, d)
        assert dec == zariski_decompose(model, d)
        assert dec.positive.is_zero

    @pytest.mark.parametrize("points", [30, 40])
    def test_cli_oracle_on_many_curves(self, tmp_path, capsys, points):
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(surface_io.surface_to_data(blown_up_plane(points))))
        argv = ["zariski", "--surface", str(path), "--divisor",
                ",".join(["3"] + ["2"] * points), "--json"]
        assert run_subcommand(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        started = time.monotonic()
        assert run_subcommand(argv + ["--oracle"]) == 0
        assert time.monotonic() - started < 2.0
        checked = json.loads(capsys.readouterr().out)
        assert checked.pop("oracle_checked") is True
        assert plain.pop("oracle_checked") is False
        assert checked == plain
