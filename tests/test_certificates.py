"""Zariski decompositions checked by certificates that share no code with
the package: tests/certificates.py reads only the Gram matrix and the curve
coordinates. The package only finds the definiteness certificate."""

from __future__ import annotations

import pytest

from surfbound import lattice, surface_io
from surfbound.zariski import zariski_decompose

from certificates import CertificateError, check_negative_definite, check_zariski
from generators import du_val_chain, effective_class


def witness(model, support) -> list[int]:
    """y = adj(-G).1 for the Gram block G of the support, which is positive
    entrywise when -G is a nonsingular M-matrix."""
    eliminated = lattice.negated_elimination(model.curve_gram(support))
    assert eliminated is not None
    return lattice.adjugate_solve(eliminated[1], [1] * len(support))


def check(model, d, dec, coefficients=None) -> None:
    """Check the decomposition dec of d; coefficients, when given, replace
    those of N in what the certificate is shown."""
    check_zariski(
        model.gram,
        [c.coords for c in model.curves],
        d.coords,
        dec.positive.coords,
        dec.support,
        dec.coefficients if coefficients is None else coefficients,
        witness(model, dec.support),
    )


def certify(model, d):
    dec = zariski_decompose(model, d)
    check(model, d, dec)
    return dec


def growing_divisor(model, n):
    """h + 3(c1 + ... + cn) on the chain A_n: only the end curves meet it
    negatively, and the support grows inward by one curve a side a round."""
    return model.divisor_from_curves({0: 1, **{i: 3 for i in range(1, n + 1)}})


class TestZariskiCertificate:
    def test_every_fixture_on_seeded_effective_divisors(self, rng):
        supported = 0
        for name in surface_io.fixture_names():
            model = surface_io.load_fixture(name)
            for _ in range(8):
                supported += bool(certify(model, effective_class(rng, model)).support)
        # the draws reach negative parts, not only nef divisors
        assert supported >= 100

    @pytest.mark.parametrize("n", [40, 100])
    def test_support_growing_over_many_rounds(self, n, monkeypatch):
        model = du_val_chain(n)
        eliminate, blocks = lattice.negated_elimination, []

        def counted(m):
            blocks.append(len(m))
            return eliminate(m)

        monkeypatch.setattr(lattice, "negated_elimination", counted)
        dec = certify(model, growing_divisor(model, n))
        # one elimination a round, and the witness's last
        assert blocks[:3] == [2, 4, 6] and len(blocks) == n // 2 + 1
        assert dec.support == tuple(range(1, n + 1)) and set(dec.coefficients) == {3}


class TestCertificatesRejectMutants:
    """Each mutant of a true certificate fails its check."""

    def test_one_n_coefficient_off_by_one(self):
        model = du_val_chain(40)
        d = growing_divisor(model, 40)
        dec = certify(model, d)
        for k in range(len(dec.support)):
            for step in (-1, 1):
                coefficients = list(dec.coefficients)
                coefficients[k] += step
                with pytest.raises(CertificateError):
                    check(model, d, dec, coefficients)

    @pytest.mark.parametrize("name", ["ade_a4", "ade_d6", "ade_e8"])
    def test_a_block_with_one_diagonal_entry_raised_to_zero(self, name):
        model = surface_io.load_fixture(name)
        support = tuple(range(1, len(model.curves)))
        block = model.curve_gram(support)
        y = witness(model, support)
        check_negative_definite(block, y)
        for i in range(len(support)):
            raised = [list(row) for row in block]
            raised[i][i] = 0
            for certificate in (y, [1] * len(support)):
                with pytest.raises(CertificateError):
                    check_negative_definite(raised, certificate)
