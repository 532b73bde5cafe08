from fractions import Fraction

import numpy as np
import pytest

from lambda_osc.params import PhysicalParams
from lambda_osc.spectrum import (
    bound_count,
    chain_parameter,
    chain_remainder,
    continuous_curve,
    energies,
    energy,
    ladder_energies,
)


class TestClosedFormEnergies:
    def test_published_04(self):
        t = energies(0.4, 2)
        assert t.energies == pytest.approx([0.5, 1.3, 1.7], abs=1e-15)
        assert all(lv.bound for lv in t.levels)

    def test_published_03(self):
        t = energies(0.3, 3)
        assert t.energies == pytest.approx([0.5, 1.35, 1.90, 2.15], abs=1e-15)

    def test_published_08(self):
        t = energies(0.8, 1)
        assert t.energies == pytest.approx([0.5, 1.1], abs=1e-15)

    def test_undeformed(self):
        t = energies(0, 6)
        assert t.energies == [Fraction(2 * m + 1, 2) for m in range(7)]

    def test_zero_point_for_any_deformation(self):
        for lam in (-1.7, -0.3, 0.0, 0.3, 2.5):
            assert float(energy(lam, 0)) == 0.5

    def test_unbound_flagging(self):
        t = energies(0.3, 6)
        assert [lv.bound for lv in t.levels] == [True] * 4 + [False] * 3

    def test_spacings(self):
        # 1 - (m + 1/2) lam within the bound range, and the negative-sign
        # counterpart 1 + (m + 1/2)|lam|
        t = energies(Fraction(3, 10), 3)
        assert t.spacings == [1 - Fraction(2 * m + 1, 2) * Fraction(3, 10)
                              for m in range(3)]
        tn = energies(Fraction(-3, 10), 5)
        assert tn.spacings == [1 + Fraction(2 * m + 1, 2) * Fraction(3, 10)
                               for m in range(5)]

    def test_figure_ordering(self):
        # negative deformation lies above the linear oscillator, positive
        # below, for every excited level
        for m in range(1, 9):
            assert float(energy(-0.3, m)) > float(energy(0, m)) > float(energy(0.3, m))

    def test_monotone_in_bound_range(self):
        es = energies(0.15, 6).energies
        assert all(a < b for a, b in zip(es, es[1:]))
        es = energies(-0.4, 10).energies
        assert all(a < b for a, b in zip(es, es[1:]))

    def test_curve_maximum_at_reciprocal_deformation(self):
        for lam in (0.3, 0.15, 0.8):
            grid = np.linspace(0.0, 2.5 / lam, 200_001)
            curve = continuous_curve(lam, grid)
            m_star = max(curve, key=lambda p: p[1])[0]
            assert m_star == pytest.approx(1.0 / lam, abs=grid[1] - grid[0])


class TestBoundCount:
    @pytest.mark.parametrize(
        "lam,expected",
        [
            (1.0, 1), (1.5, 1), (0.8, 2), (0.5, 2), (0.45, 3),
            (Fraction(1, 3), 3), (0.3, 4), (0.25, 4), (0.15, 7),
        ],
    )
    def test_published_counts(self, lam, expected):
        assert bound_count(lam) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bound_count(0)
        with pytest.raises(ValueError):
            bound_count(0.0)
        with pytest.raises(ValueError):
            bound_count(-0.3)


class TestLadderEnergies:
    def test_ground_energy_is_zero(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=0.3)
        assert ladder_energies(p, 0) == [0]

    def test_undeformed_is_equispaced(self):
        p = PhysicalParams(m=1.0, alpha=1.0, hbar=1.0, lam=0.0)
        assert ladder_energies(p, 5) == pytest.approx([0, 1, 2, 3, 4, 5])

    def test_literal_summation_example(self):
        # independent oracle: R(alpha_k) = (1 - 0.3 k) + 0.15 summed by hand
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=Fraction(3, 10))
        remainders = [
            1 - Fraction(3, 10) * k + Fraction(3, 20) for k in (1, 2, 3)
        ]
        assert sum(remainders) == Fraction(33, 20)  # 1.65
        assert ladder_energies(p, 3)[3] == Fraction(33, 20)

    @pytest.mark.parametrize(
        "lam",
        [Fraction(3, 10), Fraction(-3, 10), Fraction(1, 10),
         Fraction(-1, 10), Fraction(1, 20)],
    )
    def test_exact_agreement_with_closed_form(self, lam):
        p = PhysicalParams(m=Fraction(1), alpha=Fraction(1), hbar=Fraction(1),
                           lam=lam)
        chain = ladder_energies(p, 20)
        for n, e_chain in enumerate(chain):
            assert e_chain + Fraction(1, 2) == energy(lam, n)

    def test_float_agreement(self):
        p = PhysicalParams(m=1.0, alpha=1.0, hbar=1.0, lam=0.3)
        chain = ladder_energies(p, 20)
        for n, e_chain in enumerate(chain):
            closed = float(energy(0.3, n)) - 0.5
            assert e_chain == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_physical_units_scale(self):
        p = PhysicalParams(m=Fraction(2), alpha=Fraction(3), hbar=Fraction(1, 2),
                           lam=Fraction(3, 5))
        lam_adim = p.lam_adim
        chain = ladder_energies(p, 6)
        for n, e_chain in enumerate(chain):
            expected = (energy(lam_adim, n) - Fraction(1, 2)) * p.hbar * p.alpha
            assert e_chain == expected

    def test_chain_pieces(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=Fraction(3, 10))
        assert chain_parameter(p, 2) == Fraction(2, 5)
        assert chain_remainder(p, Fraction(2, 5)) == Fraction(2, 5) + Fraction(3, 20)
