import math
from fractions import Fraction

import numpy as np
import pytest

from lambda_osc.hermite import generating_coeffs
from lambda_osc.wavefunctions import (
    WaveFunction,
    eigen_equation_residual,
    envelope,
    evaluate,
    gram_matrix,
    mu_inner,
    nodes,
    norm_constant,
    wavefunction,
)


class TestEnvelope:
    def test_origin_is_one(self):
        for lam in (-0.9, -1e-12, 0.0, 1e-12, 2.5):
            assert envelope(0.0, lam) == 1.0

    def test_gaussian_limit(self):
        assert envelope(2.0, 0.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_unit_deformation(self):
        assert envelope(1.0, 1.0) == pytest.approx(2.0**-0.5, rel=1e-15)

    def test_branch_continuity(self):
        # values on either side of the switch threshold agree up to the
        # analytic gap between the two forms, lam*y^4/4 at the threshold
        for y in (0.5, 1.5, 3.0):
            below = envelope(y, 0.99e-8)
            above = envelope(y, 1.01e-8)
            gap = 1.01e-8 * y**4 / 4
            assert below == pytest.approx(above, rel=2 * gap + 1e-12)

    def test_vanishes_at_negative_wall(self):
        assert envelope(0.9999999999, -1.0) < 1e-4


class TestEvaluate:
    def test_ground_state_origin(self):
        for lam in (-0.5, 0.0, 0.3, 2.0):
            w = wavefunction(0, lam)
            assert evaluate(w, 0.0) == 1.0

    def test_small_deformation_limit_matches_gaussian_hermite(self):
        # first excited value tends to 2 y exp(-y^2/2)
        w = wavefunction(1, 1e-12)
        assert evaluate(w, 1.0) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-9)

    def test_domain_rejection(self):
        w = wavefunction(0, -0.25)  # walls at +-2
        assert evaluate(w, 1.99) > 0
        with pytest.raises(ValueError):
            evaluate(w, 2.0)
        with pytest.raises(ValueError):
            evaluate(w, -2.5)

    def test_unbound_index_rejected(self):
        with pytest.raises(ValueError):
            wavefunction(2, 0.5)
        with pytest.raises(ValueError):
            WaveFunction(4, 0.3)

    def test_exact_mode_polynomial(self):
        w = wavefunction(2, Fraction(3, 10))
        assert w.poly.coefficient(2) == Fraction(14, 5)  # 4(1 - 3/10)
        assert w.envelope_exponent == Fraction(-5, 3)

    def test_boundary_decay_monotone(self):
        # the last percent of the domain decays monotonically to zero
        w = wavefunction(3, -0.3)
        a = w.half_width
        ys = np.linspace(0.99 * a, a * (1 - 1e-9), 50)
        vals = np.abs(w(ys))
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-12 * np.max(np.abs(w(np.linspace(0, a * 0.9, 100))))


class TestNodes:
    def test_ground_state_has_none(self):
        assert nodes(wavefunction(0, 0.4)) == []

    def test_first_excited_origin(self):
        assert nodes(wavefunction(1, -0.7)) == [0.0]

    def test_published_quadratic_roots(self):
        got = nodes(wavefunction(2, 0.3))
        expect = 1.0 / math.sqrt(2 * 0.7)
        assert got == pytest.approx([-expect, expect], abs=1e-12)

    def test_closed_root_negative_deformation(self):
        got = nodes(wavefunction(2, -0.5))
        expect = 1.0 / math.sqrt(3.0)
        assert got == pytest.approx([-expect, expect], abs=1e-12)

    def test_count_parity_and_domain(self):
        for lam, m in ((-0.3, 7), (-0.1, 6), (0.1, 8), (0.15, 5)):
            w = wavefunction(m, lam)
            ns = nodes(w)
            assert len(ns) == m
            assert ns == sorted(ns)
            assert np.allclose(sorted(-x for x in ns), ns)  # symmetric set
            if w.half_width is not None:
                assert all(abs(x) < w.half_width for x in ns)

    def test_roots_are_simple_zeros(self):
        w = wavefunction(5, -0.2)
        for r in nodes(w):
            left, right = w.poly_values(r - 1e-7), w.poly_values(r + 1e-7)
            assert left * right < 0

    @pytest.mark.parametrize(
        "lam, m",
        [(-0.9, 30), (-0.9, 44), (-0.3, 40), (-0.5, 60), (0.05, 19), (0.0, 30)],
    )
    def test_values_between_zeros_match_exact(self, lam, m):
        # midway between zeros the exact member is as far from zero as it
        # gets locally; float monomial coefficients cancel there at lam < 0
        # and high index
        w = wavefunction(m, lam)
        ns = nodes(w)
        mids = [(a + b) / 2 for a, b in zip(ns, ns[1:])]
        poly = generating_coeffs(m, Fraction(lam))[m]
        exact = np.array([float(poly.evaluate_exact(Fraction(y))) for y in mids])
        got = w.poly_values(np.array(mids))
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12

    @pytest.mark.parametrize(
        "lam, m",
        [("0", 15), ("0", 40), ("1/20", 19), ("1/100000", 40), ("-9/10", 60)],
    )
    def test_high_index_zeros_are_exact_sign_changes(self, lam, m):
        # high indices at both signs and near zero deformation: each
        # returned zero must bracket a sign change of the exact member
        lam = Fraction(lam)
        ns = nodes(wavefunction(m, float(lam)))
        assert len(ns) == m
        assert all(a < b for a, b in zip(ns, ns[1:]))
        if lam < 0:
            assert all(abs(x) < 1 / math.sqrt(-lam) for x in ns)
        poly = generating_coeffs(m, lam)[m]
        for r in ns:
            r, eps = Fraction(r), Fraction(max(abs(r), 1) * 1e-12)
            assert poly.evaluate_exact(r - eps) * poly.evaluate_exact(r + eps) < 0


class TestInnerProducts:
    def test_symmetry(self):
        w1, w3 = wavefunction(1, -0.3), wavefunction(3, -0.3)
        assert mu_inner(w1, w3) == mu_inner(w3, w1)

    def test_mixed_deformation_rejected(self):
        with pytest.raises(ValueError):
            mu_inner(wavefunction(0, 0.1), wavefunction(0, 0.2))

    def test_norm_constant_ignores_earlier_calls(self):
        # a coarse call first must not leak into the default-tolerance one
        w = wavefunction(6, 0.1)
        norm_constant(w, rtol=1e-2)
        c1 = norm_constant(w)
        assert c1 == norm_constant(wavefunction(6, 0.1))
        assert c1 > 0
        # normalizing makes the self-inner-product one
        assert c1 * c1 * mu_inner(w, w) == pytest.approx(1.0, rel=1e-9)

    # 1/2.1, 1/4.1, 1/5.3 and 1/8.25 sit near the continuum threshold and
    # need rules of 4096 to 8192 nodes; at 1/4.1 the outer nodes reach
    # |y| ~ 1e93, where the polynomial factor alone overflows
    @pytest.mark.parametrize(
        "lam", [-0.3, -0.1, 0.1, 0.3, 1 / 2.1, 1 / 4.1, 1 / 5.3, 1 / 8.25]
    )
    def test_gram_offdiagonals(self, lam):
        g = gram_matrix(lam, max_index=8)
        n = g.shape[0]
        expected_n = {0.3: 4, 1 / 2.1: 3, 1 / 4.1: 5, 1 / 5.3: 6}.get(lam, 9)
        assert n == expected_n
        off = np.abs(g - np.eye(n))
        assert np.max(off) <= 1e-8
        assert np.allclose(np.diag(g), 1.0)


class TestEigenEquation:
    @pytest.mark.parametrize(
        "lam,m_top",
        [(Fraction(3, 10), 3), (Fraction(-3, 10), 8),
         (Fraction(1, 10), 9), (Fraction(-1, 10), 8)],
    )
    def test_residual_small(self, lam, m_top):
        if lam < 0:
            wall = 1.0 / math.sqrt(-float(lam))
            ys = np.linspace(-0.98 * wall, 0.98 * wall, 50)
        else:
            ys = np.linspace(-4.0, 4.0, 50)
        for m in range(m_top + 1):
            assert eigen_equation_residual(m, lam, ys) <= 1e-9

    def test_zero_deformation_rejected(self):
        with pytest.raises(ValueError):
            eigen_equation_residual(1, 0, [0.5])

    def test_wrong_eigenvalue_fails(self):
        # sanity: the residual is actually sensitive to the eigenvalue
        from lambda_osc.hermite import generating_coeffs
        from lambda_osc.polynomials import LadderFunction

        lam = Fraction(3, 10)
        poly = generating_coeffs(2, lam)[2]
        psi = LadderFunction(lam, -1 / (2 * lam), poly)
        dd = psi.differentiate().differentiate()
        ys = np.asarray([0.7])
        z = 1 + 0.3 * ys**2
        wrong_e = 1.95
        resid = (
            z * dd(ys)
            + 0.3 * ys * psi.differentiate()(ys)
            - 1.3 * ys**2 / z * psi(ys)
            + 2 * wrong_e * psi(ys)
        )
        assert abs(float(resid[0])) > 1e-3
