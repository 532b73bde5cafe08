import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lambda_osc.wavefunctions as wf
from lambda_osc.exact import horner
from lambda_osc.hermite import generating_coeffs
from lambda_osc.wavefunctions import (
    WaveFunction,
    eigen_equation_residual,
    envelope,
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
        # values at two nearby small deformations agree up to the first
        # term of the deformation, lam*y^4/4
        for y in (0.5, 1.5, 3.0):
            below = envelope(y, 0.99e-8)
            above = envelope(y, 1.01e-8)
            gap = 1.01e-8 * y**4 / 4
            assert below == pytest.approx(above, rel=2 * gap + 1e-12)

    def test_vanishes_at_negative_wall(self):
        assert envelope(0.9999999999, -1.0) < 1e-4

    @pytest.mark.parametrize("y,lam", [(8.0, 1e-9), (3.0, -1e-9)])
    def test_small_deformation_keeps_its_correction(self, y, lam):
        # -log1p(lam y^2)/(2 lam) to third order; the Gaussian alone is off
        # by lam*y^4/4 relative (1.0e-6 at y = 8)
        series = -y**2 / 2 + lam * y**4 / 4 - lam**2 * y**6 / 6
        assert envelope(y, lam) == pytest.approx(math.exp(series), rel=1e-13,
                                                 abs=0)

    @pytest.mark.parametrize("lam", [5e-324, -5e-324])
    def test_subnormal_deformation_is_the_gaussian(self, lam):
        # lam*y^2 and its ratio to 2 lam lose their digits below the
        # smallest normal float; exp(-1) at -5e-324 if the log1p form ran
        assert envelope(1.5, lam) == math.exp(-1.125)


class TestEvaluate:
    def test_ground_state_origin(self):
        for lam in (-0.5, 0.0, 0.3, 2.0):
            w = wavefunction(0, lam)
            assert w(0.0) == 1.0

    def test_small_deformation_limit_matches_gaussian_hermite(self):
        # first excited value tends to 2 y exp(-y^2/2)
        w = wavefunction(1, 1e-12)
        assert w(1.0) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-9)

    def test_unbound_index_rejected(self):
        with pytest.raises(ValueError):
            wavefunction(2, 0.5)
        with pytest.raises(ValueError):
            WaveFunction(4, 0.3)

    def test_exact_mode_polynomial(self):
        h2 = generating_coeffs(2, Fraction(3, 10))[2]
        assert h2.coefficient(2) == Fraction(14, 5)  # 4(1 - 3/10)

    def test_float_lambda_builds_no_coefficients(self, monkeypatch):
        # values, zeros and overlaps come from the recursion, with no
        # exact polynomial factor
        def refuse(*args, **kwargs):
            raise AssertionError("generating_coeffs called")

        # wavefunctions imports it where it runs, so patch it at the source
        monkeypatch.setattr("lambda_osc.hermite.generating_coeffs", refuse)
        w = wavefunction(60, -0.5)
        assert np.all(np.isfinite(w(np.linspace(-1.0, 1.0, 101))))
        assert len(nodes(w)) == 60
        w2 = wavefunction(2, -0.5)
        assert mu_inner(w2, w2) > 0.0

    def test_boundary_decay_monotone(self):
        # the last percent of the domain decays monotonically to zero
        w = wavefunction(3, -0.3)
        a = w.deformation.half_width
        ys = np.linspace(0.99 * a, a * (1 - 1e-9), 50)
        vals = np.abs(w(ys))
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-12 * np.max(np.abs(w(np.linspace(0, a * 0.9, 100))))


class TestNodes:
    def test_ground_state_has_none(self):
        assert nodes(wavefunction(0, 0.4)) == []

    def test_memory_is_linear_in_the_index(self):
        # the tridiagonal solve keeps O(m) arrays; a dense Jacobi matrix
        # alone would be 128 MB at m = 4000
        nodes(wavefunction(3, -0.1))  # loads the LAPACK binding first
        tracemalloc.start()
        try:
            got = nodes(wavefunction(4000, -0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 4000
        assert peak < 2**20

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
            wall = w.deformation.half_width
            if wall is not None:
                assert all(abs(x) < wall for x in ns)

    def test_roots_are_simple_zeros(self):
        w = wavefunction(5, -0.2)
        for r in nodes(w):
            # the envelope is positive, so w changes sign with its polynomial
            left, right = w(r - 1e-7), w(r + 1e-7)
            assert left * right < 0

    @pytest.mark.parametrize(
        "lam, m",
        [(-0.9, 30), (-0.9, 44), (-0.3, 40), (-0.5, 60), (0.05, 19), (0.0, 30)],
    )
    def test_values_between_zeros_match_exact(self, lam, m):
        # midway between zeros the exact member is as far from zero as it
        # gets locally, so the recursion's relative error shows there
        w = wavefunction(m, lam)
        ns = nodes(w)
        mids = np.array([(a + b) / 2 for a, b in zip(ns, ns[1:])])
        poly = generating_coeffs(m, Fraction(lam))[m]
        exact = np.array([n / d for n, d in horner(
            poly.coeffs, map(float.as_integer_ratio, mids.tolist()))])
        exact *= envelope(mids, lam)
        got = w(mids)
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
            # (num, den) with den > 0, so the numerators carry the signs
            (lo, _), (hi, _) = horner(poly.coeffs, [
                (r - eps).as_integer_ratio(), (r + eps).as_integer_ratio()])
            assert lo * hi < 0


class TestInnerProducts:
    def test_symmetry(self):
        w1, w3 = wavefunction(1, -0.3), wavefunction(3, -0.3)
        assert mu_inner(w1, w3) == mu_inner(w3, w1)

    def test_mixed_deformation_rejected(self):
        with pytest.raises(ValueError):
            mu_inner(wavefunction(0, 0.1), wavefunction(0, 0.2))

    def test_norm_constant_ignores_earlier_calls(self):
        # a quadrature call first must not leak into the norm
        w = wavefunction(6, 0.1)
        mu_inner(w, w)
        c1 = norm_constant(w)
        assert c1 == norm_constant(wavefunction(6, 0.1))
        assert c1 > 0
        # normalizing makes the self-inner-product one
        assert c1 * c1 * mu_inner(w, w) == pytest.approx(1.0, rel=1e-9)

    # 1/2.1, 1/4.1, 1/5.3 and 1/8.25 sit near the continuum threshold
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

    @pytest.mark.parametrize("lam", [-0.3, 0.0, 0.3])
    def test_gram_negative_index_refused(self, lam):
        # refused up front, not as numpy's error on an empty matrix
        with pytest.raises(ValueError, match="index must be nonnegative"):
            gram_matrix(lam, max_index=-1)


def _central_binomial_over_4k(k):
    """C(2k, k) / 4^k as a float, from the exact integer."""
    c = math.comb(2 * k, k)
    shift = max(c.bit_length() - 64, 0)
    return math.ldexp(c >> shift, shift - 2 * k)


def _exact_norm_ratio(i, j, lam):
    """<h_i, h_j> / M_0 as an exact rational, from the moment recursion
    M_{2J+2} / M_{2J} = (J + 1/2) / (1 - (J + 1) lam) (DLMF 5.12)."""
    hi, hj = generating_coeffs(i, lam)[i], generating_coeffs(j, lam)[j]
    moments = [Fraction(1)]
    for big_j in range((i + j) // 2):
        moments.append(
            moments[-1] * (big_j + Fraction(1, 2)) / (1 - (big_j + 1) * lam))
    return sum(
        hi.coefficient(k) * hj.coefficient(n) * moments[(k + n) // 2]
        for k in range(i + 1) for n in range(j + 1) if (k + n) % 2 == 0
    )


def _closed_form_ratio(m, lam):
    """m! prod_{k<m} (2 - k lam) / (1 - m lam)."""
    return math.factorial(m) * math.prod(
        2 - k * lam for k in range(m)) / (1 - m * lam)


class TestClosedFormNorms:
    @pytest.mark.parametrize("lam, m", [
        (0.3, 2), (-0.3, 3), (0.2, 4), (-0.9, 5), (-0.9, 8), (0.1, 0),
        (0.1, 6), (1 / 2.25, 2), (1 / 2.1, 2), (1 / 5.3, 5)])
    def test_agrees_with_quadrature(self, lam, m):
        w = wavefunction(m, lam)
        assert norm_constant(w) ** 2 * mu_inner(w, w) == pytest.approx(
            1.0, rel=1e-9)

    @pytest.mark.parametrize("k", [10, 10**3, 10**5])
    def test_mass_exact_integer_reference(self, k):
        # lam = 1/K: M_0 = sqrt(K) B(1/2, K) = sqrt(K) 4^K K!(K-1)!/(2K)!;
        # lam = -1/K: M_0 = sqrt(K) B(1/2, K + 1/2) = sqrt(K) pi (2K)!/(4^K K!^2)
        ratio = _central_binomial_over_4k(k)
        positive = 1 / (math.sqrt(k) * ratio)
        negative = math.sqrt(k) * math.pi * ratio
        assert wf.measure_mass(1 / k) == pytest.approx(positive, rel=1e-13)
        assert wf.measure_mass(-1 / k) == pytest.approx(negative, rel=1e-13)

    @pytest.mark.parametrize("lam", [1e-6, -1e-6, 1e-9, -1e-9])
    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_continuous_at_zero_deformation(self, lam, m):
        hermite = 1 / math.sqrt(2**m * math.factorial(m) * math.sqrt(math.pi))
        assert norm_constant(wavefunction(m, 0.0)) == pytest.approx(
            hermite, rel=1e-15)
        # the closed form moves by about |lam|(1/8 + m + m(m-1)/4)/2
        got = norm_constant(wavefunction(m, lam))
        assert abs(got / hermite - 1) <= (1 + m * m) * abs(lam)

    @pytest.mark.parametrize("lam", [-1e-320, -5e-324, 5e-324])
    def test_subnormal_mass_is_the_gaussian_one(self, lam):
        # b = 1/|lam| overflows there, and M_0 used to come out as 0.0
        assert wf.measure_mass(lam) == math.sqrt(math.pi)

    def test_negative_subnormal_norm_is_the_harmonic_one(self):
        # a zero M_0 used to make this a ZeroDivisionError
        assert norm_constant(wavefunction(2, -1e-320)) == norm_constant(
            wavefunction(2, 0.0))

    @pytest.mark.parametrize("lam", [0.05, 0.01, 1e-3])
    def test_small_positive_deformation(self, lam):
        n_max = wavefunction(0, lam).deformation.n_max
        start = time.perf_counter()
        cs = [norm_constant(wavefunction(m, lam)) for m in range(n_max + 1)]
        assert time.perf_counter() - start < 1e-3 * len(cs)
        for m in (0, 1, 5, min(n_max, 60)):
            want = wf.measure_mass(lam) * _closed_form_ratio(m, lam)
            assert cs[m] == pytest.approx(1 / math.sqrt(want), rel=1e-12)
        assert all(c > 0 for c in cs[:61])
        # at lam = 1e-3 the top norms pass 2^2200 and the constant is 0.0
        assert (cs[-1] == 0.0) == (lam == 1e-3)

    def test_huge_index_is_bounded_work(self):
        start = time.perf_counter()
        assert norm_constant(wavefunction(10**9 - 1, 1e-9)) == 0.0
        assert time.perf_counter() - start < 0.05


class TestNormalized:
    @pytest.mark.parametrize("lam", [-0.5, 1e-3])
    def test_matches_closed_form_norm(self, lam):
        w = wavefunction(150, lam)
        wall = w.deformation.half_width
        top = 0.999 * wall if wall else 25.0
        ys = np.linspace(-top, top, 401)
        want = w(ys) * norm_constant(w)
        peak = np.max(np.abs(want))
        assert np.max(np.abs(w.normalized(ys) - want)) <= 1e-12 * peak

    def test_in_float_range_past_the_unnormalized_overflow(self):
        # psi_200 at lam = -1/2 overflows unnormalized, and its squared norm
        # (about 1e690) is past float range; compare in logarithms with the
        # exact polynomial and the exact ratio <h, h> / M_0
        m, lam = 200, Fraction(-1, 2)
        w = wavefunction(m, float(lam))
        ys = np.linspace(-1.4, 1.4, 29)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(w(ys)))
        got = w.normalized(ys)
        assert np.all(np.isfinite(got))
        ratio = math.factorial(m) * math.prod(
            2 - k * lam for k in range(m)) / (1 - m * lam)
        log_norm = (math.log(ratio.numerator) - math.log(ratio.denominator)
                    + math.log(wf.measure_mass(float(lam)))) / 2
        poly = generating_coeffs(m, lam)[m]
        want = []
        for y in ys.tolist():
            h = Fraction(*horner(poly.coeffs, [y.as_integer_ratio()])[0])
            log_abs = (math.log(abs(h.numerator)) - math.log(h.denominator)
                       + math.log(envelope(y, float(lam))) - log_norm)
            want.append(math.exp(log_abs) * (1 if h > 0 else -1))
        want = np.array(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("lam, m", [(-0.5, 150), (0.3, 3), (0.01, 60)])
    def test_unit_measure_norm_by_quadrature(self, lam, m):
        # the orthonormal factor on the overlap's own rule; the plain one
        # would not do at (-0.5, 150), whose squared norm is about 1e690
        from lambda_osc.quadrature import integrate_measure

        def overlap(a, b):
            return integrate_measure(
                lambda t: a.factor(t, True) * b.factor(t, True), lam,
                a.m + b.m)

        w, v = wavefunction(m, lam), wavefunction(m - 2, lam)
        assert overlap(w, w) == pytest.approx(1.0, abs=1e-12)
        assert abs(overlap(w, v)) <= 1e-12


class TestExactOrthogonality:
    @pytest.mark.parametrize("lam, top", [
        (Fraction(1, 5), 4), (Fraction(2, 7), 3), (Fraction(-3, 7), 8),
        (Fraction(-1, 3), 8)])
    def test_gram_is_diagonal_with_closed_form_norms(self, lam, top):
        assert wavefunction(0, lam).deformation.n_max in (top, None)
        for i in range(top + 1):
            for j in range(i, top + 1):
                value = _exact_norm_ratio(i, j, lam)
                if i != j:
                    assert value == 0
                else:
                    assert value == _closed_form_ratio(i, lam)


class TestEigenEquation:
    @pytest.mark.parametrize(
        "lam,m_top",
        [(Fraction(3, 10), 3), (Fraction(-3, 10), 8),
         (Fraction(1, 10), 9), (Fraction(-1, 10), 8),
         (Fraction(0), 8)],  # the Gaussian limit of the z^s * Q family
    )
    def test_residual_small(self, lam, m_top):
        if lam < 0:
            wall = 1.0 / math.sqrt(-float(lam))
            ys = np.linspace(-0.98 * wall, 0.98 * wall, 50)
        else:
            ys = np.linspace(-4.0, 4.0, 50)
        for m in range(m_top + 1):
            assert eigen_equation_residual(m, lam, ys) <= 1e-9

    @pytest.mark.parametrize("m", [20, 30, 40])
    @pytest.mark.parametrize("lam", ["-1/2", "-1/10", "-1/100", "1/100"])
    def test_residual_small_at_high_index(self, lam, m):
        # the exact z^s * Q satisfies the equation identically, so the
        # residual is rounding; monomial float values left 2.3e-3 here
        lam = Fraction(lam)
        if lam < 0:
            wall = 1.0 / math.sqrt(-float(lam))
            ys = np.linspace(-0.98 * wall, 0.98 * wall, 50)
        else:
            ys = np.linspace(-4.0, 4.0, 50)
        assert eigen_equation_residual(m, lam, ys) <= 1e-9

    @pytest.mark.parametrize("lam", [Fraction(1, 10**320),
                                     Fraction(-1, 10**400)])
    def test_residual_past_float_range(self, lam):
        # 1/lam overflows a float; the envelope is the Gaussian there
        ys = np.linspace(-4.0, 4.0, 50)
        assert eigen_equation_residual(3, lam, ys) <= 1e-9

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
