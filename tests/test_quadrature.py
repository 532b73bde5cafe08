import inspect
import math
import tracemalloc

import numpy as np
import pytest

from lambda_osc import quadrature
from lambda_osc.quadrature import (
    DivergentTailError,
    NonConvergenceError,
    _leggauss,
    integrate_measure,
    overlap_halfwidth,
)
from lambda_osc.wavefunctions import mu_inner, wavefunction


class TestMeasureIntegration:
    def test_total_measure_negative_unit(self):
        # the substitution flattens the measure exactly: the interval has
        # length pi and the scale is 1/sqrt(|lam|)
        got = integrate_measure(lambda y: np.ones_like(y), -1.0)
        assert got == pytest.approx(math.pi, rel=1e-14)

    def test_total_measure_scales(self):
        got = integrate_measure(lambda y: np.ones_like(y), -0.25)
        assert got == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_odd_integrand_cancels_exactly(self):
        # the rule sums symmetric node pairs, so an integrand whose
        # floating-point evaluation is sign-antisymmetric cancels to an
        # exact zero (y*y*y rather than y**3: numpy's pow is not
        # bit-symmetric under negation)
        for lam in (-0.5, 0.0, 0.7):
            f = lambda y: y * y * y * np.exp(-y * y)
            assert integrate_measure(f, lam, half_width=8.0) == 0.0

    def test_opposite_parity_overlap_is_exact_zero(self):
        for lam in (-0.3, 0.1):
            w0 = wavefunction(0, lam)
            w1 = wavefunction(1, lam)
            w2 = wavefunction(2, lam)
            assert mu_inner(w0, w1) == 0.0
            assert mu_inner(w1, w2) == 0.0

    def test_gaussian_flat_measure(self):
        got = integrate_measure(lambda y: np.exp(-y * y), 0.0, half_width=10.0)
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_orthogonality_published_pair(self):
        w0 = wavefunction(0, -0.3)
        w2 = wavefunction(2, -0.3)
        assert abs(mu_inner(w0, w2)) < 1e-10

    def test_unit_deformation_norm_against_trapezoid_oracle(self):
        # flattening coordinate oracle: with unit deformation the squared
        # ground state integrand is cosh(u)^-2, integrated by a dense
        # trapezoid rule; the analytic value is 2
        w0 = wavefunction(0, 1.0)
        got = mu_inner(w0, w0)
        u = np.linspace(-40.0, 40.0, (1 << 20) + 1)
        y = np.sinh(u)
        f = w0(y) ** 2
        oracle = np.trapezoid(f, u)
        assert got == pytest.approx(float(oracle), rel=1e-8)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_spectral_convergence_rate(self):
        # independent check on the raw rule: fixed-node estimates of the
        # squared ground state converge with error ratio >= 10 per
        # doubling until the accuracy floor
        lam = -0.3
        w0 = wavefunction(0, lam)
        root = math.sqrt(-lam)

        def transformed(t):
            return w0(np.sin(t) / root) ** 2 / root

        def gl(n):
            x, w = np.polynomial.legendre.leggauss(n)
            t = x * (math.pi / 2)
            return float(np.sum(w * transformed(t)) * math.pi / 2)

        ref = gl(512)
        errs = [abs(gl(n) - ref) for n in (8, 16, 32)]
        assert errs[0] / errs[1] >= 10
        assert errs[1] / errs[2] >= 10

    def test_truncation_robustness(self):
        # halving then doubling the half-width moves the result less than
        # the tolerance for a bound-pair integrand
        lam = 0.3
        w1 = wavefunction(1, lam)
        w3 = wavefunction(3, lam)
        f = lambda y: w1(y) * w3(y)
        u = overlap_halfwidth(lam, 4, tail_tol=1e-16)
        vals = [
            integrate_measure(f, lam, half_width=c * u)
            for c in (1.0, 2.0)
        ]
        assert abs(vals[0] - vals[1]) < 1e-10 * abs(
            integrate_measure(lambda y: w1(y) ** 2, lam, half_width=u)
        )

    @pytest.mark.parametrize(
        "lam,pairs",
        [
            (0.3, [(0, 0), (0, 2), (1, 3), (2, 2), (3, 3)]),
            (0.1, [(0, 0), (4, 4), (0, 8), (8, 8)]),
        ],
    )
    def test_tail_soundness_on_gram_integrands(self, lam, pairs):
        # doubling the analytic half-width leaves every acceptance-set
        # overlap unchanged at tolerance level
        indices = {m for pair in pairs for m in pair}
        ws = {m: wavefunction(m, lam) for m in indices}
        norm0 = mu_inner(ws[0], ws[0])
        for m, n in pairs:
            f = lambda y: ws[m](y) * ws[n](y)
            u = overlap_halfwidth(lam, m + n, tail_tol=1e-16)
            a = integrate_measure(f, lam, half_width=u)
            b = integrate_measure(f, lam, half_width=2 * u)
            assert abs(a - b) <= 1e-9 * max(abs(a), norm0)

    def test_divergent_tail_detected(self):
        with pytest.raises(DivergentTailError):
            integrate_measure(lambda y: np.ones_like(y), 0.3, half_width=30.0)

    def test_unnormalizable_degree_rejected(self):
        # combined degree at the cutoff makes the exponent nonnegative
        with pytest.raises(DivergentTailError):
            overlap_halfwidth(0.5, 4)

    def test_node_cap_reported(self, monkeypatch):
        # a cap of twice the first rule leaves room for two estimates
        monkeypatch.setattr(quadrature, "NODE_CAP", 2 * quadrature.START_NODES)
        kink = lambda y: np.abs(y - 0.31)
        with pytest.raises(NonConvergenceError) as err:
            integrate_measure(kink, -0.5, rtol=1e-14)
        assert err.value.last is not None
        assert err.value.previous is not None

    def test_scheme_selection(self):
        # the walls fix the interval, so only lam >= 0 needs a half-width
        one = lambda y: np.ones_like(y)
        assert integrate_measure(one, -0.1) == integrate_measure(
            one, -0.1, half_width=0.0)
        for lam in (0.1, 0.0):
            for half_width in (None, 0.0, -1.0):
                with pytest.raises(ValueError, match="half-width"):
                    integrate_measure(one, lam, half_width=half_width)

    def test_tolerance_floor(self):
        # a zero tolerance would double the rule up to the node cap
        one = lambda y: np.ones_like(y)
        for lam in (0.3, -0.3):
            with pytest.raises(ValueError, match="attainable"):
                integrate_measure(one, lam, half_width=5, rtol=0)
        rtol = inspect.signature(integrate_measure).parameters["rtol"]
        assert rtol.default == 1e-10


class TestRule:
    @pytest.mark.parametrize("n", [*range(8, 40), 64, 128, 256, 512, 1024, 2048])
    def test_rule_is_numpy_leggauss_bit_for_bit(self, n):
        # the tridiagonal solve must not move a single bit of any node or
        # weight, so every integral keeps its value
        x0, w0 = np.polynomial.legendre.leggauss(n)
        x1, w1 = _leggauss(n)
        assert np.array_equal(x0, x1)
        assert np.array_equal(w0, w1)

    def test_rule_memory_is_linear_in_nodes(self):
        # the tridiagonal solve keeps O(n) arrays; the dense companion
        # matrix alone would be 134 MB at 4096 nodes
        _leggauss(16)  # loads the LAPACK binding outside the measurement
        tracemalloc.start()
        try:
            _leggauss(4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

