import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lambda_osc import _lapack, quadrature
from lambda_osc.quadrature import (
    START_NODES,
    DivergentTailError,
    NonConvergenceError,
    _gauss_legendre_half,
    _paired_nodes,
    integrate_measure,
    overlap_halfwidth,
)
from lambda_osc.verification import check_gram
from lambda_osc.wavefunctions import (
    gram_matrix,
    measure_mass,
    mu_inner,
    wavefunction,
)

EPS = np.finfo(float).eps
# every size from 8 to 39, odd ones included, then the doubling ladder's
RULE_SIZES = [*range(8, 40), 64, 128, 256, 512, 1024, 2048]


def legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in the arithmetic
    of x: exact for a Fraction, the context's precision for a Decimal."""
    prev, cur = 1, x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, n * (prev - x * cur) / (1 - x * x)


def rule_defects(n, xs, ws, num):
    """For each node: does P_n change sign within 4 eps of it, and how far
    is its weight, relatively, from the Gauss weight 2/((1 - x^2) P_n'(x)^2)
    at that double node.  ``num`` converts a float exactly."""
    step = num(4 * EPS)
    out = []
    for x, w in zip(xs.tolist(), ws.tolist()):
        x = num(x)
        below, _ = legendre(n, x - step)
        above, _ = legendre(n, x + step)
        _, dp = legendre(n, x)
        exact_w = 2 / ((1 - x * x) * dp * dp)
        out.append((below * above < 0, float(abs(num(w) / exact_w - 1))))
    return out


def golub_welsch(n):
    """The n-point rule as numpy's ``leggauss`` builds it (Golub & Welsch,
    Math. Comp. 23 (1969) 221), with its dense companion eigensolve
    replaced by LAPACK's sterf on the tridiagonal Jacobi matrix
    (``_lapack.all_eigenvalues``, which ``wavefunctions.nodes`` runs):
    one Newton step, then weights symmetrised and normalised as there."""
    leg = np.polynomial.legendre
    c = np.zeros(n + 1)
    c[-1] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    x = _lapack.all_eigenvalues(np.zeros(n),
                                np.arange(1, n) * scl[:n - 1] * scl[1:n])
    df = leg.legval(x, leg.legder(c))
    x -= leg.legval(x, c) / df
    fm = leg.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


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

    def test_zero_at_every_node_is_not_accepted(self):
        # at lam = -1e-6 the ground state is a Gaussian of width ~1e-3 in
        # the wall angle, and the first rules' nodes all miss it: their
        # estimates are both 0, and so is the integral of |f| they would
        # be compared against.  M_0 is about 1.7725, not 0
        w0 = wavefunction(0, -1e-6)
        with pytest.raises(NonConvergenceError, match="0 at every node") as err:
            mu_inner(w0, w0)
        assert err.value.last == 0.0
        assert err.value.previous == 0.0
        with pytest.raises(NonConvergenceError):
            integrate_measure(lambda y: np.zeros_like(y), -0.5)

    def test_subnormal_estimates_are_not_accepted(self):
        # at lam = -2e-6 the first two rules give 0 and 1.9e-316; with no
        # floor under the scale they do not agree, and doubling goes on
        # to the rules that resolve the state
        lam = -2e-6
        w0 = wavefunction(0, lam)
        assert mu_inner(w0, w0) == pytest.approx(measure_mass(lam), rel=1e-10)

    def test_gram_matrix_reports_the_vanishing_norm(self):
        # the norm is the first overlap; a 0 there was a ZeroDivisionError
        with pytest.raises(NonConvergenceError):
            gram_matrix(-1e-6, 3)

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
    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_rule_is_numpy_leggauss_bit_for_bit(self, n):
        # the eigensolver rule the recurrence rule replaced: sterf on the
        # O(n) tridiagonal moves no bit of numpy's dense eigensolve once
        # Newton has polished it, so the zeros wavefunctions.nodes takes
        # from the same binding are as exact as numpy's
        x0, w0 = np.polynomial.legendre.leggauss(n)
        x1, w1 = golub_welsch(n)
        assert np.array_equal(x0, x1)
        assert np.array_equal(w0, w1)

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_rule_is_the_gauss_legendre_rule(self, n):
        # exact rationals at every node up to 64 nodes; above, 40 digits
        # on sampled nodes, the two edgemost among them (exact rationals
        # would take seconds at 256 nodes and minutes at 2048)
        x, w = _gauss_legendre_half(n)
        m = x.size
        assert m == n // 2
        if n <= 64:
            picked, num = list(range(m)), Fraction
        else:
            picked = sorted({0, m // 4, m // 2, 3 * m // 4, m - 2, m - 1})
            num = Decimal
        with localcontext() as ctx:
            ctx.prec = 40
            defects = rule_defects(n, x[picked], w[picked], num)
        for k, (brackets_a_zero, weight_error) in zip(picked, defects):
            assert brackets_a_zero, (n, k)
            assert weight_error <= 1e-10, (n, k, weight_error)

    @pytest.mark.parametrize("n", [*RULE_SIZES, 4096])
    def test_even_moments_are_exact(self, n):
        # the n-point rule integrates x^(2j) exactly for j < n, that is
        # 2 * sum(w x^(2j)) = 2/(2j + 1) over the positive half; x^(2j)
        # carries j roundings of x^2 and 2j times its node's error, so the
        # bound grows with j
        x, w = _gauss_legendre_half(n)
        x2, term = x * x, w.copy()
        for j in range(n):
            # an odd rule's centre node adds to j = 0 only
            if j or n % 2 == 0:
                error = abs(term.sum() * (2 * j + 1) - 1)
                assert error <= 4 * (j + 16) * EPS, (n, j, error)
            term *= x2

    def test_rule_memory_is_linear_in_nodes(self):
        # the recurrence keeps a few arrays of n/2 nodes; the dense
        # companion matrix of numpy's leggauss would be 134 MB at 4096
        tracemalloc.start()
        try:
            _gauss_legendre_half(4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n", [START_NODES << k for k in range(7)])
    def test_paired_nodes_ascend_to_the_edge(self, n):
        # _estimate reads the edgemost node's value as the last entry
        x, w = _paired_nodes(n)
        assert x.size == w.size == n // 2
        assert 0 < x[0] and x[-1] < 1
        assert np.all(np.diff(x) > 0)
        assert np.all(w > 0)

    def test_rules_load_no_eigensolver(self):
        # a fresh interpreter, so no other test has loaded either module
        src = Path(quadrature.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import sys\n"
                 "from lambda_osc.quadrature import _paired_nodes\n"
                 "_paired_nodes(64)\n"
                 "print(*(m in sys.modules for m in "
                 "('numpy.polynomial', 'lambda_osc._lapack')))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False", "False"]


class TestWork:
    def test_check_gram_does_the_same_work(self, monkeypatch):
        # how fast a rule is built changes nothing of how much a check
        # integrates: as many overlaps, over as many points, on the same
        # rules, each built once
        counts = {"calls": 0, "points": 0}
        built = []
        integrate = quadrature.integrate_measure
        build = quadrature._gauss_legendre_half

        def counted(f, *args, **kwargs):
            counts["calls"] += 1

            def sampled(y):
                counts["points"] += y.size
                return f(y)

            return integrate(sampled, *args, **kwargs)

        def recorded(n):
            built.append(n)
            return build(n)

        monkeypatch.setattr(quadrature, "integrate_measure", counted)
        monkeypatch.setattr(quadrature, "_gauss_legendre_half", recorded)
        monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
        assert all(r.passed for r in check_gram())
        assert counts == {"calls": 145, "points": 34912}
        assert sorted(built) == [START_NODES << k for k in range(7)]
