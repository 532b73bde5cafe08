import math
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from lambda_osc import _lapack, hermite, quadrature
from lambda_osc.quadrature import gauss_rule, integrate_measure
from lambda_osc.verification import check_gram
from lambda_osc.wavefunctions import (
    gram_matrix,
    measure_mass,
    mu_inner,
    nodes,
    norm_constant,
    wavefunction,
)

EPS = np.finfo(float).eps
# every size from 8 to 39, odd ones included, then 64 to 2048 by doubling
RULE_SIZES = [*range(8, 40), 64, 128, 256, 512, 1024, 2048]
# the weight (1 - t^2)^a is Legendre's, a = 0, at lam = 1 and degree 0
LEGENDRE = (1.0, 0)


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


def legendre_rule(n):
    return gauss_rule(*LEGENDRE, n)


def flattened_integral(f, lam, half=None, points=1 << 14):
    """The integral of f(y) dy / sqrt(1 + lam y^2) by the trapezoid rule in
    the flattening coordinate u, where the measure is du: y = sinh(w u)/w
    on (-half, half) for lam > 0, y = sin(w u)/w between the walls for
    lam < 0, w = sqrt(|lam|).  The end points, where the integrands here
    vanish, are left out."""
    w = math.sqrt(abs(lam))
    if lam < 0:
        half = math.pi / (2 * w)
    u, h = np.linspace(-half, half, points + 1, retstep=True)
    y = (np.sin if lam < 0 else np.sinh)(w * u[1:-1]) / w
    return float(np.sum(f(y)) * h)


def gram_deviation(lam):
    g = gram_matrix(lam, 8)
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def norm_error(w, norm=norm_constant):
    return abs(mu_inner(w, w) * norm(w) ** 2 - 1)


def timed(call, budget=0.5):
    start = time.perf_counter()
    out = call()
    assert time.perf_counter() - start < budget
    return out


class TestMeasureIntegration:
    def test_total_measure_negative_unit(self):
        # the weight's mass at lam = -1: the integral of sqrt(1 - y^2)
        got = integrate_measure(lambda t: np.ones_like(t), -1.0, 0)
        assert got == pytest.approx(math.pi / 2, rel=1e-15)

    def test_total_measure_scales(self):
        # |lam|^(-1/2) B(1/2, 1/|lam| + 1/2) = 2 Gamma(9/2) Gamma(1/2)/4!
        got = integrate_measure(lambda t: np.ones_like(t), -0.25, 0)
        assert got == pytest.approx(35 * math.pi / 64, rel=1e-15)

    def test_odd_integrand_cancels_exactly(self):
        # the rule sums symmetric node pairs, so an integrand whose
        # floating-point evaluation is sign-antisymmetric cancels to an
        # exact zero (t*t*t rather than t**3: numpy's pow is not
        # bit-symmetric under negation)
        for lam in (-0.5, 0.0, 0.3):
            for degree in (3, 5):
                f = lambda t: t * t * t * np.exp(-t * t)
                assert integrate_measure(f, lam, degree) == 0.0

    def test_opposite_parity_overlap_is_exact_zero(self):
        for lam in (-0.3, 0.1):
            w0 = wavefunction(0, lam)
            w1 = wavefunction(1, lam)
            w2 = wavefunction(2, lam)
            assert mu_inner(w0, w1) == 0.0
            assert mu_inner(w1, w2) == 0.0

    def test_gaussian_flat_measure(self):
        # at lam = 0 the weight is exp(-t^2) on the whole line
        assert integrate_measure(lambda t: np.ones_like(t), 0.0, 0) == (
            pytest.approx(math.sqrt(math.pi), rel=1e-15))
        got = integrate_measure(lambda t: t * t * t * t, 0.0, 4)
        assert got == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-14)

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
        # on an integrand that is no polynomial, cos(3t) against
        # (1 - t^2)^1 (lam = -2/3), the error falls by at least 10 per
        # doubling of the nodes; the closed form is
        # |lam|^(-1/2) (4 sin 3/27 - 4 cos 3/9)
        lam = -2 / 3
        exact = (4 * math.sin(3) / 27 - 4 * math.cos(3) / 9) / math.sqrt(-lam)
        errs = [abs(integrate_measure(lambda t: np.cos(3 * t), lam, d) - exact)
                for d in (2, 6, 14)]  # 2, 4 and 8 nodes
        assert errs[0] / errs[1] >= 10
        assert errs[1] / errs[2] >= 10
        assert errs[2] <= 1e-10

    def test_truncation_robustness(self):
        # nothing is truncated: the decay the old truncation had to bound
        # is the weight's exponent, so moving a factor (1 - t^2) from the
        # weight into the integrand (a larger degree, a lower exponent, one
        # node more) changes a lam > 0 overlap only at rounding level
        lam = 0.3
        w0, w1, w2, w3 = (wavefunction(m, lam) for m in range(4))
        for a, b in ((w1, w1), (w0, w2), (w1, w3)):
            f = lambda t: a.factor(t) * b.factor(t)
            padded = lambda t: f(t) * (1 - t) * (1 + t)
            degree = a.m + b.m
            plain = integrate_measure(f, lam, degree)
            assert abs(integrate_measure(padded, lam, degree + 2) - plain) <= (
                1e-14 * mu_inner(w3, w3))

    @pytest.mark.parametrize(
        "lam,pairs",
        [
            (0.3, [(0, 0), (0, 2), (1, 3), (2, 2), (3, 3)]),
            (0.1, [(0, 0), (4, 4), (0, 8), (8, 8)]),
        ],
    )
    def test_tail_soundness_on_gram_integrands(self, lam, pairs):
        # each acceptance-set overlap, tail and all, equals a dense
        # trapezoid rule in the flattening coordinate out to where the
        # integrand's decay cosh(sqrt(lam) u)^(m + n - 2/lam) has fallen
        # by e^-80
        indices = {m for pair in pairs for m in pair}
        ws = {m: wavefunction(m, lam) for m in indices}
        for m, n in pairs:
            half = 80 / ((2 / lam - m - n) * math.sqrt(lam))
            oracle = flattened_integral(lambda y: ws[m](y) * ws[n](y), lam,
                                        half)
            scale = math.sqrt(mu_inner(ws[m], ws[m]) * mu_inner(ws[n], ws[n]))
            assert abs(mu_inner(ws[m], ws[n]) - oracle) <= 1e-13 * scale

    def test_divergent_tail_detected(self):
        # degree 8 at lam = 0.3 would need (1 - t^2)^(-5/3): not integrable
        with pytest.raises(ValueError, match="not normalizable"):
            integrate_measure(lambda t: np.ones_like(t), 0.3, 8)

    def test_unnormalizable_degree_rejected(self):
        # combined degree at the cutoff makes the exponent exactly -1
        with pytest.raises(ValueError, match="degree 4 is not normalizable"):
            gauss_rule(0.5, 4, 3)

    def test_zero_at_every_node_is_not_accepted(self):
        # at lam = -1e-6 the ground state is a Gaussian of width ~1e-3 in
        # the wall angle, which a rule fixed in the angle misses at every
        # node.  The measure's own rule has its nodes where the weight is:
        # none of its terms is 0, and the norm is M_0 (about 1.7725), not 0
        lam = -1e-6
        w0 = wavefunction(0, lam)
        x, w = gauss_rule(lam, 0, 1)
        assert np.all(w * w0.factor(x) ** 2 > 0)
        assert mu_inner(w0, w0) == pytest.approx(measure_mass(lam),
                                                 rel=1e-14)

    def test_subnormal_estimates_are_not_accepted(self):
        # at lam = -2e-6 the ground state is a Gaussian of width ~1e-3 in
        # the wall angle; the rule's nodes scale with sqrt(|lam|), so it is
        # resolved and the norm is M_0, not a 0 or a subnormal estimate
        lam = -2e-6
        w0 = wavefunction(0, lam)
        assert mu_inner(w0, w0) == pytest.approx(measure_mass(lam), rel=1e-14)

    def test_scheme_selection(self):
        # the sign of lam picks the weight: below 0 the degree sets only the
        # node count, above it also lowers the exponent by degree/2, here
        # from 9 to 8 at lam = 0.1, which scales the mass by 19/18
        one = lambda t: np.ones_like(t)
        for lam in (-0.1, 0.0):
            assert integrate_measure(one, lam, 6) == pytest.approx(
                integrate_measure(one, lam, 0), rel=1e-14)
        assert integrate_measure(one, 0.1, 2) == pytest.approx(
            integrate_measure(one, 0.1, 0) * 19 / 18, rel=1e-14)


class TestEdges:
    """The edges of lam, each call under a 0.5 s budget: tiny |lam| of
    either sign, 0 < lam <= 0.05, and the continuum threshold; 2/3, 2/5
    and 2/7 put the weight exponent at -1/2, where the textbook beta_1
    is 0/0."""

    @pytest.mark.parametrize("lam", [
        1e-12, -1e-12, 1e-8, 1e-6, -1e-6, 1e-4, -1e-3, 0.01, 0.02, 0.05,
        0.49998436085143483, 2 / 3, 2 / 5, 2 / 7])
    def test_gram_is_the_identity(self, lam):
        assert timed(lambda: gram_deviation(lam)) <= 1e-8

    @pytest.mark.parametrize("m", [44, 98])
    def test_norm_at_small_positive_deformation(self, m):
        # near the threshold 1/lam = 100; h_98(y) itself would overflow at
        # the outer nodes, the factor in t does not
        assert timed(lambda: norm_error(wavefunction(m, 0.01))) <= 1e-12

    def test_nodes_are_the_zeros(self):
        # at lam < 0 the weight's orthogonal polynomials are the h_n in t,
        # so the N-node rule's nodes are sqrt(|lam|) times their zeros
        for lam in (-0.9, -0.3, -1e-6):
            for n in (1, 2, 9, 40):
                x, _ = gauss_rule(lam, 0, n)
                zeros = np.array(nodes(wavefunction(n, lam)))
                assert np.allclose(x, math.sqrt(-lam) * zeros, rtol=0,
                                   atol=8 * EPS * math.sqrt(-lam) * (
                                       np.max(np.abs(zeros)) + 1))


class TestMutations:
    """The oracle reads neither ``hermite`` nor the closed-form norms, so
    a fault planted in either shows."""

    def test_wrong_recursion_fails_the_gram_test(self, monkeypatch):
        right = hermite.recursion_coeffs
        assert gram_deviation(0.1) <= 1e-8
        # b_n = n(2 - n lam) instead of n(2 - (n - 1) lam)
        monkeypatch.setattr(hermite, "recursion_coeffs", lambda n, lam: (
            right(n, lam)[0], n * (2 - lam * n)))
        assert gram_deviation(0.1) > 1e-8

    @pytest.mark.parametrize("mutant", [
        # the closed form without its 1/(1 - m lam)
        lambda w: norm_constant(w) / math.sqrt(1 - w.m * w.lam),
        # a wrong total mass M_0
        lambda w: norm_constant(w) / math.sqrt(1.001),
    ], ids=["no_threshold_factor", "wrong_mass"])
    def test_wrong_norm_fails_the_norm_test(self, mutant):
        w = wavefunction(44, 0.01)
        assert norm_error(w) <= 1e-12
        assert norm_error(w, mutant) > 1e-4


class TestRule:
    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_rule_is_numpy_leggauss_bit_for_bit(self, n):
        # the dsterf binding that gauss_rule and wavefunctions.nodes run
        # moves no bit of numpy's dense eigensolve once Newton has
        # polished it
        x0, w0 = np.polynomial.legendre.leggauss(n)
        x1, w1 = golub_welsch(n)
        assert np.array_equal(x0, x1)
        assert np.array_equal(w0, w1)

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_rule_is_the_gauss_legendre_rule(self, n):
        # the rule of the weight (1 - t^2)^0, checked on its positive
        # half: exact rationals at every node up to 64 nodes; above, 40
        # digits on sampled nodes, the two edgemost among them (exact
        # rationals would take seconds at 256 nodes and minutes at 2048)
        x, w = legendre_rule(n)
        x, w = x[(n + 1) // 2:], w[(n + 1) // 2:]
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
        # the n-point rule integrates t^(2j) exactly for j < n, that is
        # sum(w t^(2j)) = 2/(2j + 1); t^(2j) carries j roundings of t^2
        # and 2j times its node's error, so the bound grows with j
        x, w = legendre_rule(n)
        x2, term = x * x, w.copy()
        for j in range(n):
            error = abs(term.sum() * (2 * j + 1) / 2 - 1)
            assert error <= 4 * (j + 16) * EPS, (n, j, error)
            term *= x2

    def test_rule_memory_is_linear_in_nodes(self):
        # the recurrences keep a few arrays of n nodes; a dense n x n
        # eigenproblem would be 134 MB at 4096
        tracemalloc.start()
        try:
            legendre_rule(4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n", [32 << k for k in range(7)])
    def test_paired_nodes_ascend_to_the_edge(self, n):
        # integrate_measure pairs node k with node n - 1 - k
        for lam in (1.0, -0.3, 0.3):
            x, w = gauss_rule(lam, 0, n)
            assert x.size == w.size == n
            assert np.array_equal(x, -x[::-1])
            assert np.array_equal(w, w[::-1])
            assert -1 < x[0] and x[-1] < 1
            assert np.all(np.diff(x) > 0)
            assert np.all(w > 0)


class TestWork:
    def test_check_gram_does_the_same_work(self, monkeypatch):
        # one rule per overlap, with (m + n)//2 + 1 nodes, and one call
        # of the integrand on all of them
        counts = {"calls": 0, "points": 0}
        built = []
        integrate = quadrature.integrate_measure
        build = quadrature.gauss_rule

        def counted(f, *args, **kwargs):
            counts["calls"] += 1

            def sampled(t):
                counts["points"] += t.size
                return f(t)

            return integrate(sampled, *args, **kwargs)

        def recorded(lam, degree, n):
            built.append(n)
            return build(lam, degree, n)

        monkeypatch.setattr(quadrature, "integrate_measure", counted)
        monkeypatch.setattr(quadrature, "gauss_rule", recorded)
        assert all(r.passed for r in check_gram())
        assert counts == {"calls": 145, "points": 668}
        assert len(built) == 145 and sum(built) == 668
