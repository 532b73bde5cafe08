import math
from fractions import Fraction

import numpy as np
import pytest

from lambda_osc.params import PhysicalParams, chart, classify


class TestClassify:
    def test_positive_published_count(self):
        # four bound states at 0.3
        dp = classify(0.3)
        assert dp.n_max == 3
        assert dp.cutoff == 1 / 0.3
        assert dp.half_width is None

    def test_zero_is_undeformed(self):
        dp = classify(0)
        assert dp.n_max is None
        assert dp.cutoff is None
        assert dp.half_width is None

    def test_integer_cutoff_excludes_borderline_state(self):
        # the norm integrand's tail power 2m - 1 - 2/lam must be below -1;
        # at 1/2 the m = 2 state sits exactly at -1 and is out
        assert classify(Fraction(1, 2)).n_max == 1

    def test_exponent_oracle_matches_cutoff(self):
        # n_max is the largest m with 2m - 1 - 2/lam < -1, i.e. m < 1/lam
        expected = {Fraction(1, 5): 4, Fraction(3, 10): 3, Fraction(2, 7): 3,
                    Fraction(1, 3): 2, Fraction(7, 5): 0}
        for lam, n_max in expected.items():
            assert classify(lam).n_max == n_max

    def test_negative_has_walls(self):
        dp = classify(-0.25)
        assert dp.cutoff is None
        assert dp.half_width == pytest.approx(2.0)
        assert dp.n_max is None

    def test_nonincreasing_with_jumps_at_reciprocals(self):
        for k in range(1, 11):
            at = classify(Fraction(1, k)).n_max
            above = classify(Fraction(1, k) + Fraction(1, 10**6)).n_max
            below = classify(Fraction(1, k) - Fraction(1, 10**6)).n_max
            assert at == k - 1
            assert above == k - 1
            assert below == k

    def test_nonincreasing_on_a_sweep(self):
        values = [classify(Fraction(i, 100)).n_max for i in range(1, 300)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            classify(float("nan"))
        with pytest.raises(ValueError):
            classify(float("inf"))

    @pytest.mark.parametrize("lam", [5e-309, 1e-320, 5e-324])
    def test_rejects_a_cutoff_past_float_range(self, lam):
        with pytest.raises(ValueError, match="too small"):
            classify(lam)

    def test_smallest_classifiable_values(self):
        # 1/lam is finite just above 5.56e-309, and a tiny Fraction's exact
        # cutoff is an integer of any size
        assert classify(5.6e-309).n_max > 10**308
        assert classify(Fraction(1, 10**400)).n_max == 10**400 - 1
        assert classify(-5e-324).half_width > 0

    def test_top_index_is_the_last_bound_one_up_to_the_cap(self):
        assert [classify(lam).top_index(8) for lam in (0.3, 1 / 9, 0.05)] == [
            3, 8, 8]
        assert classify(0.0).top_index(3) == classify(-0.5).top_index(3) == 3

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_bound_indices_stop_below_the_cutoff(self, k):
        # at lam = 1/k the index k sits on the cutoff and is not bound
        lam = Fraction(1, k)
        dp = classify(lam)
        assert [dp.is_bound(m) for m in range(k + 2)] == [True] * k + [
            False, False]
        dp.check_index(k - 1)
        with pytest.raises(ValueError, match=(
                f"^index {k} is not normalizable at deformation {lam} "
                rf"\(cutoff {k}\)$")):
            dp.check_index(k)

    @pytest.mark.parametrize("lam", [0, 0.0, -0.5, Fraction(-3, 10)])
    def test_every_index_is_bound_at_lam_not_positive(self, lam):
        dp = classify(lam)
        assert all(dp.is_bound(m) for m in (0, 1, 8, 10**6))
        dp.check_index(10**6)

    @pytest.mark.parametrize("lam", [0, -0.5, Fraction(1, 3)])
    def test_negative_index_is_refused(self, lam):
        with pytest.raises(ValueError, match="^index must be nonnegative$"):
            classify(lam).check_index(-1)


class TestPhysicalParams:
    def test_g_identity_exact(self):
        p = PhysicalParams(m=Fraction(2), alpha=Fraction(3), hbar=Fraction(5),
                           lam=Fraction(-7, 3))
        assert p.g == p.m * p.alpha * (p.alpha + p.hbar * p.lam / p.m)
        assert p.g == p.m * p.alpha**2 + p.lam * p.hbar * p.alpha

    def test_beta(self):
        p = PhysicalParams(m=Fraction(3), alpha=Fraction(2), hbar=Fraction(4))
        assert p.beta == Fraction(3, 2)

    @pytest.mark.parametrize("field", ["m", "alpha", "hbar"])
    def test_positive_required(self, field):
        with pytest.raises(ValueError):
            PhysicalParams(**{field: 0})


class TestAdimensionalMap:
    def test_unit_parameters_make_identity(self):
        p = PhysicalParams(m=1, alpha=1, hbar=1, lam=0.3)
        assert p.lam_adim == pytest.approx(0.3)

    def test_substitution_example(self):
        p = PhysicalParams(m=Fraction(2), alpha=Fraction(1), hbar=Fraction(1),
                           lam=Fraction(1))
        assert p.lam_adim == Fraction(1, 2)

    def test_invariant_combination_exact(self):
        # 1 + lam_phys x^2 == 1 + lam_adim y^2 with y^2 = beta x^2
        p = PhysicalParams(m=Fraction(2), alpha=Fraction(3), hbar=Fraction(7),
                           lam=Fraction(-5, 11))
        x_sq = Fraction(9, 4)
        assert 1 + p.lam * x_sq == 1 + p.lam_adim * p.beta * x_sq


class TestChart:
    @pytest.mark.parametrize("lam, w, sig, wall, plateau, names", [
        (-0.5, math.sqrt(0.5), -1, math.pi / 2, math.inf,
         ("tan", "sin", "cos", "asin")),
        (-1e-320, 1.0, 0, math.inf, math.inf, None),
        (0.0, 1.0, 0, math.inf, math.inf, None),
        (1e-320, 1.0, 0, math.inf, math.inf, None),
        (0.3, math.sqrt(0.3), 1, math.inf, 13 / 6,
         ("tanh", "sinh", "cosh", "asinh")),
    ])
    def test_one_chart_per_sign(self, lam, w, sig, wall, plateau, names):
        # below the smallest normal float the identity chart, as the
        # quadrature rule and the envelope take it
        ch = chart(lam)
        assert (ch.w, ch.sig, ch.wall) == (w, sig, wall)
        assert ch.plateau == pytest.approx(plateau, rel=1e-15)
        assert ch.size == (abs(lam) if names else 1.0)
        assert ch.names == names
        if names:
            assert ch.funcs(math) == tuple(getattr(math, n) for n in names)
            assert ch.funcs(np) == tuple(getattr(np, n) for n in names)
        else:
            u = np.array([-1.5, 0.25])
            T, S, K, S_inv = ch.funcs(np)
            assert [T(u).tolist(), S(u).tolist(), S_inv(u).tolist()] == [
                u.tolist()] * 3
            assert K(u) == K(0.25) == 1.0
