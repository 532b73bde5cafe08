import math
from fractions import Fraction

import numpy as np
import pytest

from lambda_osc.exact import LamPoly, LamRatio, lam_gcd, simplify_ratio
from lambda_osc.polynomials import (
    GENERIC,
    LadderFunction,
    LambdaPoly,
    ring_elem,
)


class TestLamPoly:
    def test_product_expansion(self):
        # (1 - L)(1 - 2L) = 1 - 3L + 2L^2
        p = LamPoly((1, -1)) * LamPoly((1, -2))
        assert p == LamPoly((1, -3, 2))

    def test_arithmetic_with_scalars(self):
        p = 2 * LamPoly.LAM - 1
        assert p == LamPoly((-1, 2))
        assert p + 1 == LamPoly((0, 2))

    def test_evaluation(self):
        p = LamPoly((1, -3, 2))
        assert p(Fraction(1, 2)) == 0
        assert p(Fraction(1)) == 0
        assert p(Fraction(2)) == 3
        assert p(0.5) == pytest.approx(0.0)

    def test_divmod_exact(self):
        num = LamPoly((1, -3, 2))
        q, r = num.divmod(LamPoly((1, -1)))
        assert r.is_zero()
        assert q == LamPoly((1, -2))

    def test_gcd(self):
        a = LamPoly((1, -1)) * LamPoly((1, -2))
        b = LamPoly((1, -1)) * LamPoly((3, 5))
        g = lam_gcd(a, b)
        assert g == LamPoly((-1, 1))  # monic multiple of (1 - L)

    def test_ratio_simplification(self):
        c = simplify_ratio(LamPoly((2, -2)), LamPoly((4,)))
        assert c == LamPoly((Fraction(1, 2), Fraction(-1, 2)))
        c = simplify_ratio(LamPoly((2,)), LamPoly((4,)))
        assert c == Fraction(1, 2)
        c = simplify_ratio(LamPoly((1,)), LamPoly((1, -1)))
        assert isinstance(c, LamRatio)
        assert c(Fraction(1, 2)) == 2

    def test_str(self):
        assert str(LamPoly((2, -3, 1))) == "2 - 3*L + L^2"
        assert str(LamPoly()) == "0"

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            LamPoly((1, 2)).divmod(LamPoly())

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            LamPoly((0.5,))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            LamPoly.ONE.coeffs = ()


class TestLambdaPoly:
    def test_mode_mixing_rejected(self):
        a = LambdaPoly((1, 2), lam=Fraction(1, 3))
        b = LambdaPoly((1, 2), lam=GENERIC)
        with pytest.raises(ValueError):
            _ = a + b

    def test_true_degree_vs_nominal(self):
        p = LambdaPoly((1, 0, 0), lam=Fraction(1, 2), n=2)
        assert p.n == 2
        assert p.degree == 0

    def test_parity_bookkeeping(self):
        p = LambdaPoly((0, 1, 0, 5), lam=GENERIC, n=3)
        assert p.parity == "odd"
        assert p.parity_clean()
        q = LambdaPoly((1, 1), lam=GENERIC, n=2)
        assert not q.parity_clean()

    def test_times_z_generic(self):
        one = LambdaPoly.one()
        z = one.times_z()
        assert z.coefficient(0) == LamPoly.ONE
        assert z.coefficient(2) == LamPoly.LAM

    def test_exact_evaluation(self):
        p = LambdaPoly((Fraction(1, 3), 0, 1), lam=Fraction(1, 7))
        assert p.evaluate_exact(Fraction(1, 2)) == Fraction(1, 3) + Fraction(1, 4)

    def test_substitute_lambda(self):
        p = LambdaPoly((LamPoly((1, -1)),), lam=GENERIC)
        q = p.substitute_lambda(Fraction(1, 4))
        assert q.coefficient(0) == Fraction(3, 4)
        with pytest.raises(ValueError):
            q.substitute_lambda(Fraction(1, 2))

    def test_divmod_requires_fixed_mode(self):
        p = LambdaPoly((1, 2, 3), lam=GENERIC)
        with pytest.raises(ValueError):
            p.divmod_poly(p)

    def test_fixed_mode_division(self):
        lam = Fraction(1, 3)
        z = LambdaPoly((1, 0, lam), lam=lam)
        p = z * LambdaPoly((2, 1), lam=lam) + LambdaPoly.one(lam)
        q, r = p.divmod_poly(z)
        assert q == LambdaPoly((2, 1), lam=lam)
        assert r == LambdaPoly.one(lam)
        with pytest.raises(ZeroDivisionError):
            z.divmod_poly(LambdaPoly.zero(lam))

    def test_ring_elem_in_both_modes(self):
        assert ring_elem(LamPoly.LAM) == LamPoly.LAM
        assert ring_elem(3) == LamPoly.const(3)
        assert ring_elem(LamPoly.LAM, Fraction(2, 7)) == Fraction(2, 7)
        assert ring_elem(LamPoly((1, 1)), 1) == Fraction(2)
        with pytest.raises(TypeError):
            ring_elem(LamPoly.LAM, 0.3)

    def test_json_dict(self):
        p = LambdaPoly((Fraction(-1, 2), 0, 1), lam=Fraction(1, 3),
                       normalization="generating", n=2)
        d = p.to_json_dict()
        assert d == {
            "n": 2,
            "normalization": "generating",
            "lambda": "1/3",
            "coeffs": ["-1/2", "0", "1"],
        }

    def test_json_generic(self):
        p = LambdaPoly((LamPoly((4, -4)),), lam=GENERIC, n=0)
        assert p.to_json_dict()["lambda"] == "generic"
        assert p.to_json_dict()["coeffs"] == ["4 - 4*L"]


class TestLadderFunction:
    def test_canonical_pulls_out_z_factors(self):
        lam = Fraction(1, 3)
        z_poly = LambdaPoly((1, 0, lam), lam=lam)
        f = LadderFunction(lam, Fraction(1, 2), z_poly * z_poly)
        assert f.s == Fraction(5, 2)
        assert f.poly == LambdaPoly.one(lam)

    def test_derivative_closure_identity(self):
        # d/dy[z^s Q] = z^(s-1) (2*lam*s*y*Q + z*Q') checked numerically
        lam = Fraction(1, 4)
        f = LadderFunction(lam, Fraction(-3, 2), LambdaPoly((1, 2, 0, 1), lam=lam))
        df = f.differentiate()
        ys = np.linspace(-2.0, 2.0, 9)
        h = 1e-6
        numeric = (f(ys + h) - f(ys - h)) / (2 * h)
        assert np.allclose(df(ys), numeric, rtol=1e-8, atol=1e-9)

    def test_addition_aligns_exponents(self):
        lam = Fraction(1, 2)
        a = LadderFunction(lam, Fraction(3, 2), LambdaPoly.one(lam))
        b = LadderFunction(lam, Fraction(1, 2), LambdaPoly.one(lam))
        s = a + b
        ys = np.linspace(-1.0, 1.0, 5)
        assert np.allclose(s(ys), a(ys) + b(ys), rtol=1e-14)

    def test_addition_rejects_fractional_gap(self):
        lam = Fraction(1, 2)
        a = LadderFunction(lam, Fraction(1, 4), LambdaPoly.one(lam))
        b = LadderFunction(lam, Fraction(0), LambdaPoly.one(lam))
        with pytest.raises(ValueError):
            _ = a + b

    def test_gaussian_branch(self):
        f = LadderFunction(0, 0, LambdaPoly((0, 1), lam=Fraction(0)))
        df = f.differentiate()
        # (y e^{-y^2/2})' = (1 - y^2) e^{-y^2/2}
        assert df.poly == LambdaPoly((1, 0, -1), lam=Fraction(0))
        assert f(1.0) == pytest.approx(math.exp(-0.5))

    def test_generic_mode_rejected(self):
        with pytest.raises(ValueError):
            LadderFunction(Fraction(1, 2), 0, LambdaPoly.one())
