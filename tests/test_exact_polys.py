import math
from fractions import Fraction

import numpy as np
import pytest

from lambda_osc.exact import LamPoly, LamRatio, horner, lam_gcd, simplify_ratio
from lambda_osc.polynomials import (
    GENERIC,
    LadderFunction,
    LambdaPoly,
    ring_elem,
)


def dense_product(a, b):
    """Schoolbook product of two coefficient lists over the rationals."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class TestProducts:
    """Scalar products take one product per coefficient and polynomial
    products one integer convolution; both equal the dense product."""

    p = LamPoly((Fraction(1, 2), 0, Fraction(-3, 4), Fraction(5, 6)))
    q = LamPoly((Fraction(-2, 9), Fraction(7, 4), Fraction(1, 10)))

    @pytest.mark.parametrize("scalar", [0, 5, -3, Fraction(3, 7),
                                        Fraction(0), Fraction(-11, 4)])
    def test_scalar_on_either_side(self, scalar):
        expect = dense_product(self.p.coeffs, [scalar])
        for prod in (self.p * scalar, scalar * self.p,
                     self.p * LamPoly.const(scalar)):
            assert prod.coeffs == expect
            assert all(type(c) is Fraction for c in prod.coeffs)

    def test_zero_products_are_stripped(self):
        assert (self.p * 0).coeffs == ()
        assert (self.p * LamPoly.ZERO).coeffs == ()
        assert (0 * self.p).degree == -1

    def test_polynomial_product(self):
        for a, b in ((self.p, self.q), (self.q, self.p), (self.p, self.p),
                     (LamPoly((1, 2)), self.q)):
            prod = a * b
            assert prod.coeffs == dense_product(a.coeffs, b.coeffs)
            assert all(type(c) is Fraction for c in prod.coeffs)


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
        assert p(Fraction(-1, 3)) == Fraction(20, 9)

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
        with pytest.raises(TypeError):  # evaluation is exact, as is the rest
            LamPoly((1, 2))(0.5)

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
        p = LambdaPoly((1, 0, 0), lam=Fraction(1, 2))
        assert p.degree == 0

    def test_parity_bookkeeping(self):
        p = LambdaPoly((0, 1, 0, 5), lam=GENERIC)
        assert p.degree == 3
        assert not any(p.coeffs[0::2])
        q = LambdaPoly((1, 1), lam=GENERIC)
        assert any(q.coeffs[0::2]) and any(q.coeffs[1::2])

    def test_holds_only_coefficients_and_ring(self):
        assert LambdaPoly.__slots__ == ("lam",)
        p = LambdaPoly((1, 2), lam=Fraction(1, 3))
        assert p + p == p.scale(2) == LambdaPoly((2, 4), lam=Fraction(1, 3))

    def test_times_z_generic(self):
        one = LambdaPoly.one()
        z = one.times_z()
        assert z.coefficient(0) == LamPoly.ONE
        assert z.coefficient(2) == LamPoly.LAM

    def test_exact_evaluation(self):
        # the integer kernel of float evaluation, on the coefficients
        p = LambdaPoly((Fraction(1, 3), 0, 1), lam=Fraction(1, 7))
        ((num, den),) = horner(p.coeffs, [(1, 2)])
        assert Fraction(num, den) == Fraction(1, 3) + Fraction(1, 4)

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
            z.divmod_poly(LambdaPoly((), lam=lam))

    def test_ring_elem_in_both_modes(self):
        assert ring_elem(LamPoly.LAM) == LamPoly.LAM
        assert ring_elem(3) == LamPoly.const(3)
        assert ring_elem(LamPoly.LAM, Fraction(2, 7)) == Fraction(2, 7)
        assert ring_elem(LamPoly((1, 1)), 1) == Fraction(2)
        with pytest.raises(TypeError):
            ring_elem(LamPoly.LAM, 0.3)


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


class TestFloatEvaluation:
    def test_generic_polynomial_is_specialised_first(self):
        # float values need a deformation value; substitute_lambda gives one
        p = LambdaPoly((1, 0, LamPoly.LAM))
        with pytest.raises(ValueError, match="deformation value"):
            p(0.5)
        assert p.substitute_lambda(Fraction(1, 4))(2.0) == 2.0

    def test_values_are_the_exact_value_rounded_once(self):
        # h_40 at lam = -1/2 between its zeros: monomial float coefficients
        # cancel there, the integer kernel rounds the exact value once
        from lambda_osc.hermite import generating_coeffs
        from lambda_osc.wavefunctions import nodes, wavefunction

        p = generating_coeffs(40, Fraction(-1, 2))[40]
        ns = nodes(wavefunction(40, -0.5))
        mids = np.array([(a + b) / 2 for a, b in zip(ns, ns[1:])])
        want = [n / d for n, d in horner(
            p.coeffs, map(float.as_integer_ratio, mids.tolist()))]
        got = p(mids)
        assert isinstance(got, np.ndarray) and got.shape == mids.shape
        assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))
        for y, w in zip(mids[::7].tolist(), want[::7]):
            value = p(y)
            assert isinstance(value, float) and value.hex() == w.hex()
        grid = mids.reshape(3, 13)
        assert np.array_equal(p(grid), np.array(want).reshape(3, 13))

    def test_zero_polynomial(self):
        z = LambdaPoly((), lam=Fraction(-1, 2))
        assert z(0.75) == 0.0
        assert np.array_equal(z(np.linspace(-1.0, 1.0, 5)), np.zeros(5))
