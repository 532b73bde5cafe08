"""Deformed Hermite polynomials by three independent exact routes.

The family solves (1 + lam*y^2) h'' + (lam - 2) y h' + (2p - lam*p^2) h = 0
and reduces to the classical Hermite polynomials as the deformation
vanishes.  Three constructions are implemented:

* ``series_solution`` -- the two-term power-series recursion, truncating
  exactly at degree p (initial value a0 = 1 or a1 = 1 by parity);
* ``rodrigues`` -- n-fold exact differentiation of z^n * z^-(1/lam+1/2)
  inside the closed z^s * Q family (fixed rational deformation only);
* ``generating_coeffs`` -- the binomial expansion of
  (1 + lam*(2ty - t^2))^(1/lam), whose t^n coefficient times n! is a
  polynomial in the deformation parameter (never a rational function).

The generating-function normalization is the canonical one used by the
spectrum and wavefunction modules; the others are related to it by the
scalars ``proportionality`` recovers.  A result carries no tag of its
route or index: the caller knows both.
"""

import math
from fractions import Fraction

from .exact import LamPoly, exact_rational, simplify_ratio
from .polynomials import (DERIVATIVE, GENERIC, LadderFunction, LambdaPoly,
                          ring_elem)


def series_solution(p: int, lam=GENERIC) -> LambdaPoly:
    """Degree-p polynomial solution of the deformed Hermite equation.

    Runs the coefficient recursion
    a_{k+2} = -a_k * [k(lam*k - 2) + (2e - 1)] / ((k+2)(k+1)) with
    2e - 1 = 2p - lam*p^2; the truncation a_{p+2} = 0 is exact, not
    numerical.
    """
    if p < 0:
        raise ValueError("index must be nonnegative")
    L, one = ring_elem(LamPoly.LAM, lam), ring_elem(1, lam)
    eig = 2 * p - L * p**2  # the (2e - 1) combination at the polynomial index
    coeffs = [ring_elem(0, lam)] * (p + 1)
    start = p % 2
    a = one
    coeffs[start] = a
    for k in range(start, p - 1, 2):
        a = -a * (L * k * k - 2 * k + eig) * Fraction(1, (k + 2) * (k + 1))
        coeffs[k + 2] = a
    return LambdaPoly(coeffs, lam=lam)


def rodrigues(n: int, lam) -> LambdaPoly:
    """n-fold-derivative construction at a fixed rational deformation.

    Computes (-1)^n z^(1/lam + 1/2) d^n/dy^n [ z^(n - 1/lam - 1/2) ]
    entirely inside the closed z^s * Q family; the final exponent of z
    is asserted to be exactly zero, so the result is a pure polynomial.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    lam = exact_rational(lam)
    if lam == 0:
        raise ValueError(
            "zero deformation has no rational exponent; use the generating "
            "route, which reduces to the classical polynomials"
        )
    shift = 1 / lam + Fraction(1, 2)
    f = LadderFunction(lam, n - shift, LambdaPoly.one(lam))
    f = f.first_order([DERIVATIVE] * n).times_z_power(shift)
    if n % 2:
        f = f.scale(-1)
    # the exponent must close to a nonnegative integer (zero up to the z
    # factors canonicalization pulled out of Q), so the result expands to
    # a pure polynomial
    if not f.is_zero() and (f.s.denominator != 1 or f.s < 0):
        raise AssertionError(
            f"derivative construction left a residual exponent {f.s}"
        )
    poly = f.poly
    for _ in range(int(f.s) if not f.is_zero() else 0):
        poly = poly.times_z()
    return poly


def generating_coeffs(n_max: int, lam=GENERIC) -> list[LambdaPoly]:
    """Taylor coefficients (times n!) of the deformed generating function.

    The k-th binomial weight of (1 + lam*u)^(1/lam) is the exact product
    (1)(1 - lam)(1 - 2*lam)...(1 - (k-1)*lam) / k!, applied to
    u = 2ty - t^2, so every output coefficient is polynomial in the
    deformation parameter.  The products run on integers: in powers of
    lam (generic mode), or as prod (q - j*p) over q^k at lam = p/q.
    """
    if n_max < 0:
        raise ValueError("index must be nonnegative")
    if lam is not GENERIC:
        lam = exact_rational(lam)
        p, q = lam.numerator, lam.denominator
    # weights[k]: prod_{j<k} (1 - j*lam) without its 1/k!, as integer
    # coefficients in lam (generic) or the integer numerator over q^k
    weights = [[1] if lam is GENERIC else 1]
    for j in range(n_max):
        w = weights[-1]
        if lam is GENERIC:
            weights.append([a - j * b for a, b in zip(w + [0], [0] + w)])
        else:
            weights.append(w * (q - j * p))

    # t^n coefficient of sum_k w_k (2ty - t^2)^k, gathered by powers of y
    out, zero = [], ring_elem(0, lam)
    for n in range(n_max + 1):
        coeffs = [zero] * (n + 1)
        for k in range((n + 1) // 2, n + 1):
            i = n - k  # power of (-t^2) drawn from (2ty - t^2)^k
            # the integer C(k, i) (-1)^i 2^(k-i) n!/k!, n!/k! integral for
            # k <= n; y^(k - i) = y^(2k - n): one term per power, so assign
            c = math.comb(k, i) * (-1) ** i * 2 ** (k - i) * math.perm(n, i)
            if lam is GENERIC:
                coeffs[k - i] = LamPoly([Fraction(c * a) for a in weights[k]])
            else:
                coeffs[k - i] = Fraction(c * weights[k], q**k)
        out.append(LambdaPoly(coeffs, lam=lam))
    return out


def recursion_coeffs(n, lam):
    """(a_n, b_n) = (2(1 - n*lam), n(2 - (n-1)*lam)) of the recursion
    h_{n+1} = a_n y h_n - b_n h_{n-1} in the generating normalization, for
    an int or integer-array n and a float, Fraction or LamPoly lam."""
    return 2 * (1 - lam * n), n * (2 - lam * (n - 1))


def three_term_next(h_n: LambdaPoly, h_nm1: LambdaPoly, n: int) -> LambdaPoly:
    """Next generating-normalization polynomial from the last two:
    2y(1 - n*lam) h_n - n(2 - (n-1)*lam) h_{n-1}.  The pair is checked
    by value: the y^n coefficient of h_n must be a_{n-1} times the y^(n-1)
    coefficient of h_{n-1}, else a ValueError.
    """
    if n < 1:
        raise ValueError("recursion starts at n = 1")
    if h_n.lam != h_nm1.lam:
        raise ValueError("mixed deformation modes")
    L = ring_elem(LamPoly.LAM, h_n.lam)
    lead = h_n.coefficient(n)
    expected = recursion_coeffs(n - 1, L)[0] * h_nm1.coefficient(n - 1)
    if lead != expected:
        raise ValueError(
            f"recursion needs the generating normalization: y^{n} "
            f"coefficient {lead}, expected {expected}")
    a, b = recursion_coeffs(n, L)
    return h_n.shift_y().scale(a) - h_nm1.scale(b)


def derivative_relation_check(family: list[LambdaPoly], n: int) -> bool:
    """Exact check of the derivative recursion
    h'_{n+2} + (n+2)*lam*[2y h'_{n+1} - (n+1) h'_n] = 2(n+2) h_{n+1},
    on a generating-normalization family indexed by degree.
    """
    if len(family) < n + 3:
        raise ValueError(
            f"need members up to index {n + 2}, family holds {len(family)}"
        )
    h0, h1, h2 = family[n], family[n + 1], family[n + 2]
    L = ring_elem(LamPoly.LAM, h0.lam)
    lhs = h2.derivative() + (
        h1.derivative().shift_y().scale(2) - h0.derivative().scale(n + 1)
    ).scale(L * (n + 2))
    rhs = h1.scale(2 * (n + 2))
    return lhs == rhs


def proportionality(pa: LambdaPoly, pb: LambdaPoly):
    """The exact scalar c with pa = c * pb, if one exists.

    Returns a Fraction in fixed mode; in generic mode the constant may
    be a polynomial or a reduced ratio of polynomials in the deformation
    parameter.  Returns None when the polynomials are not proportional
    (including pb = 0 with pa != 0).
    """
    if pa.lam != pb.lam:
        raise ValueError("mixed deformation modes")
    if pb.is_zero():
        return Fraction(1) if pa.is_zero() else None
    if pa.is_zero():
        return Fraction(0)
    pivot = next(i for i, c in enumerate(pb.coeffs) if c)
    num, den = pa.coefficient(pivot), pb.coefficient(pivot)
    m = max(len(pa.coeffs), len(pb.coeffs))
    for j in range(m):
        if pa.coefficient(j) * den != pb.coefficient(j) * num:
            return None
    if pa.generic:
        return simplify_ratio(num, den)
    return num / den


def leading_coefficient(m: int) -> LamPoly:
    """Leading coefficient of the n-fold-derivative normalization:
    the exact product of (2 - r*lam) for r = m .. 2m-1 (equals 2^m
    at zero deformation).
    """
    if m < 0:
        raise ValueError("index must be nonnegative")
    out = LamPoly.ONE
    for r in range(m, 2 * m):
        out = out * LamPoly((2, -r))
    return out


def ode_residual(h: LambdaPoly, p: int) -> LambdaPoly:
    """Exact residual of the defining equation at polynomial index p:
    (1 + lam*y^2) h'' + (lam - 2) y h' + (2p - lam*p^2) h.
    """
    L = ring_elem(LamPoly.LAM, h.lam)
    return (
        h.derivative().derivative().times_z()
        + h.derivative().shift_y().scale(L - 2)
        + h.scale(2 * p - L * p**2)
    )
