"""Exact scalar arithmetic for the deformation parameter.

Polynomial coefficients come in two flavours: plain rationals (a fixed
rational deformation value) and exact univariate polynomials in the
deformation parameter itself (the generic route).  ``DensePoly`` is the
shared dense polynomial core: the ring operations and long division,
written once over whatever exact coefficient ring a subclass supplies.
``LamPoly`` is the polynomial in the deformation parameter, over
``fractions.Fraction``; ``polynomials.LambdaPoly`` is the polynomial in
the oscillator coordinate over either ring.  ``LamRatio`` holds a
reduced ratio of two ``LamPoly``s, which is what a proportionality
constant between two polynomial families can turn into in generic mode.
"""

import math
from fractions import Fraction


def exact_rational(x) -> Fraction:
    """Coerce to Fraction, refusing floats.

    The exact pathways never convert binary floats implicitly; callers
    choose the rational they mean (Fraction('0.3') or Fraction(3, 10)).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(
        f"exact arithmetic needs an exact rational, got {type(x).__name__}; "
        "convert floats explicitly, e.g. Fraction(3, 10)"
    )


def integer_numerators(coeffs):
    """Rationals as (integer numerators, one common denominator): the
    lcm of their denominators, so each kernel runs on plain integers."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def horner(coeffs, points):
    """(N, D) with N / D the exact value of sum_k coeffs[k] x^k at each
    rational x = p/q, given as (p, q) with q > 0: Horner on the integer
    numerators, each term times the power of q it lacks."""
    nums, den = integer_numerators(coeffs)
    out = []
    for p, q in points:
        acc, qk = 0, 1
        for c in reversed(nums):
            acc, qk = acc * p + c * qk, qk * q
        out.append((acc * q, den * qk))
    return out


class DensePoly:
    """Immutable dense univariate polynomial over an exact coefficient ring.

    ``coeffs[k]`` multiplies the k-th power; trailing zeros are stripped,
    so ``degree`` is exact.  Subclasses supply the ring through three
    hooks: ``_coerce`` (the other operand as the same type, or None),
    ``_like`` (a coefficient list wrapped in the subclass) and ``_zero``
    (the zero of the coefficient ring).
    """

    __slots__ = ("coeffs",)

    def _set_coeffs(self, cs):
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- queries ------------------------------------------------------
    @property
    def degree(self):
        """True degree: index of the last exactly-nonzero coefficient."""
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else self._zero()

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return self._like(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return self._like([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a scalar: one product each
            return self._like([c * other for c in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._like(())
        # over the rationals: one integer convolution of the numerators over
        # each operand's common denominator, then one Fraction per coefficient
        rational = isinstance(a[0], Fraction)
        if rational:
            (a, da), (b, db) = integer_numerators(a), integer_numerators(b)
        out = [0 if rational else self._zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b, i):
                out[j] = out[j] + x * y
        if rational:
            out = [Fraction(c, da * db) for c in out]
        return self._like(out)

    __rmul__ = __mul__

    def divmod(self, other):
        """Long division (quotient, remainder); the coefficient ring must
        divide exactly, so this needs a field such as the rationals."""
        other = self._coerce(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return self._like(()), self
        quot = [self._zero()] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if not top:
                continue
            q = top / lead
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return self._like(quot), self._like(rem)


class LamPoly(DensePoly):
    """Exact polynomial in the dimensionless deformation parameter.

    Coefficients are ``Fraction``s, stored densely; ``coeffs[k]``
    multiplies the k-th power.  Instances are immutable.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        self._set_coeffs([exact_rational(c) for c in coeffs])

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c):
        return cls((c,))

    # -- ring hooks ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, LamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LamPoly((other,))
        return None

    def _like(self, coeffs):
        return LamPoly(coeffs)

    def _zero(self):
        return Fraction(0)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, lam):
        """The exact value at a rational deformation value."""
        (value,) = horner(self.coeffs, [exact_rational(lam).as_integer_ratio()])
        return Fraction(*value)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*L" if c != 1 else "L")
            else:
                parts.append(f"{c}*L^{k}" if c != 1 else f"L^{k}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"LamPoly({list(self.coeffs)!r})"


LamPoly.ZERO = LamPoly()
LamPoly.ONE = LamPoly((1,))
LamPoly.LAM = LamPoly((0, 1))


def lam_gcd(a: LamPoly, b: LamPoly) -> LamPoly:
    """Monic gcd of two exact polynomials (Euclid over the rationals)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return LamPoly([c / lead for c in a.coeffs])


class LamRatio:
    """Reduced ratio of two deformation polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: LamPoly, den: LamPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = lam_gcd(num, den)
        if not g.is_zero():
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        # normalise so the denominator has a positive leading coefficient
        if den.coeffs and den.coeffs[-1] < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LamRatio is immutable")

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, LamRatio):
            return self.num * other.den == other.num * self.den
        if isinstance(other, (int, Fraction, LamPoly)):
            other = other if isinstance(other, LamPoly) else LamPoly((other,))
            return self.num == other * self.den
        return NotImplemented

    def __call__(self, lam):
        return self.num(lam) / self.den(lam)

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"LamRatio({self.num!r}, {self.den!r})"


def simplify_ratio(num: LamPoly, den: LamPoly):
    """num/den as a LamPoly when the division is exact, else a LamRatio.

    Constant polynomials collapse to plain Fractions.
    """
    q, r = num.divmod(den)
    if r.is_zero():
        if q.degree <= 0:
            return q.coefficient(0)
        return q
    return LamRatio(num, den)
