"""Polynomials in the oscillator coordinate, exact in both deformation modes.

A ``LambdaPoly`` is a dense polynomial in the adimensional coordinate y,
held as nothing but its coefficients, which live in one of two exact rings:

* fixed mode -- ``Fraction`` coefficients for a fixed rational
  deformation value (``poly.lam`` holds that value);
* generic mode -- ``LamPoly`` coefficients, i.e. exact polynomials in
  the deformation parameter itself (``poly.lam is None``).

The same arithmetic code, ``exact.DensePoly``, serves both rings.
``LadderFunction`` represents members of the closed family z^s * Q(y)
with z = 1 + lam*y^2, on which differentiation and the ladder operators
act exactly; that family requires a fixed rational deformation.  At lam = 0 the family
degenerates and the envelope is taken to be the Gaussian exp(-y^2/2),
which is its analytic limit.

Every first-order operator on the family -- d/dy, and the lowering and
raising operators of ``factorization`` -- is one kernel,
``LadderFunction.first_order``: z^s (alpha*y*Q + beta*z*Q') with the
operator picked by (alpha, beta), run over a whole chain of operators
on integer numerators.  Members are kept canonical (z does not divide
Q).  Because gcd(z, y) = 1, z divides alpha*y*Q + beta*z*Q' only if
alpha = 0 or z divides Q, so a result with alpha != 0 is canonical as
built; only alpha = 0 goes through the long division by z.

A float value is the exact value rounded once: ``LambdaPoly.__call__``
runs the integer kernel ``exact.horner`` at each sample's binary value,
and a ``LadderFunction`` multiplies that by the float power of z that
``wavefunctions.envelope`` uses too, ``z_power``.  Only these float
evaluations import numpy.
"""

import math
import sys
from fractions import Fraction

from .exact import (DensePoly, LamPoly, exact_rational, horner,
                    integer_numerators)

GENERIC = None  # sentinel for poly.lam in generic mode
DERIVATIVE = (0, 1, -1)  # d/dy as a (b, beta, ds) step of first_order
_ZERO = Fraction(0)


def ring_elem(c, lam=GENERIC):
    """``c`` (a rational or a ``LamPoly``) in the coefficient ring of the
    deformation mode ``lam``.

    Generic mode lifts rationals to constant ``LamPoly``s; a fixed value
    evaluates ``LamPoly``s there, so ``ring_elem(LamPoly.LAM, lam)`` is the
    deformation parameter itself in either ring.
    """
    if lam is GENERIC:
        return c if isinstance(c, LamPoly) else LamPoly.const(c)
    if isinstance(c, Fraction):
        return c
    if isinstance(c, LamPoly):
        lam = exact_rational(lam)
        return lam if c is LamPoly.LAM else c(lam)  # LAM: no arithmetic
    return Fraction(c)


class LambdaPoly(DensePoly):
    """Dense exact polynomial in y: its coefficients and their ring.

    The degree is the true one, which can fall below a family index when
    leading factors vanish at special deformation values.
    """

    __slots__ = ("lam",)

    def __init__(self, coeffs, lam=GENERIC):
        if lam is not GENERIC:
            lam = exact_rational(lam)
        self._set_coeffs([ring_elem(c, lam) for c in coeffs])
        object.__setattr__(self, "lam", lam)

    # -- constructors ---------------------------------------------------
    @classmethod
    def one(cls, lam=GENERIC):
        return cls((1,), lam=lam)

    # -- queries --------------------------------------------------------
    @property
    def generic(self):
        return self.lam is GENERIC

    # -- ring hooks -------------------------------------------------------
    def _coerce(self, other):
        if not isinstance(other, LambdaPoly):
            return None
        if self.lam != other.lam:
            raise ValueError("mixed deformation modes in polynomial arithmetic")
        return other

    def _like(self, coeffs):
        return LambdaPoly(coeffs, lam=self.lam)

    def _zero(self):
        return LamPoly.ZERO if self.generic else Fraction(0)

    # -- arithmetic -------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.lam == other.lam and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.lam, self.coeffs))

    def scale(self, c):
        """Multiply by a scalar from the coefficient ring."""
        c = ring_elem(c, self.lam)
        return LambdaPoly([a * c for a in self.coeffs], lam=self.lam)

    def shift_y(self):
        """Multiply by y."""
        if self.is_zero():
            return self
        return LambdaPoly([self._zero(), *self.coeffs], lam=self.lam)

    def derivative(self):
        return LambdaPoly(
            [k * c for k, c in enumerate(self.coeffs)][1:], lam=self.lam
        )

    def times_z(self):
        """Multiply by z = 1 + lam*y^2 (works in both modes)."""
        lam = ring_elem(LamPoly.LAM, self.lam)
        return self * LambdaPoly((1, 0, lam), lam=self.lam)

    def divmod_poly(self, other):
        """Exact division (fixed mode only; coefficients form a field)."""
        if self.generic or other.generic:
            raise ValueError("exact polynomial division requires fixed mode")
        return self.divmod(other)

    # -- evaluation -------------------------------------------------------
    def __call__(self, y):
        """Float value (scalar or ndarray y): the exact value at each
        sample's binary value (``exact.horner``), rounded once by
        int / int division; fixed mode only."""
        if self.generic:
            raise ValueError("generic polynomial needs a deformation value")
        import numpy as np

        y = np.asarray(y, dtype=float)
        out = [n / d for n, d in horner(
            self.coeffs, (v.as_integer_ratio() for v in y.ravel().tolist()))]
        return out[0] if y.ndim == 0 else np.array(out).reshape(y.shape)

    def substitute_lambda(self, lam):
        """Specialise a generic polynomial at a rational deformation value."""
        if not self.generic:
            raise ValueError("polynomial already has a fixed deformation value")
        lam = exact_rational(lam)
        return LambdaPoly([c(lam) for c in self.coeffs], lam=lam)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if self.generic and c.degree > 0:
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*y")
            else:
                parts.append(f"{cs}*y^{k}")
        return (" + ".join(parts)).replace("+ -", "- ")

    def __repr__(self):
        tag = "generic" if self.generic else str(self.lam)
        return f"LambdaPoly({str(self)!r}, lam={tag})"


# -- the closed z^s * Q family ------------------------------------------------


def z_power(y, lam: float, c: float):
    """z^(c/lam) = exp(c * log1p(lam*y^2)/lam) at float samples y (an
    ndarray), which keeps full relative precision as lam -> 0; its limit
    exp(c*y^2) stands in at lam = 0 and subnormal lam, where the two agree
    to double precision."""
    import numpy as np

    if abs(lam) < sys.float_info.min:
        return np.exp(c * y * y)
    with np.errstate(divide="ignore"):  # log1p(-1) at a wall
        return np.exp(c * (np.log1p(lam * y * y) / lam))


class LadderFunction:
    """A function z^s * Q(y), z = 1 + lam*y^2, closed under d/dy.

    The exponent ``s`` is an exact rational and ``Q`` a fixed-mode
    ``LambdaPoly``, so repeated differentiation and the ladder operators
    stay in exact arithmetic.  The degenerate value lam = 0 is supported
    with the analytic-limit envelope exp(-y^2/2) in place of z^s (there
    ``s`` is unused and differentiation follows the Gaussian rule).

    Instances are kept canonical: all full z factors are pulled out of Q
    into the exponent, so equality is plain field comparison.
    """

    __slots__ = ("lam", "s", "poly")

    def __init__(self, lam, s, poly: LambdaPoly):
        lam = exact_rational(lam)
        s = exact_rational(s)
        if poly.generic:
            raise ValueError("ladder family requires a fixed deformation value")
        if poly.lam != lam:
            raise ValueError("polynomial deformation value disagrees")
        if poly.is_zero():
            s = Fraction(0)
        elif lam != 0:
            z = LambdaPoly((1, 0, lam), lam=lam)
            while True:
                q, r = poly.divmod_poly(z)
                if r.is_zero() and not q.is_zero():
                    poly, s = q, s + 1
                else:
                    break
        else:
            s = Fraction(0)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, name, value):
        raise AttributeError("LadderFunction is immutable")

    def is_zero(self):
        return self.poly.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LadderFunction):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return (
            self.lam == other.lam
            and self.s == other.s
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.lam, self.s, self.poly))

    # -- exact operations -----------------------------------------------
    def first_order(self, steps):
        """Apply first-order operators in turn, in one integer pass.

        Each step (b, beta, ds) maps z^s Q to
        z^(s+ds) (alpha*y*Q + beta*z*Q') with alpha = b + 2*beta*lam*s
        (b - beta at lam = 0, from the Gaussian envelope): d/dy is
        (0, 1, -1).  Coefficient k of the new Q is
        (alpha + beta*lam*(k-1)) Q_{k-1} + beta*(k+1) Q_{k+1}.  Q stays
        integer numerators over one common denominator for the whole
        chain, so the result costs one ``Fraction`` per coefficient.  A
        step acts on the function, whether or not z divides Q; if every
        alpha != 0 the result is canonical as built (see the module
        docstring), else the constructor divides out z once at the end.
        At lam = 0 (z = 1) the exponent is dropped.
        """
        lam, s = self.lam, self.s
        ln, ld = lam.numerator, lam.denominator
        nums, den = integer_numerators(self.poly.coeffs)
        two_lam, canonical = 2 * lam, True
        for b, beta, ds in steps:
            alpha = b + beta * (two_lam * s if lam else -1)
            s += ds
            canonical = canonical and alpha != 0
            an, ad = alpha.numerator, alpha.denominator
            bn, bd = beta.numerator, beta.denominator
            # alpha + beta*lam*(k-1) = (a0 + a1*(k-1)) / d and
            # beta*(k+1) = b1*(k+1) / d
            d = math.lcm(ad, bd * ld)
            a0, b1 = an * (d // ad), bn * (d // bd)
            a1 = bn * ln * (d // (bd * ld))
            q = [0, 0, *nums, 0, 0]  # q[k + 1] = Q_{k-1}, q[k + 3] = Q_{k+1}
            nums = [
                (a0 + a1 * (k - 1)) * q[k + 1] + b1 * (k + 1) * q[k + 3]
                for k in range(len(q) - 3)
            ]
            while nums and not nums[-1]:
                nums.pop()
            den *= d
        poly = LambdaPoly([Fraction(c, den) for c in nums], lam=lam)
        if canonical:
            return self._canonical(s, poly)
        return LadderFunction(lam, s, poly)  # the constructor divides by z

    def differentiate(self):
        """d/dy [z^s Q] = z^(s-1) (2*lam*s*y*Q + z*Q'); at lam = 0 the
        Gaussian rule Q' - y*Q."""
        return self.first_order([DERIVATIVE])

    def _canonical(self, s, poly):
        """z^s * poly for a poly that z does not divide: no division."""
        f = object.__new__(LadderFunction)
        if self.lam == 0 or poly.is_zero():
            s = _ZERO
        for name, value in (("lam", self.lam), ("s", s), ("poly", poly)):
            object.__setattr__(f, name, value)
        return f

    # z^k, y and a scalar leave Q canonical (gcd(z, y) = 1)
    def times_z_power(self, k):
        """Multiply by z^k for rational k (no-op at lam = 0 where z = 1)."""
        return self._canonical(self.s + Fraction(k), self.poly)

    def times_y(self):
        return self._canonical(self.s, self.poly.shift_y())

    def scale(self, c):
        return self._canonical(self.s, self.poly.scale(c))

    def __add__(self, other):
        if not isinstance(other, LadderFunction):
            return NotImplemented
        if self.lam != other.lam:
            raise ValueError("mixed deformation values")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        d = self.s - other.s
        if d.denominator != 1:
            raise ValueError(
                "cannot add family members with non-integer exponent gap"
            )
        # rebase onto the smaller exponent
        if d >= 0:
            lo, hi, k = other, self, int(d)
        else:
            lo, hi, k = self, other, int(-d)
        p = hi.poly
        for _ in range(k):
            p = p.times_z()
        return LadderFunction(self.lam, lo.s, lo.poly + p)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    # -- evaluation -------------------------------------------------------
    def __call__(self, y):
        """Float evaluation (scalar or ndarray y)."""
        import numpy as np

        y = np.asarray(y, dtype=float)
        # z^s = z^(c/lam) with c = s*lam exact, finite for any tiny lam
        c = self.s * self.lam if self.lam else Fraction(-1, 2)
        out = self.poly(y) * z_power(y, float(self.lam), float(c))
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        if self.lam == 0:
            return f"LadderFunction(({self.poly}) * exp(-y^2/2))"
        return f"LadderFunction(z^({self.s}) * ({self.poly}), lam={self.lam})"
