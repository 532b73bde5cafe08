"""Polynomials in the oscillator coordinate, exact in both deformation modes.

A ``LambdaPoly`` is a dense univariate polynomial in the adimensional
coordinate y.  Its coefficients live in one of two exact rings:

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
"""

from fractions import Fraction

import numpy as np

from .exact import DensePoly, LamPoly, exact_rational

GENERIC = None  # sentinel for poly.lam in generic mode


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
    """Dense exact polynomial in y with a deformation mode tag.

    ``n`` is the nominal family index (parity bookkeeping); the true
    degree is reported by ``degree`` and can drop below ``n`` when
    leading factors vanish at special deformation values.
    """

    __slots__ = ("lam", "normalization", "n")

    def __init__(self, coeffs, lam=GENERIC, normalization=None, n=None):
        if lam is not GENERIC:
            lam = exact_rational(lam)
        self._set_coeffs([ring_elem(c, lam) for c in coeffs])
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "normalization", normalization)
        object.__setattr__(self, "n", n)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, lam=GENERIC):
        return cls((), lam=lam)

    @classmethod
    def one(cls, lam=GENERIC):
        return cls((1,), lam=lam)

    def replace(self, normalization=None, n=None):
        return LambdaPoly(
            self.coeffs,
            lam=self.lam,
            normalization=normalization or self.normalization,
            n=self.n if n is None else n,
        )

    # -- queries --------------------------------------------------------
    @property
    def generic(self):
        return self.lam is GENERIC

    @property
    def parity(self):
        """'even' or 'odd' from the nominal index (true degree if unset)."""
        k = self.n if self.n is not None else max(self.degree, 0)
        return "even" if k % 2 == 0 else "odd"

    def parity_clean(self):
        """All coefficients of the opposite parity vanish exactly."""
        k = self.n if self.n is not None else max(self.degree, 0)
        return all(
            not c for i, c in enumerate(self.coeffs) if (i - k) % 2 != 0
        )

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

    def shift_y(self, k=1):
        """Multiply by y^k."""
        if self.is_zero():
            return self
        return LambdaPoly([self._zero()] * k + list(self.coeffs), lam=self.lam)

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
    def evaluate_exact(self, y):
        """Horner evaluation with exact coefficients (y a Fraction/int)."""
        acc = self._zero()
        y = Fraction(y)
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc

    def substitute_lambda(self, lam):
        """Specialise a generic polynomial at a rational deformation value."""
        if not self.generic:
            raise ValueError("polynomial already has a fixed deformation value")
        lam = exact_rational(lam)
        return LambdaPoly(
            [c(lam) for c in self.coeffs],
            lam=lam,
            normalization=self.normalization,
            n=self.n,
        )

    def float_coeffs(self, lam=None):
        """Coefficients as floats; generic mode needs a deformation value."""
        if self.generic:
            if lam is None:
                raise ValueError("generic polynomial needs a deformation value")
            return np.array([c(float(lam)) for c in self.coeffs], dtype=float)
        return np.array([float(c) for c in self.coeffs], dtype=float)

    def __call__(self, y, lam=None):
        """Float evaluation by plain Horner on ``float_coeffs`` (scalar or
        ndarray y); exact values need ``evaluate_exact``."""
        cs = self.float_coeffs(lam)
        if cs.size == 0:
            return np.zeros_like(np.asarray(y, dtype=float)) if np.ndim(y) else 0.0
        return np.polynomial.polynomial.polyval(y, cs)

    # -- serialization ------------------------------------------------------
    def to_json_dict(self):
        return {
            "n": self.n if self.n is not None else max(self.degree, 0),
            "normalization": self.normalization or "raw",
            "lambda": "generic" if self.generic else str(self.lam),
            "coeffs": [str(c) for c in self.coeffs],
        }

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

    @classmethod
    def from_poly(cls, poly: LambdaPoly, s=0):
        return cls(poly.lam, s, poly)

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
    def differentiate(self):
        """d/dy [z^s Q] = z^(s-1) (2*lam*s*y*Q + z*Q'); Gaussian rule at 0."""
        if self.lam == 0:
            q = self.poly.derivative() - self.poly.shift_y()
            return LadderFunction(0, 0, q)
        q = self.poly.shift_y().scale(2 * self.lam * self.s) + (
            self.poly.derivative().times_z()
        )
        return LadderFunction(self.lam, self.s - 1, q)

    def times_z_power(self, k):
        """Multiply by z^k for rational k (no-op at lam = 0 where z = 1)."""
        return LadderFunction(self.lam, self.s + Fraction(k), self.poly)

    def times_y(self):
        return LadderFunction(self.lam, self.s, self.poly.shift_y())

    def scale(self, c):
        return LadderFunction(self.lam, self.s, self.poly.scale(c))

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
        y = np.asarray(y, dtype=float)
        if self.lam == 0:
            env = np.exp(-0.5 * y * y)
        else:
            env = np.exp(float(self.s) * np.log1p(float(self.lam) * y * y))
        out = self.poly(y) * env
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        if self.lam == 0:
            return f"LadderFunction(({self.poly}) * exp(-y^2/2))"
        return f"LadderFunction(z^({self.s}) * ({self.poly}), lam={self.lam})"
