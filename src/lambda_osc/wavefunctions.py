"""Eigenfunctions: polynomial factor times the envelope (1+lam*y^2)^(-1/(2 lam)).

Unnormalized functions are the primitive; normalization constants come
from quadrature against the invariant measure (the convention is unit
measure-norm).  The polynomial factor uses the generating-function
normalization unless a constructor hands in a proportional one.

Float values run the paper's three-term recursion from psi_0 = envelope:
no monomial coefficients to cancel, and no overflow in slowly decaying
tails where the polynomial factor alone is out of float range.
"""

import math
from fractions import Fraction

import numpy as np

from . import quadrature
from .exact import exact_rational
from .hermite import NORM_GENERATING, generating_coeffs, recursion_coeffs
from .params import classify
from .polynomials import LadderFunction, LambdaPoly
from .spectrum import energy

# below this the envelope switches to its analytic limit exp(-y^2/2);
# the direct power form loses about half the digits as lam -> 0
ENVELOPE_SWITCH = 1e-8


def envelope(y, lam) -> float:
    """The decay factor (1 + lam*y^2)^(-1/(2 lam)) on the domain.

    Near zero deformation the analytically-equal Gaussian limit is used
    to avoid catastrophic cancellation.
    """
    lam_f = float(lam)
    y = np.asarray(y, dtype=float)
    if abs(lam_f) < ENVELOPE_SWITCH:
        out = np.exp(-0.5 * y * y)
    else:
        with np.errstate(divide="ignore"):
            out = np.exp(-np.log1p(lam_f * y * y) / (2.0 * lam_f))
    return float(out) if out.ndim == 0 else out


class WaveFunction:
    """Eigenfunction data for index m at one deformation value.

    ``lam`` may be a float or an exact Fraction; exactness propagates to
    the polynomial factor.  The domain is the open interval between the
    walls for negative deformation and the whole line otherwise.
    """

    def __init__(self, m: int, lam, poly: LambdaPoly | None = None):
        if m < 0:
            raise ValueError("index must be nonnegative")
        dp = classify(lam)
        if dp.n_max is not None and m > dp.n_max:
            raise ValueError(
                f"index {m} is not normalizable at deformation {lam} "
                f"(cutoff {dp.cutoff})"
            )
        self.m = m
        self.lam = lam
        self.deformation = dp
        if poly is None:
            if isinstance(lam, (Fraction, int)):
                poly = generating_coeffs(m, Fraction(lam))[m]
            else:
                poly = generating_coeffs(m)[m]  # generic; evaluated at float lam
        self.poly = poly
        self._coeffs = None

    @property
    def half_width(self):
        return self.deformation.half_width

    @property
    def envelope_exponent(self):
        """Exponent of z in the decay factor, -1/(2 lam)."""
        lam = self.lam
        if isinstance(lam, (Fraction, int)) and lam != 0:
            return -1 / (2 * Fraction(lam))
        return None if lam == 0 else -1.0 / (2.0 * float(lam))

    def _recurse(self, y, psi):
        """psi_m from psi_{n+1} = a_n y psi_n - b_n psi_{n-1}, psi_0 = psi."""
        y = np.asarray(y, dtype=float)
        if self._coeffs is None:
            a, b = recursion_coeffs(np.arange(self.m), float(self.lam))
            scale = 1.0
            if self.poly.normalization != NORM_GENERATING:
                # leading coefficient over the generating one, prod a_n
                lead = math.prod(
                    recursion_coeffs(n, self.poly.lam)[0] for n in range(self.m)
                )
                scale = float(self.poly.coefficient(self.m) / lead)
            self._coeffs = a.tolist(), b.tolist(), scale
        a, b, scale = self._coeffs
        prev, psi = 0.0, psi * scale
        for a_n, b_n in zip(a, b):
            prev, psi = psi, a_n * y * psi - b_n * prev
        return psi

    def poly_values(self, y):
        """Polynomial factor alone (scalar or ndarray)."""
        seed = np.ones_like(y, dtype=float) if np.ndim(y) else 1.0
        return self._recurse(y, seed)

    def __call__(self, y):
        """Unnormalized value (scalar or ndarray, assumed in-domain)."""
        return self._recurse(y, envelope(y, self.lam))


def wavefunction(m: int, lam) -> WaveFunction:
    """Construct the index-m eigenfunction at a deformation value."""
    return WaveFunction(m, lam)


def evaluate(w: WaveFunction, y: float) -> float:
    """Value at a single point, with domain checking."""
    a = w.half_width
    if a is not None and not -a < y < a:
        raise ValueError(f"coordinate {y} outside the open domain (+-{a})")
    return float(w(np.asarray(y, dtype=float)))


def nodes(w: WaveFunction) -> list[float]:
    """The m simple zeros of the polynomial factor, ascending and
    symmetric under negation (an odd index has exactly 0.0 at the centre).

    They are the eigenvalues of the Jacobi matrix of the three-term
    recursion made monic (Golub & Welsch, Math. Comp. 23 (1969) 221):
    zero diagonal, off-diagonal sqrt(beta_n) with beta_n = b_n / (a_n
    a_{n-1}) from ``hermite.recursion_coeffs``, i.e.
    n(2 - (n-1) lam) / (4 (1 - n lam)(1 - (n-1) lam)), positive at every
    index the constructor admits.  These are the zeros of the index-m
    family member at float(w.lam); the constructors
    (``wavefunction``, ``factorization.build_state``) only make
    polynomials proportional to it.
    """
    a, b = recursion_coeffs(np.arange(w.m), float(w.lam))
    jacobi = np.zeros((w.m, w.m))
    jacobi[range(1, w.m), range(w.m - 1)] = np.sqrt(b[1:] / (a[1:] * a[:-1]))
    x = np.linalg.eigvalsh(jacobi)
    return ((x - x[::-1]) / 2).tolist()


def mu_inner(w1: WaveFunction, w2: WaveFunction, rtol: float = 1e-10) -> float:
    """Inner product against the invariant measure (symmetric).

    For positive deformation both indices must be normalizable, which
    the constructor already enforces; the truncation half-width comes
    from the combined polynomial degree.
    """
    if float(w1.lam) != float(w2.lam):
        raise ValueError("deformation values differ")
    lam = float(w1.lam)
    quadrature.check_rtol(rtol)  # before the tail bound takes its log
    u = quadrature.overlap_halfwidth(
        lam, w1.poly.degree + w2.poly.degree, tail_tol=min(rtol, 1e-12) * 1e-2
    )
    spec = quadrature.QuadratureSpec(lam=lam, half_width=u, rtol=rtol)
    return quadrature.integrate_measure(lambda y: w1(y) * w2(y), spec)


def norm_constant(w: WaveFunction, rtol: float = 1e-10) -> float:
    """1/sqrt(<w, w>): multiplying by it makes the measure-norm one."""
    return 1.0 / math.sqrt(mu_inner(w, w, rtol=rtol))


def gram_matrix(lam, max_index: int | None = None, rtol: float = 1e-10):
    """Normalized overlap matrix of the bound functions up to an index.

    Entries are <psi_i, psi_j> / sqrt(<psi_i,psi_i><psi_j,psi_j>); the
    parity-odd pairs are exact zeros by the symmetric quadrature design.
    """
    dp = classify(lam)
    top = max_index
    if dp.n_max is not None:
        top = dp.n_max if top is None else min(top, dp.n_max)
    if top is None:
        raise ValueError("an index bound is required for this deformation")
    ws = [wavefunction(m, lam) for m in range(top + 1)]
    n = top + 1
    out = np.eye(n)
    norms = [math.sqrt(mu_inner(w, w, rtol=rtol)) for w in ws]
    for i in range(n):
        for j in range(i + 1, n):
            raw = mu_inner(ws[i], ws[j], rtol=rtol)
            out[i, j] = out[j, i] = raw / (norms[i] * norms[j])
    return out


def eigen_equation_residual(m: int, lam, ys) -> float:
    """Largest relative residual of the adimensional eigenvalue equation
    (1+lam*y^2) psi'' + lam*y psi' - (1+lam) y^2/(1+lam*y^2) psi + 2e psi = 0
    over the sample points, with derivatives taken analytically on the
    closed z^s * Q family (exact coefficients, float evaluation)."""
    lam = exact_rational(lam)
    if lam == 0:
        raise ValueError("use the classical oscillator for zero deformation")
    poly = generating_coeffs(m, lam)[m]
    psi = LadderFunction(lam, -1 / (2 * lam), poly)
    dpsi = psi.differentiate()
    ddpsi = dpsi.differentiate()
    e = float(energy(lam, m))
    ys = np.asarray(ys, dtype=float)
    lam_f = float(lam)
    z = 1.0 + lam_f * ys * ys
    t1 = z * ddpsi(ys)
    t2 = lam_f * ys * dpsi(ys)
    t3 = -(1.0 + lam_f) * ys * ys / z * psi(ys)
    t4 = 2.0 * e * psi(ys)
    resid = np.abs(t1 + t2 + t3 + t4)
    scale = np.maximum.reduce([np.abs(t1), np.abs(t2), np.abs(t3), np.abs(t4)])
    scale = np.where(scale == 0, 1.0, scale)
    return float(np.max(resid / scale))
