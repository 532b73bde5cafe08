"""Eigenfunctions: polynomial factor times the envelope (1+lam*y^2)^(-1/(2 lam)).

Unnormalized functions are the primitive.  Normalization constants (the
convention is unit measure-norm) are closed forms, O(m) float work from
the three-term recursion and the total mass of the measure; quadrature
against the measure (``mu_inner``, ``gram_matrix``) is the independent
oracle that checks them: each overlap is the pair's polynomial factor
in the compact coordinate t (``WaveFunction.factor``) on the measure's
own Gauss rule, exact up to rounding (``quadrature``).  The polynomial
factor is in the generating-function normalization
(``hermite.generating_coeffs``).

Float values run the paper's three-term recursion from psi_0 = envelope:
no monomial coefficients to cancel, and no overflow in slowly decaying
tails where the polynomial factor alone is out of float range.
``normalized`` runs it on orthonormal coefficients (the Jacobi matrix
of ``nodes``), so its values stay in float range at every index.

Importing this module loads only ``params``.  Building a function and
its norm is exact or scalar work and imports no numpy; the float paths
import numpy, the recursion's ``hermite`` and ``polynomials``' z-power,
and ``mu_inner`` the quadrature, when they run.
"""

import math
import sys

from .params import chart, classify

# from this b on, Gamma(b + 1/2)/Gamma(b) comes from its asymptotic series
# rather than math.gamma; six terms leave a truncation error below 1e-17
GAMMA_RATIO_SWITCH = 16.0
# log(Gamma(b + 1/2)/Gamma(b)) - log(b)/2 = sum_k c_k b^(1-2k), with
# c_k = -(2 - 2^(1-2k)) B_2k / (2k(2k-1)) (DLMF 5.11.8 at h = 1/2 and 0)
_GAMMA_RATIO_SERIES = (
    -1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224
)
# a squared norm of 2^2200 or more has a norm constant that rounds to 0.0
_NORM_EXPONENT_CAP = 2200


def envelope(y, lam) -> float:
    """The decay factor (1 + lam*y^2)^(-1/(2 lam)) on the domain, from
    ``polynomials.z_power`` (its Gaussian limit at lam = 0)."""
    import numpy as np

    from .polynomials import z_power

    out = z_power(np.asarray(y, dtype=float), float(lam), -0.5)
    return float(out) if out.ndim == 0 else out


class WaveFunction:
    """Eigenfunction data for index m at one deformation value.

    ``lam`` may be a float or an exact Fraction; values are float
    either way, from the three-term recursion at float(lam).  The domain
    is the open interval between the walls for negative deformation and
    the whole line otherwise.
    """

    def __init__(self, m: int, lam):
        dp = classify(lam)
        dp.check_index(m)
        self.m = m
        self.lam = lam
        self.deformation = dp
        self._coeffs = {}  # keyed by normalized

    def _recurse(self, x, normalized, start=None, damp=1.0):
        """psi_m from psi_{n+1} = a_n x psi_n - b_n damp psi_{n-1}, psi_0 =
        c * start (the envelope by default): plain, (a_n, b_n) and c = 1;
        or orthonormal, (1, sqrt(beta_n)) / sqrt(beta_{n+1}) and
        c = 1/sqrt(M_0)."""
        import numpy as np

        if normalized not in self._coeffs:
            from .hermite import recursion_coeffs

            if normalized:
                r = _sqrt_beta(self.m, self.lam)
                a, b = 1.0 / r, np.append(0.0, r[:-1]) / r
                c = measure_mass(self.lam) ** -0.5
            else:
                a, b = recursion_coeffs(np.arange(self.m), float(self.lam))
                c = 1.0
            self._coeffs[normalized] = c, a.tolist(), b.tolist()
        c, a, b = self._coeffs[normalized]
        x = np.asarray(x, dtype=float)
        if start is None:
            start = envelope(x, self.lam)
        prev, psi = 0.0, start * c
        for a_n, b_n in zip(a, b):
            prev, psi = psi, a_n * x * psi - b_n * damp * prev
        return psi

    def __call__(self, y):
        """Unnormalized value (scalar or ndarray, assumed in-domain)."""
        return self._recurse(y, False)

    def normalized(self, y):
        """``self(y) * norm_constant(self)``, in float range at any index."""
        return self._recurse(y, True)

    def factor(self, t, normalized=False):
        """The polynomial factor at ``quadrature``'s t (an ndarray), plain
        or orthonormal, on the chart of ``params.chart``: h_m(t/w) for
        lam <= 0 (h_m(t) on the identity chart); for lam > 0
        H_m(t) = h_m(y) (1 - t^2)^(m/2) from
        H_{n+1} = a_n (t/w) H_n - b_n (1 - t^2) H_{n-1}, in float range
        where h_m(y) alone would overflow."""
        import numpy as np

        ch = chart(float(self.lam))
        t = np.asarray(t, dtype=float)
        damp = (1.0 - t) * (1.0 + t) if ch.sig > 0 else 1.0
        return self._recurse(t / ch.w, normalized, np.ones_like(t), damp)


def wavefunction(m: int, lam) -> WaveFunction:
    """Construct the index-m eigenfunction at a deformation value."""
    return WaveFunction(m, lam)


def _sqrt_beta(n, lam):
    """sqrt(beta_k), k = 1..n, beta_k = b_k / (a_k a_{k-1}) from
    ``hermite.recursion_coeffs``: the monic recursion's Jacobi matrix
    off-diagonal, positive at every index the constructor admits."""
    import numpy as np

    from .hermite import recursion_coeffs

    a, b = recursion_coeffs(np.arange(n + 1), float(lam))
    return np.sqrt(b[1:] / (a[1:] * a[:-1]))


def nodes(w: WaveFunction) -> list[float]:
    """The m simple zeros of the polynomial factor, ascending and
    symmetric under negation (an odd index has exactly 0.0 at the centre).

    They are the eigenvalues of the Jacobi matrix of the three-term
    recursion made monic (Golub & Welsch, Math. Comp. 23 (1969) 221):
    zero diagonal, off-diagonal ``_sqrt_beta``.  These are the zeros of
    the index-m family member at float(w.lam), and so of every polynomial
    proportional to it, as ``factorization.build_state``'s is.  The
    matrix is tridiagonal, so LAPACK sterf solves it from its two
    diagonals in O(m) memory.
    """
    if w.m == 0:
        return []
    import numpy as np

    from ._lapack import all_eigenvalues

    x = all_eigenvalues(np.zeros(w.m), _sqrt_beta(w.m - 1, w.lam))
    return ((x - x[::-1]) / 2).tolist()


def mu_inner(w1: WaveFunction, w2: WaveFunction) -> float:
    """Inner product against the invariant measure (symmetric): the
    pair's polynomial factor, ``factor``, on the measure's Gauss rule
    for degree w1.m + w2.m (``quadrature``), exact up to rounding."""
    from . import quadrature

    if float(w1.lam) != float(w2.lam):
        raise ValueError("deformation values differ")
    return quadrature.integrate_measure(
        lambda t: w1.factor(t) * w2.factor(t), float(w1.lam), w1.m + w2.m)


def measure_mass(lam) -> float:
    """M_0, the integral of (1 + lam y^2)^(-1/lam - 1/2) over the domain.

    sqrt(pi), the Gaussian limit, at |lam| < ``sys.float_info.min``, where
    b below would overflow; otherwise |lam|^(-1/2) B(1/2, b) =
    sqrt(pi/|lam|) Gamma(b)/Gamma(b + 1/2) with b = 1/lam for lam > 0 and
    b = 1/|lam| + 1/2 for lam < 0 (DLMF §5.12).  For large b the ratio
    comes from its asymptotic series, not from a difference of lgamma
    values, which would cancel about log10(b log b) digits.
    """
    lam = float(lam)
    if abs(lam) < sys.float_info.min:
        return math.sqrt(math.pi)
    size = abs(lam)
    b = 1.0 / size if lam > 0 else 1.0 / size + 0.5
    if b < GAMMA_RATIO_SWITCH:
        return math.sqrt(math.pi / size) * math.gamma(b) / math.gamma(b + 0.5)
    x2 = 1.0 / (b * b)
    series = 0.0
    for c in reversed(_GAMMA_RATIO_SERIES):
        series = series * x2 + c
    return math.sqrt(math.pi / (size * b)) * math.exp(-series / b)


def norm_constant(w: WaveFunction) -> float:
    """1/sqrt(<w, w>): multiplying by it makes the measure-norm one.

    A closed form in O(m) float work.  In the generating normalization

        <h_m, h_m> = M_0 m! prod_{k<m} (2 - k lam) / (1 - m lam),

    M_0 = ``measure_mass(lam)``: M_0 times the squared leading
    coefficient prod a_n times the monic recursion's beta_1..beta_m,
    which telescopes (Golub & Welsch, Math. Comp. 23 (1969) 221).  The
    product runs as a mantissa and a binary exponent, so it cannot
    overflow; on the bound range every factor is at least 1 (the last
    one carries the 1/(1 - m lam)), so once the exponent passes the cap
    the constant is 0.0 and the loop stops.
    """
    from .hermite import recursion_coeffs

    lam = float(w.lam)
    mant, exp = math.frexp(measure_mass(lam))
    for k in range(1, w.m + 1):
        factor = recursion_coeffs(k, lam)[1]
        if k == w.m:
            factor /= 1.0 - k * lam
        mant *= factor
        if mant > 1e300:
            mant, e = math.frexp(mant)
            exp += e
            if exp > _NORM_EXPONENT_CAP:
                return 0.0
    if exp % 2:
        mant, exp = mant * 2.0, exp - 1
    return math.ldexp(1.0 / math.sqrt(mant), -exp // 2)


def gram_matrix(lam, max_index: int):
    """Normalized overlap matrix of the bound functions up to an index
    (the last bound one, if that is lower).

    Entries are <psi_i, psi_j> / sqrt(<psi_i,psi_i><psi_j,psi_j>) by
    ``mu_inner``, one rule per entry; the diagonal is exactly one, and
    the parity-odd pairs are exact zeros by the rules' symmetric pairs.
    """
    import numpy as np

    if max_index < 0:
        raise ValueError("index must be nonnegative")
    top = classify(lam).top_index(max_index)
    ws = [wavefunction(m, lam) for m in range(top + 1)]
    n = top + 1
    out = np.eye(n)
    norms = [math.sqrt(mu_inner(w, w)) for w in ws]
    for i in range(n):
        for j in range(i + 1, n):
            raw = mu_inner(ws[i], ws[j])
            out[i, j] = out[j, i] = raw / (norms[i] * norms[j])
    return out


def eigen_equation_residual(m: int, lam, ys) -> float:
    """Largest relative residual of the adimensional eigenvalue equation
    (1+lam*y^2) psi'' + lam*y psi' - (1+lam) y^2/(1+lam*y^2) psi + 2e psi = 0
    over the sample points, with derivatives taken analytically on the
    closed z^s * Q family (exact polynomials, each value rounded once,
    times the float envelope); at lam = 0 the family carries the
    Gaussian limit."""
    import numpy as np

    from .exact import exact_rational
    from .hermite import generating_coeffs
    from .polynomials import LadderFunction
    from .spectrum import energy

    lam = exact_rational(lam)
    s = -1 / (2 * lam) if lam else 0
    psi = LadderFunction(lam, s, generating_coeffs(m, lam)[m])
    dpsi = psi.differentiate()
    e = float(energy(lam, m))
    ys = np.asarray(ys, dtype=float)
    lam_f, p = float(lam), psi(ys)
    z = 1.0 + lam_f * ys * ys
    t1 = z * dpsi.differentiate()(ys)
    t2 = lam_f * ys * dpsi(ys)
    t3 = -(1.0 + lam_f) * ys * ys / z * p
    t4 = 2.0 * e * p
    resid = np.abs(t1 + t2 + t3 + t4)
    scale = np.maximum.reduce([np.abs(t1), np.abs(t2), np.abs(t3), np.abs(t4)])
    scale = np.where(scale == 0, 1.0, scale)
    return float(np.max(resid / scale))
