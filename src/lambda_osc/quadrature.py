"""Gauss rules of the invariant measure in its compact coordinate t.

The overlap <psi_m, psi_n>, the integral of h_m h_n (1 + lam y^2)^(-1/lam
- 1/2) over the domain, is |lam|^(-1/2) times a degree-(m + n)
polynomial in t against (1 - t^2)^a on (-1, 1):

* lam < 0: t = sqrt(|lam|) y and a = 1/|lam| - 1/2;
* lam > 0: t = tanh(sqrt(lam) u) of the flattening coordinate u, so
  y = t/sqrt(lam (1 - t^2)); the factor is H_m H_n, H_n = h_n(y)
  (1 - t^2)^(n/2), and a = 1/lam - 1 - (m + n)/2 > -1 exactly for a
  bound pair (the finite orthogonality of the Romanovski polynomials);
* on the identity chart of ``params.chart`` (lam = 0 and subnormal
  lam): t = y against exp(-t^2), with no |lam|^(-1/2).

So the weight's Gauss rule with (m + n)//2 + 1 nodes is exact: nothing
is truncated and nothing has to converge.  The rule comes from the
weight alone (Golub & Welsch, Math. Comp. 23 (1969) 221): the monic
Gegenbauer (DLMF 18.9.1, Table 18.3.1) or Hermite Jacobi matrix, solved
by LAPACK ``dsterf`` and one Newton step, Christoffel weights from the
orthonormal recurrence and the mass B(1/2, a + 1).  It reads nothing of the closed
forms, so a wrong recursion or norm still shows.  Nodes are summed in
+- pairs, so an integrand odd in exact arithmetic cancels exactly.
"""

import math

import numpy as np

from ._lapack import all_eigenvalues
from .params import chart

# from this b on, Gamma(b)/Gamma(b + 1/2) comes from its asymptotic series
# rather than math.gamma; six terms leave a truncation error below 1e-17
_SERIES_FROM = 16.0
# log(Gamma(b + 1/2)/Gamma(b)) - log(b)/2 = sum_k c_k b^(1-2k) (DLMF 5.11.8)
_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224)


def _mass(size: float, b: float) -> float:
    """size^(-1/2) B(1/2, b) = sqrt(pi/size) Gamma(b)/Gamma(b + 1/2), by
    the series for large b, where lgamma differences would cancel."""
    if b < _SERIES_FROM:
        return math.sqrt(math.pi / size) * math.gamma(b) / math.gamma(b + 0.5)
    series = 0.0
    for c in reversed(_SERIES):
        series = series / (b * b) + c
    return math.sqrt(math.pi / (size * b)) * math.exp(-series / b)


def _jacobi(lam: float, degree: int, n: int):
    """(mu_0, beta_1..beta_{n-1}): the mass and the monic Jacobi matrix's
    squared off-diagonal of the weight in t that a polynomial factor of
    this degree carries (the degree matters only for lam > 0)."""
    ch = chart(lam)
    if not ch.sig:
        return math.sqrt(math.pi), np.arange(1, n) / 2
    a = 1 / ch.size - 0.5 if ch.sig < 0 else 1 / ch.size - 1 - degree / 2
    if not a > -1:
        raise ValueError(f"degree {degree} is not normalizable at "
                         f"deformation {lam}")
    # k(k + 2a)/((2k + 2a + 1)(2k + 2a - 1)), as two ratios that cannot
    # overflow; at k = 1 it is 1/(2a + 3), also where a = -1/2 makes it 0/0
    k = np.arange(2.0, n)
    c = 2 * (k + a)
    beta = np.append(1 / (2 * a + 3), k / (c + 1) * ((k + 2 * a) / (c - 1)))
    return _mass(ch.size, a + 1), beta[:n - 1]


def _orthonormal(x, root):
    """p_n(x), p_n'(x) and sum_{k<n} p_k(x)^2 from the orthonormal
    recurrence sqrt(beta_{k+1}) p_{k+1} = x p_k - sqrt(beta_k) p_{k-1},
    p_0 = 1, given ``root`` = sqrt(beta_1..beta_n)."""
    prev, p, total = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    dprev, dp = np.zeros_like(x), np.zeros_like(x)
    for r_prev, r in zip(np.append(0.0, root[:-1]), root):
        total += p * p
        prev, p, dprev, dp = (p, (x * p - r_prev * prev) / r,
                              dp, (p + x * dp - r_prev * dprev) / r)
    return p, dp, total


def gauss_rule(lam: float, degree: int, n: int):
    """The n-node Gauss rule of ``_jacobi(lam, degree, n)``: nodes ascending
    and symmetric under negation, the eigensolver's polished by one
    Newton step on p_n, and their Christoffel weights
    mu_0 / sum_{k<n} p_k(x)^2 over the orthonormal p_k."""
    mu0, beta = _jacobi(lam, degree, n + 1)
    root = np.sqrt(beta)
    x = all_eigenvalues(np.zeros(n), root[:-1])
    x = (x - x[::-1]) / 2
    p, dp, _ = _orthonormal(x, root)
    x = x - p / dp
    return x, mu0 / _orthonormal(x, root)[2]


def integrate_measure(f, lam: float, degree: int) -> float:
    """The integral of f(t), a polynomial of at most ``degree`` evaluated
    on an ndarray of t, against the weight of ``_jacobi(lam, degree, .)``;
    the overlap <psi_m, psi_n> is the one of the pair's polynomial factor
    with degree m + n.  The rule has degree//2 + 1 nodes, so it is exact
    up to rounding; a ValueError refuses a degree the weight cannot carry.
    """
    x, w = gauss_rule(float(lam), degree, degree // 2 + 1)
    fx = np.asarray(f(x), dtype=float)
    half = x.size // 2
    total = w[:half] @ (fx[:half] + fx[::-1][:half])
    if x.size % 2:
        total += w[half] * fx[half]
    return float(total)
