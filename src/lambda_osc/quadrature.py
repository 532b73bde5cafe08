"""Integration against the invariant measure dy / sqrt(1 + lam*y^2).

A change of variable flattens the measure exactly in both regimes:

* negative deformation: y = sin(theta)/sqrt(|lam|) turns the integral
  into a plain theta-integral over (-pi/2, pi/2), scaled by
  1/sqrt(|lam|);
* positive deformation: y = sinh(u*sqrt(lam))/sqrt(lam) flattens the
  measure on the whole line; the u-integral is truncated at a
  half-width chosen from the integrand's analytic decay rate;
* zero deformation: the measure is already flat.

Gauss-Legendre on the transformed interval, with node doubling until
two successive estimates agree.  Each rule is built on its positive half
only, by Newton's method on the Legendre recurrence from asymptotic
starting nodes, in O(n) memory and with no eigensolve.  Nodes are
applied in symmetric pairs, so integrands odd in exact arithmetic cancel
exactly in floating point too.
"""

import math

import numpy as np

# smallest relative tolerance double-precision node doubling can meet
RTOL_FLOOR = 1e-14
# node doubling starts from this rule and raises NonConvergenceError
# rather than go past the cap
START_NODES = 32
NODE_CAP = 1 << 15
# Newton on the Legendre nodes stops once no node moves by more than this
NEWTON_STEP = 4e-16

_NODE_CACHE: dict[int, tuple] = {}


class NonConvergenceError(RuntimeError):
    """Node doubling hit the cap, or found f = 0 at every node of the rule
    it would accept; carries the last two estimates."""

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class DivergentTailError(ValueError):
    """The transformed integrand fails to decay toward the truncation edge."""


def check_rtol(rtol: float) -> None:
    if rtol < RTOL_FLOOR:
        raise ValueError("tolerance below attainable floating-point accuracy")


def overlap_halfwidth(lam: float, degree: int, tail_tol: float = 1e-14) -> float:
    """Truncation half-width for a polynomial-pair measure integrand.

    For positive deformation the flattened integrand behaves like
    cosh(u*sqrt(lam))^(degree - 2/lam) with degree the combined
    polynomial degree, so it decays like exp(-kappa*u) with
    kappa = (2/lam - degree)*sqrt(lam); the half-width makes the tail
    bound fall below ``tail_tol`` relative to the integrand peak.
    For zero deformation the Gaussian envelope dominates.
    """
    if lam < 0:
        return 0.0
    if lam == 0:
        # envelope exp(-u^2): solve exp(-U^2) * U^degree ~ tail_tol
        u = math.sqrt(-math.log(tail_tol) + 4.0)
        for _ in range(20):
            u = math.sqrt(-math.log(tail_tol) + max(degree, 1) * math.log(u + 2.0))
        return u + 2.0
    kappa = (2.0 / lam - degree) * math.sqrt(lam)
    if kappa <= 0:
        raise DivergentTailError(
            f"combined degree {degree} is not normalizable at deformation {lam}"
        )
    # peak of y^degree * envelope sits near where the exponent balances
    u_peak = (math.asinh(math.sqrt(degree * lam / 2.0)) / math.sqrt(lam)
              if degree > 0 else 0.0)
    u = u_peak + (-math.log(tail_tol) + degree * math.log(2.0) + 5.0) / kappa
    # keep sinh within floating-point range
    return min(u, 600.0 / math.sqrt(lam))


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) from the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}, vectorised over x."""
    prev = np.ones_like(x)
    cur = x.copy()
    nxt = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, cur, out=nxt)
        nxt *= (2 * k + 1) / (k + 1)
        prev *= k / (k + 1)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    # (1 - x)(1 + x) keeps full relative precision near x = 1
    return cur, n * (prev - x * cur) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre_half(n: int):
    """The n // 2 positive nodes of the n-point Gauss-Legendre rule on
    (-1, 1), ascending, with their weights (an odd rule's centre node is
    left out); n >= 2.

    Tricomi's asymptotic nodes start Newton's method on P_n, evaluated by
    its three-term recurrence in O(n) memory (Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013) A652), until no node moves by more than
    NEWTON_STEP; the weights are 2 / ((1 - x^2) P_n'(x)^2) at the final
    nodes.  O(n^2) work over n // 2 nodes, no eigensolve.
    """
    k = np.arange(n // 2, 0, -1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = np.cos(theta) * (1.0 - (n - 1) / (8 * n**3)
                         - (39 - 28 / np.sin(theta)**2) / (384 * n**4))
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.abs(step).max() <= NEWTON_STEP:
            break
    _, dp = _legendre(n, x)
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def _paired_nodes(n: int):
    """Positive Gauss-Legendre nodes, ascending, with their weights.

    Returns (x_pos, w_pos); the rule on (-1, 1) is the sum of
    w*(f(x) + f(-x)) over the pairs, and the edgemost node is the last.
    Every rule has START_NODES * 2^k nodes, an even count, so none sits
    at the centre.  Pairing enforces exact cancellation for odd
    integrands.  Each rule is built once per process.
    """
    cached = _NODE_CACHE.get(n)
    if cached is None:
        cached = _NODE_CACHE[n] = _gauss_legendre_half(n)
    return cached


def _estimate(f_of_t, half_len: float, n: int):
    """Gauss-Legendre estimate on (-half_len, half_len) by symmetric pairs.

    Returns (integral, integral of |f|, max |f| at the two edgemost nodes).
    """
    xp, wp = _paired_nodes(n)
    t = xp * half_len
    fp = np.asarray(f_of_t(t), dtype=float)
    fm = np.asarray(f_of_t(-t), dtype=float)
    total = float(np.sum(wp * (fp + fm)) * half_len)
    total_abs = float(np.sum(wp * (np.abs(fp) + np.abs(fm))) * half_len)
    edge = max(abs(float(fp[-1])), abs(float(fm[-1])))
    return total, total_abs, edge


def integrate_measure(f, lam: float, half_width: float | None = None,
                      rtol: float = 1e-10) -> float:
    """Integral of f against the invariant measure over the full domain.

    ``f`` must accept ndarray arguments in the original coordinate.  The
    sign of ``lam`` picks the change of variable.  ``half_width`` is the
    truncation half-width U of the flattening coordinate, required for
    lam >= 0 and ignored for negative deformation, where the walls fix
    the interval.  Node doubling stops when two successive estimates
    agree to ``rtol`` relative to the integral of |f|.
    Raises DivergentTailError when the truncated integrand visibly fails
    to decay, and NonConvergenceError when node doubling exhausts the cap
    or f is 0 at every node of a rule whose estimate would be accepted:
    an integral of |f| of exactly 0 gives no scale to agree against, and
    a zero integrand looks the same as one whose support the nodes miss.
    """
    check_rtol(rtol)
    lam = float(lam)
    walls = lam < 0
    if walls:
        root = math.sqrt(-lam)
        half_len = math.pi / 2.0

        def transformed(t):
            return f(np.sin(t) / root) / root

    else:
        if half_width is None or not half_width > 0:
            raise ValueError("positive truncation half-width required")
        half_len = float(half_width)
        if lam > 0:
            root = math.sqrt(lam)

            def transformed(t):
                return f(np.sinh(root * t) / root)

        else:
            transformed = f

    n = START_NODES
    prev = None
    while True:
        est, est_abs, edge = _estimate(transformed, half_len, n)
        if not walls and edge * half_len > 1e3 * rtol * est_abs:
            raise DivergentTailError(
                f"integrand does not decay at the truncation edge "
                f"(edge value {edge:.3e} vs integral scale {est_abs:.3e})"
            )
        if prev is not None and abs(est - prev) <= rtol * est_abs:
            if est_abs == 0:
                raise NonConvergenceError(
                    f"integrand is 0 at every node of the {n}-node rule "
                    f"and the {n // 2}-node estimate is 0, so its scale is "
                    f"unknown (last {est!r}, previous {prev!r})",
                    last=est,
                    previous=prev,
                )
            return est
        if 2 * n > NODE_CAP:
            raise NonConvergenceError(
                f"no convergence with {n} nodes "
                f"(last {est:.17g}, previous {prev!r})",
                last=est,
                previous=prev,
            )
        prev = est
        n *= 2
