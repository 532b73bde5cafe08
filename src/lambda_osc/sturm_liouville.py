"""Independent finite-difference eigensolver for the deformed oscillator.

Works in the flattening coordinate u of ``params.chart``, where the
deformed kinetic operator is exactly -(1/2) d^2/du^2 (the momentum
operator is sqrt(1 + lam*y^2) d/dy, which is d/du), the measure is flat
and the effective potential is the chart's.  The grid is cell-centered,
so the walls of a negative deformation put no infinite entry on the
diagonal.  This module shares no code with the closed-form spectrum: it
is the cross-validation oracle.
"""

import math
from collections import namedtuple

import numpy as np

from ._lapack import lowest_eigenvalues
from .params import chart, classify

# first grid of refine() and convergence_order(); refine() doubles it up
# to GRID_CAP and then raises RefinementError
GRID_START = 512
GRID_CAP = 1 << 14


class RefinementError(RuntimeError):
    """Grid refinement exhausted the cap; carries the level diagnostics."""

    def __init__(self, message, levels=None):
        super().__init__(message)
        self.levels = levels or []


def potential_u(u, lam: float):
    """Effective potential (1 + lam) T(w u)^2 / (2 size) of the chart."""
    ch = chart(lam)
    r = ch.funcs(np)[0](ch.w * np.asarray(u, dtype=float))
    return 0.5 * (1.0 + lam) * r ** 2 / ch.size


class SLDiscretization(namedtuple("SLDiscretization",
                                  "lam n half_width u diag offdiag")):
    """Assembled symmetric tridiagonal operator on a cell-centered grid."""

    __slots__ = ()


def assemble(lam: float, n: int, half_width: float | None = None) -> SLDiscretization:
    """Build the finite-difference operator.

    The grid is cell-centered: u_i = -U + (i - 1/2) h with h = 2U/n, so
    the endpoints are excluded.  Dirichlet walls are imposed through
    antisymmetric ghost values, which adds 1/(2 h^2) to the first and
    last diagonal entries and keeps the matrix symmetric.  U is the
    chart's wall if the chart has one and ``half_width`` is None or lies
    beyond it; a chart without a wall needs a finite positive half_width.
    """
    if n < 64:
        raise ValueError(f"grid size {n} too small (need at least 64)")
    ch = chart(lam)
    wall = ch.wall / ch.w
    if half_width is None or half_width > wall:
        half_width = wall
    if not 0 < half_width < math.inf:
        raise ValueError("a positive truncation half-width is required")
    h = 2.0 * half_width / n
    u = -half_width + (np.arange(1, n + 1) - 0.5) * h
    inv2 = 1.0 / (2.0 * h * h)
    diag = 2.0 * inv2 + potential_u(u, lam)
    diag[0] += inv2
    diag[-1] += inv2
    offdiag = np.full(n - 1, -inv2)
    return SLDiscretization(lam, n, half_width, u, diag, offdiag)


def eigenvalues(disc: SLDiscretization, k: int) -> np.ndarray:
    """Lowest k eigenvalues, ascending (deterministic for fixed inputs).

    Raises ValueError for k < 1 (``lowest_eigenvalues`` refuses it before
    LAPACK sees it), for more levels than the grid resolves, and for a
    non-finite matrix entry."""
    if k > disc.n - 2:
        raise ValueError(f"requested {k} eigenvalues from a {disc.n}-point grid")
    return lowest_eigenvalues(disc.diag, disc.offdiag, k)


def default_halfwidth(lam: float, k: int, tail_tol: float = 1e-12) -> float:
    """Truncation half-width from the analytic decay of the k-th state.

    For positive deformation a bound level e below the chart's plateau
    decays like exp(-kappa*u) with kappa = sqrt(2(plateau - e)); the
    half-width puts the induced eigenvalue shift (~ the squared amplitude
    at the cut) below ``tail_tol``.  On the identity chart the Gaussian
    decay beyond the classical turning point is used.  For negative
    deformation it is the chart's wall, or U0, that Gaussian half-width,
    where U0 lies inside the wall (so |lam| < 0.1, and 0.024 at the
    default tail_tol): a far wall lets the first cells' tan^2 entries
    swamp the eigensolver in rounding.  The cut bounds the tail: with
    m = k - 1 and X = u^2, tan^2 x >= x^2 + 2x^4/3 and the level
    E_m = m + 1/2 + m^2 |lam|/2 give V(u) - E_m >= X/2 - (m + 1/2) where
    (1 - |lam|) X^2/3 >= X/2 + m^2/2, which at |lam| < 0.1 holds beyond
    the harmonic turning point X = 2m + 1 for m >= 1 and beyond X = 1.7
    for m = 0; so each state decays at least as fast as the harmonic
    one, whose tail at U0 is below ``tail_tol``.
    """
    ch = chart(lam)
    if ch.sig <= 0:
        e_top = k - 0.5
        u0 = math.sqrt(2.0 * e_top) + math.sqrt(-math.log(tail_tol)) + 4.0
        return min(u0, ch.wall / ch.w)
    m_top = classify(lam).top_index(k - 1)
    e_top = (m_top + 0.5) - 0.5 * m_top * m_top * lam
    gap = ch.plateau - e_top
    if gap <= 0:
        raise ValueError(f"level {m_top} is not below the continuum threshold")
    kappa = math.sqrt(2.0 * gap)
    arg = min(2.0 * e_top * lam / (1.0 + lam), 1.0 - 1e-15)
    u_turn = math.atanh(math.sqrt(arg)) / ch.w if e_top > 0 else 0.0
    return u_turn + max(8.0, -math.log(tail_tol) / (2.0 * kappa)) + 2.0


# one grid of refine(): its size, the raw and extrapolated eigenvalues,
# and the change of the deepest extrapolant (None on the first grid)
RefinementLevel = namedtuple("RefinementLevel",
                             "n raw extrapolated error_estimate")


def refine(
    lam: float,
    k: int,
    tol: float = 1e-8,
    half_width: float | None = None,
) -> tuple[np.ndarray, list[RefinementLevel]]:
    """Eigenvalues refined by Richardson extrapolation over grid doublings.

    The error of the second-order scheme expands in even powers of h, so
    each doubling removes another power of four per extrapolation column.
    Stops when two successive deepest extrapolants agree within ``tol``
    for every requested level; raises RefinementError past ``GRID_CAP``.
    Raises ValueError for k < 1 and, at positive deformation, for k above
    the ``classify(lam).n_max + 1`` bound levels (more would be
    eigenvalues of the truncated continuum).
    """
    if tol < 1e-14:
        raise ValueError("tolerance below attainable floating-point accuracy")
    if k < 1:
        raise ValueError(f"k = {k}: at least one level must be requested")
    if lam > 0 and k > (bound := classify(lam).n_max + 1):
        raise ValueError(
            f"k = {k}: only {bound} levels are bound at deformation {lam}"
        )
    if half_width is None:
        half_width = default_halfwidth(lam, k, tail_tol=min(1e-12, tol * 1e-3))
    levels: list[RefinementLevel] = []
    table: list[list[np.ndarray]] = []  # triangular Richardson tableau
    n = GRID_START
    prev_best = None
    while n <= GRID_CAP:
        raw = eigenvalues(assemble(lam, n, half_width), k)
        row = [raw]
        if table:
            prev_row = table[-1]
            # each column cancels the next even power of h; depth capped
            # where rounding noise would dominate
            for j in range(1, min(len(prev_row) + 1, 5)):
                weight = 4.0**j
                row.append((weight * row[j - 1] - prev_row[j - 1]) / (weight - 1.0))
        table.append(row)
        best = row[-1]
        err = (
            float(np.max(np.abs(best - prev_best)))
            if prev_best is not None
            else None
        )
        levels.append(
            RefinementLevel(n=n, raw=raw, extrapolated=best, error_estimate=err)
        )
        if err is not None and err < tol:
            return best, levels
        prev_best = best
        n *= 2
    raise RefinementError(
        f"no convergence to {tol} within the grid cap {GRID_CAP} "
        f"(last error estimate {levels[-1].error_estimate})",
        levels=levels,
    )


def convergence_order(lam: float, m: int) -> float:
    """Observed order from three raw grids (expected close to 2)."""
    half_width = default_halfwidth(lam, m + 1)
    e = [
        eigenvalues(assemble(lam, n, half_width), m + 1)[m]
        for n in (GRID_START, 2 * GRID_START, 4 * GRID_START)
    ]
    return math.log2(abs((e[0] - e[1]) / (e[1] - e[2])))
