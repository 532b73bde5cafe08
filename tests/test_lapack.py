"""The tridiagonal LAPACK binding against scipy, which runs the same routines.

Bit-for-bit equality is the contract: the zeros of ``wavefunctions.nodes``
and the refined eigenvalues must not move, whichever library supplies the
routines.
"""

import math

import numpy as np
import pytest

from lambda_osc import _lapack
from lambda_osc.sturm_liouville import assemble, default_halfwidth, eigenvalues

scipy_linalg = pytest.importorskip("scipy.linalg")

# all-eigenvalue cases: the Legendre Jacobi matrices, a family with known
# spectra, at every order to 300 and four large ones; and refine's grids
LEGENDRE_SIZES = [*range(2, 300), 512, 1024, 2048, 4096]
SL_LAMBDAS = (-0.9, -0.5, -0.3, -0.1, 0.0, 0.05, 0.15, 0.3)
SL_GRIDS = (256, 1024, 4096, 16384)
SL_LEVELS = (1, 4, 8)


def legendre_offdiagonal(n):
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    return np.arange(1, n) * scl[:n - 1] * scl[1:n]


def sl_matrices():
    for lam in SL_LAMBDAS:
        for n in SL_GRIDS:
            for k in SL_LEVELS:
                half = None if lam < 0 else default_halfwidth(lam, k)
                yield assemble(lam, n, half), k


def test_all_eigenvalues_match_scipy_sterf():
    for n in LEGENDRE_SIZES:
        off = legendre_offdiagonal(n)
        got = _lapack.all_eigenvalues(np.zeros(n), off)
        ref = scipy_linalg.eigvalsh_tridiagonal(np.zeros(n), off,
                                                lapack_driver="sterf")
        assert np.array_equal(got, ref), n


def test_lowest_eigenvalues_match_scipy_stebz():
    count = 0
    for disc, k in sl_matrices():
        got = _lapack.lowest_eigenvalues(disc.diag, disc.offdiag, k)
        ref = scipy_linalg.eigvalsh_tridiagonal(
            disc.diag, disc.offdiag, select="i", select_range=(0, k - 1))
        assert np.array_equal(got, ref), (disc.lam, disc.n, k)
        count += 1
    assert count == 96


def test_inputs_are_not_overwritten():
    d, e = np.array([2.0, 1.0, 3.0]), np.array([0.5, -0.25])
    d0, e0 = d.copy(), e.copy()
    _lapack.all_eigenvalues(d, e)
    _lapack.lowest_eigenvalues(d, e, 2)
    assert np.array_equal(d, d0) and np.array_equal(e, e0)


def test_scipy_fallback_gives_the_same_values(monkeypatch):
    # where numpy exports no LAPACK symbols, scipy runs instead
    disc = assemble(0.3, 512, default_halfwidth(0.3, 4))
    off = legendre_offdiagonal(64)
    direct = (_lapack.lowest_eigenvalues(disc.diag, disc.offdiag, 4),
              _lapack.all_eigenvalues(np.zeros(64), off))
    monkeypatch.setattr(_lapack, "_routines", lambda: None)
    fallback = (_lapack.lowest_eigenvalues(disc.diag, disc.offdiag, 4),
                _lapack.all_eigenvalues(np.zeros(64), off))
    for a, b in zip(direct, fallback):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_matrix_is_a_value_error(bad):
    disc = assemble(0.3, 128, 20.0)
    disc.diag[5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigenvalues(disc, 2)


@pytest.mark.parametrize("k", [-1, 0, 4])
def test_level_count_outside_the_matrix_refused(k, monkeypatch):
    # refused before either library sees it (OpenBLAS would print a
    # parameter error of its own)
    monkeypatch.setattr(_lapack, "_routines", None)
    with pytest.raises(ValueError, match=f"k = {k}: need 1 <= k <= 3"):
        _lapack.lowest_eigenvalues(np.zeros(3), np.ones(2), k)
