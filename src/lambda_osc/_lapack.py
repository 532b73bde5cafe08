"""Eigenvalues of real symmetric tridiagonal matrices, straight from LAPACK.

Two tridiagonal eigensolves run here: ``wavefunctions.nodes`` and
``quadrature.gauss_rule`` take every eigenvalue (``dsterf``) for the
zeros and the nodes, and ``sturm_liouville`` the lowest k by bisection
(``dstebz``, range 'I', order 'E', abstol 0).
numpy's wheels bundle OpenBLAS with all of LAPACK and export these as ``scipy_dsterf_64_`` and ``scipy_dstebz_64_``
(64-bit integers, Fortran calling convention with hidden string
lengths), so they are called here through ctypes and scipy is never
imported.  These are the routines ``scipy.linalg.eigvalsh_tridiagonal``
runs for ``lapack_driver="sterf"`` and ``select="i"``, with the same
arguments, so the eigenvalues are the same.  Where numpy's build does
not export them (a conda or MKL numpy, say), that scipy function from
the optional ``scipy`` extra runs instead; which one runs depends only
on what the platform provides.
"""

import ctypes
import functools

import numpy as np

_INT = ctypes.c_int64
_PINT = ctypes.POINTER(_INT)
_PDBL = ctypes.POINTER(ctypes.c_double)
# array arguments: ctypes refuses any array of another type or layout
_INTS = np.ctypeslib.ndpointer(np.int64, flags="C")
_DBLS = np.ctypeslib.ndpointer(np.float64, flags="C")


@functools.cache
def _routines():
    """(dsterf, dstebz) from the LAPACK numpy links against, or None."""
    from numpy.linalg import _umath_linalg

    # dlsym on the extension's handle also searches the libraries it
    # loaded, among them the bundled OpenBLAS
    lib = ctypes.CDLL(_umath_linalg.__file__)
    sterf = getattr(lib, "scipy_dsterf_64_", None)
    stebz = getattr(lib, "scipy_dstebz_64_", None)
    if sterf is None or stebz is None:
        return None
    # dsterf(n, d, e, info)
    sterf.argtypes = [_PINT, _DBLS, _DBLS, _PINT]
    # dstebz(range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w,
    #        iblock, isplit, work, iwork, info, len(range), len(order))
    stebz.argtypes = [
        ctypes.c_char_p, ctypes.c_char_p, _PINT,
        _PDBL, _PDBL, _PINT, _PINT, _PDBL,
        _DBLS, _DBLS, _PINT, _PINT, _DBLS,
        _INTS, _INTS, _DBLS, _INTS, _PINT,
        ctypes.c_size_t, ctypes.c_size_t,
    ]
    sterf.restype = stebz.restype = None
    return sterf, stebz


def _operands(d, e):
    """Fresh contiguous float64 copies (LAPACK overwrites its inputs),
    refused when not finite, as scipy's ``check_finite`` does."""
    d = np.array(d, dtype=float)
    e = np.array(e, dtype=float)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError("need a diagonal of n and an off-diagonal of n - 1")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    return d, e


def _check(info, name):
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {name} returned info = {info}")


def all_eigenvalues(d, e) -> np.ndarray:
    """Every eigenvalue, ascending, of the symmetric tridiagonal matrix
    with diagonal ``d`` and off-diagonal ``e`` (LAPACK dsterf)."""
    d, e = _operands(d, e)
    lapack = _routines()
    if lapack is None:
        from scipy.linalg import eigvalsh_tridiagonal

        return eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    info = _INT()
    lapack[0](_INT(d.size), d, e, info)
    _check(info.value, "dsterf")
    return d


def lowest_eigenvalues(d, e, k: int) -> np.ndarray:
    """The k lowest eigenvalues, ascending, of the symmetric tridiagonal
    matrix with diagonal ``d`` and off-diagonal ``e``, by bisection to
    full accuracy (LAPACK dstebz); 1 <= k <= n."""
    d, e = _operands(d, e)
    n = d.size
    if not 1 <= k <= n:
        raise ValueError(f"k = {k}: need 1 <= k <= {n} for an order-{n} matrix")
    lapack = _routines()
    if lapack is None:
        from scipy.linalg import eigvalsh_tridiagonal

        return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    w = np.empty(n)
    iblock = np.empty(n, dtype=np.int64)
    isplit = np.empty(n, dtype=np.int64)
    work = np.empty(4 * n)
    iwork = np.empty(3 * n, dtype=np.int64)
    zero = ctypes.c_double(0.0)
    m, nsplit, info = _INT(), _INT(), _INT()
    lapack[1](b"I", b"E", _INT(n), zero, zero, _INT(1), _INT(k), zero,
              d, e, m, nsplit, w, iblock, isplit, work, iwork, info, 1, 1)
    _check(info.value, "dstebz")
    return w[:m.value]
