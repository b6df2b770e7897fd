"""The three LAPACK/BLAS routines quasidyn runs natively, from numpy's own OpenBLAS.

Each is here because a benchmark workload runs it:

- ``dsterf`` finds the band edges (``bands``);
- ``dgemm`` sums the time route's samples (``transport`` and ``parseval``);
- ``dtbsv`` runs the transfer sweeps, one banded solve per column of top
  rows (``powerlaw``).

The numpy wheel ships
OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``, with a ``scipy_``
prefix, a ``64_`` suffix and 64-bit integers, and has it loaded already; a
ctypes handle on it costs about a millisecond, against about 0.3 s for
``import scipy.linalg``.  These are the routines scipy runs for the same
calls.  Where that library or one of its symbols is missing
(other wheels, conda, MKL or distro builds of numpy), scipy's functions are
bound in their place, and :data:`LIBRARY` is None.

``dsterf`` keeps scipy's checks on both routes: an input that is not finite
raises ``ValueError``, and a LAPACK ``info`` above 0 raises
``np.linalg.LinAlgError`` (below 0, ``ValueError``).  The two BLAS routines
check shapes and strides only, as BLAS does: an inf or NaN runs through.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Callable

import numpy as np

_I64, _PTR, _INT = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int
# ctypes passes argument objects built once faster than it converts Python ints
_ROW_MAJOR, _COL_MAJOR, _NO_TRANS = _INT(101), _INT(102), _INT(111)  # CBLAS enums
_LOWER, _UNIT = _INT(122), _INT(132)
_ONE = ctypes.c_double(1.0)  # alpha and beta of the accumulating dgemm


def _open_library():
    """(path, dsterf, dgemm, dtbsv) from numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    path = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))[0]
    lib = ctypes.CDLL(path)
    routines = []
    for name, argtypes in (
            ("scipy_dsterf_64_", [_PTR] * 4),
            ("scipy_cblas_dgemm64_", [_INT] * 3 + [_I64] * 3
             + [ctypes.c_double, _PTR, _I64, _PTR, _I64, ctypes.c_double, _PTR, _I64]),
            ("scipy_cblas_dtbsv64_", [_INT] * 4 + [_I64] * 2 + [_PTR, _I64, _PTR, _I64])):
        routine = getattr(lib, name)
        routine.argtypes, routine.restype = argtypes, None
        routines.append(routine)
    return path, *routines


try:
    LIBRARY, _DSTERF, _DGEMM, _DTBSV = _open_library()
except (IndexError, OSError, AttributeError):  # no such library, or a symbol missing
    LIBRARY = None


def _finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _check(info: int, routine: str) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _pointer(a: np.ndarray, dtype: type) -> int:
    """The data pointer of ``a``, once it is a C-contiguous array of ``dtype``."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous):
        raise ValueError(f"expected a C-contiguous {np.dtype(dtype)} array")
    return a.ctypes.data


def _ref(value: int):
    return ctypes.byref(_I64(value))


def dsterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e (LAPACK dsterf).  d and e are kept."""
    _finite(d, e)
    w, e = np.array(d, dtype=np.float64), np.array(e, dtype=np.float64)
    if w.ndim != 1 or e.shape != (w.size - 1,):
        raise ValueError("d and e must be vectors of n and n - 1 entries")
    info = _I64()
    _DSTERF(_ref(w.size), _pointer(w, np.float64), _pointer(e, np.float64), ctypes.byref(info))
    _check(info.value, "dsterf")
    return w


def dgemm_into(c: np.ndarray, b: np.ndarray, a: np.ndarray) -> Callable[[int, int], None]:
    """add(j, k), which adds a[:m, j:j + k] @ b[:k] into the (m, n) matrix c
    (row-major dgemm, beta = 1).

    The matrices a and b are C-contiguous float64 arrays.  c is a float64
    array with contiguous rows, whose row stride may be wider than n (a
    column slice of a C-contiguous matrix).  Their pointers are taken once,
    here, for every product."""
    (m, n), (rows, cols) = c.shape, a.shape
    if b.shape[1] != n or rows < m:
        raise ValueError("c, b and a do not fit one another")
    if not (isinstance(c, np.ndarray) and c.dtype == np.float64 and c.strides[1] == c.itemsize
            and c.strides[0] >= n * c.itemsize and c.strides[0] % c.itemsize == 0):
        raise ValueError("expected a float64 array c with contiguous rows")
    head = (_ROW_MAJOR, _NO_TRANS, _NO_TRANS, _I64(m), _I64(n))
    a_ptr, lda = _pointer(a, np.float64), _I64(cols)
    tail = (_PTR(_pointer(b, np.float64)), _I64(n), _ONE, _PTR(c.ctypes.data),
            _I64(c.strides[0] // c.itemsize))

    def add(j: int, k: int) -> None:
        if not (0 <= j and 0 < k <= b.shape[0] and j + k <= cols):
            raise ValueError(f"no {k} columns of a from column {j}")
        _DGEMM(*head, k, _ONE, a_ptr + j * a.itemsize, lda, *tail)
    return add


def dtbsv(band: np.ndarray, x: np.ndarray) -> None:
    """Solve L y = x for y, in place of x (column-major dtbsv: lower, no
    transpose, unit diagonal).

    L is the n x n unit lower-triangular band matrix of bandwidth k, stored by
    columns in the C-contiguous (n, k + 1) float64 array ``band``: band[j, i]
    is L[j + i, j], and band[:, 0], the diagonal, is not read.  ``x`` is a
    float64 vector of n entries whose stride is a positive whole number of
    entries, such as a column of a C-contiguous matrix."""
    a = _pointer(band, np.float64)
    if band.ndim != 2 or band.shape[1] < 1:
        raise ValueError("expected an (n, k + 1) band")
    n, width = band.shape
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (n,)
            and x.strides[0] > 0 and x.strides[0] % x.itemsize == 0):
        raise ValueError("expected a float64 vector x of n entries with a positive stride")
    _DTBSV(_COL_MAJOR, _LOWER, _NO_TRANS, _UNIT, n, width - 1, a, width, x.ctypes.data,
           x.strides[0] // x.itemsize)


def _scipy_routines() -> dict[str, Callable]:
    """scipy's functions in place of the three routines, with the same signatures."""
    from scipy.linalg import eigvalsh_tridiagonal
    from scipy.linalg.blas import dgemm as scipy_dgemm
    from scipy.linalg.blas import dtbsv as scipy_dtbsv

    def dgemm_into(c, b, a):
        def add(j, k):
            # f2py copies a c.T that is not Fortran-contiguous, so the result is written back
            c[...] = scipy_dgemm(1.0, b[:k].T, a[:c.shape[0], j:j + k].T, 1.0, c.T,
                                 overwrite_c=1).T
        return add

    def dtbsv(band, x):
        # f2py solves a copy of an x that is not contiguous, so the result is written back
        x[...] = scipy_dtbsv(band.shape[1] - 1, band.T, x, lower=1, diag=1, overwrite_x=1)

    return {"dsterf": eigvalsh_tridiagonal, "dgemm_into": dgemm_into, "dtbsv": dtbsv}


if LIBRARY is None:
    globals().update(_scipy_routines())
