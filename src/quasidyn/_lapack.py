"""The three LAPACK/BLAS routines quasidyn runs, from numpy's own OpenBLAS.

The numpy wheel ships OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``,
with a ``scipy_`` prefix, a ``64_`` suffix and 64-bit integers, and has it
loaded already; a ctypes handle on it costs about a millisecond, against
about 0.3 s for ``import scipy.linalg``.  These are the routines scipy runs
for the same calls.  Where that library or one of its symbols is missing
(other wheels, conda, MKL or distro builds of numpy), scipy's functions are
bound in their place, and :data:`LIBRARY` is None.

Both routes keep scipy's checks: an input that is not finite raises
``ValueError``, and a LAPACK ``info`` above 0 raises
``np.linalg.LinAlgError`` (below 0, ``ValueError``).
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Callable

import numpy as np

_I64, _PTR, _INT = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int
# ctypes passes argument objects built once faster than it converts Python ints
_ROW_MAJOR, _NO_TRANS = _INT(101), _INT(111)  # CBLAS enums
_ONE = ctypes.c_double(1.0)  # alpha and beta of the accumulating dgemm


def _open_library():
    """(path, dsterf, zgtsv, dgemm) from numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    path = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))[0]
    lib = ctypes.CDLL(path)
    routines = []
    for name, argtypes in (
            ("scipy_dsterf_64_", [_PTR] * 4),
            ("scipy_zgtsv_64_", [_PTR] * 8),
            ("scipy_cblas_dgemm64_", [_INT] * 3 + [_I64] * 3
             + [ctypes.c_double, _PTR, _I64, _PTR, _I64, ctypes.c_double, _PTR, _I64])):
        routine = getattr(lib, name)
        routine.argtypes, routine.restype = argtypes, None
        routines.append(routine)
    return path, *routines


try:
    LIBRARY, _DSTERF, _ZGTSV, _DGEMM = _open_library()
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


def zgtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals dl, d,
    du for the vector b (LAPACK zgtsv).  The four complex128 arrays are
    overwritten; b becomes the solution, which is returned."""
    _finite(dl, d, du, b)
    n = d.size
    if (dl.shape, du.shape, d.shape, b.shape) != ((n - 1,), (n - 1,), (n,), (n,)):
        raise ValueError("dl, du, d and b must be vectors of n - 1, n - 1, n and n entries")
    info = _I64()
    _ZGTSV(_ref(n), _ref(1), *(_pointer(x, np.complex128) for x in (dl, d, du, b)),
           _ref(max(n, 1)), ctypes.byref(info))
    _check(info.value, "zgtsv")
    return b


def dgemm_into(c: np.ndarray, b: np.ndarray, a: np.ndarray) -> Callable[[int, int], None]:
    """add(i, k), which adds a[i, :m, :k] @ b[:k] into the (m, n) matrix c
    (row-major dgemm, beta = 1).

    c, b and the stack of blocks a are C-contiguous float64 arrays; their
    pointers are taken once, here, for every product."""
    (m, n), (blocks, rows, width) = c.shape, a.shape
    if b.shape[1] != n or rows < m or width > b.shape[0]:
        raise ValueError("c, b and the blocks a do not fit one another")
    head = (_ROW_MAJOR, _NO_TRANS, _NO_TRANS, _I64(m), _I64(n))
    a_ptr, step, lda = _pointer(a, np.float64), rows * width * a.itemsize, _I64(width)
    tail = (_PTR(_pointer(b, np.float64)), _I64(n), _ONE, _PTR(_pointer(c, np.float64)), _I64(n))

    def add(i: int, k: int) -> None:
        if not (0 <= i < blocks and 0 < k <= width):
            raise ValueError(f"no block {i} with {k} columns")
        _DGEMM(*head, k, _ONE, a_ptr + i * step, lda, *tail)
    return add


def dgemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for C-contiguous float64 matrices (row-major dgemm)."""
    (m, k), n = a.shape, b.shape[1]
    if b.shape != (k, n):
        raise ValueError("b must have as many rows as a has columns")
    c = np.empty((m, n))
    _DGEMM(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, n, k, 1.0, _pointer(a, np.float64), k,
           _pointer(b, np.float64), n, 0.0, c.ctypes.data, n)
    return c


def _scipy_routines() -> dict[str, Callable]:
    """scipy's functions in place of the three routines, with the same signatures."""
    from scipy.linalg import eigvalsh_tridiagonal, solve_banded
    from scipy.linalg.blas import dgemm as scipy_dgemm

    def zgtsv(dl, d, du, b):
        ab = np.zeros((3, d.size), dtype=np.complex128)
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        return solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True)

    def dgemm_into(c, b, a):
        def add(i, k):
            scipy_dgemm(1.0, b[:k].T, a[i, :c.shape[0], :k].T, 1.0, c.T, overwrite_c=1)
        return add

    return {"dsterf": eigvalsh_tridiagonal, "zgtsv": zgtsv, "dgemm_into": dgemm_into,
            "dgemm": lambda a, b: scipy_dgemm(1.0, b.T, a.T).T}


if LIBRARY is None:
    globals().update(_scipy_routines())
