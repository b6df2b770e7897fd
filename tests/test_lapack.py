"""The three native LAPACK/BLAS routines on both routes: numpy's own OpenBLAS, and
scipy's functions, bound when that library is missing; and the tridiagonal
solve, which is scipy's on both.  scipy is the oracle."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import eigvalsh_tridiagonal, solve_banded
from scipy.linalg.blas import dgemm, dtbsv

from quasidyn import _lapack
from quasidyn.lattice import _tridiag_solve


@pytest.fixture(params=["openblas", "scipy"])
def route(request, monkeypatch):
    """Run a test on numpy's OpenBLAS, then again with scipy's routines forced."""
    if request.param == "openblas":
        if _lapack.LIBRARY is None:
            pytest.skip("numpy ships no scipy-openblas64 library here")
    else:
        for name, func in _lapack._scipy_routines().items():
            monkeypatch.setattr(_lapack, name, func)
    return request.param


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", [1, 2, 1597, 4181])
def test_dsterf_is_scipys_bit_for_bit(route, n, rng):
    # the Dirichlet cells of the level sets (unit hopping), and a general matrix
    for d, e in ((rng.integers(0, 2, n) * 1.7, np.ones(n - 1)),
                 (rng.normal(size=n), rng.normal(size=n - 1))):
        kept = d.copy(), e.copy()
        npt.assert_array_equal(_lapack.dsterf(d, e), eigvalsh_tridiagonal(d, e))
        npt.assert_array_equal(d, kept[0])
        npt.assert_array_equal(e, kept[1])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 1597, 15000])
def test_dtbsv_is_scipys_bit_for_bit(route, n, k, rng):
    # the transfer sweep's layout: a unit lower band by columns, solved in place
    # into one column of a C-contiguous matrix; the band and the other column are kept
    band = np.ones((n, k + 1))
    band[:, 1] = rng.uniform(-3.0, 3.0, n)
    band[:, 2:] = rng.uniform(-0.2, 0.2, (n, k - 1))
    x = np.zeros((n, 2))
    x[:2] = rng.normal(size=(min(n, 2), 2))
    kept, other = band.copy(), x[:, 1].copy()
    want = dtbsv(k, band.T, x[:, 0], lower=1, diag=1)
    assert _lapack.dtbsv(band, x[:, 0]) is None
    npt.assert_array_equal(x[:, 0], want)
    npt.assert_array_equal(band, kept)
    npt.assert_array_equal(x[:, 1], other)
    if route == "openblas":  # an x that BLAS cannot read as n strided doubles is refused
        for bad in (x[:-1, 0], x[::-1, 0], x[:, 0].astype(np.float32), x[:, 0].tolist()):
            with pytest.raises(ValueError):
                _lapack.dtbsv(band, bad)
        for bad in (band[:, :0], band.reshape(-1)):  # and so is a band with no diagonal
            with pytest.raises(ValueError):
                _lapack.dtbsv(bad, x[:, 0])
        if n > 1:  # or not C-contiguous
            with pytest.raises(ValueError):
                _lapack.dtbsv(np.asfortranarray(band), x[:, 0])


@pytest.mark.parametrize("n", [1, 2, 1473])
def test_zgtsv_is_scipys_bit_for_bit(route, n, rng):
    # the solve's band layout against one built here; rhs is kept
    v, rhs = rng.normal(size=n), _complex(rng, n)
    kept = rhs.copy()
    z = 0.3 + 0.05j
    band = np.zeros((3, n), dtype=np.complex128)
    band[0, 1:], band[1], band[2, :-1] = 1.0, v - z, 1.0
    npt.assert_array_equal(_tridiag_solve(v, z, rhs), solve_banded((1, 1), band, rhs))
    npt.assert_array_equal(rhs, kept)


def _within_ulps(got, want, bound):
    # a few ulp of the sum of |terms|: the two OpenBLAS builds may order them apart
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * bound)


@pytest.mark.parametrize("width", [1, 300, 1473])
@pytest.mark.parametrize("samples", [16, 5])
def test_gemms_agree_with_scipy(route, width, samples, rng):
    # the sweep's shapes: a (16, 11) real coefficient matrix, read by the last samples'
    # rows, times the float64 view (8, 2 width) of a ring of complex vectors; columns
    # 0..7 are a full ring fill and columns 8..10 a last fill of 3 orders
    ring, out = _complex(rng, 8, width).view(np.float64), _complex(rng, samples, width)
    out = out.view(np.float64)
    coeff = rng.normal(size=(16, 11))
    want, bound = out.copy(), np.abs(out)
    add = _lapack.dgemm_into(out, ring, coeff)
    for j, k in ((0, 8), (8, 3)):
        chunk = coeff[:samples, j:j + k]
        add(j, k)
        dgemm(1.0, ring[:k].T, chunk.T, 1.0, want.T, overwrite_c=1)
        bound += np.abs(chunk) @ np.abs(ring[:k])
    _within_ulps(out, want, bound)
    if route == "openblas":  # columns outside a or rows past b are refused before any pointer
        for j, k in ((9, 3), (11, 1), (-1, 8), (0, 9), (0, 0)):
            with pytest.raises(ValueError):
                add(j, k)
        with pytest.raises(ValueError):  # and so is a complex array
            _lapack.dgemm_into(out.view(np.complex128), ring.view(np.complex128), coeff)
    # the ladder's shape: (3, samples) weights times (samples, width) probabilities,
    # added into a column slice of the (3, width + 7) sums; the other columns are kept
    weights, prob = rng.random((3, samples)), rng.random((samples, width))
    acc = rng.random((3, width + 7))
    want = dgemm(1.0, prob.T, weights.T, 1.0, acc[:, 2:2 + width].T).T
    kept = np.delete(acc, np.s_[2:2 + width], axis=1)
    _lapack.dgemm_into(acc[:, 2:2 + width], prob, weights)(0, samples)
    _within_ulps(acc[:, 2:2 + width], want, np.abs(want))
    npt.assert_array_equal(np.delete(acc, np.s_[2:2 + width], axis=1), kept)
    if route == "openblas":  # a column stride that is not one element is refused
        with pytest.raises(ValueError):
            _lapack.dgemm_into(np.zeros((3, 2 * width))[:, ::2], prob, weights)


def test_singular_system_raises_linalgerror(route):
    # diagonal [1, 1] and unit off-diagonals: the matrix [[1, 1], [1, 1]]
    with pytest.raises(np.linalg.LinAlgError):
        _tridiag_solve(np.array([1.0, 1.0]), 0.0, np.array([1.0, 0.0], dtype=np.complex128))


def test_inputs_that_are_not_finite_raise_valueerror(route):
    with pytest.raises(ValueError):
        _lapack.dsterf(np.array([0.0, np.nan, 1.0]), np.ones(2))
    with pytest.raises(ValueError):
        _tridiag_solve(np.zeros(3), 0.5j, np.array([1.0, np.nan, 0.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        _tridiag_solve(np.array([0.0, np.inf, 0.0]), 0.5j, np.ones(3, dtype=np.complex128))


def test_lapack_info_checks():
    _lapack._check(0, "dsterf")
    with pytest.raises(np.linalg.LinAlgError):
        _lapack._check(2, "dsterf")
    with pytest.raises(ValueError):
        _lapack._check(-3, "dsterf")
