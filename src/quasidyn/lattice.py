"""Aperiodic tight-binding chains: potentials, operator action, transfer matrices.

The chains studied here are discrete Schroedinger operators

    (H psi)(n) = psi(n-1) + psi(n+1) + V(n) psi(n)

on the whole line or on the half line with a Dirichlet condition at site 0.
The potential V takes the two values {0, lambda} according to an aperiodic
rule: the Fibonacci circle map, the period-doubling substitution, or the
Thue-Morse substitution.  A free chain (V = 0) and explicit periodic words
are available as references.

Solutions of H u = z u are propagated by 2x2 one-step matrices

    A(n, z) = [[z - V(n), -1], [1, 0]],

whose ordered products form the transfer matrices T(n, m; z).  All one-step
matrices have determinant exactly one, so transfer matrices are unimodular
and the spectral norm of an inverse equals the norm of the matrix itself.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from quasidyn import _lapack

#: Inverse golden mean, the rotation number of the Fibonacci circle map.
OMEGA = (math.sqrt(5.0) - 1.0) / 2.0

#: Left endpoint of the half-open arc that marks the high sites.
_FIB_THRESHOLD = 1.0 - OMEGA

#: The one overflow limit: site products, blocks and trace orbits passing this
#: magnitude are declared overflowed, and clipped trace values are held to it.
OVERFLOW_LIMIT = 1e150

#: Hard cap on generated substitution words.
MAX_WORD_LENGTH = 1 << 24

#: Most memory one transfer sweep, profile route, trace orbit or time ladder may take.
MAX_SWEEP_BYTES = 1 << 30

#: Bytes per site charged to a transfer sweep.  Its peak (tracemalloc, m_max of
#: 10,000 and 200,000) is 96 on the half line and 107 on the whole line at real
#: energies, and 152 and 160 at complex ones; the charge keeps a margin.
_SWEEP_BYTES_PER_M = 240


class DomainError(ValueError):
    """A site or argument is outside the domain of the requested quantity."""


class ResourceError(RuntimeError):
    """A computation was refused because it exceeds a configured cap."""


class ScaleOverflowError(OverflowError):
    """Transfer-product or block entries passed :data:`OVERFLOW_LIMIT` or stopped being finite."""


class TruncationError(RuntimeError):
    """A window was too small for the requested boundary accuracy."""


def _in_range(entries) -> np.ndarray:
    """max |entry| <= :data:`OVERFLOW_LIMIT` over the last axis: the one overflow
    test of products, blocks and orbits, false where an entry is inf or NaN."""
    return np.abs(entries).max(axis=-1) <= OVERFLOW_LIMIT


def _check_memory(nbytes: int | float, what: str, fixes: str) -> None:
    """The one memory cap: refuse ``what``, which needs ``nbytes`` (an int past
    the float range, inf and NaN included), past :data:`MAX_SWEEP_BYTES` with
    :class:`ResourceError`, before its arrays are built."""
    if not nbytes <= MAX_SWEEP_BYTES:
        gib = nbytes / 2 ** 30 if nbytes <= sys.float_info.max else math.inf
        raise ResourceError(f"{what} needs about {gib:.2e} GiB and exceeds cap "
                            f"{MAX_SWEEP_BYTES / 2 ** 30:g} GiB; {fixes}")


def _check_word_length(length: int, what: str) -> None:
    """The one word cap: refuse ``what``, of ``length`` letters (any int), past
    :data:`MAX_WORD_LENGTH` with :class:`ResourceError`, before it is built."""
    if length > MAX_WORD_LENGTH:
        raise ResourceError(f"{what} exceeds the word cap of {MAX_WORD_LENGTH} letters")


class Model(enum.Enum):
    FIBONACCI = "fibonacci"
    PERIOD_DOUBLING = "period-doubling"
    THUE_MORSE = "thue-morse"
    EXPLICIT_PERIODIC = "periodic"
    FREE = "free"

    @classmethod
    def parse(cls, name: str) -> "Model":
        """A model by its value, its value without hyphens, or fib, pd or tm."""
        aliases = {"fib": cls.FIBONACCI, "pd": cls.PERIOD_DOUBLING, "tm": cls.THUE_MORSE,
                   **{m.value.replace("-", ""): m for m in cls}, **{m.value: m for m in cls}}
        try:
            return aliases[name.strip().lower()]
        except KeyError:
            raise DomainError(f"unknown model {name!r}") from None


class Geometry(enum.Enum):
    WHOLE_LINE = "whole-line"
    HALF_LINE = "half-line"


#: letter images of the two substitutions, indexed by letter.
SUBSTITUTIONS: dict[Model, np.ndarray] = {
    Model.PERIOD_DOUBLING: np.array([[0, 1], [0, 0]], dtype=np.uint8),
    Model.THUE_MORSE: np.array([[0, 1], [1, 0]], dtype=np.uint8),
}


def substitution_word(model: Model, k: int) -> np.ndarray:
    """Return the k-th substitution iterate S^k(0) as a uint8 letter array.

    The word has length 2**k.  Iterates longer than :data:`MAX_WORD_LENGTH`
    raise :class:`ResourceError`.
    """
    if model not in SUBSTITUTIONS:
        raise DomainError(f"{model} is not a substitution model")
    if k < 0:
        raise DomainError("iterate count must be nonnegative")
    _check_word_length(2 ** k, f"word S^{k}(0) of 2**{k} letters")
    images = SUBSTITUTIONS[model]
    word = np.array([0], dtype=np.uint8)
    for _ in range(k):
        word = images[word].reshape(-1)
    return word


def _fixed_point_word(model: Model, letter: int, min_len: int) -> np.ndarray:
    """S^{2K}(letter) for the least K that gives at least ``min_len`` letters.

    From letter 0 this is a prefix of the one-sided fixed point.  From
    letter 1 it is read as the left half of the two-sided word: both
    substitutions satisfy: S^2(1) ends with 1 and S^2(0) begins with 0, and
    the pair "10" occurs in the one-sided fixed point.  The two-sided
    sequence ... S^{2K}(1) | S^{2K}(0) ... is therefore a legal subshift
    element; every finite subword of it occurs inside some S^{2K}("10").
    The word is cached by K, so every length up to 4^K shares one build, and
    a word past :data:`MAX_WORD_LENGTH` is refused before it is built.
    """
    doublings = ((max(min_len, 1) - 1).bit_length() + 1) // 2  # least K with 4^K >= min_len
    _check_word_length(4 ** doublings, f"substitution fixed point of {min_len} letters")
    return _fixed_point_iterate(model, letter, doublings)


@lru_cache(maxsize=32)
def _fixed_point_iterate(model: Model, letter: int, doublings: int) -> np.ndarray:
    """S^{2K}(letter) for K = ``doublings``: the cached build of :func:`_fixed_point_word`."""
    word = np.array([letter], dtype=np.uint8)
    images = SUBSTITUTIONS[model]
    for _ in range(doublings):
        word = images[images[word].reshape(-1)].reshape(-1)
    return word


def _finite_float(x, what: str) -> float:
    """x as a float, refused with :class:`DomainError` unless it is finite (an
    int past the float range, inf and NaN are not); ``what`` names it."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{what} is a finite number")
    return value


def _parse_two_sided_seed(seed: str) -> tuple[np.ndarray, np.ndarray]:
    if "|" not in seed:
        raise DomainError("explicit two-sided seed must contain '|' at the origin")
    left, right = seed.split("|", 1)
    if not set(left + right) <= {"0", "1"}:
        raise DomainError("seed words use letters 0 and 1 only")
    to_arr = lambda s: np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")
    return to_arr(left), to_arr(right)


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a chain potential.

    Parameters
    ----------
    model:
        One of the :class:`Model` members.
    lam:
        Coupling constant, a finite real number; the potential takes values
        in {0, lam} for the three named aperiodic models.
    geometry:
        Whole line or Dirichlet half line, a :class:`Geometry` member.
    seed:
        For the substitution models, an optional explicit two-sided word
        "LEFT|RIGHT" overriding the canonical subshift element; for
        EXPLICIT_PERIODIC the mandatory period word.  The Fibonacci and free
        models read no seed, and a seed that is not a string is refused.
    perturbation:
        Finitely supported overlay added on top of the base potential, given
        as (site, value) pairs, each site once and each value finite, and
        stored as a sorted tuple of them.
    """

    model: Model
    lam: float = 0.0
    geometry: Geometry = Geometry.WHOLE_LINE
    seed: str | None = None
    perturbation: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if not isinstance(self.model, Model):
            raise DomainError(f"a model is a Model member, not {self.model!r}")
        if not isinstance(self.geometry, Geometry):
            raise DomainError(f"a geometry is a Geometry member, not {self.geometry!r}")
        if not isinstance(self.lam, numbers.Real) or isinstance(self.lam, bool):
            raise DomainError(f"a coupling is a real number, not {self.lam!r}")
        _finite_float(self.lam, "a coupling")
        if self.model is Model.EXPLICIT_PERIODIC and self.seed is None:
            raise DomainError("explicit periodic model requires a seed word")
        if self.seed is not None and not isinstance(self.seed, str):
            raise DomainError(f"a seed is a word string, not {self.seed!r}")
        if self.seed is not None and self.model in (Model.FIBONACCI, Model.FREE):
            raise DomainError(f"the {self.model.value} model reads no seed word")
        pert = tuple(sorted((int(n), _finite_float(v, "a perturbation value"))
                            for n, v in self.perturbation))
        if self.geometry is Geometry.HALF_LINE and any(n < 1 for n, _ in pert):
            raise DomainError("half-line perturbation sites must satisfy n >= 1")
        sites = [n for n, _ in pert]
        if len(set(sites)) < len(sites):
            raise DomainError(f"a perturbation site is given more than once: {sites}")
        object.__setattr__(self, "perturbation", pert)

    def describe(self) -> str:
        pieces = [self.model.value, f"lambda={self.lam:.17g}", self.geometry.value]
        if self.seed is not None:
            pieces.append(f"seed={self.seed}")
        if self.perturbation:
            pieces.append(f"perturbation={self.perturbation}")
        return "; ".join(pieces)


def perturb(spec: PotentialSpec, overlay: Mapping[int, float]) -> PotentialSpec:
    """Return a new spec whose potential is the old one plus ``overlay``.

    Overlays compose additively: perturbing twice at the same site adds the
    two values.
    """
    merged = dict(spec.perturbation)
    for site, value in overlay.items():
        merged[site] = merged.get(site, 0.0) + float(value)
    merged = {n: v for n, v in merged.items() if v != 0.0}
    return replace(spec, perturbation=tuple(sorted(merged.items())))


@dataclass(frozen=True)
class LatticeWindow:
    """Inclusive site range [lo, hi], two integers, with its geometry."""

    lo: int
    hi: int
    geometry: Geometry = Geometry.WHOLE_LINE

    def __post_init__(self):
        if not isinstance(self.geometry, Geometry):
            raise DomainError(f"a geometry is a Geometry member, not {self.geometry!r}")
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   for n in (self.lo, self.hi)):
            raise DomainError(f"window ends are integers, not {self.lo!r} and {self.hi!r}")
        if self.lo > self.hi:
            raise DomainError(f"window lo={self.lo} exceeds hi={self.hi}")
        if self.geometry is Geometry.HALF_LINE and self.lo < 1:
            raise DomainError("half-line windows start at site 1 or later")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def sites(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)

    def index(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise DomainError(f"site {n} outside window [{self.lo}, {self.hi}]")
        return n - self.lo


def _substitution_letters(spec: PotentialSpec, sites: np.ndarray) -> np.ndarray:
    """Letters of the subshift element at the given sites.

    Site n >= 1 reads letter n-1 of the one-sided fixed point; site n <= 0
    reads the left half of the canonical two-sided element (or the explicit
    seed when one was supplied).
    """
    pos = sites >= 1
    need_right = int(sites[pos].max()) if pos.any() else 0
    need_left = 1 - int(sites[~pos].min()) if not pos.all() else 0
    if spec.seed is not None:
        left, right = _parse_two_sided_seed(spec.seed)
        if need_right > right.size or need_left > left.size:
            raise DomainError("explicit seed word too short for requested sites")
    else:
        right = _fixed_point_word(spec.model, 0, need_right)
        left = _fixed_point_word(spec.model, 1, need_left)
    letters = np.empty(sites.shape, dtype=np.uint8)
    letters[pos] = right[sites[pos] - 1]
    letters[~pos] = left[left.size - 1 + sites[~pos]]
    return letters


def potential_values(spec: PotentialSpec, sites: np.ndarray) -> np.ndarray:
    """Vectorized potential evaluation over an integer site array."""
    sites = np.asarray(sites, dtype=np.int64)
    if spec.geometry is Geometry.HALF_LINE and sites.size and sites.min() < 1:
        raise DomainError("half-line potential is defined for n >= 1 only")
    if spec.model is Model.FREE:
        vals = np.zeros(sites.shape, dtype=np.float64)
    elif spec.model is Model.FIBONACCI:
        frac = (sites * OMEGA) % 1.0
        vals = np.where(frac >= _FIB_THRESHOLD, spec.lam, 0.0)
    elif spec.model in SUBSTITUTIONS:
        vals = spec.lam * _substitution_letters(spec, sites).astype(np.float64)
    elif spec.model is Model.EXPLICIT_PERIODIC:
        if not set(spec.seed) <= {"0", "1"}:
            raise DomainError("periodic seed words use letters 0 and 1 only")
        word = np.frombuffer(spec.seed.encode(), dtype=np.uint8) - ord("0")
        vals = spec.lam * word[(sites - 1) % word.size].astype(np.float64)
    else:  # pragma: no cover - enum is closed
        raise DomainError(f"unhandled model {spec.model}")
    if spec.perturbation:
        vals = vals.astype(np.float64, copy=True)
        for site, value in spec.perturbation:
            vals[sites == site] += value
    return vals


def potential_value(spec: PotentialSpec, n: int) -> float:
    """Potential at a single site, perturbation overlay included."""
    return float(potential_values(spec, np.array([n]))[0])


def one_step_matrix(spec: PotentialSpec, n: int, z: complex) -> np.ndarray:
    """One-step matrix [[z - V(n), -1], [1, 0]]; determinant is exactly 1."""
    return _one_step(potential_value(spec, n), z)


def _one_step(v: float, z: complex) -> np.ndarray:
    """The one-step matrix [[z - v, -1], [1, 0]] of the potential value v, complex."""
    return np.array([[z - v, -1.0], [1.0, 0.0]], dtype=np.complex128)


def mat_inv_unimodular(m: np.ndarray) -> np.ndarray:
    """Exact inverse of a determinant-one 2x2 matrix via its adjugate."""
    m = np.asarray(m)
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out


def spectral_norm(m: np.ndarray) -> float | np.ndarray:
    """Spectral (2-)norm of 2x2 matrices in closed form via singular values.

    With f the squared Frobenius norm and d = |det|, the singular values
    satisfy (s1 + s2)^2 = f + 2d and (s1 - s2)^2 = f - 2d, so
    s1 = (sqrt(f + 2d) + sqrt(f - 2d)) / 2.  Only f is ever squared-scale,
    which keeps entries up to ~1e154 finite.
    """
    m = np.asarray(m)
    # f as column adds of the squared entries in row-major order (a complex
    # entry as its two parts): np.sum's order over the two axes, so real m
    # keeps its bits, without its slow reduction over four-entry rows
    parts = m
    if np.iscomplexobj(m):
        parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    squares = np.square(parts.reshape(*m.shape[:-2], -1))
    fro2 = squares[..., 0] + squares[..., 1]
    for k in range(2, squares.shape[-1]):
        fro2 += squares[..., k]
    d2 = 2.0 * np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])
    out = 0.5 * (np.sqrt(fro2 + d2) + np.sqrt(np.maximum(fro2 - d2, 0.0)))
    return float(out) if out.ndim == 0 else out


def _transfer_prefixes(vals: np.ndarray, z: complex) -> np.ndarray:
    """Every prefix product A(v_j) ... A(v_1), j = 0..n, as an (n+1, 2, 2) array.

    The one kernel behind all transfer products.  Each column u of the top
    rows follows u_j = (z - v_j) u_{j-1} - u_{j-2}, from (u_{-1}, u_0) =
    (0, 1) and (1, 0), and the bottom row of each prefix is the previous top
    row.  That sequential recurrence is a unit lower-triangular band solve of
    bandwidth 2, one per column, written straight into the result: BLAS
    dtbsv from numpy's OpenBLAS when z is real, and scipy's ztbsv, imported
    on the first complex z, which no command sweeps.  Raises
    :class:`ScaleOverflowError` at the first site whose entries pass
    :data:`OVERFLOW_LIMIT` or stop being finite.
    """
    z = complex(z)
    z = z.real if z.imag == 0.0 else z
    vals = np.asarray(vals, dtype=np.float64)
    n = vals.size
    out = np.zeros((n + 1, 2, 2), dtype=np.float64 if isinstance(z, float) else np.complex128)
    top = out[:, 0]
    top[0, 0] = 1.0
    if n:
        # column j holds L[j, j] (unit, not read), L[j + 1, j] = v_{j+2} - z and L[j + 2, j] = 1
        band = np.ones((n, 3), dtype=out.dtype)
        np.subtract(vals[1:], z, out=band[:-1, 1])
        # the right-hand sides: the terms of u_1 and u_2 that hold u_0 and u_{-1}
        top[1] = z - vals[0], -1.0
        top[2:3, 0] = -1.0
        solve = _lapack.dtbsv if out.dtype == np.float64 else _ztbsv
        solve(band, top[1:, 0])
        solve(band, top[1:, 1])
    # the bottom row of each prefix is the previous top row, so checking the
    # top rows checks every entry: first as one reduction over the whole result,
    # whose bottom rows are still zero, then by site to find the first that fails
    if not _in_range(out.reshape(1, -1))[0]:
        raise ScaleOverflowError(
            f"transfer product entries passed {OVERFLOW_LIMIT:.0e} after "
            f"{np.flatnonzero(~_in_range(top))[0]} of {n} sites")
    out[0, 1, 1] = 1.0
    out[1:, 1] = top[:-1]
    return out


def _ztbsv(band: np.ndarray, x: np.ndarray) -> None:
    """:func:`_lapack.dtbsv` for complex ``band`` and ``x``, by scipy's ztbsv."""
    from scipy.linalg.blas import ztbsv

    # f2py solves a copy of an x that is not contiguous, so the result is written back
    x[...] = ztbsv(band.shape[1] - 1, band.T, x, lower=1, diag=1, overwrite_x=1)


def transfer_matrix(spec: PotentialSpec, n: int, m: int, z: complex) -> np.ndarray:
    """Transfer matrix T(n, m; z) propagating solution data from m to n.

    For n > m this is the ordered product A(n) A(n-1) ... A(m+1); T(n, n) is
    the identity; for n < m the unimodular inverse of T(m, n; z).  Raises
    :class:`ScaleOverflowError` when entries leave the floating-point range.
    """
    if spec.geometry is Geometry.HALF_LINE and min(n, m) < 0:
        raise DomainError("half-line transfer matrices need n, m >= 0")
    if n == m:
        return np.eye(2, dtype=np.complex128)
    if n < m:
        return mat_inv_unimodular(transfer_matrix(spec, m, n, z))
    _check_memory((n - m) * _SWEEP_BYTES_PER_M, f"transfer sweep over {n - m} sites",
                  "bring n and m closer")
    vals = potential_values(spec, np.arange(m + 1, n + 1, dtype=np.int64))
    return _transfer_prefixes(vals, z)[-1].astype(np.complex128)


def _tridiag_apply(v: np.ndarray, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """H psi for the windowed chain with diagonal v (Dirichlet truncation).

    The one tridiagonal matvec: v * psi plus the two unit-hopping
    neighbour shifts, written into ``out`` when given.
    """
    out = np.multiply(v, psi, out=out)
    out[:-1] += psi[1:]
    out[1:] += psi[:-1]
    return out


def _tridiag_solve(v: np.ndarray, z: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (H - z) phi = rhs for the windowed chain with diagonal v.

    The one tridiagonal solve: scipy's ``solve_banded``, which runs LAPACK
    zgtsv.  scipy is imported on the first call, not with the package, since
    no command solves.  ``rhs`` is left untouched.
    """
    from scipy.linalg import solve_banded

    band = np.ones((3, v.size), dtype=np.complex128)
    np.subtract(v, z, out=band[1])
    return solve_banded((1, 1), band, rhs, overwrite_ab=True)
