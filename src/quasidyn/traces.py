"""Trace maps and block transfer matrices for the three aperiodic chains.

Fibonacci blocks satisfy the matrix recursion M_k = M_{k-2} M_{k-1} whose
traces x_k obey x_{k+1} = x_k x_{k-1} - x_{k-2} together with the conserved
quantity x_{k+1}^2 + x_k^2 + x_{k-1}^2 - x_{k+1} x_k x_{k-1} = 4 + lambda^2.
Period-doubling and Thue-Morse blocks follow their own two-variable maps.

Indexing convention
-------------------
Two candidate block products are a priori possible for the Fibonacci chain,
``A(F_k) ... A(2)`` and ``A(F_k) ... A(1)``.  Only the second one satisfies
the block recursion (the first has an off-by-one factor count), provided the
k = 0 block is taken to be the single one-step matrix at site 0.  The choice
is checked numerically by :func:`indexing_convention_report` and recorded in
:data:`FIB_CONVENTION_ID`, which output writers embed in their metadata.

Each trace map is written once (``_fib_levels``, ``_pd_levels``,
``_tm_levels``) with only +, - and x, and every level is read off one walk,
``_walk``, for float64 arrays, the double-double type ``_DD``, the
value-and-derivative type ``_Jet`` that gives every energy slope by the
product rule, and the clipped type ``_Clip`` on which the level-set kernel
``_level_crossings`` bisects band edges and special energies alike.  The block
matrices themselves are read off one walk too, ``_blocks``, and every orbit,
block and clipped value is held to the one limit ``lattice.OVERFLOW_LIMIT``.
Fibonacci orbits are iterated in double-double arithmetic:
the conserved quantity involves a cancellation of order |x|^3, so plain
double precision loses it long before the |x| <= 1e6 window in which orbits
are certified.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from quasidyn import _lapack
from quasidyn.lattice import (
    OVERFLOW_LIMIT,
    DomainError,
    Model,
    PotentialSpec,
    ResourceError,
    ScaleOverflowError,
    _SWEEP_BYTES_PER_M,
    _check_memory,
    _in_range,
    _one_step,
    _transfer_prefixes,
    one_step_matrix,
    potential_values,
    spectral_norm,
    substitution_word,
)

#: Adopted Fibonacci block convention, embedded in output metadata.
FIB_CONVENTION_ID = "fib-blocks:Mk=A(F_k)...A(1);M0=A(0);recursion Mk=M(k-2)M(k-1)"


def fibonacci_numbers(kmax: int) -> np.ndarray:
    """Fibonacci numbers F_0 = F_1 = 1, F_{k+1} = F_k + F_{k-1}."""
    if kmax < 0:
        raise DomainError("kmax must be nonnegative")
    if kmax > 91:  # F_92 > 2^63 would wrap
        raise DomainError(f"F_{kmax} does not fit in int64; the largest level is 91")
    out = np.ones(kmax + 1, dtype=np.int64)
    for k in range(2, kmax + 1):
        out[k] = out[k - 1] + out[k - 2]
    return out


# ---------------------------------------------------------------------------
# double-double helpers (Dekker/Knuth error-free transformations)

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    aa = _SPLIT * a
    ah = aa - (aa - a)
    al = a - ah
    bb = _SPLIT * b
    bh = bb - (bb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class _Number:
    """Operators shared by _DD and _Jet, the number types of the trace maps.

    Floats enter as (v, 0) on the right of an operator; +, - and x are all
    the maps need, so each map is written once for them and for float64 arrays.
    """

    __slots__ = ()
    # without this, a NumPy scalar on the left broadcasts over the object
    # instead of raising TypeError, as a plain number on the left does
    __array_ufunc__ = None

    @classmethod
    def _of(cls, x):
        return x if isinstance(x, cls) else cls(x)

    def __sub__(self, other):
        return self + -self._of(other)


class _DD(_Number):
    """Double-double number hi + lo; hi and lo may be float64 arrays."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi, self.lo = hi, lo

    def __add__(self, other) -> "_DD":
        other = _DD._of(other)
        s, e = _two_sum(self.hi, other.hi)
        e = e + (self.lo + other.lo)
        s2 = s + e
        return _DD(s2, e - (s2 - s))

    def __neg__(self) -> "_DD":
        return _DD(-self.hi, -self.lo)

    def __mul__(self, other) -> "_DD":
        other = _DD._of(other)
        p, e = _two_prod(self.hi, other.hi)
        e = e + (self.hi * other.lo + self.lo * other.hi)
        p2 = p + e
        return _DD(p2, e - (p2 - p))


class _Jet(_Number):
    """Value and energy derivative v + d eps with eps^2 = 0; v and d may be
    float64 arrays.  A map evaluated at _Jet(E, 1) carries dx/dE along by
    the product rule, so no map is differentiated by hand."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v, self.d = v, d

    def __add__(self, other) -> "_Jet":
        other = _Jet._of(other)
        return _Jet(self.v + other.v, self.d + other.d)

    def __neg__(self) -> "_Jet":
        return _Jet(-self.v, -self.d)

    def __mul__(self, other) -> "_Jet":
        other = _Jet._of(other)
        return _Jet(self.v * other.v, self.d * other.v + self.v * other.d)


class _Clip(_Number):
    """Float64 array whose sums are clipped to +-OVERFLOW_LIMIT in place.  Each
    map level ends in a sum, so each level is clipped while the product inside
    it keeps its sign: the sign survives where plain float64 gives NaN."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other) -> "_Clip":
        s = self.v + _Clip._of(other).v
        return _Clip(np.minimum(np.maximum(s, -OVERFLOW_LIMIT, out=s), OVERFLOW_LIMIT, out=s))

    def __sub__(self, other) -> "_Clip":
        s = self.v - _Clip._of(other).v
        return _Clip(np.minimum(np.maximum(s, -OVERFLOW_LIMIT, out=s), OVERFLOW_LIMIT, out=s))

    def __mul__(self, other) -> "_Clip":
        return _Clip(self.v * _Clip._of(other).v)


# ---------------------------------------------------------------------------
# Fibonacci blocks

def fib_matrices(lam: float, E: complex, kmax: int) -> np.ndarray:
    """Fibonacci block matrices M_0 .. M_kmax by the block recursion.

    M_k equals the ordered transfer product over sites 1..F_k (site 0 alone
    for k = 0); determinants stay at one up to roundoff.
    """
    if kmax < 0:
        raise DomainError("kmax must be nonnegative")
    return np.array(list(islice(_blocks(Model.FIBONACCI, lam, E), kmax + 1)))


@dataclass(frozen=True)
class FibTraceOrbit:
    """Trace orbit x_k of the Fibonacci blocks at fixed (lambda, E).

    ``xs`` holds the rounded double values; the compensation terms are kept
    so that the conserved quantity can be evaluated without re-incurring the
    |x|^3 cancellation.  ``overflow_at`` is the first index whose value
    passed the overflow gate, or None; the levels past it are NaN.
    """

    xs: np.ndarray
    xs_lo: np.ndarray
    overflow_at: int | None

    def invariant_values(self) -> np.ndarray:
        """Conserved quantity for each interior triple, in compensated arithmetic.

        Entry k (for 1 <= k <= kmax-1) is built from (x_{k-1}, x_k, x_{k+1});
        the expected value is 4 + lambda^2 for every k.  Entries past an
        overflow are NaN.
        """
        out = np.full(self.xs.size, np.nan)
        stop = self.xs.size if self.overflow_at is None else self.overflow_at
        n = max(stop - 2, 0)
        acc = fib_invariant(*(_DD(self.xs[i:i + n], self.xs_lo[i:i + n]) for i in range(3)))
        out[1:1 + n] = acc.hi + acc.lo
        return out


def _fib_levels(x0, x1, x2):
    """Yield x_0, x_1, ... of the map x_{k+1} = x_k x_{k-1} - x_{k-2}.

    The three seeds come from the caller and fix the number type: float64
    arrays, _DD or _Jet values.  A level is computed only when requested.
    """
    yield x0
    yield x1
    prev2, prev, cur = x0, x1, x2
    while True:
        yield cur
        prev2, prev, cur = prev, cur, cur * prev - prev2


def fib_trace_orbit(lam: float, E: float, kmax: int) -> FibTraceOrbit:
    """Iterate the Fibonacci trace map from the first two blocks.

    The seed triple (x_0, x_1, x_2) is read off the matrices M_0, M_1 of
    :func:`_blocks` and M_0 M_1, never hard-coded.  Iteration runs in
    double-double arithmetic and stops at the overflow gate.
    """
    if kmax < 1:
        raise DomainError("kmax must be at least 1")
    m0, m1 = islice(_blocks(Model.FIBONACCI, lam, E), 2)
    with np.errstate(over="ignore", invalid="ignore"):  # M_0 M_1 overflows only past the gate
        seeds = [_DD(np.trace(m).real) for m in (m0, m1, m0 @ m1)]
    (hi, lo), overflow_at = _gated_orbit(((x.hi, x.lo) for x in _fib_levels(*seeds)), kmax)
    return FibTraceOrbit(xs=hi, xs_lo=lo, overflow_at=overflow_at)


def _gated_orbit(levels, kmax: int) -> tuple[np.ndarray, int | None]:
    """The one orbit gate: levels 0..kmax of an orbit, each a pair of floats, as
    the rows of a (2, kmax + 1) array (16 bytes per level, charged first), and
    the first level that fails :func:`lattice._in_range`, or None.  The walk
    stops at that level, which is kept; the levels past it are NaN."""
    _check_memory(16 * (kmax + 1), f"trace orbit to level {kmax}", "lower kmax")
    out = np.full((2, kmax + 1), np.nan)
    for k, level in zip(range(kmax + 1), levels):
        out[:, k] = level
        if not _in_range(out[:, k]):
            return out, k
    return out, None


def fib_invariant(x_prev, x_cur, x_next):
    """x_prev^2 + x_cur^2 + x_next^2 - x_prev x_cur x_next; floats or _DD values."""
    return x_prev * x_prev + x_cur * x_cur + x_next * x_next - x_prev * x_cur * x_next


def fib_trace_orbit_grid(lam: float, energies: np.ndarray, kmax: int) -> np.ndarray:
    """Vectorized float64 trace orbit over an energy grid.

    Returns an array of shape (kmax+1, len(energies)).  Intended for the
    bounded band regime; values overflow to inf harmlessly off the bands.
    """
    E = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(list(islice(_walk(Model.FIBONACCI, lam, E), kmax + 1)))


def trace_derivative_grid(lam: float, energies: np.ndarray, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Traces and their energy derivatives over a grid, in one pass of the
    level traces at _Jet(E, 1)."""
    E = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        levels = list(islice(_walk(Model.FIBONACCI, lam, _Jet(E, np.ones_like(E))), kmax + 1))
    return np.array([x.v for x in levels]), np.array([x.d for x in levels])


def indexing_convention_report(lam: float = 1.0, E: float = 0.7, kmax: int = 8) -> dict:
    """Decide the Fibonacci block convention against brute-force products.

    Both candidate block definitions are multiplied out one-step matrix by
    one-step matrix and tested against the recursion M_k = M_{k-2} M_{k-1}.
    The candidate ending at site 1 (with the site-0 matrix as the k = 0
    block) satisfies it identically; the candidate ending at site 2 cannot,
    already for reasons of factor count.
    """
    spec = PotentialSpec(Model.FIBONACCI, lam)
    fib = fibonacci_numbers(kmax)
    _check_memory(int(fib[kmax]) * _SWEEP_BYTES_PER_M, f"transfer sweeps over F_{kmax} sites",
                  "lower kmax")
    # prefix j of the sweep from site 1 covers 1..j, from site 2 covers 2..j+1
    from_site1 = _transfer_prefixes(potential_values(spec, np.arange(1, fib[kmax] + 1)), E)
    from_site2 = _transfer_prefixes(potential_values(spec, np.arange(2, fib[kmax] + 1)), E)

    def residual(blocks: list[np.ndarray]) -> float:
        return max(float(np.max(np.abs(blocks[k] - blocks[k - 2] @ blocks[k - 1])))
                   for k in range(2, kmax + 1))

    cand_site1 = [one_step_matrix(spec, 0, E)] + [from_site1[fib[k]] for k in range(1, kmax + 1)]
    cand_site2 = [from_site2[fib[k] - 1] for k in range(0, kmax + 1)]
    res1, res2 = residual(cand_site1), residual(cand_site2)
    return {
        "adopted": "A(F_k)...A(1)" if res1 < res2 else "A(F_k)...A(2)",
        "convention_id": FIB_CONVENTION_ID,
        "residual_adopted": min(res1, res2),
        "residual_rejected": max(res1, res2),
        "kmax": kmax,
        "lam": lam,
        "E": E,
    }


# ---------------------------------------------------------------------------
# substitution blocks (period doubling, Thue-Morse)

def subst_transfer(model: Model, lam: float, E: complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-k block transfer matrices (T0_k, T1_k) of a substitution chain.

    T0_k carries the word S^k(0), T1_k the word S^k(1); they are built by
    the model's block recursion from the level-0 one-step matrices.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if model not in _SUBST_STEPS:
        raise DomainError(f"{model} is not a substitution model")
    return next(islice(_blocks(model, lam, E), k, None))


def _pd_levels(lam: float, e):
    """Yield the period-doubling traces (x_k, y_k), k = 0, 1, ...

    x_{k+1} = x_k y_k - 2 and y_{k+1} = x_k^2 - 2 at e: float64 arrays, _DD
    or _Jet values.
    """
    x, y = e, e - lam
    while True:
        yield x, y
        x, y = x * y - 2.0, x * x - 2.0


def _tm_levels(lam: float, e):
    """Yield the Thue-Morse traces (x_k, y_k), k = 0, 1, ...

    x_k = y_k from level 1 on, and x_{k+1} = x_{k-1}^2 (x_k - 2) + 2 from
    level 2 on, at e: float64 arrays, _DD or _Jet values.  Level 2 in closed
    form: with a = E, b = E - lam and unimodular blocks,
    tr(A^2 B^2) = ab tr(AB) - a^2 - b^2 + 2 by Cayley-Hamilton.
    """
    a, b = e, e - lam
    yield a, b
    ab = a * b
    prev = ab - 2.0
    yield prev, prev
    cur = ab * prev - (a * a + b * b) + 2.0
    while True:
        yield cur, cur
        prev, cur = cur, prev * prev * (cur - 2.0) + 2.0


_SUBST_LEVELS = {Model.PERIOD_DOUBLING: _pd_levels, Model.THUE_MORSE: _tm_levels}


def _walk(model: Model, lam: float, e):
    """Yield level 0, 1, ... of the model's trace map at e, each computed when
    requested: x_k of the Fibonacci map, or (x_k, y_k) = (tr T0_k, tr T1_k) of a
    substitution chain.  e fixes the number type."""
    if model is Model.FIBONACCI:
        return _fib_levels(e, e - lam, e * (e - lam) - 2.0)
    return _SUBST_LEVELS[model](lam, e)


#: One level of each substitution block recursion, (T0_k, T1_k) -> (T0_{k+1}, T1_{k+1}).
_SUBST_STEPS = {Model.PERIOD_DOUBLING: lambda t0, t1: (t1 @ t0, t0 @ t0),
                Model.THUE_MORSE: lambda t0, t1: (t1 @ t0, t0 @ t1)}


def _blocks(model: Model, lam: float, E: complex):
    """Yield the block transfer matrices of level 0, 1, ..., each computed when
    requested: M_k = M_{k-2} M_{k-1} of the Fibonacci chain, or (T0_k, T1_k) of
    a substitution chain.  The seeds are the one-step matrices of the values 0
    and lam (M_0 = A(0) and M_1 = A(1), or the letters 0 and 1) and are not
    checked; a recursed level that fails the overflow test
    (:func:`lattice._in_range`, NaN included) raises :class:`ScaleOverflowError`."""
    a, b = _one_step(0.0, E), _one_step(lam, E)
    if model is Model.FIBONACCI:
        yield a
        yield b
        for k in count(2):
            a, b = b, a @ b
            if not _in_range(b).all():
                raise ScaleOverflowError(
                    f"Fibonacci block {k} overflowed; energy is far off the spectrum")
            yield b
    step = _SUBST_STEPS[model]
    yield a, b
    for k in count(1):
        a, b = step(a, b)
        if not _in_range((a, b)).all():
            raise ScaleOverflowError(f"substitution block overflow at level {k}")
        yield a, b


@dataclass(frozen=True)
class SubstTraceOrbit:
    xs: np.ndarray
    ys: np.ndarray
    overflow_at: int | None


def subst_trace_orbit(model: Model, lam: float, E: float, kmax: int) -> SubstTraceOrbit:
    """Trace orbit (x_k, y_k) of the block matrices, up to the overflow gate.

    Period doubling: x_{k+1} = x_k y_k - 2, y_{k+1} = x_k^2 - 2.
    Thue-Morse: x_k = y_k for k >= 1 and x_{k+1} = x_{k-1}^2 (x_k - 2) + 2
    for k >= 2, with the first two levels in closed form.
    """
    if kmax < 1:
        raise DomainError("kmax must be at least 1")
    if model not in _SUBST_LEVELS:
        raise DomainError(f"{model} is not a substitution model")
    (xs, ys), overflow_at = _gated_orbit(_walk(model, lam, E), kmax)
    return SubstTraceOrbit(xs=xs, ys=ys, overflow_at=overflow_at)


# ---------------------------------------------------------------------------
# level sets

#: Most sites per period cell of a level set: F_18 (Fibonacci k <= 18, words j <= 12).
MAX_PERIOD_SITES = 4181


def _check_period_sites(q: int, what: str) -> None:
    """Refuse ``what``, a level set of a q-site period cell, past the cap."""
    if q > MAX_PERIOD_SITES:
        raise ResourceError(f"{what} needs more than the cap of {MAX_PERIOD_SITES} sites")


def _level_trace(model: Model, lam: float, level: int, e):
    """The level trace at e, read off the walk: x_k of the Fibonacci map, or
    tr T0_j of a substitution chain."""
    x = next(islice(_walk(model, lam, e), level, None))
    return x if model is Model.FIBONACCI else x[0]


def _period_cell(model: Model, lam: float, level: int, what: str):
    """(row, trace) of the chain whose discriminant is the level trace: sites
    1..F_k of the Fibonacci chain (site 0 at level 0) or lam times the
    level-j word, and the trace on float64 energies, run on _Clip values.
    ``what`` is refused past the cap before any word or row is built."""
    q, prev = 1, 0
    for _ in range(level):
        q, prev = (q + prev if model is Model.FIBONACCI else 2 * q), q
        _check_period_sites(q, what)
    if model is Model.FIBONACCI:
        row = potential_values(PotentialSpec(model, lam), np.arange(1, q + 1) if level else [0])
    else:
        row = lam * substitution_word(model, level)
    return row, lambda energies: _level_trace(model, lam, level, _Clip(energies)).v


def _level_crossings(v: np.ndarray, trace, targets: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Crossings of the discriminant ``trace`` of the period cell v with each target.

    The q - 1 Dirichlet eigenvalues of the cell (sites 1..q-1) lie one in
    each closed gap, and the spectrum in [min v - 2, max v + 2].  So bracket
    i holds band i, where the discriminant runs monotonically from -2 to 2
    if q - 1 - i is even (it grows like E^q) and back otherwise, and each
    target in [-2, 2] is crossed once.  Bisection on the sign of trace - c
    (``trace`` must keep it) steps all brackets at once, moving an end where the
    midpoint lies strictly inside, and keeps the closer end once none does.
    Returns the (len(targets), q) crossings and the q + 1 bracket ends."""
    q = v.size
    dirichlet = _lapack.dsterf(v[:-1], np.ones(q - 2)) if q > 1 else []
    ends = np.concatenate([[v.min() - 2.0], dirichlet, [v.max() + 2.0]])
    lo, hi = np.tile(ends[:-1], len(targets)), np.tile(ends[1:], len(targets))
    rising = np.tile((q - 1 - np.arange(q)) % 2 == 0, len(targets))
    target = np.repeat(np.asarray(targets, dtype=np.float64), q)
    # the clipped Thue-Morse step may overflow inside a level; the sum clips it
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
        while (moved := (lo < mid) & (mid < hi)).any():
            left = (trace(mid) > target) == rising
            hi = np.where(moved & left, mid, hi)
            lo = np.where(moved & ~left, mid, lo)
            mid = 0.5 * (lo + hi)
        closer_hi = np.abs(trace(hi) - target) < np.abs(trace(lo) - target)
    return np.where(closer_hi, hi, lo).reshape(-1, q), ends


# ---------------------------------------------------------------------------
# special energies

#: Newton steps that polish every zero in double-double arithmetic.
_NEWTON_STEPS = 5

#: Thue-Morse candidates this close to the level-2 set x_2 = 2 are dropped.
_LEVEL_TWO_TOL = 1e-9

#: Thue-Morse zeros of different levels closer than this are one energy.
_DUPLICATE_TOL = 1e-11


def _trace_zeros(model: Model, lam: float, j: int) -> _DD:
    """Zeros of the level-j block trace, ascending, polished in double-double.

    The float64 zeros are the kernel's crossings of 0, one per Dirichlet
    bracket.  One vectorized double-double Newton iteration polishes them
    together, each iterate clipped to its own bracket; a zero whose slope
    is 0 or not finite keeps its last iterate.  Zeros that are not
    pairwise distinct in float64 trigger a warning.
    """
    (start,), ends = _level_crossings(*_period_cell(model, lam, j, f"the level-{j} zero set"),
                                      (0.0,))
    e = _DD(start)
    live = np.ones(start.size, dtype=bool)
    # a stopped zero may hold non-finite values; its steps are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            val = _level_trace(model, lam, j, e)
            slope = _level_trace(model, lam, j, _Jet(e.hi, 1.0)).d
            live &= np.isfinite(slope) & (slope != 0.0)
            slope = np.where(live, slope, 1.0)
            step_hi = val.hi / slope
            step_lo = (val.lo - (step_hi * slope - val.hi)) / slope
            nxt = e - _DD(step_hi, step_lo)
            hi = np.clip(nxt.hi, ends[:-1], ends[1:])
            lo = np.where(hi == nxt.hi, nxt.lo, 0.0)
            e = _DD(np.where(live, hi, e.hi), np.where(live, lo, e.lo))
    # counted on a sort: np.unique imports numpy.ma, ~8 ms, on its first call
    distinct = e.hi.size - np.count_nonzero(np.diff(np.sort(e.hi)) == 0)
    if distinct != e.hi.size:
        warnings.warn(f"{model.value} trace level {j} (lambda={lam}): {distinct} distinct "
                      f"zeros of {e.hi.size} in float64", RuntimeWarning, stacklevel=3)
    return e


def pd_special_energies(lam: float, k: int) -> np.ndarray:
    """Real roots of the period-doubling trace x_k(E), ascending.

    The trace is a degree-2^k polynomial in E with one root in each
    Dirichlet bracket of the level-k word, bisected there and polished in
    double-double arithmetic.  At each root the next-level blocks satisfy
    tr T0_{k+1} = -2 and T1_{k+1} = -I.
    """
    return _trace_zeros(Model.PERIOD_DOUBLING, lam, k).hi


def pd_root_certificates(lam: float, k: int) -> list[dict]:
    """Per-root identity defects of the level-(k+1) period-doubling blocks.

    The blocks are unimodular, so Cayley-Hamilton gives exactly
    tr T0_{k+1} + 2 = x_k y_k and T1_{k+1} + I = x_k T0_k.  The two defects
    are evaluated through these identities at the double-double roots; this
    sidesteps the double-precision floor |x_k| >= |x_k'| ulp(E) that a
    literal float64 matrix product at a float64 root cannot beat.
    """
    zeros = _trace_zeros(Model.PERIOD_DOUBLING, lam, k)
    x, y = next(islice(_walk(Model.PERIOD_DOUBLING, lam, zeros), k, None))
    certificates = []
    for e, trace_defect, x_abs in zip(zeros.hi.tolist(), np.abs((x * y).hi).tolist(),
                                      np.abs(x.hi + x.lo).tolist()):
        t0_k, _ = subst_transfer(Model.PERIOD_DOUBLING, lam, e, k)
        certificates.append({
            "E": e,
            "trace_defect": trace_defect,
            "t1_plus_identity_norm": x_abs * spectral_norm(t0_k),
        })
    return certificates


def tm_special_energies(lam: float, k: int) -> np.ndarray:
    """Energies with x_k = 2 for the Thue-Morse chain, level-2 set excluded.

    The factorization x_{j+2} - 2 = x_j^2 (x_{j+1} - 2) makes zeros of x_j
    double roots of x_k - 2.  The returned set is therefore assembled as the
    union of the zero sets of x_j for 1 <= j <= k - 2, which is exactly the
    level-k set minus the level-2 set; candidates that happen to lie in the
    level-2 set are dropped.  At every returned energy the level-k blocks
    are the identity.
    """
    roots = np.sort(np.concatenate([z.hi for z in _tm_zero_sets(lam, k).values()]))
    keep = np.ones(roots.size, dtype=bool)
    keep[1:] = np.diff(roots) > _DUPLICATE_TOL
    roots = roots[keep]
    return roots[np.abs(_level_trace(Model.THUE_MORSE, lam, 2, roots) - 2.0) > _LEVEL_TWO_TOL]


def _tm_zero_sets(lam: float, k: int) -> dict[int, _DD]:
    """Zero sets of the Thue-Morse traces x_j for 1 <= j <= k - 2, polished.

    The largest level comes first, so an oversized request is refused
    before any work.
    """
    if k < 3:
        raise DomainError("the excluded-level construction needs k >= 3")
    return {j: _trace_zeros(Model.THUE_MORSE, lam, j) for j in range(k - 2, 0, -1)}


def tm_root_certificates(lam: float, k: int) -> list[dict]:
    """Identity defects ||T0_k - I||, ||T1_k - I|| at the special energies.

    At a zero of x_j the level-(j+2) blocks satisfy exactly
    T0_{j+2} - I = x_j (T0_j T1_j T0_j - T0_j) and
    T1_{j+2} - I = x_j (T1_j T0_j T1_j - T1_j), and defects propagate
    linearly (D0, D1) -> (D0 + D1 + D1 D0).  At the double-double zeros
    |x_j| sits at ~1e-30, so the quadratic terms are negligible and the
    defect norms follow from float64 block matrices scaled by the
    compensated x_j.
    """
    certificates = []
    for j, zeros in sorted(_tm_zero_sets(lam, k).items()):
        x = _level_trace(Model.THUE_MORSE, lam, j, zeros)
        for e, x_j in zip(zeros.hi.tolist(), np.abs(x.hi + x.lo).tolist()):
            t0, t1 = subst_transfer(Model.THUE_MORSE, lam, e, j)
            m0 = t0 @ t1 @ t0 - t0
            m1 = t1 @ t0 @ t1 - t1
            for _ in range(j + 2, k):
                m0, m1 = m0 + m1, m0 + m1
            certificates.append({
                "E": e,
                "source_level": j,
                "x_defect": x_j,
                "t0_minus_identity_norm": x_j * spectral_norm(m0),
                "t1_minus_identity_norm": x_j * spectral_norm(m1),
            })
    return certificates
