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

Trace orbits are iterated in double-double (compensated) arithmetic: the
conserved quantity involves a cancellation of order |x|^3, so plain double
precision loses it long before the |x| <= 1e6 window in which orbits are
certified.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from quasidyn.lattice import (
    DomainError,
    Model,
    PotentialSpec,
    ScaleOverflowError,
    _transfer_prefixes,
    one_step_matrix,
    potential_values,
    spectral_norm,
)

#: Adopted Fibonacci block convention, embedded in output metadata.
FIB_CONVENTION_ID = "fib-blocks:Mk=A(F_k)...A(1);M0=A(0);recursion Mk=M(k-2)M(k-1)"

#: Orbits stop and flag once |x_k| passes this (doubly exponential regime).
TRACE_OVERFLOW = 1e150


def fibonacci_numbers(kmax: int) -> np.ndarray:
    """Fibonacci numbers F_0 = F_1 = 1, F_{k+1} = F_k + F_{k-1}."""
    if kmax < 0:
        raise DomainError("kmax must be nonnegative")
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


def _dd_add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    s, e = _two_sum(x[0], y[0])
    e += x[1] + y[1]
    s2 = s + e
    return s2, e - (s2 - s)


def _dd_mul(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    p, e = _two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    p2 = p + e
    return p2, e - (p2 - p)


def _dd_neg(x: tuple[float, float]) -> tuple[float, float]:
    return -x[0], -x[1]


# ---------------------------------------------------------------------------
# Fibonacci blocks

def fib_base_matrices(lam: float, E: complex) -> tuple[np.ndarray, np.ndarray]:
    """Directly multiplied blocks M_0 = A(0) and M_1 = A(1)."""
    spec = PotentialSpec(Model.FIBONACCI, lam)
    return one_step_matrix(spec, 0, E), one_step_matrix(spec, 1, E)


def fib_matrices(lam: float, E: complex, kmax: int) -> np.ndarray:
    """Fibonacci block matrices M_0 .. M_kmax by the block recursion.

    M_k equals the ordered transfer product over sites 1..F_k (site 0 alone
    for k = 0); determinants stay at one up to roundoff.
    """
    if kmax < 0:
        raise DomainError("kmax must be nonnegative")
    out = np.empty((kmax + 1, 2, 2), dtype=np.complex128)
    m0, m1 = fib_base_matrices(lam, E)
    out[0] = m0
    if kmax >= 1:
        out[1] = m1
    for k in range(2, kmax + 1):
        out[k] = out[k - 2] @ out[k - 1]
        if np.max(np.abs(out[k])) > TRACE_OVERFLOW:
            raise ScaleOverflowError(f"Fibonacci block {k} overflowed; energy is far off the spectrum")
    return out


@dataclass(frozen=True)
class FibTraceOrbit:
    """Trace orbit x_k of the Fibonacci blocks at fixed (lambda, E).

    ``xs`` holds the rounded double values; the compensation terms are kept
    so that the conserved quantity can be evaluated without re-incurring the
    |x|^3 cancellation.  ``overflow_at`` is the first index whose value
    passed the overflow gate, or None.
    """

    lam: float
    E: float
    xs: np.ndarray
    xs_lo: np.ndarray
    overflow_at: int | None

    @property
    def kmax(self) -> int:
        return self.xs.size - 1

    def invariant_values(self) -> np.ndarray:
        """Conserved quantity for each interior triple, in compensated arithmetic.

        Entry k (for 1 <= k <= kmax-1) is built from (x_{k-1}, x_k, x_{k+1});
        the expected value is 4 + lambda^2 for every k.  Entries past an
        overflow are NaN.
        """
        out = np.full(self.xs.size, np.nan)
        stop = self.xs.size if self.overflow_at is None else self.overflow_at
        for k in range(1, stop - 1):
            a = (self.xs[k - 1], self.xs_lo[k - 1])
            b = (self.xs[k], self.xs_lo[k])
            c = (self.xs[k + 1], self.xs_lo[k + 1])
            acc = _dd_mul(a, a)
            acc = _dd_add(acc, _dd_mul(b, b))
            acc = _dd_add(acc, _dd_mul(c, c))
            acc = _dd_add(acc, _dd_neg(_dd_mul(_dd_mul(a, b), c)))
            out[k] = acc[0] + acc[1]
        return out


def fib_trace_orbit(lam: float, E: float, kmax: int) -> FibTraceOrbit:
    """Iterate the Fibonacci trace map from directly multiplied base blocks.

    The seed triple (x_0, x_1, x_2) is read off the matrices M_0, M_1 and
    M_0 M_1, never hard-coded.  Iteration runs in double-double arithmetic
    and stops at the overflow gate.
    """
    if kmax < 1:
        raise DomainError("kmax must be at least 1")
    m0, m1 = fib_base_matrices(lam, E)
    m2 = m0 @ m1
    seeds = [np.trace(m).real for m in (m0, m1, m2)]
    hi = np.full(kmax + 1, np.inf)
    lo = np.zeros(kmax + 1)
    overflow_at = None
    vals: list[tuple[float, float]] = []
    for k in range(kmax + 1):
        if k < len(seeds):
            cur = (seeds[k], 0.0)
        else:
            cur = _dd_add(_dd_mul(vals[k - 1], vals[k - 2]), _dd_neg(vals[k - 3]))
        vals.append(cur)
        hi[k], lo[k] = cur
        if not np.isfinite(cur[0]) or abs(cur[0]) > TRACE_OVERFLOW:
            overflow_at = k
            break
    return FibTraceOrbit(lam=lam, E=E, xs=hi, xs_lo=lo, overflow_at=overflow_at)


def fib_invariant(x_prev: float, x_cur: float, x_next: float):
    """x_next^2 + x_cur^2 + x_prev^2 - x_next x_cur x_prev (plain doubles)."""
    return x_next * x_next + x_cur * x_cur + x_prev * x_prev - x_next * x_cur * x_prev


def fib_trace_orbit_grid(lam: float, energies: np.ndarray, kmax: int) -> np.ndarray:
    """Vectorized float64 trace orbit over an energy grid.

    Returns an array of shape (kmax+1, len(energies)).  Intended for the
    bounded band regime; values overflow to inf harmlessly off the bands.
    """
    E = np.asarray(energies, dtype=np.float64)
    out = np.empty((kmax + 1, E.size), dtype=np.float64)
    out[0] = E
    if kmax >= 1:
        out[1] = E - lam
    if kmax >= 2:
        out[2] = E * (E - lam) - 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3, kmax + 1):
            out[k] = out[k - 1] * out[k - 2] - out[k - 3]
    return out


def trace_derivative_grid(lam: float, energies: np.ndarray, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Traces and their energy derivatives over a grid, by joint recursion.

    The derivative recursion x'_{k+1} = x'_k x_{k-1} + x_k x'_{k-1} - x'_{k-2}
    is seeded from analytically differentiated base products.
    """
    E = np.asarray(energies, dtype=np.float64)
    xs = fib_trace_orbit_grid(lam, E, kmax)
    dxs = np.empty_like(xs)
    dxs[0] = 1.0
    if kmax >= 1:
        dxs[1] = 1.0
    if kmax >= 2:
        dxs[2] = 2.0 * E - lam
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3, kmax + 1):
            dxs[k] = dxs[k - 1] * xs[k - 2] + xs[k - 1] * dxs[k - 2] - dxs[k - 3]
    return xs, dxs


@dataclass(frozen=True)
class TraceDerivOrbit:
    lam: float
    E: float
    xs: np.ndarray
    dxs: np.ndarray


def trace_derivative_orbit(lam: float, E: float, kmax: int) -> TraceDerivOrbit:
    """Scalar (x_k, dx_k/dE) orbit; base derivatives from the product rule.

    The base traces come from M_0, M_1, M_0 M_1 and their derivative
    matrices D_k = dM_k/dE with dA/dE = [[1, 0], [0, 0]].
    """
    if kmax < 1:
        raise DomainError("kmax must be at least 1")
    m0, m1 = fib_base_matrices(lam, E)
    d = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    mats = [m0, m1, m0 @ m1]
    dmats = [d, d, d @ m1 + m0 @ d]
    xs = np.empty(kmax + 1)
    dxs = np.empty(kmax + 1)
    for k in range(min(3, kmax + 1)):
        xs[k] = np.trace(mats[k]).real
        dxs[k] = np.trace(dmats[k]).real
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3, kmax + 1):
            xs[k] = xs[k - 1] * xs[k - 2] - xs[k - 3]
            dxs[k] = dxs[k - 1] * xs[k - 2] + xs[k - 1] * dxs[k - 2] - dxs[k - 3]
    return TraceDerivOrbit(lam=lam, E=E, xs=xs, dxs=dxs)


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

def letter_matrix(lam: float, E: complex, letter: int) -> np.ndarray:
    """One-step matrix [[E - lam*letter, -1], [1, 0]] for a word letter."""
    return np.array([[E - lam * letter, -1.0], [1.0, 0.0]], dtype=np.complex128)


def subst_transfer(model: Model | str, lam: float, E: complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-k block transfer matrices (T0_k, T1_k) of a substitution chain.

    T0_k carries the word S^k(0), T1_k the word S^k(1); they are built by
    the model's block recursion from the level-0 one-step matrices.
    """
    model = Model.parse(model) if isinstance(model, str) else model
    if k < 0:
        raise DomainError("k must be nonnegative")
    t0 = letter_matrix(lam, E, 0)
    t1 = letter_matrix(lam, E, 1)
    for _ in range(k):
        if model is Model.PERIOD_DOUBLING:
            t0, t1 = t1 @ t0, t0 @ t0
        elif model is Model.THUE_MORSE:
            t0, t1 = t1 @ t0, t0 @ t1
        else:
            raise DomainError(f"{model} is not a substitution model")
        if max(np.max(np.abs(t0)), np.max(np.abs(t1))) > TRACE_OVERFLOW:
            raise ScaleOverflowError(f"substitution block overflow at level {_ + 1}")
    return t0, t1


@dataclass(frozen=True)
class SubstTraceOrbit:
    model: Model
    lam: float
    E: float
    xs: np.ndarray
    ys: np.ndarray
    overflow_at: int | None


def subst_trace_orbit(model: Model | str, lam: float, E: float, kmax: int) -> SubstTraceOrbit:
    """Trace orbit (x_k, y_k) of the block matrices.

    Period doubling: x_{k+1} = x_k y_k - 2, y_{k+1} = x_k^2 - 2.
    Thue-Morse: x_k = y_k for k >= 1 and x_{k+1} = x_{k-1}^2 (x_k - 2) + 2
    for k >= 2; the first two levels are read off the matrices.
    """
    model = Model.parse(model) if isinstance(model, str) else model
    if kmax < 1:
        raise DomainError("kmax must be at least 1")
    xs = np.full(kmax + 1, np.nan)
    ys = np.full(kmax + 1, np.nan)
    xs[0], ys[0] = E, E - lam
    overflow_at = None
    if model is Model.PERIOD_DOUBLING:
        for k in range(kmax):
            xs[k + 1] = xs[k] * ys[k] - 2.0
            ys[k + 1] = xs[k] * xs[k] - 2.0
            if not np.isfinite(xs[k + 1]) or abs(xs[k + 1]) > TRACE_OVERFLOW:
                overflow_at = k + 1
                break
    elif model is Model.THUE_MORSE:
        for k in (1, 2):
            if k <= kmax:
                t0, _ = subst_transfer(model, lam, E, k)
                xs[k] = ys[k] = np.trace(t0).real
        for k in range(2, kmax):
            xs[k + 1] = ys[k + 1] = xs[k - 1] ** 2 * (xs[k] - 2.0) + 2.0
            if not np.isfinite(xs[k + 1]) or abs(xs[k + 1]) > TRACE_OVERFLOW:
                overflow_at = k + 1
                break
    else:
        raise DomainError(f"{model} is not a substitution model")
    return SubstTraceOrbit(model=model, lam=lam, E=E, xs=xs, ys=ys, overflow_at=overflow_at)


# ---------------------------------------------------------------------------
# special energies

def root_search_interval(lam: float) -> tuple[float, float]:
    """Energy interval [-2 - lam, 2 + 2 lam] that contains all trace roots.

    The spectra of the {0, lam} chains live in [-2, 2 + lam]; the interval
    is padded on both sides for safety.
    """
    lam = abs(lam)
    return -2.0 - lam, 2.0 + 2.0 * lam


def _pd_trace_on_grid(lam: float, E: np.ndarray, k: int) -> np.ndarray:
    x = np.asarray(E, dtype=np.float64).copy()
    y = x - lam
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            x, y = x * y - 2.0, x * x - 2.0
    return x


def _bracketed_roots(f, lo: float, hi: float, n_grid: int, xtol: float) -> np.ndarray:
    """All simple roots of f located by sign-change bracketing plus brentq."""
    grid = np.linspace(lo, hi, n_grid)
    vals = f(grid)
    roots = []
    for i in range(n_grid - 1):
        a, b = vals[i], vals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            roots.append(grid[i])
        elif a * b < 0.0:
            roots.append(brentq(lambda t: float(f(np.array([t]))[0]), grid[i], grid[i + 1],
                                xtol=xtol, rtol=8.0 * np.finfo(float).eps))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    return np.array(sorted(roots))


def pd_special_energies(lam: float, k: int, *, xtol: float = 1e-12, grid_factor: int = 64) -> np.ndarray:
    """Real roots of the period-doubling trace x_k(E).

    The trace is a degree-2^k polynomial in E; roots are isolated by dense
    sign-change bracketing on the search interval and refined to ``xtol``.
    A count different from 2^k triggers a warning, not an error.  At each
    root the next-level blocks satisfy tr T0_{k+1} = -2 and T1_{k+1} = -I.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    lo, hi = root_search_interval(lam)
    n_grid = grid_factor * 2 ** k + 1
    roots = _bracketed_roots(lambda E: _pd_trace_on_grid(lam, E, k), lo, hi, n_grid, xtol)
    expected = 2 ** k
    if roots.size != expected:
        warnings.warn(
            f"period-doubling trace level {k}: found {roots.size} roots, expected {expected} "
            f"(lambda={lam}); grid may be too coarse or roots degenerate",
            RuntimeWarning, stacklevel=2)
    return np.array([
        _dd_newton_root(lambda e: _pd_xy_dd(lam, e, k)[0],
                        lambda e: _pd_x_dx(lam, e, k)[1], float(r))[0]
        for r in roots])


def _tm_trace_on_grid(lam: float, E: np.ndarray, k: int) -> np.ndarray:
    # level 2 in closed form: with a = E, b = E - lam and unimodular blocks,
    # tr(A^2 B^2) = ab tr(AB) - a^2 - b^2 + 2 by Cayley-Hamilton
    E = np.asarray(E, dtype=np.float64)
    if k == 0:
        return E.copy()
    a, b = E, E - lam
    prev = a * b - 2.0
    if k == 1:
        return prev.copy()
    cur = a * b * prev - a * a - b * b + 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k - 2):
            prev, cur = cur, prev * prev * (cur - 2.0) + 2.0
    return cur


def _pd_x_dx(lam: float, e: float, k: int) -> tuple[float, float]:
    """Period-doubling trace and its energy derivative at level k."""
    x, y = e, e - lam
    dx, dy = 1.0, 1.0
    for _ in range(k):
        x, y, dx, dy = x * y - 2.0, x * x - 2.0, dx * y + x * dy, 2.0 * x * dx
    return x, dx


def _tm_x_dx(lam: float, e: float, j: int) -> tuple[float, float]:
    """Thue-Morse trace and its energy derivative at level j."""
    a, b = e, e - lam
    if j == 0:
        return a, 1.0
    x1, dx1 = a * b - 2.0, 2.0 * e - lam
    if j == 1:
        return x1, dx1
    x2 = a * b * x1 - a * a - b * b + 2.0
    dx2 = (2.0 * e - lam) * x1 + a * b * dx1 - 2.0 * a - 2.0 * b
    prev, cur, dprev, dcur = x1, x2, dx1, dx2
    for _ in range(j - 2):
        nxt = prev * prev * (cur - 2.0) + 2.0
        dnxt = 2.0 * prev * dprev * (cur - 2.0) + prev * prev * dcur
        prev, cur, dprev, dcur = cur, nxt, dcur, dnxt
    return cur, dcur


_DD_TWO = (2.0, 0.0)


def _pd_xy_dd(lam: float, e: tuple[float, float], k: int) -> tuple[tuple[float, float], tuple[float, float]]:
    x = e
    y = _dd_add(e, (-lam, 0.0))
    for _ in range(k):
        x, y = (_dd_add(_dd_mul(x, y), _dd_neg(_DD_TWO)),
                _dd_add(_dd_mul(x, x), _dd_neg(_DD_TWO)))
    return x, y


def _tm_x_dd(lam: float, e: tuple[float, float], j: int) -> tuple[float, float]:
    if j == 0:
        return e
    a, b = e, _dd_add(e, (-lam, 0.0))
    ab = _dd_mul(a, b)
    x1 = _dd_add(ab, _dd_neg(_DD_TWO))
    if j == 1:
        return x1
    x2 = _dd_add(_dd_add(_dd_mul(ab, x1), _dd_neg(_dd_add(_dd_mul(a, a), _dd_mul(b, b)))), _DD_TWO)
    prev, cur = x1, x2
    for _ in range(j - 2):
        nxt = _dd_add(_dd_mul(_dd_mul(prev, prev), _dd_add(cur, _dd_neg(_DD_TWO))), _DD_TWO)
        prev, cur = cur, nxt
    return cur


def _dd_newton_root(value_dd, derivative, e0: float, iterations: int = 5) -> tuple[float, float]:
    """Polish a root in double-double energy arithmetic.

    ``value_dd`` maps a double-double energy to a double-double residual;
    ``derivative`` maps a plain float energy to the float residual slope.
    Newton from an already bracketed estimate converges quadratically, so a
    handful of steps reach the compensated noise floor ~1e-30.
    """
    e = (e0, 0.0)
    for _ in range(iterations):
        val = value_dd(e)
        slope = derivative(e[0])
        if slope == 0.0 or not np.isfinite(slope):
            break
        step_hi = val[0] / slope
        step_lo = (val[1] - (step_hi * slope - val[0])) / slope
        e = _dd_add(e, (-step_hi, -step_lo))
    return e


def pd_root_certificates(lam: float, k: int, *, xtol: float = 1e-12) -> list[dict]:
    """Per-root identity defects of the level-(k+1) period-doubling blocks.

    The blocks are unimodular, so Cayley-Hamilton gives exactly
    tr T0_{k+1} + 2 = x_k y_k and T1_{k+1} + I = x_k T0_k.  Each root of
    x_k is refined in double-double energy arithmetic and the two defects
    are evaluated through these identities; this sidesteps the double-
    precision floor |x_k| >= |x_k'| ulp(E) that a literal float64 matrix
    product at a float64 root cannot beat.
    """
    roots = pd_special_energies(lam, k, xtol=xtol)
    certificates = []
    for e0 in roots:
        e_dd = _dd_newton_root(lambda e: _pd_xy_dd(lam, e, k)[0],
                               lambda e: _pd_x_dx(lam, e, k)[1], float(e0))
        x_dd, y_dd = _pd_xy_dd(lam, e_dd, k)
        t0_k, _ = subst_transfer(Model.PERIOD_DOUBLING, lam, e_dd[0], k)
        trace_defect = abs((_dd_mul(x_dd, y_dd))[0])
        t1_defect = abs(x_dd[0] + x_dd[1]) * spectral_norm(t0_k)
        certificates.append({
            "E": float(e_dd[0]),
            "trace_defect": trace_defect,
            "t1_plus_identity_norm": t1_defect,
        })
    return certificates


def tm_special_energies(lam: float, k: int, *, xtol: float = 1e-12, grid_factor: int = 64,
                        exclusion_tol: float = 1e-9) -> np.ndarray:
    """Energies with x_k = 2 for the Thue-Morse chain, level-2 set excluded.

    The factorization x_{j+2} - 2 = x_j^2 (x_{j+1} - 2) makes zeros of x_j
    double roots of x_k - 2, invisible to sign-change bracketing on
    x_k - 2 itself.  The returned set is therefore assembled as the union
    of the zero sets of x_j for 1 <= j <= k - 2, which is exactly the
    level-k set minus the level-2 set; candidates that happen to lie in the
    level-2 set are dropped.  At every returned energy the level-k blocks
    are the identity.
    """
    zero_sets = _tm_zero_sets(lam, k, xtol=xtol, grid_factor=grid_factor)
    roots = [e for zeros in zero_sets.values() for e in zeros]
    roots_arr = np.array(sorted(roots))
    if roots_arr.size:
        keep = np.ones(roots_arr.size, dtype=bool)
        keep[1:] = np.diff(roots_arr) > 10.0 * xtol
        roots_arr = roots_arr[keep]
        x2 = _tm_trace_on_grid(lam, roots_arr, 2)
        roots_arr = roots_arr[np.abs(x2 - 2.0) > exclusion_tol]
    return roots_arr


def _tm_zero_sets(lam: float, k: int, *, xtol: float = 1e-12,
                  grid_factor: int = 64) -> dict[int, np.ndarray]:
    """Zero sets of the Thue-Morse traces x_j for 1 <= j <= k - 2, polished."""
    if k < 3:
        raise DomainError("the excluded-level construction needs k >= 3")
    lo, hi = root_search_interval(lam)
    out: dict[int, np.ndarray] = {}
    for j in range(1, k - 1):
        n_grid = grid_factor * 2 ** j + 1
        raw = _bracketed_roots(lambda E: _tm_trace_on_grid(lam, E, j), lo, hi, n_grid, xtol)
        out[j] = np.array([
            _dd_newton_root(lambda e: _tm_x_dd(lam, e, j),
                            lambda e: _tm_x_dx(lam, e, j)[1], float(r))[0]
            for r in raw])
    return out


def tm_root_certificates(lam: float, k: int, *, xtol: float = 1e-12) -> list[dict]:
    """Identity defects ||T0_k - I||, ||T1_k - I|| at the special energies.

    At a zero of x_j the level-(j+2) blocks satisfy exactly
    T0_{j+2} - I = x_j (T0_j T1_j T0_j - T0_j) and
    T1_{j+2} - I = x_j (T1_j T0_j T1_j - T1_j), and defects propagate
    linearly (D0, D1) -> (D0 + D1 + D1 D0).  With the root refined in
    double-double arithmetic |x_j| sits at ~1e-30, so the quadratic terms
    are negligible and the defect norms follow from float64 block matrices
    scaled by the compensated x_j.
    """
    zero_sets = _tm_zero_sets(lam, k, xtol=xtol)
    certificates = []
    for j, zeros in sorted(zero_sets.items()):
        for e0 in zeros:
            e_dd = _dd_newton_root(lambda e: _tm_x_dd(lam, e, j),
                                   lambda e: _tm_x_dx(lam, e, j)[1], float(e0))
            x_j = abs(_tm_x_dd(lam, e_dd, j)[0] + _tm_x_dd(lam, e_dd, j)[1])
            t0, t1 = subst_transfer(Model.THUE_MORSE, lam, e_dd[0], j)
            m0 = t0 @ t1 @ t0 - t0
            m1 = t1 @ t0 @ t1 - t1
            for _ in range(j + 2, k):
                m0, m1 = m0 + m1, m0 + m1
            certificates.append({
                "E": float(e_dd[0]),
                "source_level": j,
                "x_defect": x_j,
                "t0_minus_identity_norm": x_j * spectral_norm(m0),
                "t1_minus_identity_norm": x_j * spectral_norm(m1),
            })
    return certificates
