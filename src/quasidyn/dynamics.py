"""Time evolution, resolvents, transport moments, and lower-bound checks.

Two independent routes compute the exponentially time-averaged site
probabilities

    a(n, T) = (2/T) Int_0^inf e^{-2t/T} |psi(t, n)|^2 dt,
    psi(t) = e^{-itH} delta_1,

normalized so the profile carries unit mass.  The time route propagates the
state with a Chebyshev polynomial expansion of the evolution operator and
integrates on a uniform grid; the resolvent route uses the Parseval identity

    a(n, T) = (eps/pi) Int |((H - E - i eps)^{-1} delta_1)(n)|^2 dE,

with eps = 1/T, evaluated by midpoint quadrature over an energy grid.  One
kernel runs the Dirichlet solutions of the window's two sides across all grid
energies at once and checks the profile's mass against the Ward identity
sum_n |G(n, 1)|^2 = Im G(1, 1)/eps.  Their agreement is a strong end-to-end
check of both pipelines.

Moments of the position operator are accumulated in the log domain so that
orders up to p ~ 120 stay inside the floating-point range, and finite-time
growth exponents are least-squares slopes of log-moment against log T over
the largest-T half of a ladder.  The theoretical lower bounds against which
these slopes are compared constrain exponents only; all prefactors are
normalized away at the smallest ladder time.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from quasidyn import _lapack
from quasidyn.lattice import (
    MAX_SWEEP_BYTES,
    OVERFLOW_LIMIT,
    DomainError,
    Geometry,
    LatticeWindow,
    Model,
    PotentialSpec,
    ResourceError,
    ScaleOverflowError,
    TruncationError,
    _SWEEP_BYTES_PER_M,
    _check_memory,
    _transfer_prefixes,
    _tridiag_apply,
    _tridiag_solve,
    potential_values,
    spectral_norm,
)
from quasidyn.spectra import approximant_spectrum, bound_parameters
from quasidyn.traces import fibonacci_numbers

#: Abel-average integration cutoff: t_max = TIME_CUTOFF * T.
TIME_CUTOFF = 6.0

#: Largest far-edge share of a time-route profile's mass (window too small past it).
EDGE_MASS_TOL = 1e-6

#: Bytes per window site charged to the time route, plus 16 per ladder time (its
#: sum and its profile).  Its peak (tracemalloc, 1,600 to 120,001 sites, ladders of
#: 1 to 20 times, potential built inside) is 552-573 bytes per site plus 8 per time,
#: 16 of them the complex diagonal of the Chebyshev sweep.
_TIME_BYTES_PER_SITE = 640

#: Bytes per window site charged to :func:`resolvent_vector`: its peak (tracemalloc,
#: 1,601 to 400,001 sites, potential built inside) is 89-93.
_SOLVE_BYTES_PER_SITE = 128

#: Bytes per energy grid point charged to the resolvent route: its peak over the
#: potential (same measure, 960 to 52,000 grid points) is 173-209.
_RESOLVENT_BYTES_PER_ENERGY = 240

#: Largest relative gap between a resolvent profile's mass and the Ward
#: identity's (h/pi) sum_E Im G(1, 1; E + i eps) (the quadrature kernel is wrong past it).
MASS_IDENTITY_TOL = 1e-12

#: Window sizing rule for evolutions and profiles (radius in sites).
def default_window_radius(t_max: float) -> int:
    return int(math.ceil(2.0 * t_max)) + 64


class Verdict(enum.Enum):
    PASS = "pass"
    SOFT_FAIL = "soft-fail"
    OUT_OF_REGIME = "out-of-regime"


@dataclass(frozen=True)
class AmplitudeProfile:
    """Sampled a(n, T) over a window at fixed T, with its method tag."""

    T: float
    window: LatticeWindow
    a: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.a.shape[0] != self.window.size:
            raise DomainError("profile length does not match window")

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.a))

    def sites(self) -> np.ndarray:
        return self.window.sites()


@dataclass(frozen=True)
class MomentSeries:
    p: float
    points: tuple[tuple[float, float], ...]  # (T, log moment)

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DomainError("moment series times must be strictly increasing")
        if any(not math.isfinite(m) for _, m in self.points):
            raise DomainError("moment series values must be finite")


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    confidence: float


@dataclass(frozen=True)
class BoundEntry:
    p: float
    measured_slope: float
    slope_confidence: float
    bound_slope: float
    verdict: Verdict


@dataclass(frozen=True)
class BoundReport:
    spec_description: str
    bound_id: str
    entries: tuple[BoundEntry, ...]
    T_values: tuple[float, ...]
    slope_tolerance: float
    #: the time-route profiles the slopes were fitted to, one per ladder time
    profiles: tuple[AmplitudeProfile, ...] = field(default=(), compare=False, repr=False)
    #: the moment series fitted, one per entry
    series: tuple[MomentSeries, ...] = field(default=(), compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return all(e.verdict is not Verdict.SOFT_FAIL for e in self.entries)


# ---------------------------------------------------------------------------
# resolvent route

@functools.lru_cache(maxsize=4)
def _window_potential(spec: PotentialSpec, window: LatticeWindow) -> np.ndarray:
    """The potential on the window, built once per (spec, window) and read-only:
    a command's budget check and its sweeps share the one array."""
    if spec.geometry is not window.geometry:
        raise DomainError("window geometry does not match the potential spec")
    v = potential_values(spec, window.sites())
    v.flags.writeable = False
    return v


def _origin_window(spec: PotentialSpec, radius: int) -> LatticeWindow:
    """Sites [1, radius] on the half line, [-radius, radius] on the whole line."""
    if spec.geometry is Geometry.HALF_LINE:
        return LatticeWindow(1, radius, Geometry.HALF_LINE)
    return LatticeWindow(-radius, radius)


def _edge_weight(geometry: Geometry, weights: np.ndarray) -> np.ndarray:
    """Weight on the truncation edges (first axis): both ends on the whole
    line, the last site only on the half line (site 1 is its boundary and
    source)."""
    return weights[-1] if geometry is Geometry.HALF_LINE else weights[0] + weights[-1]


def _far_edge_share(window: LatticeWindow, weights: np.ndarray) -> float:
    """Share of the weight on the window's truncation edges."""
    far = _edge_weight(window.geometry, weights)
    return float(far) / max(float(np.sum(weights)), np.finfo(float).tiny)


def _check_far_edge(edge: float, T: float) -> None:
    """Refuse, with :class:`TruncationError`, a T profile whose far-edge share
    passes :data:`EDGE_MASS_TOL`: the window was too small for the wave."""
    if edge > EDGE_MASS_TOL:
        raise TruncationError(f"far-edge mass share {edge:.3e} of the T={T:g} profile "
                              f"is above {EDGE_MASS_TOL:.0e}; enlarge the window")


def resolvent_vector(spec: PotentialSpec, z: complex, window: LatticeWindow) -> np.ndarray:
    """Solve (H - z) phi = delta_1 on the window (Dirichlet truncation).

    Requires Im z > 0.  The banded solve is verified against its residual
    (1e-12 relative).  A window past the memory cap raises
    :class:`ResourceError` before its potential is built.
    """
    if z.imag <= 0:
        raise DomainError("resolvent vectors are computed for Im z > 0")
    _check_memory(_SOLVE_BYTES_PER_SITE * window.size, "resolvent vector", "shrink the window")
    v = _window_potential(spec, window)
    rhs = np.zeros(window.size, dtype=np.complex128)
    rhs[window.index(1)] = 1.0
    phi = _tridiag_solve(v, z, rhs)
    norm = float(np.linalg.norm(phi))
    resid = _tridiag_apply(v - z, phi) - rhs
    if np.linalg.norm(resid) > 1e-12 * max(norm, 1.0):
        raise ArithmeticError("resolvent solve residual above tolerance")
    return phi


def _grid_cells(v: np.ndarray, eps: float) -> tuple[float, float, int | float]:
    """Span [lo, hi] of the default energy grid, the spectral window
    [min v - 2, max v + 2] padded by 4, and its count of cells at most eps/4
    wide, at least 2 so that the grid has a spacing; inf past the float range."""
    pad, spacing = 4.0, eps / 4.0
    lo = float(v.min()) - 2.0 - pad
    hi = float(v.max()) + 2.0 + pad
    cells = (hi - lo) / spacing
    return lo, hi, max(2, math.ceil(cells)) if cells < math.inf else math.inf


#: Bound on what cutting a side at an energy's depth may change: G(s, s), and
#: |G(n, s)|^2 at a site dropped.  It is 1e-16 times 1e-150, the |G|^2 down to
#: which site weights are checked against dense solves.
_CUT_BOUND = 1e-166


def _sweep_depths(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The depth of each energy: the sites nearest the source over which its
    Dirichlet recurrence runs on either side.  With d = max(min v - 2 - Re z,
    Re z - max v - 2) the distance from the hull of the spectrum, an energy
    with d <= 0 keeps the whole side (inf); otherwise the depth is the least
    L >= 1 with r^{2L} <= _CUT_BOUND min(d, 1)^2, r = e^{-acosh(1 + d/2)}.

    The bound (Combes and Thomas, Commun. Math. Phys. 34 (1973)): for d > 0
    every fraction of a side has |g| <= r, by induction from g = 0 since
    |v_i - z - g| >= 2 + d - r.  So |G(s, s)| <= 1/d and |G(n, s)| <=
    |G(s, s)| r^{|n - s|}, and cutting a side at depth L moves G(n, s) by at
    most r^{L + dist(n, cut)}/d^2, so G(s, s) by at most r^{2L}/d^2 <=
    _CUT_BOUND, and leaves out only sites with |G|^2 below it.
    """
    x = z.real
    d = np.maximum(float(v.min()) - 2.0 - x, x - float(v.max()) - 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = np.ceil((-math.log(_CUT_BOUND) - 2.0 * np.log(np.minimum(d, 1.0)))
                        / (2.0 * np.arccosh(1.0 + 0.5 * d)))
    return np.where(d > 0.0, np.maximum(depth, 1.0), np.inf)


def _dirichlet_sweep(v_side: np.ndarray, z: np.ndarray, active: np.ndarray,
                     log_weight: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Dirichlet solution w_i = (v_i - z) w_{i-1} - w_{i-2} for every
    energy z, over ``v_side`` from the truncation edge in (w_{-2} = 0 and
    w_{-1} = 1 past the edge): three complex passes per site, no division.

    At site i only the first active[i] energies step, a count that never
    falls, so the energies run deepest first (:func:`_sweep_depths`).  An
    energy joins at its cut as at the edge, with w_{-2} = 0, w_{-1} = 1 and
    scale 0, and the views of the active prefix are re-sliced only when the
    count changes.

    Returns the last two w, (w_{m-2}, w_{m-1}), both divided by exp(scale/2),
    and scale: log |w_{m-1}|^2 is scale plus the log of the returned one's.
    The ratio w_{m-2}/w_{m-1} is the Dirichlet continued fraction
    g <- 1/(v_i - z - g) run from the edge, and w_{m-1} is the product of its
    denominators.  Each |w_i/w_{i-1}| = |v_i - z - g_{i-1}| lies between Im z
    and D = max|v| + max|z| + 1/Im z (|g| <= 1/Im z), so every 125/log10 D
    sites both w are divided by |w_i| and log |w_i|^2 moves into scale: |w|
    stays within 1e+-125 and nothing overflows or underflows.  A D past
    :data:`OVERFLOW_LIMIT`, whose square may leave the float range, raises
    :class:`ScaleOverflowError` before any step.
    Given ``log_weight`` = log |G(s, s)|^2 - log |w_{m-1}|^2 this is the
    weights pass: |G(i, s)|^2 = exp(log_weight) |w_{i-1}|^2, so out[i] gets its
    energy sum, one squared-modulus pass and one dot product per site, with the
    weights exp(log_weight + scale) refreshed at each rescale; an energy adds
    nothing at the sites before it joins.  A weight is |G|^2 where its block
    began, so a |G|^2 can flush to zero only below about 1e-58 (1e-308 times
    the block's growth of at most 1e250).
    """
    bound = float(np.max(np.abs(v_side), initial=0.0) + np.max(np.abs(z)) + 1.0 / np.min(z.imag))
    if not bound <= OVERFLOW_LIMIT:  # NaN fails too
        raise ScaleOverflowError(f"continued fractions bounded by {bound:.2e} pass "
                                 f"{OVERFLOW_LIMIT:.0e}; lower the coupling or raise T")
    block = max(1, int(125.0 / math.log10(max(bound, 10.0))))
    # (w_{i-2}, w_{i-1}) of every energy sit in pair[i % 2], pair[1 - i % 2]
    pair, step = (np.zeros_like(z), np.ones_like(z)), np.empty_like(z)
    scale = np.zeros(z.shape)
    if out is not None:
        # each energy's weight twice, against (Re w)^2 and (Im w)^2 in w's float view
        weights = np.empty((z.size, 2))
        np.exp(log_weight, out=weights[:, 0])
        weights[:, 1] = weights[:, 0]
    k = -1
    for i, (vi, count) in enumerate(zip(v_side.tolist(), active.tolist())):
        if count != k:
            k = count
            prev, cur, zk, stepk = pair[i % 2][:k], pair[1 - i % 2][:k], z[:k], step[:k]
            # stepk is scratch between sites: the squares of w, and |w_i| at a rescale
            squares, size = stepk.view(np.float64), stepk.real
            if out is not None:
                flat = weights[:k].reshape(-1)
        if out is not None:
            out[i] = np.square(cur.view(np.float64), out=squares) @ flat
        np.subtract(vi, zk, out=stepk)
        stepk *= cur
        prev, cur = cur, np.subtract(stepk, prev, out=prev)
        if (i + 1) % block == 0:
            np.abs(cur, out=size)
            for w in (prev, cur):
                w.view(np.float64).reshape(-1, 2)[:] /= size[:, None]
            scale[:k] += np.log(np.square(size, out=size), out=size)
            if out is not None:
                np.exp(np.add(log_weight[:k], scale[:k], out=weights[:k, 0]), out=weights[:k, 0])
                weights[:k, 1] = weights[:k, 0]
    return pair[v_side.size % 2], pair[1 - v_side.size % 2], scale


def _source_green(v_src: float, z: np.ndarray,
                  sides: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """G(s, s; z) for every energy, with v_src the potential at the source,
    and -log |w_{m-1}|^2 of each side: pass 1 of :func:`_resolvent_weights`.

    Each side (its potential edge first, and its active counts) runs its
    Dirichlet solution from the truncation edge or cut in to the source; its
    fraction is g = w_{m-2}/w_{m-1}, one complex division per energy, and
    G(s, s) = 1/(v_s - z - g_left - g_right).
    """
    denominator = v_src - z
    log_sides = []
    for side, active in sides:
        prev, last, scale = _dirichlet_sweep(side, z, active)
        denominator -= np.divide(prev, last, out=prev)
        size = np.abs(last)
        scale += np.log(np.square(size, out=size), out=size)
        log_sides.append(np.negative(scale, out=scale))
    return 1.0 / denominator, log_sides


def _resolvent_weights(v: np.ndarray, z: np.ndarray, src: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_E |G(n, s; z)|^2 for every window site n, and G(s, s; z).

    The one resolvent quadrature kernel, with the energies as the vector axis
    and O(grid + window) working memory.  Pass 1 (:func:`_source_green`)
    gives G(s, s) and each side's log |w_{m-1}|^2, the log of the product of
    its continued-fraction denominators.  The Dirichlet solution w of a side
    is proportional to G(., s) there: |G(n, s)|^2 = |G(s, s)|^2 |w_{i-1}|^2 /
    |w_{m-1}|^2 at its i-th site from the edge.  Pass 2 reruns each side's
    recurrence from its edge and takes one weighted squared-modulus sum per
    site under the carried log scale, so nothing overflows and no |G|^2 above
    about 1e-58 underflows.  Requires Im z > 0, which keeps every
    |w_i/w_{i-1}| at least Im z without pivoting.

    Each energy runs each side only over the sites within its depth from the
    source (:func:`_sweep_depths`): past it |G|^2 is below 1e-166, and the cut
    moves G(s, s) by at most 1e-166.  The sweeps take the energies deepest
    first, so that the active ones are a prefix; energies given in another
    order run through a sorted copy.
    """
    depth = _sweep_depths(v, z)
    if np.any(depth[1:] > depth[:-1]):
        order = np.argsort(-depth, kind="stable")
        totals, green = _resolvent_weights(v, z[order], src)
        return totals, green[np.argsort(order)]
    # at a side's site i from the edge, the energies whose depth reaches m - i
    sides = [(side, z.size - np.searchsorted(depth[::-1], np.arange(side.size, 0, -1)))
             for side in (v[:src], v[:src:-1])]
    del depth  # not held through the sweeps: 8 bytes per energy
    green, log_sides = _source_green(float(v[src]), z, sides)
    green2 = green.real ** 2 + green.imag ** 2
    totals = np.empty(v.size)
    totals[src] = np.sum(green2)
    for (side, active), log_side, out in zip(sides, log_sides, (totals[:src], totals[:src:-1])):
        _dirichlet_sweep(side, z, active, np.log(green2) + log_side, out)
    return totals, green


def profile_resolvent(spec: PotentialSpec, T: float,
                      window: LatticeWindow | None = None) -> AmplitudeProfile:
    """Site probabilities a(n, T) from the resolvent side of the identity.

    Midpoint quadrature of (eps/pi) |R(E + i eps) delta_1(n)|^2, eps = 1/T,
    over the uniform partition of :func:`_grid_cells` (cells at most eps/4
    wide across the padded spectral window), from one
    :func:`_resolvent_weights` call: two passes of each side's Dirichlet
    recurrence over all grid energies, each energy only as deep as its
    Green's function reaches (every energy within 2 of the potential's range
    runs the whole side).  ``meta["site_energy_steps"]`` counts the steps
    run: twice the sum over energies and sides of the sites swept.  The
    profile's mass must match the Ward identity sum_n |G(n, 1)|^2 =
    Im G(1, 1)/eps, that is (h/pi) sum_E Im G(1, 1; E + i eps), to ``MASS_IDENTITY_TOL``
    (``meta["mass_identity_drift"]``), and every site weight must be finite;
    otherwise :class:`ArithmeticError`.  A profile whose far-edge share of the
    mass (``meta["far_edge_share"]``) passes :data:`EDGE_MASS_TOL` raises
    :class:`TruncationError`, as on the time route.
    """
    window, v, _ = _profile_setup(spec, [T], window, resolvent=True)
    eps = 1.0 / T
    lo, hi, count = _grid_cells(v, eps)
    # midpoint nodes of a uniform partition, deepest sweep first as the kernel takes them
    grid = lo + (np.arange(count) + 0.5) * (hi - lo) / count
    h = float(grid[1] - grid[0])
    depth = _sweep_depths(v, grid)
    grid = grid[np.argsort(-depth, kind="stable")]
    src = window.index(1)
    steps = sum(int(np.minimum(depth, m).sum()) for m in (src, window.size - 1 - src))
    del depth  # not held through the kernel: 8 bytes per energy
    totals, green = _resolvent_weights(v, grid + 1j * eps, src)
    if not np.all(np.isfinite(totals)):
        raise ArithmeticError("resolvent quadrature produced a non-finite site weight")
    a = (eps / math.pi) * h * totals
    ward = (h / math.pi) * float(np.sum(green.imag))
    drift = abs(float(np.sum(a)) - ward) / ward
    if not drift <= MASS_IDENTITY_TOL:
        raise ArithmeticError(f"resolvent profile mass off the Ward identity by {drift:.3e}")
    edge = _far_edge_share(window, a)
    _check_far_edge(edge, T)
    meta = {
        "grid_points": int(grid.size),
        "site_energy_steps": 2 * steps,
        "mass_identity_drift": drift,
        "far_edge_share": edge,
    }
    return AmplitudeProfile(T=T, window=window, a=a, method="resolvent", meta=meta)


# ---------------------------------------------------------------------------
# time route

#: Grid steps covered by one Chebyshev expansion (one long step).
STEP_SAMPLES = 16

#: Rotated Chebyshev vectors (-i)^k T_k(H~) psi held at once; each full ring
#: is added into the long step's samples before the next ring is built.
BLOCK_VECTORS = 16

#: Highest Chebyshev order an expansion may take; past it :class:`ResourceError`.
MAX_CHEBYSHEV_ORDER = 1 << 17

def _cone_radius(t: float) -> int:
    """Radius of the light-cone slice swept up to time t.

    The window rule plus an Airy margin: the free chain's front sits at 2t
    and its tail has width ~ t^(1/3), so a fixed margin falls behind it.
    """
    return default_window_radius(t) + int(math.ceil(8.0 * t ** (1.0 / 3.0)))


def _kapteyn_bound(n: int, x: float) -> float:
    """Kapteyn's bound on |J_n(y)| for every |y| <= x: (z e^w / (1 + w))^n,
    z = x/n, w = sqrt(1 - z^2), when x < n (1 otherwise).

    It grows with x and falls with n, so one value covers a block of rows
    and every higher order.
    """
    if x >= n:
        return 1.0
    if x == 0.0:
        return 0.0
    z = x / n
    w = math.sqrt((1.0 - z) * (1.0 + z))
    return math.exp(n * (math.log(z) + w - math.log1p(w)))


def _bessel_block(x: np.ndarray, top: int, start: int) -> np.ndarray:
    """J_0(x) .. J_top(x), one row per x, by Miller's backward recurrence
    J_{k-1} = (2k/|x|) J_k - J_{k+1} from J_{start+1} = 0, J_start = 1.

    All rows run at once.  A row is rescaled by a power of two when it
    nears 1e150, and normalized at the end by J_0 + 2 sum_k J_2k = 1;
    J_k(-x) = (-1)^k J_k(x).  A row with |x| < 1e-8 is the series' first
    term (x/2)^k / k!, within 2.5e-17 relative and exact at x = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.size, top + 1))
    tiny = np.abs(x) < 1e-8
    series = np.ones((np.count_nonzero(tiny), top + 1))
    series[:, 1:] = 0.5 * x[tiny, None] / np.arange(1.0, top + 1)
    out[tiny] = np.cumprod(series, axis=1)
    rows = x[~tiny]
    if rows.size:
        f = np.zeros((start + 2, rows.size))
        f[start] = 1.0
        ratio = np.arange(0.0, 2.0 * start + 1.0, 2.0)[:, None] / np.abs(rows)
        with np.errstate(over="ignore"):
            for k in range(start, 0, -1):
                row = np.multiply(ratio[k], f[k], out=f[k - 1])
                row -= f[k + 1]
                if row @ row > 1e300:
                    _, exponent = np.frexp(np.maximum(np.abs(row), np.abs(f[k])))
                    f[k - 1:] = np.ldexp(f[k - 1:], -exponent)
        f[1::2] *= np.sign(rows)
        out[~tiny] = (f[:top + 1] / (f[0] + 2.0 * f[2::2].sum(axis=0))).T
    return out


def _chebyshev_coefficients(x: np.ndarray, tol: float, max_order: int) -> np.ndarray:
    """Bessel coefficients J_0(x) .. J_K(x), one row per phase argument x.

    J_k(x) decays superexponentially past k ~ |x|.  K is the first order of
    k = |x| + 8, then k + max(4, k // 8), ..., at which the next five
    coefficients of every row all drop below tol.  One ``_bessel_block``
    holds every order that rule reads: up to the first candidate that
    Kapteyn's bound clears, or the last one within max_order.
    """
    x = np.asarray(x, dtype=np.float64)
    x_max = float(np.abs(x).max())
    candidates, k = [], int(x_max) + 8
    while k <= max_order:
        candidates.append(k)
        if _kapteyn_bound(k, x_max) < tol:
            break
        k += max(4, k // 8)
    if candidates:
        coeff = _bessel_block(x, candidates[-1] + 4, candidates[-1] + 5)
        small = np.all(np.abs(coeff) < tol, axis=0)
        for k in candidates:
            if small[k:k + 5].all():
                return coeff[:, :k + 1]
    raise ResourceError("Chebyshev expansion order cap exceeded; "
                        "lower the accuracy or shorten the step")


def _chebyshev_samples(vc: np.ndarray, scale: float, coeff: np.ndarray,
                       psi: np.ndarray, out: np.ndarray, block: np.ndarray) -> None:
    """out[m] = sum_k c[m, k] (-i)^k T_k(H~) psi over the orders k of the
    coefficient matrix ``coeff`` = (c[m, k]), with H~ = scale (H - center).

    ``vc`` is the slice's potential minus the center, as complex128.
    ``block`` is a ring of vectors in the rotated basis u_k = (-i)^k T_k(H~) psi,
    built by u_1 = -i H~ psi and u_k = -2i H~ u_{k-1} + u_{k-2}; u_k sits in
    row k mod BLOCK_VECTORS.  The rotation makes the c[m, k] real, so each filled
    ring is added into ``out`` by one real matrix product: the ring fill's
    (samples, k) columns of ``coeff`` times the float64 view (k, 2 width) of
    the ring, into the float64 view of ``out``.
    """
    ring, order = block.shape[0], coeff.shape[1] - 1
    out.fill(0.0)
    add = _lapack.dgemm_into(out.view(np.float64), block.view(np.float64), coeff)
    block[0] = psi
    for k in range(1, order + 1):
        dst = _tridiag_apply(vc, block[(k - 1) % ring], out=block[k % ring])
        if k == 1:
            dst *= -1j * scale
        else:
            dst *= -2j * scale
            dst += block[(k - 2) % ring]
        if k % ring == ring - 1 or k == order:
            add(k - k % ring, k % ring + 1)


def _chebyshev_sweep(spec: PotentialSpec, window: LatticeWindow, psi: np.ndarray,
                     v: np.ndarray, step: float, n_steps: int, stats: dict):
    """Propagate ``psi`` in place over n_steps grid steps of length ``step``.

    Each Chebyshev expansion covers a long step of up to STEP_SAMPLES grid
    steps, with the coefficients of every sample time computed once, here:
    psi(t + tau) = e^{-i center tau} sum_k w_k J_k(half_width tau) u_k, with
    w_0 = 1, w_k = 2 otherwise, and u_k the rotated Chebyshev vectors of
    :func:`_chebyshev_samples`.  The samples leave out the phase
    e^{-i center tau}, which |psi|^2 does not see; it is applied once, to the
    psi carried out of the long step.  A long step ending at time t sweeps
    only its light-cone slice, the ``_cone_radius(t)`` origin window clipped
    to ``window``.  Should a slice edge inside the window pass EDGE_MASS_TOL,
    the step is redone, and every later step swept, on the whole window.

    Yields (j, lo, prob) per long step: prob[m] is |psi((j + m) * step)|^2
    on the window indices lo .. lo + prob.shape[1] - 1.  It is written over
    the ring of Chebyshev vectors, which the next step reuses.  ``stats``
    receives the work counters and the norm drift.

    The diagonal v - center is made complex128 once per sweep: numpy has no
    float x complex multiply, so a float diagonal would be cast through a
    buffer in every matvec.  (v + 0i)(a + bi) rounds as v (a + bi) does, up
    to the sign of a zero product, which |psi|^2 does not see.
    """
    lo_e, hi_e = float(v.min()) - 2.0, float(v.max()) + 2.0
    center = 0.5 * (hi_e + lo_e)
    half_width = 0.5 * (hi_e - lo_e) + 0.025 * (hi_e - lo_e)
    taus = step * np.arange(1, min(STEP_SAMPLES, n_steps) + 1)
    bessel = _chebyshev_coefficients(half_width * taus, 1e-15, MAX_CHEBYSHEV_ORDER)
    order = bessel.shape[1] - 1
    phases = np.exp(-1j * center * taus)
    coeff = 2.0 * bessel
    coeff[:, 0] = bessel[:, 0]
    vc = (v - center).astype(np.complex128)
    size = window.size
    out_buf = np.empty(taus.size * size, dtype=np.complex128)
    # the ring, and afterwards the probabilities (two per complex slot)
    ring_buf = np.empty(max(BLOCK_VECTORS, (taus.size + 1) // 2) * size, dtype=np.complex128)
    stats.update(chebyshev_order=order, block_samples=int(taus.size), matvecs=0,
                 matvec_site_steps=0, norm_drift=0.0)
    whole = False
    j = 0
    while j < n_steps:
        count = min(taus.size, n_steps - j)
        cone = _origin_window(spec, _cone_radius(abs(j + count) * abs(step)))
        lo = 0 if whole else max(cone.lo - window.lo, 0)
        hi = size if whole else min(cone.hi - window.lo + 1, size)
        while True:
            width = hi - lo
            out = out_buf[:count * width].reshape(count, width)
            _chebyshev_samples(vc[lo:hi], 1.0 / half_width, coeff, psi[lo:hi], out,
                               ring_buf[:BLOCK_VECTORS * width].reshape(BLOCK_VECTORS, width))
            stats["matvecs"] += order
            stats["matvec_site_steps"] += order * width
            prob = ring_buf.view(np.float64)[:count * width].reshape(count, width)
            np.abs(out, out=prob)
            prob *= prob
            inner = [col for col, inside in ((0, lo > 0), (-1, hi < size)) if inside]
            if whole or not inner or np.max(prob[:, inner]) <= EDGE_MASS_TOL:
                break
            whole, lo, hi = True, 0, size
        np.multiply(out[-1], phases[count - 1], out=psi[lo:hi])
        stats["norm_drift"] = max(stats["norm_drift"], abs(float(np.sum(prob[-1])) - 1.0))
        yield j + 1, lo, prob
        j += count


def _source_state(window: LatticeWindow) -> np.ndarray:
    psi = np.zeros(window.size, dtype=np.complex128)
    psi[window.index(1)] = 1.0
    return psi


def evolve_state(spec: PotentialSpec, t: float, window: LatticeWindow) -> np.ndarray:
    """The state e^{-itH} delta_1 on the window, from a single expansion.

    The window must out-run the ballistic light cone (group velocity at most
    2 for unit hopping) so the Dirichlet truncation never matters.  The
    time t must be finite (:class:`DomainError`), and a window past the
    memory cap, charged as the time route's, raises :class:`ResourceError`
    before any array is built.
    """
    if not math.isfinite(t):
        raise DomainError(f"evolution time must be finite, not {t}")
    # its peak (tracemalloc, 1,601 to 120,001 sites, potential built inside) is 312-317 per site
    _check_memory(_TIME_BYTES_PER_SITE * window.size, "evolution", "shrink the window")
    psi = _source_state(window)
    if t == 0.0:
        return psi
    v = _window_potential(spec, window)
    for _ in _chebyshev_sweep(spec, window, psi, v, t, 1, {}):
        pass  # the sweep advances psi in place
    return psi


def _check_cost(what: str, cost: float, units: str, fixes: str, max_cost: float) -> None:
    """The one budget check: refuse ``what``, whose ``cost`` in ``units`` is a
    float, past ``max_cost`` with :class:`ResourceError`; a cost past the float
    range reads inf and is refused whatever max_cost.  ``fixes`` names the remedies."""
    if cost == math.inf:
        raise ResourceError(f"{what} cost in {units} is past the float range; {fixes}")
    if cost > max_cost:
        raise ResourceError(f"{what} cost {cost:.2e} {units} exceeds budget "
                            f"{max_cost:.2e}; {fixes} or raise the budget")


def _profile_setup(spec: PotentialSpec, T_values: Sequence[float], window: LatticeWindow | None,
                   max_cost: float = math.inf, *,
                   resolvent: bool = False) -> tuple[LatticeWindow, np.ndarray, float]:
    """Window, window potential and time step of the profiles at the
    averaging times T_values (any order), once the routes to be run fit max_cost.

    The one budget check, run before any sweep.  The window defaults to the
    light-cone rule at the largest T.  The step min(0.5, T_min/8,
    5.5/(max v - min v + 4)) is above the Nyquist rate of the chain and keeps
    the trapezoid's mass error on e^{-2t/T} at most 5.2e-3 (its value at T = 4).
    The time route costs its samples x window sites: no step is longer than
    0.5, so a sweep too large even at that step is refused before the window
    potential is built, and then the real step counts.  With ``resolvent``
    set, the resolvent route at the largest T counts too, as energy grid
    points x window sites.  Counts are formed as floats, and a cost past the
    float range reads inf and is refused whatever max_cost.

    Each route's memory passes the one cap too, whatever max_cost
    (:func:`lattice._check_memory`): the time route before the window
    potential is built, and the resolvent route once its grid is known.  A T
    whose window or grid could not be counted in floats, 8 TIME_CUTOFF T
    (the free chain's grid cells) past their range, is refused with
    :class:`ResourceError` before any window is built.
    """
    # NaN fails too; a T below 1/max float has a resolvent eps = 1/T past the float range
    if not T_values or not all(0 < T < math.inf and 1.0 / T < math.inf for T in T_values):
        raise DomainError("averaging times must be positive and finite, with a finite 1/T")
    T_min, T_max = min(T_values), max(T_values)
    t_max = TIME_CUTOFF * T_max
    if 8.0 * t_max == math.inf:
        raise ResourceError(f"averaging time {T_max:.2e} has a window and energy grid past "
                            "the float range; lower T")
    if window is None:
        window = _origin_window(spec, default_window_radius(t_max))

    def check_sweep(step: float) -> None:
        samples = t_max / step if step > 0.0 else math.inf  # step 0: a potential range of inf
        # below T_min = 4 the step is T_min/8 unless the Nyquist rule cuts it further
        fixes = "raise Tmin, lower Tmax" if step == T_min / 8.0 < 0.5 else "lower Tmax"
        _check_cost("sweep", (math.ceil(samples) + 1.0) * window.size if samples < math.inf
                    else math.inf, "site-steps", f"{fixes}, shrink the window", max_cost)

    _check_memory((_TIME_BYTES_PER_SITE + 16 * len(T_values)) * window.size, "time route",
                  "lower T or shrink the window")
    check_sweep(0.5)
    v = _window_potential(spec, window)
    # keep the sampling rate above the largest Bohr frequency (Nyquist)
    step = min(0.5, T_min / 8.0, 5.5 / (float(v.max() - v.min()) + 4.0))
    check_sweep(step)
    if resolvent:
        grid = float(_grid_cells(v, 1.0 / T_max)[2])
        _check_cost("resolvent", grid * window.size, "grid-point sites", "lower T", max_cost)
        _check_memory(grid * _RESOLVENT_BYTES_PER_ENERGY, "resolvent route", "lower T")
    return window, v, step


def profile_time(spec: PotentialSpec, T: float,
                 window: LatticeWindow | None = None) -> AmplitudeProfile:
    """Site probabilities a(n, T) by direct time averaging."""
    return profiles_time_ladder(spec, [T], window=window)[0]


def profiles_time_ladder(spec: PotentialSpec, T_values: Sequence[float],
                         window: LatticeWindow | None = None) -> list[AmplitudeProfile]:
    """Profiles for a whole ladder of averaging times from one trajectory.

    The weighted time integrals for every T in the ladder share the same
    |psi(t, n)|^2 samples, so the state is propagated once out to
    TIME_CUTOFF * max(T) and each ladder entry accumulates its own trapezoid
    sum, truncated at its own cutoff: the samples of one long step enter
    every sum through one (ladder, samples) @ (samples, sites) product,
    added in place into the sums' columns of the slice swept.  A
    profile whose far-edge share of the mass, on the window edges or on
    the edges of the light-cone slices swept, passes
    :data:`EDGE_MASS_TOL` raises :class:`TruncationError`: the window was
    too small for the wave.
    """
    T_values = sorted(float(T) for T in T_values)
    window, v, step = _profile_setup(spec, T_values, window)
    n_steps = int(math.ceil(TIME_CUTOFF * T_values[-1] / step))
    ts = np.array(T_values)[:, None]
    limit = TIME_CUTOFF * ts + 0.5 * step
    psi = _source_state(window)
    acc = np.zeros((len(T_values), window.size))
    acc[:, window.index(1)] = 0.5  # the t = 0 sample, at the trapezoid's half weight
    slice_edge = np.zeros(len(T_values))
    last_step = np.zeros(len(T_values), dtype=np.int64)
    stats: dict = {}
    for j, lo, prob in _chebyshev_sweep(spec, window, psi, v, step, n_steps, stats):
        index = np.arange(j, j + prob.shape[0])
        kept = index * step <= limit
        weights = np.where(kept, np.exp(-2.0 * index * step / ts), 0.0)
        _lapack.dgemm_into(acc[:, lo:lo + prob.shape[1]], prob, weights)(0, prob.shape[0])
        slice_edge += weights @ _edge_weight(window.geometry, prob.T)
        last_step = np.maximum(last_step, np.max(np.where(kept, index, 0), axis=1))
    profiles = []
    for i, T in enumerate(T_values):
        # the endpoint trapezoid correction is skipped: the weight there is
        # e^{-2 cutoff} ~ 6e-6, far below the quadrature tolerance
        a = (2.0 / T) * step * acc[i]
        mass = max(float(np.sum(a)), np.finfo(float).tiny)
        edge = max(_far_edge_share(window, a), (2.0 / T) * step * float(slice_edge[i]) / mass)
        _check_far_edge(edge, T)
        profiles.append(AmplitudeProfile(
            T=T, window=window, a=a, method="time-average",
            meta={
                "dt": step,
                "t_max": int(last_step[i]) * step,
                "far_edge_share": edge,
                **stats,
            }))
    return profiles


# ---------------------------------------------------------------------------
# moments and exponents

def moments(profile: AmplitudeProfile, p: float) -> float:
    """log of the p-th absolute position moment of the profile.

    Accumulated as ``_logsumexp`` of p log|n| + log a(n), in a fixed site
    order, so that orders well past p = 100 remain finite and reductions are
    deterministic.
    """
    if not 0 < p < math.inf:  # NaN fails too
        raise DomainError(f"moment order must be positive and finite, not {p}")
    if profile.a.size == 0:
        raise DomainError("empty profile")
    sites = profile.sites()
    mask = (sites != 0) & (profile.a > 0.0)
    if not np.any(mask):
        raise DomainError("profile carries no off-origin mass")
    return _logsumexp(p * np.log(np.abs(sites[mask]).astype(np.float64))
                      + np.log(profile.a[mask]))


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a) over a finite float64 vector, which it overwrites.

    scipy.special.logsumexp's own steps, so the bits are its bits: the
    maxima leave the sum, which is then divided by their count m, and the
    result is log1p(s) + log(m) + max.
    """
    top = a.max()
    ties = a == top
    a[ties] = -np.inf
    m = np.float64(np.count_nonzero(ties))
    return float(np.log1p(np.sum(np.exp(a - top)) / m) + np.log(m) + top)


def moment_series(profiles: Sequence[AmplitudeProfile], p: float) -> MomentSeries:
    pts = tuple(sorted((prof.T, moments(prof, p)) for prof in profiles))
    return MomentSeries(p=p, points=pts)


def _check_ladder(T_values: Sequence[float]) -> None:
    """Reject a sorted ladder too short for a growth-exponent fit, or with a
    time repeated."""
    if len(T_values) < 5:
        raise DomainError("growth exponent needs at least 5 ladder points")
    if any(b <= a for a, b in zip(T_values, T_values[1:])):
        raise DomainError("ladder times must be distinct")
    if math.log10(T_values[-1] / T_values[0]) < 1.5:
        raise DomainError("growth exponent needs at least 1.5 decades of T")


def growth_exponent(series: MomentSeries) -> GrowthFit:
    """Finite-time slope of log moment against log T.

    Least squares over the largest-T half of the series; the confidence
    halfwidth is twice the standard error of the fitted slope.  Requires at
    least five points spanning at least 1.5 decades.
    """
    ts = np.array([t for t, _ in series.points])
    ms = np.array([m for _, m in series.points])
    _check_ladder(ts)
    half = ts.size // 2
    x = np.log(ts[half:])
    y = ms[half:]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / float(np.sum((x - x.mean()) ** 2)))
    return GrowthFit(slope=float(slope), confidence=2.0 * se)


# ---------------------------------------------------------------------------
# theoretical lower bounds

#: Each model's own exponent alpha, from the coupling: ||T(n, 1; E)|| <= C n^alpha
#: on a nonempty energy set.  The free and periodic models have none.
MODEL_ALPHA: dict[Model, Callable[[float], float]] = {
    Model.THUE_MORSE: lambda lam: 0.0, Model.PERIOD_DOUBLING: lambda lam: 1.0,
    Model.FIBONACCI: lambda lam: bound_parameters(lam).alpha}
#: Bound id -> the model whose own alpha it takes; a model's first id is its default.
_BOUNDS = {"tm": Model.THUE_MORSE, "pd": Model.PERIOD_DOUBLING, "fib-a": Model.FIBONACCI,
           "fib-b": Model.FIBONACCI, "one-energy": None, "power-eta": None}


def bound_slope(bound_id: str, p: float, *, lam: float | None = None,
                alpha: float | None = None, eta: float | None = None) -> float:
    """Lower-bound slope of the p-th moment growth: (p - 1 - 4 alpha)/(1 + alpha)
    at the model's own alpha (tm, pd, fib-a), at ``alpha`` (one-energy) or at
    2 eta (power-eta), and (p - gamma - 3 alpha)/(1 + alpha) for fib-b.  A
    slope that is not finite (alpha or eta near the float range) is refused."""
    if bound_id not in _BOUNDS:
        raise DomainError(f"unknown bound id {bound_id!r}; known: {sorted(_BOUNDS)}")
    if bound_id.startswith("fib") and lam is None:
        raise DomainError("fibonacci bounds need the coupling")
    if _BOUNDS[bound_id] is not None:
        alpha = MODEL_ALPHA[_BOUNDS[bound_id]](lam)
    elif bound_id == "power-eta":
        alpha = None if eta is None else 2.0 * eta
    if alpha is None:
        raise DomainError(f"{bound_id} bound needs {'eta' if bound_id == 'power-eta' else 'alpha'}")
    if bound_id == "fib-b":
        params = bound_parameters(lam)
        if not params.gamma_in_regime:
            raise DomainError("fib-b requires lambda > 4")
        slope = (p - params.gamma - 3.0 * alpha) / (1.0 + alpha)
    else:
        slope = (p - 1.0 - 4.0 * alpha) / (1.0 + alpha)
    if not math.isfinite(slope):
        raise DomainError(f"the {bound_id} bound slope at p={p:g} is not finite: {slope}")
    return float(slope)


def default_bound_id(model: Model) -> str:
    return next((bid for bid, own in _BOUNDS.items() if own is model), "one-energy")


def bound_report(spec: PotentialSpec, p_values: Sequence[float], T_values: Sequence[float],
                 bound_id: str | None = None, *, slope_tolerance: float = 0.15,
                 alpha: float | None = None,
                 eta: float | None = None, window: LatticeWindow | None = None,
                 max_cost: float = 5e10) -> BoundReport:
    """Measured finite-time slopes against a theoretical lower bound.

    Runs the shared-trajectory time profiles over the ladder (kept in the
    report's ``profiles``), fits one slope per moment order (its moment
    series kept in ``series``, in the order of ``p_values``), and grades each
    against the chosen bound formula: OUT_OF_REGIME when the bound slope is
    nonpositive (the bound is trivial there and asserts nothing), PASS when
    the measured slope clears bound - slope_tolerance, SOFT_FAIL otherwise.
    The bounds are asymptotic statements, hence never a hard error at
    finite T.
    """
    if bound_id is None:
        bound_id = default_bound_id(spec.model)
    T_values = sorted(float(t) for t in T_values)
    # resolve every bound slope up front so a bad bound id or missing
    # parameter fails before the expensive sweep starts
    theoretical_slopes = {p: bound_slope(bound_id, p, lam=spec.lam or None,
                                         alpha=alpha, eta=eta) for p in p_values}
    # each exponent is read by one bound only; any other would drop it
    for name, value, reader in (("alpha", alpha, "one-energy"), ("eta", eta, "power-eta")):
        if value is not None and bound_id != reader:
            raise DomainError(f"{name} is read by the {reader} bound only, not by {bound_id}")
    window = _profile_setup(spec, T_values, window, max_cost)[0]
    _check_ladder(T_values)
    profiles = profiles_time_ladder(spec, T_values, window=window)
    series = tuple(moment_series(profiles, p) for p in p_values)
    entries = []
    for p, one in zip(p_values, series):
        fit = growth_exponent(one)
        theoretical = theoretical_slopes[p]
        if theoretical <= 0.0:
            verdict = Verdict.OUT_OF_REGIME
        elif fit.slope >= theoretical - slope_tolerance:
            verdict = Verdict.PASS
        else:
            verdict = Verdict.SOFT_FAIL
        entries.append(BoundEntry(p=float(p), measured_slope=fit.slope,
                                  slope_confidence=fit.confidence,
                                  bound_slope=theoretical, verdict=verdict))
    return BoundReport(spec_description=spec.describe(), bound_id=bound_id,
                       entries=tuple(entries), T_values=tuple(T_values),
                       slope_tolerance=slope_tolerance, profiles=tuple(profiles), series=series)


# ---------------------------------------------------------------------------
# transfer-matrix power laws

class TransferNorms:
    """||T(m, 1; E)|| as two read-only arrays: ``m`` (consecutive, ascending) and ``norms``."""

    def __init__(self, m: np.ndarray, norms: np.ndarray):
        self.m, self.norms = m, norms
        m.flags.writeable = norms.flags.writeable = False

    def __len__(self) -> int:
        return self.m.size

    def items(self):
        """An iterator over the (m, norm) pairs as Python ints and floats, ascending in m."""
        return zip(self.m.tolist(), self.norms.tolist())


def transfer_norms_from_origin(spec: PotentialSpec, E: complex, m_max: int) -> TransferNorms:
    """Spectral norms of T(m, 1; E) for 1 <= |m| <= m_max (and m = 0 on the whole line).

    On the whole line the negative side uses ||T(m, 1)|| = ||T(1, m)||,
    valid because transfer matrices are unimodular, and
    ||A(1) ... A(m+1)|| = ||A(m+1) ... A(1)||, valid because
    A^T = D A D with D = diag(1, -1); so it is the same forward sweep fed
    the sites 1, 0, -1, ....  An m_max whose sweep would take more than
    MAX_SWEEP_BYTES raises :class:`ResourceError` (and one below 1
    :class:`DomainError`) before any site is built.
    """
    if m_max < 1:
        raise DomainError("m_max must be at least 1")
    _check_memory(m_max * _SWEEP_BYTES_PER_M, f"transfer sweep to m_max={m_max}", "lower m_max")
    norms = spectral_norm(_transfer_prefixes(potential_values(spec, np.arange(2, m_max + 1)), E))
    if spec.geometry is Geometry.WHOLE_LINE:
        backward = _transfer_prefixes(potential_values(spec, np.arange(1, -m_max, -1)), E)
        norms = np.concatenate([spectral_norm(backward[1:])[::-1], norms])
    return TransferNorms(np.arange(m_max + 1 - norms.size, m_max + 1), norms)


@dataclass(frozen=True)
class PowerlawReport:
    c_estimate: float
    argmax_m: int
    max_norm: float
    violations: tuple[int, ...]


def _powerlaw_report(norms: TransferNorms, alpha: float,
                     cap: float | None = None) -> PowerlawReport:
    """Max of ||T(m, 1; E)|| / |m|^alpha over the swept m != 0.

    ``cap``, when given, marks the m whose ratio exceeds it as violations.
    """
    keep = norms.m != 0
    m, values = norms.m[keep], norms.norms[keep]
    try:
        with np.errstate(over="raise", divide="raise"):
            ratios = values / np.power(np.abs(m), alpha, dtype=np.float64)
    except FloatingPointError:
        raise ScaleOverflowError(f"|m|^alpha overflows at alpha={alpha:g}") from None
    best = int(np.argmax(np.where(ratios > 0.0, ratios, 0.0)))  # a strict > scan in ascending m
    c_estimate, argmax_m = (float(ratios[best]), int(m[best])) if ratios[best] > 0.0 else (0.0, 1)
    violations = () if cap is None else tuple(m[ratios > cap].tolist())
    return PowerlawReport(c_estimate=c_estimate, argmax_m=argmax_m,
                          max_norm=float(values.max()), violations=violations)


def zeckendorf_bound_check(spec: PotentialSpec, E: float, m_max: int, d: float) -> dict:
    """Check ||T(m, 1; E)|| <= d^{m_N} with m_N the top Zeckendorf index."""
    return _zeckendorf_report(transfer_norms_from_origin(spec, E, m_max), E, m_max, d)


def _zeckendorf_report(norms: TransferNorms, E: float, m_max: int, d: float) -> dict:
    log_d = math.log(d)
    m = np.arange(1, m_max + 1)
    # the top Zeckendorf index of m is max{i : F_i <= m}, with F_1 = 1, F_2 = 2, ...
    tops = np.searchsorted(fibonacci_numbers(91)[1:], m, side="right")
    margins = np.log(norms.norms[m - norms.m[0]]) - tops * log_d
    violations = m[margins > 0].tolist()
    return {"E": E, "m_max": m_max, "d": d, "worst_log_margin": float(margins.max()),
            "violations": violations, "ok": not violations}


def complex_energy_bound_check(spec: PotentialSpec, E: float, N: int,
                               deltas: Sequence[complex]) -> dict:
    """Perturbed-energy transfer bound ||T(n, .; E + delta)|| <= K e^{K n |delta|}.

    K = K(N) is the exact sup of ||T(n, m; E)|| over the site box (both
    signs on the whole line, 1..N on the half line): the largest norm over
    the sweeps from every anchor m, which covers every pair because
    ||T(m, n)|| = ||T(n, m)||.  The forward sweep checks sites 1..N from
    anchor 1, and on the whole line the backward sweep checks -N..0 from
    anchor 0, fed the sites 0, -1, ... (see transfer_norms_from_origin).
    The bound is compared in log form so that no exponential can overflow.
    """
    if N < 2:
        raise DomainError("N must be at least 2")
    _check_memory(N * _SWEEP_BYTES_PER_M, f"transfer sweeps over the box of N={N}", "lower N")
    whole = spec.geometry is Geometry.WHOLE_LINE
    box = potential_values(spec, np.arange(-N + 1 if whole else 2, N + 1))
    k_const = max(float(np.max(spectral_norm(_transfer_prefixes(box[i:], E))))
                  for i in range(box.size))
    if not math.isfinite(k_const):
        raise ScaleOverflowError(f"K(N) is not finite at E={E}")
    # (site values, |n| at each swept site) of the sweeps from anchors 1 and 0
    sweeps = [(potential_values(spec, np.arange(2, N + 1)), np.arange(2, N + 1))]
    if whole:
        sweeps.append((potential_values(spec, np.arange(0, -N, -1)), np.arange(1, N + 1)))
    worst = 0.0
    max_abs_delta = 0.0
    for delta in deltas:
        z = E + complex(delta)
        size = abs(complex(delta))
        max_abs_delta = max(max_abs_delta, size)
        for vals, dist in sweeps:
            norms = spectral_norm(_transfer_prefixes(vals, z)[1:])
            log_ratio = np.log(norms) - math.log(k_const) - k_const * size * dist
            worst = max(worst, float(np.exp(np.max(log_ratio))))
    return {"E": E, "N": N, "K": k_const, "max_ratio": worst,
            "max_abs_delta": max_abs_delta, "ok": worst <= 1.0 + 1e-9}


#: Doublings of a tail-scaling window past its 4T + 64 start, at most.
TAIL_WINDOW_DOUBLINGS = 4
#: Energies sampled from each ladder time's good set by the tail-scaling check.
TAIL_ENERGIES_PER_T = 5


def _tail_resolvent(spec: PotentialSpec, z: complex,
                    radius: int) -> tuple[LatticeWindow, np.ndarray]:
    """R(z) delta_1 on the origin window of ``radius``, the radius doubled while
    the far edges carry more than EDGE_MASS_TOL of |R delta_1|^2, at most
    TAIL_WINDOW_DOUBLINGS times; past that :class:`TruncationError`."""
    for _ in range(TAIL_WINDOW_DOUBLINGS + 1):
        window = _origin_window(spec, radius)
        phi = resolvent_vector(spec, z, window)
        edge = _far_edge_share(window, np.abs(phi) ** 2)
        if edge <= EDGE_MASS_TOL:
            return window, phi
        radius *= 2
    raise TruncationError(
        f"boundary weight {edge:.3e} above {EDGE_MASS_TOL:.3e}; enlarge the window")


def resolvent_tail_scaling(spec: PotentialSpec, T_values: Sequence[float]) -> dict:
    """Scaling of the far-mass resolvent sum along a time ladder.

    For each ladder time T, with N(T) = T^{1/(1 + alpha)} at the Fibonacci
    alpha of :data:`MODEL_ALPHA`, energies are sampled from B(T) (the 1/T
    neighborhood of the good set: the bands of the level k with
    F_{k-1} < N(T) <= F_k) and the quantity
    S(T) = min_E sum_{|n| >= N(T)/2} |R(E + i/T) delta_1(n)|^2 is recorded.
    The returned exponents are the log-log slope of S against T and its
    restatement per log N(T).  Each energy's window starts at radius 4T + 64
    and doubles while its far edges carry more than EDGE_MASS_TOL of
    |R delta_1|^2 (:func:`_tail_resolvent`).
    """
    if spec.model is not Model.FIBONACCI:
        raise DomainError("the tail-scaling check drives the Fibonacci good sets")
    T_values = sorted(float(t) for t in T_values)
    if len(set(T_values)) < 2 or not all(T > 0 for T in T_values):  # NaN fails too
        raise DomainError("the tail scaling needs at least two distinct positive times")
    alpha = MODEL_ALPHA[Model.FIBONACCI](spec.lam)
    fib = fibonacci_numbers(32)[1:]
    rows = []
    for T in T_values:
        n_of_t = T ** (1.0 / (1.0 + alpha))
        k = 1 + int(np.searchsorted(fib, n_of_t))
        mids = [0.5 * (b.lo + b.hi) for b in approximant_spectrum(spec.lam, k)]
        # at least one offset: a good set of more bands than energies takes the first ones
        offsets = np.linspace(-1.0, 1.0, max(TAIL_ENERGIES_PER_T // len(mids), 1)) / T
        energies = sorted(m + o for m in mids for o in offsets)[:TAIL_ENERGIES_PER_T]
        s_min = math.inf
        for E in energies:
            window, phi = _tail_resolvent(spec, E + 1j / T, int(math.ceil(4.0 * T)) + 64)
            sites = window.sites()
            s_val = float(np.sum(np.abs(phi[np.abs(sites) >= n_of_t / 2.0]) ** 2))
            s_min = min(s_min, s_val)
        rows.append({"T": T, "N": n_of_t, "S_min": s_min})
    logs_t = np.log([r["T"] for r in rows])
    logs_s = np.log([r["S_min"] for r in rows])
    slope_t = float(np.polyfit(logs_t, logs_s, 1)[0])
    return {
        "rows": rows,
        "exponent_in_T": slope_t,
        "exponent_in_N": slope_t * (1.0 + alpha),
        "alpha": alpha,
        "positive": slope_t > 0.0,
    }
