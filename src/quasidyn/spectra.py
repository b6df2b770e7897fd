"""Band spectra of Fibonacci periodic approximants and their quantitative laws.

The level-k approximant spectrum is the set of energies where the block
trace satisfies |x_k| <= 2.  It coincides with the spectrum of the periodic
chain whose period is the length-F_k prefix of the Fibonacci potential, so
each of its F_k bands lies between two consecutive Dirichlet eigenvalues of
that period cell, and its edges are the crossings of x_k with -2 and 2
there.  The level-set kernel ``traces._level_crossings``, which also gives
the special energies, bisects them on the trace map to float64
resolution, with no matrix and no tolerance to choose, and every level a
report reads in one loop.

For coupling above 4 three consecutive traces can never be simultaneously
bounded by 2 in absolute value, which forces the band combinatorics: each
band of level k lies either inside a band of level k-1 (type A) or inside a
band of level k-2 (type B), with fixed genealogy counts, bounded derivative
ratios between consecutive levels, and bandwidths shrinking no faster than
(2 lambda + 22) per level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable

import numpy as np

from quasidyn.lattice import DomainError, Model
from quasidyn.traces import (
    _DD,
    _Jet,
    _level_crossings,
    _level_trace,
    _period_cells,
    _period_sites,
    _walk,
    fibonacci_numbers,
)

#: Inverse golden mean; its reciprocal (1 + sqrt 5)/2 drives all exponents.
_LOG_OMEGA_INV = math.log((1.0 + math.sqrt(5.0)) / 2.0)

#: A band lies inside another when each end is inside it up to this.
CONTAINMENT_TOL = 1e-9

#: Chebyshev sample energies per band of the band laws.
SAMPLES_PER_BAND = 33

#: Covering: bands closer than this join, and a band may stick out of the union by it.
COVERING_TOL = 1e-8


class BandCountError(RuntimeError):
    """Band count disagrees with F_k in the regime where it is guaranteed."""


class ClassificationError(RuntimeError):
    """A band fits neither or both of the parent containment rules."""


class BandKind(enum.Enum):
    TYPE_A = "A"
    TYPE_B = "B"
    UNCLASSIFIED = "?"


def _chebyshev_interior(lo, hi, count: int) -> np.ndarray:
    """Chebyshev-spaced points strictly inside [lo, hi]; array bounds of
    shape (n, 1) give one row per interval."""
    j = np.arange(count)
    nodes = np.cos((2 * j + 1) * np.pi / (2 * count))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * nodes[::-1]


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    kind: BandKind = BandKind.UNCLASSIFIED

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError(f"band lo={self.lo} exceeds hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class BandSet:
    bands: tuple[Band, ...]

    def __post_init__(self):
        if not np.all(self._ends[:-1, 1] < self._ends[1:, 0]):
            raise DomainError("bands must be sorted and pairwise disjoint")

    def __len__(self) -> int:
        return len(self.bands)

    def __iter__(self):
        return iter(self.bands)

    @property
    def total_measure(self) -> float:
        return float(sum(b.width for b in self.bands))

    @property
    def min_width(self) -> float:
        return float(min(b.width for b in self.bands))

    @cached_property
    def _ends(self) -> np.ndarray:
        """(n, 2) array of the band ends (lo, hi), ascending."""
        return np.array([(b.lo, b.hi) for b in self.bands]).reshape(-1, 2)

    def interior_points(self, count: int) -> np.ndarray:
        """Chebyshev-spaced sample points strictly inside each band, one row per band."""
        return _chebyshev_interior(self._ends[:, :1], self._ends[:, 1:], count)


def _held(ends: np.ndarray, q_lo, q_hi, tol: float):
    """Whether each query [q_lo, q_hi] lies in an interval of the sorted, disjoint
    (n, 2) set ``ends``, up to tol.  Only the last interval with lo - tol <= q_lo can
    hold it, so its hi + tol decides.  Swapped ends (b, a) ask if [a, b] meets one."""
    i = np.searchsorted(ends[:, 0] - tol, q_lo, side="right")
    return (i > 0) & (q_hi <= np.r_[-np.inf, ends[:, 1] + tol][i])


@dataclass(frozen=True)
class BoundParameters:
    """Closed-form constants entering the power-law and measure bounds."""

    c_lambda: float
    d: float
    alpha: float
    gamma: float
    gamma_in_regime: bool


def bound_parameters(lam: float) -> BoundParameters:
    """Constants C = 2 + sqrt(8 + lambda^2), d = C (2C+1)^2, and exponents.

    alpha = 2 log d / log((1+sqrt5)/2) controls the transfer-matrix power
    law; gamma = log(2 lambda + 22) / log((1+sqrt5)/2) - 1 controls the
    approximant measure decay and is meaningful for lambda > 4 only (it is
    still returned, flagged out of regime, otherwise).
    """
    if lam <= 0:
        raise DomainError("coupling must be positive")
    c = 2.0 + math.sqrt(8.0 + lam * lam)
    d = c * (2.0 * c + 1.0) ** 2
    alpha = 2.0 * math.log(d) / _LOG_OMEGA_INV
    gamma = math.log(2.0 * lam + 22.0) / _LOG_OMEGA_INV - 1.0
    return BoundParameters(c_lambda=c, d=d, alpha=alpha, gamma=gamma,
                           gamma_in_regime=lam > 4.0)


# ---------------------------------------------------------------------------
# band construction

def merge_intervals(intervals: Iterable[tuple[float, float]],
                    tol: float) -> list[tuple[float, float]]:
    """Sorted union of closed intervals; pieces whose gap is at most tol join."""
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo - merged[-1][1] <= tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


#: A gap is closed when |x_k| at its midpoint, in double-double, exceeds 2
#: by at most this: the trace only touches 2 there (excess never positive at
#: lambda = 0, k <= 18), while an open gap's is ~lambda^2 / 4 at small lambda.
_CLOSED_GAP_EXCESS = 1e-20


def approximant_spectrum(lam: float, k: int) -> BandSet:
    """All maximal energy intervals with |x_k| <= 2, as a sorted BandSet.

    Band i runs between its crossings of -2 and 2 in the i-th Dirichlet
    bracket (``traces._level_crossings``); bands across a closed gap
    (``_CLOSED_GAP_EXCESS``) are one.  For lambda > 4 the band count must
    equal F_k, otherwise :class:`BandCountError` is raised; for smaller
    coupling it is reported without assertion.  Levels past the period cap
    (k >= 19) raise :class:`ResourceError` before any work.
    """
    if k < 0:
        raise DomainError("approximant level must be nonnegative")
    (bands,) = _approximant_spectra(lam, range(k, k + 1))
    return bands


def _approximant_spectra(lam: float, levels) -> list[BandSet]:
    """The band sets of the ascending, nonnegative ``levels``, as
    :func:`approximant_spectrum` gives each, from one kernel call."""
    found = _level_crossings(*_period_cells(Model.FIBONACCI, lam, levels, "band set"),
                             (-2.0, 2.0))
    out = []
    for k in levels:
        lo, hi = np.sort(found[k][0], axis=0)
        with np.errstate(all="ignore"):
            x = _level_trace(Model.FIBONACCI, lam, k, _DD(0.5 * (hi[:-1] + lo[1:])))
            excess = (np.abs(x.hi) - 2.0) + np.sign(x.hi) * x.lo
        # inf or NaN past the double-double range is an open gap; meeting crossings leave none
        open_gap = ~(excess <= _CLOSED_GAP_EXCESS) & (hi[:-1] < lo[1:])
        first, last = np.r_[True, open_gap], np.r_[open_gap, True]
        bands = tuple(Band(lo=a, hi=b) for a, b in zip(lo[first], hi[last]))
        if lam > 4.0 and len(bands) != lo.size:
            raise BandCountError(
                f"level {k} at lambda={lam}: found {len(bands)} bands, expected F_{k} = {lo.size}")
        out.append(BandSet(bands=bands))
    return out


#: Band sets by (lambda, level), least recently read first, and how many are kept.
_BAND_SETS: dict[tuple[float, int], BandSet] = {}
_BAND_SETS_KEPT = 256


def _cached_spectra(lam: float, levels: range) -> list[BandSet]:
    """The band sets of the ascending ``levels``, cached: those not cached yet
    come from one kernel call.  The deepest level is refused past the cap
    before the levels are listed, so a range of any length is refused at once.
    The answer is read out before the least recently read band sets are
    dropped, so no level of this request can be dropped before it is read."""
    _period_sites(Model.FIBONACCI, levels[-1], f"the level-{levels[-1]} band set")
    missing = [k for k in levels if (lam, k) not in _BAND_SETS]
    fresh = dict(zip(missing, _approximant_spectra(lam, missing))) if missing else {}
    out = [fresh[k] if k in fresh else _BAND_SETS.pop((lam, k)) for k in levels]
    _BAND_SETS.update(zip([(lam, k) for k in levels], out))
    for key in list(_BAND_SETS)[:-_BAND_SETS_KEPT]:
        del _BAND_SETS[key]
    return out


@dataclass(frozen=True)
class CoveringReport:
    ok: bool
    violations: tuple[tuple[int, float, float], ...]


def covering_check(lam: float, m: int) -> CoveringReport:
    """Check that level m and m+1 bands lie inside the level m-1/m union.

    Every band of sigma_m and sigma_{m+1} must be contained, within
    ``COVERING_TOL``, in the union of the bands of sigma_{m-1} and sigma_m.
    """
    if m < 2:
        raise DomainError("covering check needs m >= 2")
    below, cur, above = _cached_spectra(lam, range(m - 1, m + 2))
    cover = np.concatenate([below._ends, cur._ends])
    union = np.array(merge_intervals(cover.tolist(), COVERING_TOL)).reshape(-1, 2)
    violations = []
    for level, bands in ((m, cur), (m + 1, above)):
        violations.extend((level, b.lo, b.hi)
                          for b, ok in zip(bands, _held(union, *bands._ends.T, COVERING_TOL))
                          if not ok)
    return CoveringReport(ok=not violations, violations=tuple(violations))


def classify_bands(lam: float, k: int) -> BandSet:
    """Label each level-k band type A (inside level k-1) or B (inside k-2).

    Only meaningful above coupling 4, where the two cases are exhaustive and
    exclusive; a band matching neither or both raises
    :class:`ClassificationError`.
    """
    if lam <= 4.0:
        raise DomainError("band classification requires lambda > 4")
    if k < 2:
        raise DomainError("classification needs k >= 2")
    grand, parent, cur = _cached_spectra(lam, range(k - 2, k + 1))
    held = [_held(up._ends, *cur._ends.T, CONTAINMENT_TOL).tolist() for up in (parent, grand)]
    labeled = []
    for band, in_a, in_b in zip(cur, *held):
        if in_a == in_b:
            raise ClassificationError(
                f"band [{band.lo}, {band.hi}] of level {k}: in_a={in_a}, in_b={in_b}")
        kind = BandKind.TYPE_A if in_a else BandKind.TYPE_B
        labeled.append(Band(lo=band.lo, hi=band.hi, kind=kind))
    return BandSet(bands=tuple(labeled))


def genealogy_check(lam: float, k: int) -> dict:
    """Verify the two-generation refinement counts of the level-k bands.

    A type A band contains exactly one level-(k+2) band (type B) and none
    from level k+1; a type B band contains exactly one level-(k+1) band
    (type A) and two level-(k+2) bands (type B) positioned around it.
    Also asserts that no band of level k+2 meets both levels k and k+1
    anywhere (three consecutive traces cannot all be small).
    """
    if lam <= 4.0:
        raise DomainError("genealogy counts require lambda > 4")
    tol = CONTAINMENT_TOL
    cur = classify_bands(lam, k)
    child1 = classify_bands(lam, k + 1)
    child2 = classify_bands(lam, k + 2)
    # a band holds the run of children from lo >= band.lo - tol to hi <= band.hi + tol
    runs = [zip(np.searchsorted(child._ends[:, 0], cur._ends[:, 0] - tol).tolist(),
                np.searchsorted(child._ends[:, 1], cur._ends[:, 1] + tol, side="right").tolist())
            for child in (child1, child2)]
    failures = []
    for band, (a1, b1), (a2, b2) in zip(cur, *runs):
        c1, c2 = child1.bands[a1:b1], child2.bands[a2:b2]
        if band.kind is BandKind.TYPE_A:
            if len(c1) != 0 or len(c2) != 1 or c2[0].kind is not BandKind.TYPE_B:
                failures.append(("A", band.lo, band.hi, len(c1), len(c2)))
        else:
            ok = (len(c1) == 1 and c1[0].kind is BandKind.TYPE_A
                  and len(c2) == 2 and all(c.kind is BandKind.TYPE_B for c in c2)
                  and c2[0].hi < c1[0].lo and c1[0].hi < c2[1].lo)
            if not ok:
                failures.append(("B", band.lo, band.hi, len(c1), len(c2)))
    # swapped query ends: does a level-(k+2) band meet a band of each set
    meets = [_held(bands._ends, *child2._ends.T[::-1], tol) for bands in (cur, child1)]
    triple_overlap = [(g.lo, g.hi) for g, both in zip(child2, meets[0] & meets[1]) if both]
    counts = {
        "n_bands": len(cur),
        "n_type_a": sum(b.kind is BandKind.TYPE_A for b in cur),
        "n_type_b": sum(b.kind is BandKind.TYPE_B for b in cur),
    }
    return {
        "lam": lam,
        "k": k,
        "ok": not failures and not triple_overlap,
        "failures": failures,
        "triple_overlap": triple_overlap,
        **counts,
    }


# ---------------------------------------------------------------------------
# quantitative band laws

def f_pm_partials(x, y, lam: float, sign: int):
    """Analytic partial derivatives (df/dx, df/dy) of the middle-of-triple
    solution f = (x y + sign sqrt(4 lam^2 + (4-x^2)(4-y^2))) / 2.

    Given the outer two traces x, y of a consecutive triple on the invariant
    surface, f is the middle one; the radicand must be strictly positive.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    radicand = 4.0 * lam * lam + (4.0 - x * x) * (4.0 - y * y)
    if np.any(radicand <= 0):
        raise DomainError("partials need a strictly positive radicand")
    root = np.sqrt(radicand)
    s = float(np.sign(sign))
    dfdx = 0.5 * (y - s * x * (4.0 - y * y) / root)
    dfdy = 0.5 * (x - s * y * (4.0 - x * x) / root)
    return dfdx, dfdy


#: The partials check: its couplings (all above 4), log2 of its Sobol sample
#: count, and how far past the bound 1 a partial may read.
PARTIALS_LAMS = (4.5, 5.0, 8.0)
PARTIALS_SAMPLES_LOG2 = 14
PARTIALS_TOL = 1e-12


def partials_bound_check() -> dict:
    """Sobol sample of |df/dx|, |df/dy| over [-2, 2]^2 for couplings above 4.

    The expected uniform bound is 1.  The sample count is a power of two to
    keep the Sobol balance properties.
    """
    from scipy.stats import qmc  # scipy.stats is slow to import; only this check needs it

    sampler = qmc.Sobol(d=2, scramble=False)
    pts = 4.0 * sampler.random_base2(PARTIALS_SAMPLES_LOG2) - 2.0
    n_samples = pts.shape[0]
    worst = 0.0
    for lam in PARTIALS_LAMS:
        for sign in (+1, -1):
            dfdx, dfdy = f_pm_partials(pts[:, 0], pts[:, 1], lam, sign)
            worst = max(worst, float(np.max(np.abs(dfdx))), float(np.max(np.abs(dfdy))))
    return {"max_abs_partial": worst, "bound": 1.0, "ok": worst <= 1.0 + PARTIALS_TOL,
            "n_samples": n_samples, "lams": PARTIALS_LAMS}


def _level_slopes(lam: float, energies: np.ndarray, k: int, count: int) -> list[np.ndarray]:
    """dx_j/dE at the energies for the ``count`` levels j = k - count + 1 .. k,
    read off one walk at _Jet(E, 1); no other level is kept."""
    e = _Jet(energies, np.ones_like(energies))
    with np.errstate(over="ignore", invalid="ignore"):
        return [x.d for x in islice(_walk(Model.FIBONACCI, lam, e), k + 1 - count, k + 1)]


def derivative_ratio_check(lam: float, k: int, *, samples_per_band: int = SAMPLES_PER_BAND,
                           tol: float = 1e-6) -> dict:
    """Derivative-ratio bounds between a band's level and its parent level.

    On a type A band of level k the ratio |x_k' / x_{k-1}'| stays below
    lambda + 11; on a type B band |x_k' / x_{k-2}'| stays below
    2 lambda + 22.  Samples with a vanishing parent derivative are skipped
    and counted.
    """
    bands = classify_bands(lam, k)
    # one walk over every band's samples: levels k - 2, k - 1 and k, one row per band
    d_k2, d_k1, d_k = _level_slopes(lam, bands.interior_points(samples_per_band), k, 3)
    # one rule per kind: the parent level's slopes, the ratio bound and the peak ratio
    parent = {BandKind.TYPE_A: d_k1, BandKind.TYPE_B: d_k2}
    bound = {BandKind.TYPE_A: lam + 11.0, BandKind.TYPE_B: 2.0 * lam + 22.0}
    peak = dict.fromkeys(bound, 0.0)
    skipped = 0
    violations = []
    for i, band in enumerate(bands):
        denom = parent[band.kind][i]
        ok = denom != 0.0
        skipped += int(np.sum(~ok))
        ratios = np.abs(d_k[i][ok] / denom[ok])
        if ratios.size == 0:
            continue
        top = float(np.max(ratios))
        peak[band.kind] = max(peak[band.kind], top)
        if top > bound[band.kind] * (1.0 + tol) + tol:
            violations.append((band.kind.value, band.lo, band.hi, top))
    return {
        "lam": lam,
        "k": k,
        "max_ratio_type_a": peak[BandKind.TYPE_A],
        "max_ratio_type_b": peak[BandKind.TYPE_B],
        "bound_type_a": bound[BandKind.TYPE_A],
        "bound_type_b": bound[BandKind.TYPE_B],
        "samples_per_band": samples_per_band,
        "skipped_zero_derivative": skipped,
        "violations": violations,
        "ok": not violations,
    }


def measure_report(lam: float, kmax: int) -> dict:
    """Per-level measure table with the decay-exponent fit.

    Reports |sigma_k|, the minimum bandwidth, the log-log fit of measure
    against F_k (the empirical decay exponent, to compare with -gamma), the
    per-level minimum-bandwidth contraction against 1/(2 lambda + 22), and
    an empirical estimate of the derivative-growth prefactor.
    """
    if lam <= 4.0:
        raise DomainError("the measure bounds hold for lambda > 4")
    if kmax < 1:
        raise DomainError("the measure table needs kmax >= 1")
    params = bound_parameters(lam)
    fib = fibonacci_numbers(kmax)
    rows = []
    c_estimate = 0.0
    for k, bands in enumerate(_cached_spectra(lam, range(1, kmax + 1)), start=1):
        (d_k,) = _level_slopes(lam, bands.interior_points(SAMPLES_PER_BAND), k, 1)
        peak_deriv = float(np.max(np.abs(d_k)))
        c_estimate = max(c_estimate, peak_deriv / (2.0 * lam + 22.0) ** k)
        rows.append({
            "k": k,
            "f_k": int(fib[k]),
            "n_bands": len(bands),
            "measure": bands.total_measure,
            "min_width": bands.min_width,
            "max_abs_trace_derivative": peak_deriv,
        })
    logs_f = np.log([row["f_k"] for row in rows])
    logs_m = np.log([row["measure"] for row in rows])
    slope, intercept = np.polyfit(logs_f, logs_m, 1)
    width_ratios = [rows[i + 1]["min_width"] / rows[i]["min_width"] for i in range(len(rows) - 1)]
    return {
        "lam": lam,
        "kmax": kmax,
        "rows": rows,
        "decay_exponent": float(slope),
        "fit_intercept": float(intercept),
        "gamma": params.gamma,
        "decay_respects_gamma": bool(slope >= -params.gamma),
        "min_width_ratios": width_ratios,
        "width_ratio_lower_bound": 1.0 / (2.0 * lam + 22.0),
        "c_estimate": c_estimate,
    }
