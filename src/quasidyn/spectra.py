"""Band spectra of Fibonacci periodic approximants and their quantitative laws.

The level-k approximant spectrum is the set of energies where the block
trace satisfies |x_k| <= 2.  It coincides with the spectrum of the periodic
chain whose period is the length-F_k prefix of the Fibonacci potential, so
each of its F_k bands lies between two consecutive Dirichlet eigenvalues of
that period cell, and its edges are the crossings of x_k with -2 and 2
there.  The level-set kernel ``traces._level_crossings``, which also gives
the special energies, bisects them on the trace map to float64
resolution, with no matrix and no tolerance to choose, and every level a
report reads in one loop.  A :class:`BandSet` keeps a level's bands as arrays.

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
from itertools import islice
from typing import Iterable

import numpy as np

from quasidyn.lattice import DomainError, Model
from quasidyn.traces import (
    _DD,
    _Jet,
    _level_crossings,
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


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    kind: BandKind = BandKind.UNCLASSIFIED

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, eq=False)
class BandSet:
    """Sorted, pairwise disjoint bands as read-only arrays: ``ends`` holds one
    (lo, hi) row per band and ``kinds`` each band's :class:`BandKind` value
    (``"?"`` unless given).  Indexing or iterating reads out one :class:`Band`."""

    ends: np.ndarray
    kinds: np.ndarray | str = BandKind.UNCLASSIFIED.value

    def __post_init__(self):
        ends = np.asarray(self.ends, dtype=np.float64).reshape(-1, 2)
        kinds = np.asarray(self.kinds)
        if not (kinds.shape in ((), (len(ends),)) and np.all(ends[:, 0] <= ends[:, 1])
                and np.all(ends[:-1, 1] < ends[1:, 0])
                and np.isin(kinds, [kind.value for kind in BandKind]).all()):
            raise DomainError("bands are sorted, disjoint (lo <= hi) rows with one kind each")
        ends.flags.writeable = False  # a view: the caller's array stays writeable
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "kinds", np.broadcast_to(kinds, len(ends)))  # read-only

    def __eq__(self, other) -> bool:
        return (isinstance(other, BandSet) and np.array_equal(self.ends, other.ends)
                and np.array_equal(self.kinds, other.kinds))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i: int) -> Band:
        return Band(*self.ends[i].tolist(), BandKind(self.kinds[i]))

    def __iter__(self):
        for (lo, hi), kind in zip(self.ends.tolist(), self.kinds.tolist()):
            yield Band(lo, hi, BandKind(kind))

    @property
    def widths(self) -> np.ndarray:
        return self.ends[:, 1] - self.ends[:, 0]

    @property
    def total_measure(self) -> float:
        # summed left to right, as a loop over the bands would: not np.sum's pairwise
        # order, and not builtin sum, which compensates floats from CPython 3.12
        return float(np.cumsum(self.widths)[-1])

    @property
    def min_width(self) -> float:
        return float(self.widths.min())

    def interior_points(self, count: int) -> np.ndarray:
        """Chebyshev-spaced sample points strictly inside each band, one row per band."""
        nodes = np.cos((2 * np.arange(count) + 1) * np.pi / (2 * count))
        lo, hi = self.ends[:, :1], self.ends[:, 1:]
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes[::-1]


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
    return _approximant_spectra(lam, range(k, k + 1))[0]


def _approximant_spectra(lam: float, levels) -> list[BandSet]:
    """The band sets of the ascending, nonnegative ``levels``, as
    :func:`approximant_spectrum` gives each, from one kernel call."""
    found = _level_crossings(*_period_cells(Model.FIBONACCI, lam, levels, "band set"),
                             (-2.0, 2.0))
    ends = [np.sort(found[k][0], axis=0) for k in levels]
    # the gap midpoints of every level in one double-double walk; each level reads its own
    cuts = np.cumsum([0] + [lo.size - 1 for lo, _ in ends]).tolist()
    mids = _DD(np.concatenate([0.5 * (hi[:-1] + lo[1:]) for lo, hi in ends]))
    with np.errstate(all="ignore"):
        x = dict(zip(range(levels[-1] + 1), _walk(Model.FIBONACCI, lam, mids)))
        excess = {k: (np.abs(x[k].hi) - 2.0) + np.sign(x[k].hi) * x[k].lo for k in levels}
    out = []
    for k, (lo, hi), a, b in zip(levels, ends, cuts, cuts[1:]):
        # inf or NaN past the double-double range is an open gap; meeting crossings leave none
        open_gap = ~(excess[k][a:b] <= _CLOSED_GAP_EXCESS) & (hi[:-1] < lo[1:])
        first, last = np.r_[True, open_gap], np.r_[open_gap, True]
        bands = BandSet(np.stack([lo[first], hi[last]], axis=1))
        if lam > 4.0 and len(bands) != lo.size:
            raise BandCountError(
                f"level {k} at lambda={lam}: found {len(bands)} bands, expected F_{k} = {lo.size}")
        out.append(bands)
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
    cover = np.concatenate([below.ends, cur.ends])
    union = np.array(merge_intervals(cover.tolist(), COVERING_TOL)).reshape(-1, 2)
    violations = tuple(
        (level, lo, hi) for level, bands in ((m, cur), (m + 1, above))
        for lo, hi in bands.ends[~_held(union, *bands.ends.T, COVERING_TOL)].tolist())
    return CoveringReport(ok=not violations, violations=violations)


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
    in_a, in_b = (_held(up.ends, *cur.ends.T, CONTAINMENT_TOL) for up in (parent, grand))
    if np.any(in_a == in_b):
        i = np.argmax(in_a == in_b)
        raise ClassificationError(
            f"band {cur.ends[i].tolist()} of level {k}: in_a={in_a[i]}, in_b={in_b[i]}")
    return BandSet(cur.ends, np.where(in_a, BandKind.TYPE_A.value, BandKind.TYPE_B.value))


def genealogy_check(lam: float, k: int) -> dict:
    """Verify the two-generation refinement counts of the level-k bands.

    A type A band contains exactly one level-(k+2) band (type B) and none
    from level k+1; a type B band contains exactly one level-(k+1) band
    (type A) and two level-(k+2) bands (type B) positioned around it.
    Also asserts that no band of level k+2 meets both levels k and k+1
    anywhere (three consecutive traces cannot all be small).
    """
    if lam <= 4.0 or k < 2:
        raise DomainError("genealogy counts require lambda > 4 and k >= 2")
    tol = CONTAINMENT_TOL
    _cached_spectra(lam, range(k - 2, k + 3))  # levels k - 2..k + 2 in one kernel loop
    cur, child1, child2 = (classify_bands(lam, j) for j in range(k, k + 3))
    # a band holds the run of children from lo >= band.lo - tol to hi <= band.hi + tol
    runs = [zip(np.searchsorted(child.ends[:, 0], cur.ends[:, 0] - tol).tolist(),
                np.searchsorted(child.ends[:, 1], cur.ends[:, 1] + tol, side="right").tolist())
            for child in (child1, child2)]
    failures = []
    for (lo, hi), kind, (a1, b1), (a2, b2) in zip(cur.ends.tolist(), cur.kinds.tolist(), *runs):
        n1, n2 = max(b1 - a1, 0), max(b2 - a2, 0)
        if kind == BandKind.TYPE_A.value:
            if n1 != 0 or n2 != 1 or child2.kinds[a2] != BandKind.TYPE_B.value:
                failures.append(("A", lo, hi, n1, n2))
        else:
            ok = (n1 == 1 and child1.kinds[a1] == BandKind.TYPE_A.value and n2 == 2
                  and child2.kinds[a2] == child2.kinds[a2 + 1] == BandKind.TYPE_B.value
                  and child2.ends[a2, 1] < child1.ends[a1, 0]
                  and child1.ends[a1, 1] < child2.ends[a2 + 1, 0])
            if not ok:
                failures.append(("B", lo, hi, n1, n2))
    # swapped query ends: does a level-(k+2) band meet a band of each set
    meets = [_held(bands.ends, *child2.ends.T[::-1], tol) for bands in (cur, child1)]
    triple_overlap = [(lo, hi) for lo, hi in child2.ends[meets[0] & meets[1]].tolist()]
    return {
        "lam": lam,
        "k": k,
        "ok": not failures and not triple_overlap,
        "failures": failures,
        "triple_overlap": triple_overlap,
        "n_bands": len(cur),
        "n_type_a": int(np.count_nonzero(cur.kinds == BandKind.TYPE_A.value)),
        "n_type_b": int(np.count_nonzero(cur.kinds == BandKind.TYPE_B.value)),
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
    # each band's parent level and ratio bound by its kind: A reads level k - 1, B k - 2
    is_a = bands.kinds == BandKind.TYPE_A.value
    denom = np.where(is_a[:, None], d_k1, d_k2)
    ok = denom != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # each band's peak ratio over the samples with a nonzero parent slope; -inf for none
        top = np.where(ok, np.abs(d_k / denom), -np.inf).max(axis=1)
    bad = top > np.where(is_a, lam + 11.0, 2.0 * lam + 22.0) * (1.0 + tol) + tol
    # the peak of each kind, as a loop max(peak, top) over its bands reads it
    peak_a, peak_b = (max([0.0, *top[mask].tolist()]) for mask in (is_a, ~is_a))
    return {
        "lam": lam,
        "k": k,
        "max_ratio_type_a": peak_a,
        "max_ratio_type_b": peak_b,
        "bound_type_a": lam + 11.0,
        "bound_type_b": 2.0 * lam + 22.0,
        "samples_per_band": samples_per_band,
        "skipped_zero_derivative": int(np.count_nonzero(~ok)),
        "violations": list(zip(bands.kinds[bad].tolist(), *bands.ends[bad].T.tolist(),
                               top[bad].tolist())),
        "ok": not bad.any(),
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
