import itertools
import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasidyn import spectra
from quasidyn.lattice import DomainError
from quasidyn.spectra import (
    Band,
    BandCountError,
    BandKind,
    BandSet,
    ClassificationError,
    _cached_spectra,
    _held,
    approximant_spectrum,
    bound_parameters,
    classify_bands,
    covering_check,
    derivative_ratio_check,
    f_pm_partials,
    genealogy_check,
    measure_report,
    merge_intervals,
    partials_bound_check,
)
from quasidyn.traces import fib_trace_orbit_grid, fibonacci_numbers, trace_derivative_grid

GOLDEN_LOG = math.log((1.0 + math.sqrt(5.0)) / 2.0)


# ---------------------------------------------------------------------------
# closed-form constants

def test_constants_at_unit_coupling():
    params = bound_parameters(1.0)
    assert params.c_lambda == pytest.approx(5.0, abs=1e-14)
    assert params.d == pytest.approx(605.0, abs=1e-10)
    assert params.alpha == pytest.approx(2.0 * math.log(605.0) / GOLDEN_LOG, rel=1e-14)
    assert params.alpha == pytest.approx(26.6213, abs=2e-4)
    assert not params.gamma_in_regime


def test_constants_at_coupling_five():
    params = bound_parameters(5.0)
    assert params.c_lambda == pytest.approx(2.0 + math.sqrt(33.0), rel=1e-14)
    assert params.gamma == pytest.approx(math.log(32.0) / GOLDEN_LOG - 1.0, rel=1e-14)
    assert params.gamma == pytest.approx(6.2021, abs=2e-4)
    assert params.gamma_in_regime
    assert params.gamma < 1.0 + params.alpha


def test_constants_reject_nonpositive_coupling():
    with pytest.raises(DomainError):
        bound_parameters(0.0)


# ---------------------------------------------------------------------------
# band construction

def test_band_counts_above_coupling_four():
    fib = fibonacci_numbers(10)
    for k in range(1, 11):
        assert len(approximant_spectrum(5.0, k)) == fib[k]


def test_first_levels_in_closed_form():
    lam = 5.0
    bands1 = approximant_spectrum(lam, 1)
    assert bands1[0].lo == pytest.approx(lam - 2.0, abs=1e-10)
    assert bands1[0].hi == pytest.approx(lam + 2.0, abs=1e-10)
    bands2 = approximant_spectrum(lam, 2)
    root = math.sqrt(lam * lam + 16.0)
    expected = [((lam - root) / 2.0, 0.0), (lam, (lam + root) / 2.0)]
    for band, (lo, hi) in zip(bands2, expected):
        assert band.lo == pytest.approx(lo, abs=1e-10)
        assert band.hi == pytest.approx(hi, abs=1e-10)


def test_free_coupling_merges_to_full_band():
    bands = approximant_spectrum(0.0, 6)
    assert len(bands) == 1
    assert bands[0].lo == pytest.approx(-2.0, abs=1e-9)
    assert bands[0].hi == pytest.approx(2.0, abs=1e-9)


def test_band_edges_sit_on_trace_level_set():
    for lam, k in ((5.0, 8), (1.0, 10), (5.0, 15), (5.0, 18)):
        bands = approximant_spectrum(lam, k)
        edges = np.array([e for b in bands for e in (b.lo, b.hi)])
        xs, dxs = trace_derivative_grid(lam, edges, k)
        slack = 10.0 * 1e-10 * np.abs(dxs[k]) + 1e-9
        assert np.all(np.abs(np.abs(xs[k]) - 2.0) <= slack)


def test_band_interiors_have_small_trace():
    bands = approximant_spectrum(5.0, 7)
    mids = np.array([0.5 * (b.lo + b.hi) for b in bands])
    xs = fib_trace_orbit_grid(5.0, mids, 7)
    assert np.all(np.abs(xs[7]) <= 2.0)


@pytest.mark.parametrize("k", [7, 9, 10])
def test_total_measure_sums_the_widths_left_to_right(k):
    bands = approximant_spectrum(1.0, k)
    total = 0.0
    for lo, hi in bands.ends.tolist():
        total += hi - lo
    assert bands.total_measure.hex() == total.hex()
    # a compensated sum (builtin sum from CPython 3.12) reads another float here,
    # and so does numpy's pairwise sum at k = 9
    assert math.fsum(bands.widths) != total
    assert (float(np.sum(bands.widths)) != total) == (k == 9)


def test_band_set_holds_read_only_arrays():
    ends = np.array([[0.0, 1.0], [2.0, 2.0], [3.0, 5.0]])
    bands = BandSet(ends, ["A", "B", "A"])
    assert not bands.ends.flags.writeable and not bands.kinds.flags.writeable
    assert ends.flags.writeable  # the caller's array is left as it was
    assert bands == BandSet(ends.tolist(), np.array(["A", "B", "A"]))
    assert bands != BandSet(ends)
    assert BandSet(ends).kinds.tolist() == ["?", "?", "?"]
    assert bands[1] == Band(lo=2.0, hi=2.0, kind=BandKind.TYPE_B)
    assert [band.width for band in bands] == [1.0, 0.0, 2.0]
    assert (len(bands), bands.total_measure, bands.min_width) == (3, 3.0, 0.0)
    for bad in ([[1.0, 0.0]], [[0.0, 2.0], [1.0, 3.0]], [[0.0, 1.0], [1.0, 2.0]], [[0.0, np.nan]]):
        with pytest.raises(DomainError):
            BandSet(np.array(bad))
    for kinds in (["A", "B"], ["A", "B", "C"], [BandKind.TYPE_A] * 3):
        with pytest.raises(DomainError):
            BandSet(ends, kinds)


def test_band_count_error_when_resolution_lost(monkeypatch):
    # every gap read as closed merges the three bands into one
    monkeypatch.setattr("quasidyn.spectra._CLOSED_GAP_EXCESS", np.inf)
    with pytest.raises(BandCountError):
        approximant_spectrum(5.0, 3)


def _brute_union_member(intervals, tol, x):
    """Union membership by brute force: join any two pieces that lie within
    tol of each other until no such pair is left, then test x against each."""
    pieces = list(intervals)
    joined = True
    while joined:
        joined = False
        for a, b in itertools.combinations(pieces, 2):
            if b[0] - a[1] <= tol and a[0] - b[1] <= tol:
                pieces.remove(a)
                pieces.remove(b)
                pieces.append((min(a[0], b[0]), max(a[1], b[1])))
                joined = True
                break
    return any(lo <= x <= hi for lo, hi in pieces)


@settings(max_examples=200, derandomize=True)
@given(intervals=st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 12)).map(
           lambda t: (t[0] / 4.0, (t[0] + t[1]) / 4.0)), min_size=1, max_size=8),
       tol=st.sampled_from([0.0, 0.25, 1.0]))
def test_merge_intervals_matches_brute_union(intervals, tol):
    merged = merge_intervals(intervals, tol)
    assert merged == sorted(merged)
    assert all(b[0] - a[1] > tol for a, b in zip(merged, merged[1:]))
    for x in np.arange(-12.0, 14.0, 0.125):
        inside = any(lo <= x <= hi for lo, hi in merged)
        assert inside == _brute_union_member(intervals, tol, x), (x, merged)


# ---------------------------------------------------------------------------
# covering and classification

@pytest.mark.parametrize("tol", [0.0, 1e-3, 0.05, 0.3])
def test_band_set_covers_matches_brute_scan(tol, rng):
    for _ in range(40):
        cuts = np.sort(rng.uniform(-3.0, 3.0, 2 * int(rng.integers(1, 9))))
        bands = BandSet(cuts.reshape(-1, 2))
        # query ends at and near the band ends as well as anywhere in between
        ends = np.concatenate([cuts, cuts - tol, cuts + tol, rng.uniform(-3.5, 3.5, 20)])
        for e_lo, e_hi in itertools.combinations(np.sort(ends), 2):
            brute = any(b.lo - tol <= e_lo and e_hi <= b.hi + tol for b in bands)
            assert bool(_held(bands.ends, float(e_lo), float(e_hi), tol)) == brute


@settings(max_examples=200, derandomize=True)
@given(start=st.integers(-16, 16),
       pieces=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 12)), max_size=6),
       tol=st.sampled_from([0.0, 0.25, 0.5]),
       extra=st.lists(st.integers(-40, 120), max_size=6))
@example(start=0, pieces=[], tol=0.25, extra=[-3, 0, 5])
@example(start=0, pieces=[(4, 3), (4, 1), (0, 2), (2, 12)], tol=0.25, extra=[])
def test_containment_kernel_matches_scan(start, pieces, tol, extra):
    # intervals (width w/8, then a gap g/8 >= 1/8) in ascending order; with
    # tol = 0.25 a gap of 3/8 lies between tol and 2 tol
    ends, x = [], start / 8.0
    for width, gap in pieces:
        ends.append((x, x + width / 8.0))
        x += (width + gap) / 8.0
    # query ends at and tol beyond every interval end, left of the first
    # interval, and anywhere
    points = sorted({p + d for lo, hi in ends for p in (lo, hi) for d in (-tol, 0.0, tol)}
                    | {start / 8.0 - 1.0} | {e / 8.0 for e in extra})
    q_lo, q_hi = np.array(list(itertools.combinations_with_replacement(points, 2))).T
    ends_array = np.array(ends).reshape(-1, 2)
    held = _held(ends_array, q_lo, q_hi, tol)
    meets = _held(ends_array, q_hi, q_lo, tol)
    for a, b, h, m in zip(q_lo, q_hi, held, meets):
        assert h == any(lo - tol <= a and b <= hi + tol for lo, hi in ends), (a, b)
        assert m == any(lo - tol <= b and a <= hi + tol for lo, hi in ends), (a, b)


@pytest.mark.parametrize("lam", [1.0, 2.0, 5.0])
def test_covering_property(lam):
    for m in range(2, 10):
        report = covering_check(lam, m)
        assert report.ok, report.violations


def test_covering_violations_match_a_band_by_band_scan(monkeypatch):
    # a negative tolerance makes the bands that reach an edge of the union stick out
    tol = -1e-3
    monkeypatch.setattr(spectra, "COVERING_TOL", tol)
    seen = 0
    for m in range(2, 8):
        below, cur, above = (approximant_spectrum(1.0, j) for j in (m - 1, m, m + 1))
        union = merge_intervals([(b.lo, b.hi) for b in (*below, *cur)], tol)
        expected = tuple((level, b.lo, b.hi) for level, bands in ((m, cur), (m + 1, above))
                         for b in bands
                         if not any(lo - tol <= b.lo and b.hi <= hi + tol for lo, hi in union))
        report = covering_check(1.0, m)
        assert (report.ok, report.violations) == (not expected, expected)
        seen += len(expected)
    assert seen > 0


def test_classification_names_the_first_band_in_both_or_neither(monkeypatch):
    # a containment tolerance wider than the gaps puts some bands inside both parents
    tol = 0.05
    monkeypatch.setattr(spectra, "CONTAINMENT_TOL", tol)
    grand, parent, cur = (approximant_spectrum(5.0, j) for j in (3, 4, 5))
    inside = lambda band, up: any(u.lo - tol <= band.lo and band.hi <= u.hi + tol for u in up)
    first = next(b for b in cur if inside(b, parent) == inside(b, grand))
    text = (f"band [{first.lo}, {first.hi}] of level 5: in_a={inside(first, parent)}, "
            f"in_b={inside(first, grand)}")
    with pytest.raises(ClassificationError, match=re.escape(text)):
        classify_bands(5.0, 5)


def test_classification_partition_and_counts():
    fib = fibonacci_numbers(10)
    for k in range(2, 9):
        bands = classify_bands(5.0, k)
        kinds = [b.kind for b in bands]
        assert all(kind in (BandKind.TYPE_A, BandKind.TYPE_B) for kind in kinds)
        n_a = sum(kind is BandKind.TYPE_A for kind in kinds)
        n_b = sum(kind is BandKind.TYPE_B for kind in kinds)
        assert n_a + n_b == fib[k]
        assert n_a == fib[k - 2]
        assert n_b == fib[k - 1]


def test_classification_requires_strong_coupling():
    with pytest.raises(DomainError):
        classify_bands(1.0, 4)


def test_genealogy_counts():
    for k in range(2, 9):
        report = genealogy_check(5.0, k)
        assert report["ok"], report


def test_type_a_bands_avoid_next_level():
    # a type A band meets no band of the following level
    bands = classify_bands(5.0, 6)
    child = approximant_spectrum(5.0, 7)
    for band in bands:
        if band.kind is not BandKind.TYPE_A:
            continue
        for other in child:
            assert other.hi < band.lo or band.hi < other.lo


def _genealogy_scan(cur, child1, child2, tol):
    """The genealogy failures and triple overlaps by testing every pair of bands."""
    failures = []
    for band in cur:
        c1 = [c for c in child1 if band.lo - tol <= c.lo and c.hi <= band.hi + tol]
        c2 = [c for c in child2 if band.lo - tol <= c.lo and c.hi <= band.hi + tol]
        if band.kind is BandKind.TYPE_A:
            if len(c1) != 0 or len(c2) != 1 or c2[0].kind is not BandKind.TYPE_B:
                failures.append(("A", band.lo, band.hi, len(c1), len(c2)))
        else:
            ok = (len(c1) == 1 and c1[0].kind is BandKind.TYPE_A
                  and len(c2) == 2 and all(c.kind is BandKind.TYPE_B for c in c2)
                  and c2[0].hi < c1[0].lo and c1[0].hi < c2[1].lo)
            if not ok:
                failures.append(("B", band.lo, band.hi, len(c1), len(c2)))
    meets = lambda g, bands: any(b.lo - tol <= g.hi and g.lo <= b.hi + tol for b in bands)
    triple = [(g.lo, g.hi) for g in child2 if meets(g, cur) and meets(g, child1)]
    return failures, triple


def test_genealogy_matches_pairwise_scan(monkeypatch, rng):
    # band ends on a grid of tol/2 = 5e-10, so bands nest, touch and sit
    # within tol of each other in every way, two parents within 2 tol of
    # one child included
    def band_set(k):
        cuts = np.sort(rng.choice(80, size=2 * int(rng.integers(1, 12)), replace=False)) * 5e-10
        kinds = rng.choice([BandKind.TYPE_A.value, BandKind.TYPE_B.value], size=cuts.size // 2)
        return BandSet(cuts.reshape(-1, 2), kinds)

    checked = 0
    for _ in range(300):
        sets = {k: band_set(k) for k in (3, 4, 5)}
        monkeypatch.setattr("quasidyn.spectra.classify_bands", lambda lam, k: sets[k])
        report = genealogy_check(5.0, 3)
        failures, triple = _genealogy_scan(sets[3], sets[4], sets[5], 1e-9)
        assert report["failures"] == failures
        assert report["triple_overlap"] == triple
        checked += len(failures) < len(sets[3])
    assert checked > 0  # some bands passed their rule too


def test_genealogy_check_reads_its_levels_in_one_loop(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    kernel = spectra._level_crossings
    monkeypatch.setattr(spectra, "_BAND_SETS", {})
    monkeypatch.setattr(spectra, "_level_crossings", counted)
    assert genealogy_check(5.0, 8)["ok"]
    assert len(calls) == 1


def test_no_three_consecutive_small_traces():
    report = genealogy_check(5.0, 6)
    assert report["triple_overlap"] == []


# ---------------------------------------------------------------------------
# the two-variable root function and its derivative bounds

def f_pm(x, y, lam, sign):
    """Oracle: the middle-of-triple solution (x y + sign sqrt(4 lam^2 + (4-x^2)(4-y^2))) / 2.

    Given the outer two traces of a consecutive triple on the invariant
    surface, returns the middle one; the radicand must be nonnegative.
    """
    radicand = 4.0 * lam * lam + (4.0 - x * x) * (4.0 - y * y)
    if radicand < 0:
        raise DomainError("f_pm radicand is negative")
    return 0.5 * (x * y + sign * math.sqrt(radicand))


def test_f_pm_value():
    assert f_pm(2.0, 2.0, 1.0, +1) == pytest.approx(3.0, abs=1e-14)


def test_f_pm_rejects_negative_radicand():
    # (4 - x^2)(4 - y^2) = -20 overwhelms 4 lam^2 = 0.04
    with pytest.raises(DomainError):
        f_pm(3.0, 0.0, 0.1, +1)


@settings(max_examples=200, derandomize=True)
@given(x=st.floats(-2, 2), y=st.floats(-2, 2),
       lam=st.sampled_from([4.5, 5.0, 8.0]), sign=st.sampled_from([+1, -1]))
def test_f_pm_partials_bounded(x, y, lam, sign):
    dfdx, dfdy = f_pm_partials(x, y, lam, sign)
    assert abs(dfdx) <= 1.0 + 1e-12
    assert abs(dfdy) <= 1.0 + 1e-12


def test_f_pm_partials_sobol_sweep():
    report = partials_bound_check()
    assert report["ok"]
    assert report["n_samples"] >= 10_000


def test_f_pm_solves_middle_of_triple():
    lam = 5.0
    bands = approximant_spectrum(lam, 8)
    mids = np.array([0.5 * (b.lo + b.hi) for b in list(bands)[::5]])
    xs = fib_trace_orbit_grid(lam, mids, 8)
    for i in range(mids.size):
        for k in range(2, 8):
            outer_next, middle, outer_prev = xs[k + 1, i], xs[k, i], xs[k - 1, i]
            if abs(outer_next) > 2.0 or abs(outer_prev) > 2.0:
                continue
            candidates = [f_pm(outer_next, outer_prev, lam, s) for s in (+1, -1)]
            assert min(abs(middle - c) for c in candidates) < 1e-8


# ---------------------------------------------------------------------------
# quantitative reports

def test_derivative_ratio_bounds():
    for k in range(3, 9):
        report = derivative_ratio_check(5.0, k)
        assert report["ok"], report["violations"]
        assert report["max_ratio_type_a"] <= 16.0 + 1e-6
        assert report["max_ratio_type_b"] <= 32.0 + 1e-6


def test_measure_report_decay_and_widths():
    report = measure_report(5.0, 10)
    assert report["decay_exponent"] >= -report["gamma"]
    assert report["decay_respects_gamma"]
    lower = report["width_ratio_lower_bound"]
    assert all(ratio >= lower - 1e-9 for ratio in report["min_width_ratios"])
    measures = [row["measure"] for row in report["rows"]]
    assert all(b < a for a, b in zip(measures, measures[1:]))
    for row in report["rows"]:
        bands = approximant_spectrum(5.0, row["k"])
        assert row["measure"] == pytest.approx(sum(b.width for b in bands), rel=1e-12)


def test_per_level_derivative_growth():
    report = measure_report(5.0, 9)
    peaks = [row["max_abs_trace_derivative"] for row in report["rows"]]
    for a, b in zip(peaks, peaks[1:]):
        assert b / a <= 32.0 * (1.0 + 1e-9)
    assert report["c_estimate"] > 0.0


def _derivative_ratio_all_levels(lam, k, *, samples_per_band=33, tol=1e-6):
    """Oracle: the ratio check read off the whole (k + 1)-level derivative
    table, with one branch per band kind."""
    bands = classify_bands(lam, k)
    max_a = 0.0
    max_b = 0.0
    skipped = 0
    violations = []
    bound_a = lam + 11.0
    bound_b = 2.0 * lam + 22.0
    # one grid call over every band's samples, then one row per band
    _, dxs = trace_derivative_grid(lam, bands.interior_points(samples_per_band).ravel(), k)
    dxs = dxs.reshape(k + 1, len(bands), samples_per_band)
    for i, band in enumerate(bands):
        parent = k - 1 if band.kind is BandKind.TYPE_A else k - 2
        denom = dxs[parent, i]
        numer = dxs[k, i]
        ok = denom != 0.0
        skipped += int(np.sum(~ok))
        ratios = np.abs(numer[ok] / denom[ok])
        if ratios.size == 0:
            continue
        peak = float(np.max(ratios))
        if band.kind is BandKind.TYPE_A:
            max_a = max(max_a, peak)
            if peak > bound_a * (1.0 + tol) + tol:
                violations.append(("A", band.lo, band.hi, peak))
        else:
            max_b = max(max_b, peak)
            if peak > bound_b * (1.0 + tol) + tol:
                violations.append(("B", band.lo, band.hi, peak))
    return {
        "lam": lam,
        "k": k,
        "max_ratio_type_a": max_a,
        "max_ratio_type_b": max_b,
        "bound_type_a": bound_a,
        "bound_type_b": bound_b,
        "samples_per_band": samples_per_band,
        "skipped_zero_derivative": skipped,
        "violations": violations,
        "ok": not violations,
    }


@pytest.mark.parametrize("lam", [4.5, 5.0, 8.0])
def test_derivative_ratio_check_matches_the_all_levels_table(lam):
    for k in range(3, 12):
        assert derivative_ratio_check(lam, k) == _derivative_ratio_all_levels(lam, k)


def test_band_set_cache_reads_a_request_before_dropping_old_sets(monkeypatch):
    # a request mixing a missing level with cached ones that are the oldest kept
    monkeypatch.setattr(spectra, "_BAND_SETS", {})
    monkeypatch.setattr(spectra, "_BAND_SETS_KEPT", 3)
    _cached_spectra(5.0, range(1, 3))
    _cached_spectra(6.0, range(1, 2))
    assert _cached_spectra(5.0, range(1, 4)) == [approximant_spectrum(5.0, k) for k in (1, 2, 3)]
    # a read moves a band set to the newest end, so the least recently read is dropped
    _cached_spectra(5.0, range(1, 2))
    _cached_spectra(6.0, range(1, 2))
    assert list(spectra._BAND_SETS) == [(5.0, 3), (5.0, 1), (6.0, 1)]


def test_measure_report_holds_only_the_level_it_reads():
    # band sets cached: levels 0..k read for every k would peak at 21.5 MB, level k alone at ~5 MB
    report = measure_report(5.0, 15)
    tracemalloc.start()
    try:
        assert measure_report(5.0, 15) == report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    for row in report["rows"]:
        k = row["k"]
        energies = _cached_spectra(5.0, range(k, k + 1))[0].interior_points(33).ravel()
        slopes = trace_derivative_grid(5.0, energies, k)[1][k]
        assert row["max_abs_trace_derivative"] == float(np.max(np.abs(slopes)))
