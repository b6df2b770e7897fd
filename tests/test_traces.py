import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from quasidyn.lattice import (
    OVERFLOW_LIMIT,
    DomainError,
    Model,
    PotentialSpec,
    ResourceError,
    ScaleOverflowError,
    one_step_matrix,
    spectral_norm,
)
from quasidyn import traces
from quasidyn.spectra import approximant_spectrum, bound_parameters
from quasidyn.traces import (
    FIB_CONVENTION_ID,
    fib_invariant,
    fib_matrices,
    fib_trace_orbit,
    fib_trace_orbit_grid,
    fibonacci_numbers,
    indexing_convention_report,
    pd_root_certificates,
    pd_special_energies,
    subst_trace_orbit,
    subst_transfer,
    tm_root_certificates,
    tm_special_energies,
    trace_derivative_grid,
)

from conftest import brute_transfer, fib_spec


def test_fibonacci_numbers():
    npt.assert_array_equal(fibonacci_numbers(10), [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89])
    # the last level that fits in int64, and the first that would wrap
    assert fibonacci_numbers(91)[91] == 7540113804746346429
    with pytest.raises(DomainError):
        fibonacci_numbers(92)


def test_indexing_oracle_picks_site_one_product():
    report = indexing_convention_report(lam=1.0, E=0.7, kmax=8)
    assert report["adopted"] == "A(F_k)...A(1)"
    assert report["residual_adopted"] < 1e-12
    assert report["residual_rejected"] > 0.1
    assert report["convention_id"] == FIB_CONVENTION_ID
    # the recursion anchors the convention at other couplings too
    report = indexing_convention_report(lam=3.2, E=-1.1, kmax=8)
    assert report["adopted"] == "A(F_k)...A(1)"


def test_indexing_oracle_past_the_memory_cap_is_refused_before_any_site(monkeypatch):
    # F_32 = 3,524,578 sites fit the cap, F_33 = 5,702,887 do not
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(traces, "potential_values", reached)
    with pytest.raises(Reached):
        indexing_convention_report(lam=1.0, E=0.7, kmax=32)
    with pytest.raises(ResourceError, match="exceeds cap 1 GiB"):
        indexing_convention_report(lam=1.0, E=0.7, kmax=33)


@pytest.mark.parametrize("lam,energy", [(1.0, 0.0), (1.0, 0.5), (2.0, -0.8)])
def test_fib_matrices_match_brute_products(lam, energy):
    spec = fib_spec(lam)
    fib = fibonacci_numbers(5)
    mats = fib_matrices(lam, energy, 5)
    npt.assert_allclose(mats[0], one_step_matrix(spec, 0, energy), atol=1e-15)
    for k in range(1, 6):
        npt.assert_allclose(mats[k], brute_transfer(spec, int(fib[k]), 0, energy),
                            atol=1e-12)


def test_fib_matrices_unimodular_on_band():
    band = approximant_spectrum(1.0, 16)[321]
    mats = fib_matrices(1.0, 0.5 * (band.lo + band.hi), 12)
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    npt.assert_allclose(dets, 1.0, atol=1e-12)


def test_trace_orbit_matches_matrix_traces(rng):
    for _ in range(25):
        lam = rng.uniform(0.2, 4.0)
        energy = rng.uniform(-4.0, 4.0)
        orbit = fib_trace_orbit(lam, energy, 12)
        try:
            mats = fib_matrices(lam, energy, 12)
        except Exception:
            continue
        traces = np.trace(mats, axis1=1, axis2=2).real
        stop = orbit.overflow_at if orbit.overflow_at is not None else 13
        npt.assert_allclose(orbit.xs[:stop], traces[:stop], rtol=1e-9, atol=1e-9)


def test_trace_orbit_seeds_from_matrices():
    m0, m1 = fib_matrices(2.0, 0.3, 1)
    orbit = fib_trace_orbit(2.0, 0.3, 4)
    assert orbit.xs[0] == np.trace(m0).real
    assert orbit.xs[1] == np.trace(m1).real
    assert orbit.xs[2] == np.trace(m0 @ m1).real


def test_invariant_examples():
    assert fib_invariant(2.0, 2.0, 2.0) == 4.0
    assert fib_invariant(0.0, 0.0, 0.0) == 0.0


def test_invariant_constant_along_orbit():
    # lam = 1: the conserved value is 5 at every step
    for energy in (0.0, 0.5):
        orbit = fib_trace_orbit(1.0, energy, 20)
        inv = orbit.invariant_values()
        xs = orbit.xs
        for k in range(1, 19):
            if not np.isfinite(inv[k]):
                continue
            if max(abs(xs[k - 1]), abs(xs[k]), abs(xs[k + 1])) > 1e6:
                continue
            assert abs(inv[k] - 5.0) / 5.0 < 1e-9


def test_invariant_drift_random_couplings(rng):
    for _ in range(60):
        lam = rng.uniform(0.0, 4.0)
        energy = rng.uniform(-4.0, 4.0)
        orbit = fib_trace_orbit(lam, energy, 25)
        inv = orbit.invariant_values()
        target = 4.0 + lam * lam
        xs = orbit.xs
        for k in range(1, 24):
            if not np.isfinite(inv[k]):
                continue
            if max(abs(xs[k - 1]), abs(xs[k]), abs(xs[k + 1])) > 1e6:
                continue
            assert abs(inv[k] - target) / target < 1e-9


def test_orbit_flags_overflow():
    orbit = fib_trace_orbit(4.0, -4.0, 30)
    assert orbit.overflow_at is not None
    assert abs(orbit.xs[orbit.overflow_at]) > 1e150


def test_traces_bounded_on_band_energies():
    # level-3 band energies keep the whole orbit below the coupling constant bound
    params = bound_parameters(5.0)
    for row in approximant_spectrum(5.0, 3).interior_points(9):
        for energy in row:
            orbit = fib_trace_orbit(5.0, float(energy), 3)
            assert np.max(np.abs(orbit.xs[:4])) <= params.c_lambda + 1e-9


def test_grid_orbit_matches_scalar():
    energies = np.linspace(-2.0, 2.0, 11)
    grid = fib_trace_orbit_grid(1.0, energies, 10)
    for i, energy in enumerate(energies):
        orbit = fib_trace_orbit(1.0, float(energy), 10)
        stop = orbit.overflow_at if orbit.overflow_at is not None else 11
        npt.assert_allclose(grid[:stop, i], orbit.xs[:stop], rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# derivatives

def test_derivative_grid_base_cases():
    lam, energy = 1.7, 0.4
    _, dxs = trace_derivative_grid(lam, np.array([energy]), 3)
    assert dxs[0, 0] == 1.0
    assert dxs[1, 0] == 1.0
    assert dxs[2, 0] == pytest.approx(2.0 * energy - lam, abs=1e-14)


def test_derivative_grid_vs_finite_differences():
    lam, energy, h = 1.0, 0.3, 1e-6
    _, dxs = trace_derivative_grid(lam, np.array([energy]), 10)
    plus = fib_trace_orbit(lam, energy + h, 10)
    minus = fib_trace_orbit(lam, energy - h, 10)
    fd = (plus.xs - minus.xs) / (2.0 * h)
    for k in range(11):
        assert dxs[k, 0] == pytest.approx(fd[k], rel=1e-4, abs=1e-6)


def _fib_trace_exact(lam: Fraction, e: Fraction, k: int) -> Fraction:
    xs = [e, e - lam, e * (e - lam) - 2]
    while len(xs) <= k:
        xs.append(xs[-1] * xs[-2] - xs[-3])
    return xs[k]


def _kernel_slope(model: Model, lam: float, energy: float, k: int) -> float:
    from quasidyn.traces import _Jet, _level_trace

    if model is Model.FIBONACCI:
        return float(trace_derivative_grid(lam, np.array([energy]), k)[1][k, 0])
    return float(_level_trace(model, lam, k, _Jet(energy, 1.0)).d)


#: The three aperiodic models, under the short names the test ids use.
MODELS = [pytest.param(Model.FIBONACCI, id="fib"), pytest.param(Model.PERIOD_DOUBLING, id="pd"),
          pytest.param(Model.THUE_MORSE, id="tm")]


@pytest.mark.parametrize("model", MODELS)
def test_trace_slopes_match_exact_central_difference(model, rng):
    # each recursion evaluated in exact rational arithmetic; with h = 2^-120
    # the central difference equals the derivative far below float64 rounding
    exact = {Model.FIBONACCI: _fib_trace_exact, Model.PERIOD_DOUBLING: _pd_trace_exact,
             Model.THUE_MORSE: _tm_trace_exact}[model]
    h = Fraction(1, 2 ** 120)
    for lam in (1.0, 2.5, 5.0):
        for energy in rng.uniform(-2.0, 2.0 + lam, 4):
            e, lam_q = Fraction(float(energy)), Fraction(lam)
            for k in range(9):
                want = (exact(lam_q, e + h, k) - exact(lam_q, e - h, k)) / (2 * h)
                got = Fraction(_kernel_slope(model, lam, float(energy), k))
                assert abs(got - want) <= Fraction(1, 10 ** 10) * max(abs(want), 1)


def test_derivative_ratio_inside_type_a_band():
    # on an interior band contained in its predecessor, the consecutive-level
    # derivative ratio stays below lam + 11
    lam = 5.0
    from quasidyn.spectra import classify_bands, BandKind

    bands = classify_bands(lam, 7)
    a_band = next(i for i, b in enumerate(bands) if b.kind is BandKind.TYPE_A)
    energies = bands.interior_points(33)[a_band]
    _, dxs = trace_derivative_grid(lam, energies, 7)
    ratios = np.abs(dxs[7] / dxs[6])
    assert np.max(ratios) <= lam + 11.0 + 1e-6


# ---------------------------------------------------------------------------
# substitution blocks

def test_pd_explicit_blocks_at_zero_energy():
    for lam in (1.0, 2.5):
        t0, t1 = subst_transfer(Model.PERIOD_DOUBLING, lam, 0.0, 1)
        npt.assert_array_equal(t0.real, [[-1.0, lam], [0.0, -1.0]])
        npt.assert_array_equal(t1.real, -np.eye(2))
        assert np.all(t0.imag == 0) and np.all(t1.imag == 0)


def test_pd_block_power_formula():
    lam = 1.5
    t0, _ = subst_transfer(Model.PERIOD_DOUBLING, lam, 0.0, 1)
    for n in (2, 5, 11):
        expected = (-1.0) ** n * np.array([[1.0, -n * lam], [0.0, 1.0]])
        npt.assert_allclose(np.linalg.matrix_power(t0, n).real, expected, atol=1e-12)


def _literal_blocks(model, lam, energy, k):
    """Levels 0..k of the block recursions multiplied out from the one-step
    matrices, unchecked: M_k for fib, (T0_k, T1_k) for pd and tm."""
    a, b = (np.array([[energy - v, -1.0], [1.0, 0.0]], dtype=np.complex128) for v in (0.0, lam))
    levels = [a, b] if model is Model.FIBONACCI else [(a, b)]
    while len(levels) <= k:
        if model is Model.FIBONACCI:
            levels.append(levels[-2] @ levels[-1])
        else:
            t0, t1 = levels[-1]
            pd = model is Model.PERIOD_DOUBLING
            levels.append((t1 @ t0, t0 @ t0) if pd else (t1 @ t0, t0 @ t1))
    return levels[:k + 1]


@pytest.mark.parametrize("model", MODELS)
def test_blocks_are_the_literal_recursions_bit_for_bit(model):
    # each level is the plain product bit for bit, and a request is refused
    # exactly when it reaches the first recursed level past the limit
    kmax = 20 if model is Model.FIBONACCI else 15
    for lam in (0.3, 1.0, 2.5, 5.0):
        for energy in (0.0, 0.37, -1.2, 2.9, 40.0, 0.4 + 0.1j, 1e200):
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                oracle = _literal_blocks(model, lam, energy, kmax)
                peaks = [np.max(np.abs(level)) for level in oracle]
            first = 2 if model is Model.FIBONACCI else 1
            over = next((k for k in range(first, kmax + 1) if peaks[k] > OVERFLOW_LIMIT), None)
            for k in range(kmax + 1):
                get = ((lambda: fib_matrices(lam, energy, k)) if model is Model.FIBONACCI else
                       (lambda: np.array(subst_transfer(model, lam, energy, k))))
                if over is not None and k >= over:
                    with pytest.raises(ScaleOverflowError), np.errstate(all="ignore"):
                        get()
                    continue
                want = np.array(oracle[:k + 1] if model is Model.FIBONACCI else oracle[k])
                assert get().tobytes() == want.tobytes(), (lam, energy, k)
            if energy == 1e200:
                assert over == first  # the seeds pass unchecked


def test_blocks_compute_no_level_past_the_one_asked():
    # at E = 1e200 the next level's product would overflow inside matmul
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mats = fib_matrices(1.0, 1e200, 1)
        t0, t1 = subst_transfer(Model.PERIOD_DOUBLING, 1.0, 1e200, 0)
    assert mats[0, 0, 0] == 1e200 and mats[1, 0, 0] == 1e200 - 1.0
    assert t0[0, 0] == 1e200 and t1[0, 0] == 1e200 - 1.0
    # the orbit's seeds are unchecked too: its first trace stops it, and the
    # product M_0 M_1 behind x_2, which overflows here, warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fib_trace_orbit(1.0, 1e200, 5).overflow_at == 0


def test_blocks_that_stop_being_numbers_are_an_overflow():
    # at E = 1e200 (1 + i) the recursed products are NaN, which no > test catches
    with np.errstate(all="ignore"):
        with pytest.raises(ScaleOverflowError):
            fib_matrices(1.0, 1e200 + 1e200j, 3)
        for model in (Model.PERIOD_DOUBLING, Model.THUE_MORSE):
            with pytest.raises(ScaleOverflowError):
                subst_transfer(model, 1.0, 1e200 + 1e200j, 2)


def test_orbit_gate_reads_every_column():
    # y_15 of this period-doubling orbit passes the limit while x_15 does not
    orbit = subst_trace_orbit(Model.PERIOD_DOUBLING, 0.42631562053732996,
                              1.2391530320896678, 40)
    assert orbit.overflow_at == 15
    assert abs(orbit.xs[15]) <= OVERFLOW_LIMIT < abs(orbit.ys[15])
    assert np.all(np.abs(orbit.ys[:15]) <= OVERFLOW_LIMIT)
    assert np.all(np.isnan(orbit.xs[16:])) and np.all(np.isnan(orbit.ys[16:]))


def test_orbit_past_the_memory_cap_is_refused_before_it_is_allocated(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the orbit arrays were allocated")

    monkeypatch.setattr(np, "full", unreachable)
    for orbit in (lambda: fib_trace_orbit(1.0, 0.3, 10 ** 11),
                  lambda: subst_trace_orbit(Model.THUE_MORSE, 1.0, 0.3, 10 ** 11)):
        with pytest.raises(ResourceError, match="exceeds cap 1 GiB"):
            orbit()


def test_subst_transfer_refuses_other_models():
    for model in (Model.FIBONACCI, Model.FREE):
        for k in (0, 3):
            with pytest.raises(DomainError):
                subst_transfer(model, 1.0, 0.3, k)


def test_subst_traces_match_blocks():
    rng = np.random.default_rng(5)
    for model in (Model.PERIOD_DOUBLING, Model.THUE_MORSE):
        for _ in range(10):
            lam = rng.uniform(0.2, 3.0)
            energy = rng.uniform(-3.0, 3.0)
            orbit = subst_trace_orbit(model, lam, energy, 14)
            for k in range(15):
                if orbit.overflow_at is not None and k >= orbit.overflow_at:
                    break
                if abs(orbit.xs[k]) > 1e50:
                    break
                t0, t1 = subst_transfer(model, lam, energy, k)
                assert orbit.xs[k] == pytest.approx(np.trace(t0).real, rel=1e-8, abs=1e-8)
                assert orbit.ys[k] == pytest.approx(np.trace(t1).real, rel=1e-8, abs=1e-8)


def test_pd_orbit_at_zero_energy():
    orbit = subst_trace_orbit(Model.PERIOD_DOUBLING, 1.0, 0.0, 3)
    assert orbit.xs[1] == -2.0 and orbit.ys[1] == -2.0


def test_tm_traces_coincide_from_level_one(rng):
    for _ in range(10):
        lam = rng.uniform(0.2, 3.0)
        energy = rng.uniform(-3.0, 3.0)
        for k in (1, 2, 3, 5):
            t0, t1 = subst_transfer(Model.THUE_MORSE, lam, energy, k)
            assert np.trace(t0).real == pytest.approx(np.trace(t1).real, rel=1e-10, abs=1e-10)


def test_tm_two_is_fixed():
    # once the trace hits 2 it stays there
    orbit = subst_trace_orbit(Model.THUE_MORSE, 1.0, 2.0, 10)
    npt.assert_allclose(orbit.xs[3:], 2.0, atol=1e-9)


def test_tm_factorization_identity():
    # x_{k+1} - 2 = x_{k-1}^2 (x_k - 2) pointwise
    energies = np.linspace(-2.9, 3.9, 500)
    lam = 1.0
    orbits = [subst_trace_orbit(Model.THUE_MORSE, lam, float(e), 8).xs for e in energies]
    xs = np.array(orbits).T
    for k in range(2, 8):
        lhs = xs[k + 1] - 2.0
        rhs = xs[k - 1] ** 2 * (xs[k] - 2.0)
        good = np.isfinite(lhs) & np.isfinite(rhs) & (np.abs(rhs) < 1e40)
        npt.assert_allclose(lhs[good], rhs[good], rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# special energies

def test_pd_root_level_zero():
    roots = pd_special_energies(1.0, 0)
    npt.assert_allclose(roots, [0.0], atol=1e-14)
    _, t1 = subst_transfer(Model.PERIOD_DOUBLING, 1.0, 0.0, 1)
    npt.assert_array_equal(t1.real, -np.eye(2))


def test_pd_roots_level_two_contract():
    roots = pd_special_energies(1.0, 2)
    assert roots.size == 4
    for energy in roots:
        orbit = subst_trace_orbit(Model.PERIOD_DOUBLING, 1.0, float(energy), 2)
        assert abs(orbit.xs[2]) < 1e-10
        t0, _ = subst_transfer(Model.PERIOD_DOUBLING, 1.0, float(energy), 3)
        assert np.trace(t0).real == pytest.approx(-2.0, abs=1e-8)


@pytest.mark.parametrize("k", range(0, 7))
def test_pd_root_counts_and_certificates(k):
    certs = pd_root_certificates(1.0, k)
    assert len(certs) == 2 ** k
    for cert in certs:
        assert cert["trace_defect"] <= 1e-8
        assert cert["t1_plus_identity_norm"] <= 1e-8


def test_tm_special_energies_level_three():
    roots = tm_special_energies(1.0, 3)
    npt.assert_allclose(sorted(roots), [-1.0, 2.0], atol=1e-12)
    for energy in (-1.0, 2.0):
        t0, t1 = subst_transfer(Model.THUE_MORSE, 1.0, energy, 3)
        assert spectral_norm(t0 - np.eye(2)) <= 1e-8
        assert spectral_norm(t1 - np.eye(2)) <= 1e-8


def test_tm_special_energies_identity_blocks():
    for k in (4, 5, 6):
        for energy in tm_special_energies(1.0, k):
            t0, t1 = subst_transfer(Model.THUE_MORSE, 1.0, float(energy), k)
            assert spectral_norm(t0 - np.eye(2)) <= 1e-8
            assert spectral_norm(t1 - np.eye(2)) <= 1e-8


def test_tm_certificates_to_level_eight():
    for cert in tm_root_certificates(1.0, 8):
        assert cert["t0_minus_identity_norm"] <= 1e-8
        assert cert["t1_minus_identity_norm"] <= 1e-8


def test_tm_special_energy_nesting():
    previous = tm_special_energies(1.0, 3)
    for k in (4, 5, 6):
        current = tm_special_energies(1.0, k)
        for energy in previous:
            assert np.min(np.abs(current - energy)) < 1e-9
        previous = current


def test_tm_level_two_set_is_excluded():
    # energies with x_2 = 2 are dropped from the returned special set
    from quasidyn.traces import _level_trace

    roots = tm_special_energies(1.0, 6)
    x2 = _level_trace(Model.THUE_MORSE, 1.0, 2, roots)
    assert np.all(np.abs(x2 - 2.0) > 1e-9)


def _pd_trace_exact(lam: Fraction, e: Fraction, k: int) -> Fraction:
    x, y = e, e - lam
    for _ in range(k):
        x, y = x * y - 2, x * x - 2
    return x


def _tm_trace_exact(lam: Fraction, e: Fraction, j: int) -> Fraction:
    a, b = e, e - lam
    if j == 0:
        return a
    prev = a * b - 2
    if j == 1:
        return prev
    cur = a * b * prev - a * a - b * b + 2
    for _ in range(j - 2):
        prev, cur = cur, prev * prev * (cur - 2) + 2
    return cur


def _changes_sign_near(trace, e: float, h: Fraction = Fraction(1, 10 ** 13)) -> bool:
    centre = Fraction(e)
    return trace(centre - h) * trace(centre + h) < 0


def test_pd_special_energies_full_set_at_strong_coupling():
    # the grid-bracketing finder kept 152 of these 256 roots
    lam = Fraction(5, 2)
    roots = pd_special_energies(2.5, 8)
    assert roots.size == 256
    assert np.all(np.diff(roots) > 0)
    for e in roots:
        assert _changes_sign_near(lambda x: _pd_trace_exact(lam, x, 8), float(e))


def test_tm_special_energies_full_set_at_strong_coupling():
    # 2 + 4 + ... + 64 zeros of x_1 .. x_6; the grid-bracketing finder kept 94
    from quasidyn.traces import _tm_zero_sets

    lam = Fraction(5, 2)
    assert tm_special_energies(2.5, 8).size == 126
    for j, zeros in _tm_zero_sets(2.5, 8).items():
        assert zeros.hi.size == 2 ** j
        assert np.all(np.diff(zeros.hi) > 0)
        for e in zeros.hi:
            assert _changes_sign_near(lambda x: _tm_trace_exact(lam, x, j), float(e))


def test_coinciding_zeros_warn():
    with pytest.warns(RuntimeWarning, match="distinct zeros"):
        roots = pd_special_energies(5.0, 9)
    assert roots.size == 512


def test_polished_zeros_stay_in_their_brackets():
    # in the pd lambda = 5 cluster, Newton steps not clipped to their
    # Dirichlet brackets leave them and unsort the zeros
    from quasidyn.traces import _level_crossings, _period_cells, _trace_zeros

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        zeros = _trace_zeros(Model.PERIOD_DOUBLING, 5.0, [9])[9].hi
    _, ends = _level_crossings(*_period_cells(Model.PERIOD_DOUBLING, 5.0, [9], "zero set"),
                               (0.0,))[9]
    assert np.all((ends[:-1] <= zeros) & (zeros <= ends[1:]))
    assert np.all(np.diff(zeros) >= 0)


def test_special_energy_levels_are_capped():
    with pytest.raises(ResourceError):
        pd_special_energies(1.0, 13)
    with pytest.raises(ResourceError):
        tm_special_energies(1.0, 15)
    with pytest.raises(ResourceError):
        approximant_spectrum(1.0, 19)
    # refused from the level alone: no F_k array, word or row of 10^9 levels
    with pytest.raises(ResourceError):
        approximant_spectrum(5.0, 10 ** 9)
    # the site cap keeps pd k <= 12 and tm k <= 14 (4096 sites) and
    # Fibonacci k <= 18 (F_18 = 4181 sites)
    from quasidyn.traces import MAX_PERIOD_SITES, _check_period_sites

    assert MAX_PERIOD_SITES == fibonacci_numbers(18)[18]
    _check_period_sites(2 ** 12, "pd level 12")
    _check_period_sites(4181, "fib level 18")
    with pytest.raises(ResourceError):
        _check_period_sites(4182, "one site more")


def test_level_signs_past_float64_overflow_match_exact_trace():
    # at lambda = 5, k = 18 the plain float64 map gives NaN at some bracket
    # midpoints; the kernel's clipped map keeps the exact sign of x_k - c
    from quasidyn.traces import _Clip, _level_crossings, _level_trace, _period_cells

    lam, k = 5.0, 18
    _, ends = _level_crossings(*_period_cells(Model.FIBONACCI, lam, [k], "band set"), (0.0,))[k]
    trace = lambda e: _level_trace(Model.FIBONACCI, lam, k, _Clip(e)).v
    mids = 0.5 * (ends[:-1] + ends[1:])
    with np.errstate(all="ignore"):
        plain = fib_trace_orbit_grid(lam, mids, k)[k]
    lost = mids[np.isnan(plain)]
    assert lost.size > 0
    for e, x in zip(lost, trace(lost)):
        exact = _fib_trace_exact(Fraction(lam), Fraction(float(e)), k)
        for c in (-2, 0, 2):
            assert np.sign(x - c) == np.sign(exact - c)


def _scalar_crossings(ends, trace, targets):
    """Bisection of one bracket at a time in Python floats: the midpoint
    0.5 (lo + hi) until it no longer lies strictly inside, then the end
    whose trace is closer to the target."""
    q = len(ends) - 1
    value = lambda e: float(trace(np.array([e]))[0])
    out = []
    for target in targets:
        row = []
        for i in range(q):
            lo, hi = float(ends[i]), float(ends[i + 1])
            rising = (q - 1 - i) % 2 == 0
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                if (value(mid) > target) == rising:
                    hi = mid
                else:
                    lo = mid
            row.append(hi if abs(value(hi) - target) < abs(value(lo) - target) else lo)
        out.append(row)
    return np.array(out)


@pytest.mark.parametrize("model, lam, levels, targets", [
    (Model.FIBONACCI, 1.0, range(9), (-2.0, 2.0)),
    (Model.FIBONACCI, 5.0, range(9), (-2.0, 2.0)),
    (Model.PERIOD_DOUBLING, 1.0, range(6), (0.0,)),
    (Model.THUE_MORSE, 1.0, range(6), (0.0,)),
])
def test_level_crossings_match_scalar_bisection(model, lam, levels, targets):
    # the vector loop stops each bracket where a one-bracket bisection would,
    # so every crossing is the same float, for a level bisected alone and for
    # every level of the row bisected in one call
    from quasidyn.traces import _Clip, _level_crossings, _level_trace, _period_cells

    together = _level_crossings(*_period_cells(model, lam, levels, "oracle level"), targets)
    for level in levels:
        rows, walk = _period_cells(model, lam, [level], "oracle level")
        crossings, ends = _level_crossings(rows, walk, targets)[level]
        trace = lambda e: _level_trace(model, lam, level, _Clip(e)).v
        oracle = _scalar_crossings(ends, trace, targets)
        assert crossings.shape == (len(targets), rows[level].size)
        assert np.array_equal(crossings, oracle), (model, lam, level)
        crossings, ends = together[level]
        assert np.array_equal(crossings, _scalar_crossings(ends, trace, targets)), (model, lam,
                                                                                     level)


def test_levels_bisected_together_match_levels_bisected_alone():
    # levels 1..15 at lambda = 5, as `spectrum --measure` reads them: the
    # level-2 crossing of -2 just below E = 0 takes about twice the steps of
    # any other bracket, and the loop keeps stepping it after it drops the rest
    from quasidyn.traces import _level_crossings, _period_cells

    lam, levels = 5.0, range(1, 16)
    together = _level_crossings(*_period_cells(Model.FIBONACCI, lam, levels, "band set"),
                                (-2.0, 2.0))
    assert list(together) == list(levels)
    assert -1e-16 < together[2][0][0, 0] < 0.0
    for level in levels:
        alone = _level_crossings(*_period_cells(Model.FIBONACCI, lam, [level], "band set"),
                                 (-2.0, 2.0))
        for got, want in zip(together[level], alone[level]):
            assert np.array_equal(got, want), level


def test_clip_matches_clipped_float_arithmetic():
    # +, - and x on _Clip values give the parent forms bit for bit:
    # clip(a + b), clip(a + (-b)) and a * b
    from quasidyn.traces import _Clip

    values = np.array([np.inf, -np.inf, np.nan, 1e200, -1e200, 1e150, 0.0, -0.0, 1.0, -3.5])
    a, b = (x.ravel() for x in np.meshgrid(values, values))
    clip = lambda x: np.clip(x, -OVERFLOW_LIMIT, OVERFLOW_LIMIT)
    with np.errstate(all="ignore"):
        cases = [
            ((_Clip(a) + _Clip(b)).v, clip(a + b)),
            ((_Clip(a) - _Clip(b)).v, clip(a + -b)),
            ((_Clip(a) * _Clip(b)).v, a * b),
            ((_Clip(a) - 2.0).v, clip(a + -2.0)),
            ((_Clip(a) + 2.0).v, clip(a + 2.0)),
        ]
    for got, want in cases:
        assert np.array_equal(got, want, equal_nan=True)
        sign_known = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[sign_known]), np.signbit(want[sign_known]))
    # operands are not written to
    assert np.array_equal(a, np.meshgrid(values, values)[0].ravel(), equal_nan=True)


def test_clip_keeps_the_sign_of_an_overflowing_level():
    # x y - z with |x y| past float64: the product is +-inf, the level is
    # clipped to +-OVERFLOW_LIMIT with the sign of the product
    from quasidyn.traces import _Clip

    x = np.array([1e200, -1e200, 1e200, 1e100])
    y = np.array([1e200, 1e200, -1e200, 1e100])
    z = np.array([5.0, 5.0, -5.0, 1e149])
    with np.errstate(over="ignore"):
        level = (_Clip(x) * _Clip(y) - _Clip(z)).v
    assert np.array_equal(level, [OVERFLOW_LIMIT, -OVERFLOW_LIMIT, -OVERFLOW_LIMIT,
                                  OVERFLOW_LIMIT])


# ---------------------------------------------------------------------------
# double-double arithmetic

def _random_dd(rng, size):
    hi = rng.uniform(0.5, 2.0, size) * 2.0 ** rng.integers(-30, 30, size)
    hi *= rng.choice([-1.0, 1.0], size)
    lo = rng.uniform(-0.5, 0.5, size) * np.spacing(np.abs(hi))
    return hi, lo


def _exact(hi, lo) -> Fraction:
    return Fraction(float(hi)) + Fraction(float(lo))


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_double_double_matches_exact_arithmetic(op, rng):
    from quasidyn.traces import _DD

    xh, xl = _random_dd(rng, 400)
    yh, yl = _random_dd(rng, 400)
    x, y = _DD(xh, xl), _DD(yh, yl)
    got = {"add": lambda: x + y, "sub": lambda: x - y, "mul": lambda: x * y}[op]()
    for i in range(xh.size):
        a, b = _exact(xh[i], xl[i]), _exact(yh[i], yl[i])
        exact = {"add": a + b, "sub": a - b, "mul": a * b}[op]
        # sums are accurate relative to the operand sizes, products relative
        # to the product
        scale = abs(a) + abs(b) if op != "mul" else abs(exact)
        assert abs(_exact(got.hi[i], got.lo[i]) - exact) <= scale * Fraction(1, 2 ** 100)


def test_double_double_takes_floats_and_numpy_scalars():
    from quasidyn.traces import _DD

    third = _DD(1.0 / 3.0)
    for other in (2.0, np.float64(2.0)):
        for value in (third * other, third + other, third - other):
            assert isinstance(value, _DD)
        # a number enters on the right only; on the left it raises, NumPy scalars too
        with pytest.raises(TypeError):
            other * third
    assert (_DD(0.5) * np.float64(2.0)).hi == 1.0


# ---------------------------------------------------------------------------
# value-and-derivative arithmetic

def _random_float(rng, size):
    return rng.choice([-1.0, 1.0], size) * rng.uniform(0.5, 2.0, size) * 2.0 ** rng.integers(-20, 20, size)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_jet_matches_exact_product_rule(op, rng):
    from quasidyn.traces import _Jet

    xv, xd, yv, yd = (_random_float(rng, 200) for _ in range(4))
    got = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
           "mul": lambda x, y: x * y}[op](_Jet(xv, xd), _Jet(yv, yd))
    for i in range(xv.size):
        a, da, b, db = (Fraction(float(arr[i])) for arr in (xv, xd, yv, yd))
        value, slope, scale = {
            "add": (a + b, da + db, abs(da) + abs(db)),
            "sub": (a - b, da - db, abs(da) + abs(db)),
            "mul": (a * b, da * b + a * db, abs(da * b) + abs(a * db)),
        }[op]
        # one rounding for the value, at most three for the slope
        assert abs(Fraction(float(got.v[i])) - value) <= abs(value) * Fraction(1, 2 ** 53)
        assert abs(Fraction(float(got.d[i])) - slope) <= scale * Fraction(1, 2 ** 51)


def test_jet_takes_floats_and_numpy_scalars():
    from quasidyn.traces import _Jet

    jet = _Jet(3.0, 0.5)
    for other in (2.0, np.float64(2.0)):
        for value, want in ((jet * other, (6.0, 1.0)), (jet + other, (5.0, 0.5)),
                            (jet - other, (1.0, 0.5))):
            assert isinstance(value, _Jet)
            assert (value.v, value.d) == want
    assert (jet * jet).d == 3.0


# ---------------------------------------------------------------------------
# the one walk

def _spelled_out(model, lam, e, count):
    """The first ``count`` levels of each map, written out from its seeds at e."""
    if model is Model.FIBONACCI:
        xs = [e, e - lam, e * (e - lam) - 2.0]
        while len(xs) < count:
            xs.append(xs[-1] * xs[-2] - xs[-3])
        return xs[:count]
    if model is Model.PERIOD_DOUBLING:
        levels = [(e, e - lam)]
        while len(levels) < count:
            x, y = levels[-1]
            levels.append((x * y - 2.0, x * x - 2.0))
        return levels
    a, b = e, e - lam
    xs = [a * b - 2.0]
    xs.append(a * b * xs[0] - (a * a + b * b) + 2.0)
    while len(xs) < count - 1:
        xs.append(xs[-2] * xs[-2] * (xs[-1] - 2.0) + 2.0)
    return [(a, b)] + [(x, x) for x in xs[:count - 1]]


def _parts(level):
    """The float64 arrays that hold one level (a pair of traces, or one)."""
    if isinstance(level, tuple):
        return [part for x in level for part in _parts(x)]
    from quasidyn.traces import _DD, _Clip, _Jet

    if isinstance(level, _DD):
        return [level.hi, level.lo]
    if isinstance(level, _Jet):
        return [level.v, level.d]
    return [level.v if isinstance(level, _Clip) else level]


@pytest.mark.parametrize("number", ["float64", "dd", "jet", "clip"])
@pytest.mark.parametrize("model", [Model.FIBONACCI, Model.PERIOD_DOUBLING, Model.THUE_MORSE])
def test_walk_is_each_map_from_its_seeds_bit_for_bit(model, number):
    from itertools import islice

    from quasidyn.traces import _DD, _Clip, _Jet, _walk

    # energies far off the bands, where levels pass the float range
    energies = np.linspace(-7.0, 10.0, 69)
    make = {"float64": lambda: energies.copy(),
            "dd": lambda: _DD(energies, np.zeros_like(energies)),
            "jet": lambda: _Jet(energies, np.ones_like(energies)),
            "clip": lambda: _Clip(energies.copy())}
    count = 24
    with np.errstate(over="ignore", invalid="ignore"):
        got = list(islice(_walk(model, 2.5, make[number]()), count))
        want = _spelled_out(model, 2.5, make[number](), count)
    assert len(got) == len(want) == count
    got_parts = [p for level in got for p in _parts(level)]
    want_parts = [p for level in want for p in _parts(level)]
    for g, w in zip(got_parts, want_parts):
        assert np.array_equal(g, w, equal_nan=True)
    if number != "clip":
        assert not all(np.isfinite(p).all() for p in got_parts)
