import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidyn import dynamics
from quasidyn.dynamics import (
    AmplitudeProfile,
    PowerlawReport,
    TransferNorms,
    Verdict,
    bound_slope,
    complex_energy_bound_check,
    evolve_state,
    growth_exponent,
    moment_series,
    moments,
    profile_resolvent,
    profile_time,
    profiles_time_ladder,
    resolvent_tail_scaling,
    resolvent_vector,
    transfer_norms_from_origin,
    zeckendorf_bound_check,
)
from quasidyn.lattice import (
    MAX_WORD_LENGTH,
    DomainError,
    Geometry,
    LatticeWindow,
    Model,
    PotentialSpec,
    ResourceError,
    ScaleOverflowError,
    TruncationError,
    potential_values,
    spectral_norm,
    _transfer_prefixes,
    transfer_matrix,
)
from quasidyn.spectra import approximant_spectrum, bound_parameters
from quasidyn.traces import fibonacci_numbers

from conftest import brute_transfer, fib_spec

FREE = PotentialSpec(Model.FREE)


# ---------------------------------------------------------------------------
# resolvent vectors

def test_resolvent_single_site_toy():
    spec = PotentialSpec(Model.EXPLICIT_PERIODIC, 0.7, seed="1", geometry=Geometry.HALF_LINE)
    window = LatticeWindow(1, 1, Geometry.HALF_LINE)
    z = 0.2 + 0.9j
    phi = resolvent_vector(spec, z, window)
    assert phi[0] == pytest.approx(1.0 / (0.7 - z), rel=1e-14)


def test_resolvent_defining_equations():
    spec = fib_spec(1.0)
    window = LatticeWindow(-80, 80)
    z = 0.3 + 0.05j
    phi = resolvent_vector(spec, z, window)
    i = window.index
    v1 = 1.0  # fibonacci site-1 value at unit coupling
    assert phi[i(0)] + phi[i(2)] + (v1 - z) * phi[i(1)] == pytest.approx(1.0, abs=1e-12)
    half = PotentialSpec(Model.FIBONACCI, 1.0, Geometry.HALF_LINE)
    hw = LatticeWindow(1, 120, Geometry.HALF_LINE)
    phi_h = resolvent_vector(half, z, hw)
    assert phi_h[1] + (v1 - z) * phi_h[0] == pytest.approx(1.0, abs=1e-12)


def test_resolvent_decays_for_free_chain():
    window = LatticeWindow(-120, 120)
    phi = resolvent_vector(FREE, 1j, window)
    mags = np.abs(phi)
    center = window.index(1)
    assert mags[center] > 1e3 * mags[-1]
    tail = mags[center + 10:center + 60]
    slope = np.polyfit(np.arange(tail.size), np.log(tail), 1)[0]
    # the decaying branch of u ξ^n with ξ + 1/ξ = i has |ξ| = (sqrt5 - 1)/2
    assert slope == pytest.approx(math.log((math.sqrt(5.0) - 1.0) / 2.0), abs=1e-3)


def test_resolvent_truncation_guard():
    # a whole-line window too small for the decay leaves its weight on the edges
    window = LatticeWindow(-6, 6)
    phi = resolvent_vector(FREE, 0.1 + 0.01j, window)
    assert dynamics._far_edge_share(window, np.abs(phi) ** 2) > dynamics.EDGE_MASS_TOL
    window = LatticeWindow(-3000, 3000)
    phi = resolvent_vector(FREE, 0.1 + 0.01j, window)
    assert dynamics._far_edge_share(window, np.abs(phi) ** 2) < dynamics.EDGE_MASS_TOL


def test_resolvent_half_line_boundary_is_not_a_truncation_edge():
    # site 1 is the physical boundary and holds the source, so only the far
    # end of a half-line window counts toward the truncation weight
    spec = PotentialSpec(Model.THUE_MORSE, 1.0, Geometry.HALF_LINE)
    window = LatticeWindow(1, 400, Geometry.HALF_LINE)
    weights = np.abs(resolvent_vector(spec, 0.3 + 0.1j, window)) ** 2
    assert weights[0] / np.sum(weights) > dynamics.EDGE_MASS_TOL  # counted, it would fail
    assert dynamics._far_edge_share(window, weights) == weights[-1] / np.sum(weights)
    assert dynamics._far_edge_share(window, weights) < 1e-20
    small = LatticeWindow(1, 40, Geometry.HALF_LINE)
    phi = resolvent_vector(spec, 0.3 + 0.01j, small)
    assert dynamics._far_edge_share(small, np.abs(phi) ** 2) > dynamics.EDGE_MASS_TOL


def test_resolvent_matches_transfer_propagation():
    spec = fib_spec(1.0)
    window = LatticeWindow(-300, 300)
    z = 0.3 + 0.05j
    phi = resolvent_vector(spec, z, window)
    i = window.index
    phi1 = np.array([phi[i(2)], phi[i(1)]])
    for n in (5, 15, 40, 80):
        t = transfer_matrix(spec, n, 1, z)
        amplification = np.linalg.norm(t) * np.linalg.norm(phi1)
        predicted = t @ phi1
        actual = np.array([phi[i(n + 1)], phi[i(n)]])
        if amplification / np.linalg.norm(actual) > 1e6:
            continue
        npt.assert_allclose(predicted, actual, rtol=1e-8)


# ---------------------------------------------------------------------------
# time evolution

def test_evolution_starts_at_delta():
    window = LatticeWindow(-30, 30)
    psi = evolve_state(FREE, 0.0, window)
    expected = np.zeros(window.size, dtype=complex)
    expected[window.index(1)] = 1.0
    npt.assert_array_equal(psi, expected)


def test_evolution_is_unitary():
    spec = fib_spec(1.0)
    window = LatticeWindow(-2100, 2100)
    for t in (1.0, 100.0, 1000.0):
        psi = evolve_state(spec, t, window)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10


def test_evolution_against_dense_diagonalization():
    window = LatticeWindow(-255, 256)
    h = np.zeros((window.size, window.size))
    idx = np.arange(window.size - 1)
    h[idx, idx + 1] = 1.0
    h[idx + 1, idx] = 1.0
    vals, vecs = np.linalg.eigh(h)
    delta = np.zeros(window.size)
    delta[window.index(1)] = 1.0
    for t in (10.0, 50.0):
        dense = vecs @ (np.exp(-1j * vals * t) * (vecs.T @ delta))
        cheb = evolve_state(FREE, t, window)
        assert np.linalg.norm(dense - cheb) <= 1e-8


def test_evolution_keeps_its_phase_off_the_spectral_center():
    # Thue-Morse at lambda = 2.5 has its spectrum in [-2, 4.5], so the expansion's
    # center is 1.25: the phase e^{-i 1.25 t} that the samples leave out must be
    # carried on psi (the free chain, centered at 0, cannot see it)
    spec = PotentialSpec(Model.THUE_MORSE, 2.5)
    window = LatticeWindow(-200, 200)
    v = potential_values(spec, window.sites())
    vals, vecs = np.linalg.eigh(np.diag(v) + np.diag(np.ones(window.size - 1), 1)
                                + np.diag(np.ones(window.size - 1), -1))
    start = vecs[window.index(1)]
    for t in (7.0, 40.0):
        dense = vecs @ (np.exp(-1j * vals * t) * start)
        assert np.linalg.norm(evolve_state(spec, t, window) - dense) <= 1e-12


def test_times_that_are_not_finite_are_refused(monkeypatch):
    # refused before any potential is built
    def no_potential(*args):
        raise AssertionError("potential built")

    monkeypatch.setattr(dynamics, "_window_potential", no_potential)
    monkeypatch.setattr(dynamics, "default_window_radius", no_potential)
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    window = LatticeWindow(-30, 30)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            evolve_state(spec, t, window)
    for T in (math.inf, math.nan):
        with pytest.raises(DomainError, match="positive and finite"):
            profiles_time_ladder(spec, [T])
        with pytest.raises(DomainError, match="positive and finite"):
            profiles_time_ladder(spec, [10.0, T], window=window)
        with pytest.raises(DomainError, match="positive and finite"):
            profile_resolvent(spec, T)


def test_times_past_the_float_range_of_their_window_are_refused(monkeypatch):
    # from about T = 3.7e306 the free chain's grid, 48 T cells, and from 7.5e306
    # the default window, 24 T sites, cannot be counted in floats
    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(dynamics, "_window_potential", no_window)
    monkeypatch.setattr(dynamics, "default_window_radius", no_window)
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    for T in (1e307, 1.7e308):
        with pytest.raises(ResourceError, match="float range"):
            profiles_time_ladder(spec, [10.0, T])
    with pytest.raises(ResourceError, match="float range"):
        profile_resolvent(FREE, 1e307, window=LatticeWindow(-10, 10))


def test_resolvent_grid_has_at_least_two_cells():
    # ceil(12 x 4T) is one cell for T <= 1/48; the spacing needs two
    for T in (0.01, 0.001):
        prof = profile_resolvent(FREE, T)
        assert prof.meta["grid_points"] == 2
        assert prof.meta["mass_identity_drift"] <= 1e-12


def test_profile_routes_past_the_memory_cap_are_refused_before_the_potential(monkeypatch):
    # each window would take more than 1 GiB, whatever the budget
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(dynamics, "_window_potential", reached)
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    for call in (lambda: profiles_time_ladder(spec, [1e300]),
                 lambda: profile_resolvent(spec, 1e300), lambda: profile_time(spec, 1e9)):
        with pytest.raises(ResourceError, match="time route .* exceeds cap 1 GiB"):
            call()
    # the largest half-line window that fits a one-time ladder passes, one site more does not
    half = PotentialSpec(Model.THUE_MORSE, 1.0, Geometry.HALF_LINE)
    largest = dynamics.MAX_SWEEP_BYTES // (dynamics._TIME_BYTES_PER_SITE + 16)
    with pytest.raises(Reached):
        profile_time(half, 10.0, window=LatticeWindow(1, largest, Geometry.HALF_LINE))
    with pytest.raises(ResourceError, match="exceeds cap 1 GiB"):
        profile_time(half, 10.0, window=LatticeWindow(1, largest + 1, Geometry.HALF_LINE))


def test_solve_and_evolution_past_the_memory_cap_are_refused_before_any_array(monkeypatch):
    # 2e9 sites: numpy's MemoryError, for 14.9 and 29.8 GiB, came before any cap
    def reached(*args):
        raise AssertionError("an array was built")

    monkeypatch.setattr(dynamics, "_window_potential", reached)
    monkeypatch.setattr(dynamics, "_source_state", reached)
    window = LatticeWindow(-10 ** 9, 10 ** 9)
    with pytest.raises(ResourceError, match="resolvent vector .* exceeds cap 1 GiB"):
        resolvent_vector(PotentialSpec(Model.THUE_MORSE, 1.0), 0.3 + 0.5j, window)
    with pytest.raises(ResourceError, match="evolution .* exceeds cap 1 GiB"):
        evolve_state(PotentialSpec(Model.FIBONACCI, 1.0), 5.0, window)


def test_solve_and_evolution_memory_is_within_their_charge():
    # the window potential is built inside the count, as it is after the check
    window = LatticeWindow(-40000, 40000)
    for spec, call, per_site in (
            (PotentialSpec(Model.THUE_MORSE, 1.0),
             lambda spec: resolvent_vector(spec, 0.3 + 0.5j, window),
             dynamics._SOLVE_BYTES_PER_SITE),
            (PotentialSpec(Model.FIBONACCI, 1.0), lambda spec: evolve_state(spec, 60.0, window),
             dynamics._TIME_BYTES_PER_SITE)):
        call(spec)  # scipy's import, on the solve's first call, is not charged
        dynamics._window_potential.cache_clear()
        tracemalloc.start()
        try:
            call(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_site * window.size


def test_resolvent_grid_past_the_memory_cap_is_refused(monkeypatch):
    # 9.6e6 grid energies at T = 2e5: the 21-site window fits, the grid does not
    def no_quadrature(*args):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(dynamics, "_resolvent_weights", no_quadrature)
    with pytest.raises(ResourceError, match="resolvent route .* exceeds cap 1 GiB"):
        profile_resolvent(FREE, 2e5, window=LatticeWindow(-10, 10))


def test_profile_memory_is_within_its_charge():
    # the window potential is built inside the count, as it is after the check
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    for T_values in ([20.0], list(np.geomspace(4.0, 128.0, 7))):
        dynamics._window_potential.cache_clear()
        tracemalloc.start()
        try:
            prof = profiles_time_ladder(spec, T_values)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (dynamics._TIME_BYTES_PER_SITE + 16 * len(T_values)) * prof.window.size
    dynamics._window_potential.cache_clear()
    tracemalloc.start()
    try:
        prof = profile_resolvent(spec, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dynamics._RESOLVENT_BYTES_PER_ENERGY * prof.meta["grid_points"]


def _dense_ladder(spec, window, T_values, dt, cutoff=6.0):
    """Trapezoid sums of |psi(t)|^2 from np.linalg.eigh of the window
    Hamiltonian written out entry by entry."""
    v = potential_values(spec, window.sites())
    h = np.zeros((window.size, window.size))
    for i in range(window.size):
        h[i, i] = v[i]
        if i + 1 < window.size:
            h[i, i + 1] = h[i + 1, i] = 1.0
    vals, vecs = np.linalg.eigh(h)
    start = vecs[window.index(1)]
    n_steps = math.ceil(cutoff * max(T_values) / dt)
    probs = [np.abs(vecs @ (np.exp(-1j * vals * j * dt) * start)) ** 2
             for j in range(n_steps + 1)]
    profiles = []
    for T in T_values:
        acc = np.zeros(window.size)
        for j, prob in enumerate(probs):
            if j * dt <= cutoff * T + 0.5 * dt:
                acc += (0.5 if j == 0 else 1.0) * math.exp(-2.0 * j * dt / T) * prob
        profiles.append((2.0 / T) * dt * acc)
    return profiles


@pytest.mark.parametrize("geometry, window", [
    (Geometry.WHOLE_LINE, LatticeWindow(-130, 130)),
    (Geometry.HALF_LINE, LatticeWindow(1, 130, Geometry.HALF_LINE)),
])
def test_time_ladder_against_dense_diagonalization(geometry, window):
    # the step is T_min/8 = 0.1625, so 263 grid steps: sixteen long steps of
    # 16 and a last one of 7; the cutoffs 6T = 7.8, 17.4 and 42.6 end on grid
    # steps 48 (the last of the third long step), 107 (inside the seventh)
    # and 262 (inside the last)
    spec = PotentialSpec(Model.THUE_MORSE, 1.0, geometry)
    T_values = [1.3, 2.9, 7.1]
    profiles = profiles_time_ladder(spec, T_values, window=window)
    dt = profiles[0].meta["dt"]
    assert dt == 1.3 / 8
    assert [round(prof.meta["t_max"] / dt) for prof in profiles] == [48, 107, 262]
    for prof, dense in zip(profiles, _dense_ladder(spec, window, T_values, dt)):
        assert np.max(np.abs(prof.a - dense)) <= 1e-13 * np.max(dense)


def test_evolution_backward_in_time_is_the_conjugate():
    # H is real, so e^{itH} delta_1 is the complex conjugate of e^{-itH} delta_1
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    window = LatticeWindow(-200, 200)
    npt.assert_allclose(evolve_state(spec, -30.0, window),
                        np.conj(evolve_state(spec, 30.0, window)), rtol=0, atol=1e-14)


def test_evolution_order_cap(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_CHEBYSHEV_ORDER", 64)
    window = LatticeWindow(-900, 900)
    with pytest.raises(ResourceError):
        evolve_state(FREE, 400.0, window)


# ---------------------------------------------------------------------------
# Bessel coefficients: Miller's recurrence against scipy's jv and mpmath

def _jv_order(x, tol, max_order):
    """The Chebyshev order rule on scipy's jv, one jv block per candidate."""
    from scipy.special import jv

    x = np.asarray(x, dtype=np.float64)[:, None]
    k = int(np.abs(x).max()) + 8
    while True:
        if k > max_order:
            raise ResourceError("Chebyshev expansion order cap exceeded")
        if np.all(np.abs(jv(np.arange(k + 5), x)[:, k:]) < tol):
            return k
        k += max(4, k // 8)


@pytest.mark.parametrize("x, orders", [
    (25.2, range(58)),
    # mpmath takes ~30 ms per order here: the oscillatory, turning and tail regions
    (2000.0, [0, 1, 1000, 1900, 2000, 2100, 2259]),
])
def test_bessel_coefficients_beat_jv_against_mpmath(x, orders):
    import mpmath
    from scipy.special import jv

    coeff = dynamics._chebyshev_coefficients(np.array([x]), 1e-15, 1 << 17)[0]
    orders = np.array(orders)
    assert orders[-1] < coeff.size
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.besselj(int(k), x)) for k in orders])
    ours = np.max(np.abs(coeff[orders] - exact))
    assert ours <= np.max(np.abs(jv(orders, x) - exact))
    assert ours < 5e-16


def test_bessel_block_at_large_argument_does_not_depend_on_its_start():
    # an argument of the size evolve_state reaches by t ~ 6000, where mpmath
    # does not converge: a start 400 orders higher is the oracle
    x = np.array([19000.0])
    coeff = dynamics._chebyshev_coefficients(x, 1e-15, 1 << 17)
    top = coeff.shape[1] - 1
    later = dynamics._bessel_block(x, top, top + 405)
    assert np.max(np.abs(coeff - later)) < 4e-15


def test_bessel_rows_at_zero_and_negative_arguments():
    from scipy.special import jv

    x = np.array([0.0, -0.0, 1e-300, -1e-9, 3.7, -3.7, 25.2, -25.2])
    coeff = dynamics._chebyshev_coefficients(x, 1e-15, 1 << 17)
    for row in coeff[:2]:
        assert row[0] == 1.0 and not np.any(row[1:])
    sign = (-1.0) ** np.arange(coeff.shape[1])
    npt.assert_array_equal(coeff[5], sign * coeff[4])
    npt.assert_array_equal(coeff[7], sign * coeff[6])
    npt.assert_allclose(coeff, jv(np.arange(coeff.shape[1]), x[:, None]), rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2000), z=st.floats(0.0, 1.0))
def test_kapteyn_bound_bounds_jv(n, z):
    from scipy.special import jv

    x = z * n
    bound = dynamics._kapteyn_bound(n, x)
    ys = x * np.linspace(0.0, 1.0, 9)
    assert np.all(np.abs(jv(n, ys)) <= bound * (1.0 + 1e-12) + 1e-300)
    assert dynamics._kapteyn_bound(n + 1, x) <= bound


def test_chebyshev_order_is_the_jv_rule():
    cases = [h * dt * np.arange(1, 17) for h in (2.1, 2.625, 3.15, 9.45) for dt in (0.5, 0.37, 0.1)]
    cases += [np.array([x]) for x in (0.3, 5.0, 94.5, 840.0)]
    for x in cases:
        assert dynamics._chebyshev_coefficients(x, 1e-15, 1 << 17).shape[1] - 1 \
            == _jv_order(x, 1e-15, 1 << 17)
    # a cap between the first candidate and the order: refused the same way
    x = np.array([100.0])
    for cap in (108, 110, 120, 121, 140):
        try:
            expected = _jv_order(x, 1e-15, cap)
        except ResourceError:
            with pytest.raises(ResourceError, match="order cap exceeded"):
                dynamics._chebyshev_coefficients(x, 1e-15, cap)
        else:
            assert dynamics._chebyshev_coefficients(x, 1e-15, cap).shape[1] - 1 == expected


def test_order_cap_is_refused_before_the_recurrence(monkeypatch):
    def no_recurrence(*args):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(dynamics, "_bessel_block", no_recurrence)
    monkeypatch.setattr(dynamics, "MAX_CHEBYSHEV_ORDER", 64)
    with pytest.raises(ResourceError):
        evolve_state(FREE, 400.0, LatticeWindow(-900, 900))


@pytest.mark.parametrize("lam, ladder, order, matvecs", [
    # the counters with scipy's jv coefficients
    (1.0, [4.0, 16.0, 64.0], 51, 2448),
    (2.5, [4.0, 16.0, 64.0], 60, 2880),
])
def test_time_ladder_work_is_unchanged(lam, ladder, order, matvecs):
    meta = profiles_time_ladder(PotentialSpec(Model.THUE_MORSE, lam), ladder)[-1].meta
    assert (meta["chebyshev_order"], meta["matvecs"]) == (order, matvecs)


def test_time_ladder_work_below_t_4():
    # Thue-Morse at lambda = 0.3 has its spectrum in [-2, 2.3], so the
    # expansion's half-width is 0.525 * 4.3; the step is T_min/8 = 0.25, and
    # 6 * 32 / 0.25 = 768 grid steps make 48 long steps of 16 samples each
    meta = profiles_time_ladder(PotentialSpec(Model.THUE_MORSE, 0.3), [2.0, 8.0, 32.0])[-1].meta
    order = _jv_order(0.525 * 4.3 * 0.25 * np.arange(1, 17), 1e-15, 1 << 17)
    assert (meta["dt"], meta["chebyshev_order"], meta["matvecs"]) == (0.25, order, 48 * order)


# ---------------------------------------------------------------------------
# profiles

def test_time_profile_mass_and_positivity():
    prof = profile_time(FREE, 20.0)
    expected_mass = 1.0 - math.exp(-12.0)
    assert prof.total_mass == pytest.approx(expected_mass, abs=5e-3)
    assert np.all(prof.a >= 0.0)
    assert prof.method == "time-average"


def test_time_profile_concentrates_at_short_times():
    window = LatticeWindow(-80, 80)
    prof = profile_time(FREE, 0.05, window=window)
    assert prof.a[window.index(1)] / prof.total_mass > 0.95


def test_time_profile_mass_at_short_times():
    # the step T/8 keeps the trapezoid's relative mass error at
    # (h/T) coth(h/T) - 1 = 5.2e-3, as at T = 4 with the step 0.5
    for T in (0.05, 0.2, 0.5, 1.0, 2.0):
        prof = profile_time(FREE, T)
        assert prof.total_mass == pytest.approx(1.0 - math.exp(-12.0), abs=6e-3), T


def test_half_line_profile_mass():
    spec = PotentialSpec(Model.FIBONACCI, 1.0, Geometry.HALF_LINE)
    prof = profile_time(spec, 10.0)
    assert prof.window.geometry is Geometry.HALF_LINE
    assert prof.total_mass == pytest.approx(1.0 - math.exp(-12.0), abs=5e-3)


def test_time_ladder_refuses_a_window_smaller_than_the_wave():
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    T_values = [4.0, 16.0, 64.0]
    for prof in profiles_time_ladder(spec, T_values):
        assert prof.meta["far_edge_share"] < 1e-30
    with pytest.raises(TruncationError):
        profiles_time_ladder(spec, T_values, window=LatticeWindow(-40, 40))
    half = PotentialSpec(Model.THUE_MORSE, 1.0, Geometry.HALF_LINE)
    with pytest.raises(TruncationError):
        profiles_time_ladder(half, T_values, window=LatticeWindow(1, 40, Geometry.HALF_LINE))


def test_resolvent_profile_refuses_a_window_smaller_than_the_wave():
    # 9.07e-2 of the T = 100 free-chain mass sits on the edges of [-10, 10]; the
    # time route refuses the same window by the same rule
    window = LatticeWindow(-10, 10)
    with pytest.raises(TruncationError, match="far-edge mass share 9.070e-02 .* enlarge the window"):
        profile_resolvent(FREE, 100.0, window=window)
    with pytest.raises(TruncationError, match="enlarge the window"):
        profile_time(FREE, 100.0, window=window)
    assert 0.0 <= profile_resolvent(FREE, 20.0).meta["far_edge_share"] <= dynamics.EDGE_MASS_TOL


def test_light_cone_slices_match_a_whole_window_sweep(monkeypatch):
    from quasidyn import dynamics

    ladder = [20.0, 60.0, 200.0]
    sliced = profiles_time_ladder(FREE, ladder)
    monkeypatch.setattr(dynamics, "_cone_radius", lambda t: 1 << 40)
    whole = profiles_time_ladder(FREE, ladder)
    for a, b in zip(sliced, whole):
        assert np.max(np.abs(a.a - b.a)) <= 1e-12 * np.max(b.a)
        assert a.meta["matvec_site_steps"] < b.meta["matvec_site_steps"]
    assert whole[-1].meta["matvec_site_steps"] == whole[-1].meta["matvecs"] * whole[-1].window.size


def test_slice_too_narrow_for_the_wave_sweeps_the_whole_window(monkeypatch):
    # a slice three sites wide loses the wave at once: the kernel falls back
    # to the whole window instead of truncating
    from quasidyn import dynamics

    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    ladder = [4.0, 16.0, 64.0]
    reference = profiles_time_ladder(spec, ladder)
    monkeypatch.setattr(dynamics, "_cone_radius", lambda t: 1)
    narrow = profiles_time_ladder(spec, ladder)
    for a, b in zip(narrow, reference):
        assert np.max(np.abs(a.a - b.a)) <= 1e-12 * np.max(b.a)
        assert a.meta["far_edge_share"] < 1e-30
    meta = narrow[-1].meta
    # the first long step ran twice: on the narrow slice, then on the window
    assert meta["matvec_site_steps"] == (meta["matvecs"] - meta["chebyshev_order"]) \
        * narrow[-1].window.size + meta["chebyshev_order"] * 3
    psi = evolve_state(spec, 5.0, LatticeWindow(-40, 40))
    monkeypatch.undo()
    npt.assert_allclose(psi, evolve_state(spec, 5.0, LatticeWindow(-40, 40)), atol=1e-14)


def test_time_ladder_reports_its_work_and_health():
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    profiles = profiles_time_ladder(spec, [4.0, 16.0, 64.0])
    meta = profiles[-1].meta
    n_steps = round(meta["t_max"] / meta["dt"])
    assert meta["block_samples"] == 16
    assert meta["matvecs"] == meta["chebyshev_order"] * math.ceil(n_steps / 16)
    assert 0 < meta["matvec_site_steps"] < meta["matvecs"] * profiles[-1].window.size
    assert meta["norm_drift"] < 1e-12
    # the slice edges carry some weight, far below the truncation tolerance
    assert 0.0 < meta["far_edge_share"] < 1e-30
    assert all(prof.meta["matvecs"] == meta["matvecs"] for prof in profiles)


def test_ladder_shares_one_trajectory():
    ladder = profiles_time_ladder(fib_spec(1.0), [10.0, 25.0])
    single = profile_time(fib_spec(1.0), 10.0, window=ladder[0].window)
    npt.assert_allclose(ladder[0].a, single.a, rtol=1e-10, atol=1e-14)


def test_resolvent_profile_mass_and_agreement():
    prof_r = profile_resolvent(FREE, 50.0)
    assert prof_r.total_mass == pytest.approx(1.0, abs=0.01)
    assert np.all(prof_r.a >= 0.0)
    prof_t = profile_time(FREE, 20.0)
    prof_r20 = profile_resolvent(FREE, 20.0, window=prof_t.window)
    l1 = np.sum(np.abs(prof_t.a - prof_r20.a))
    assert l1 / prof_t.total_mass <= 0.02


def _dense_green_columns(v: np.ndarray, z: np.ndarray, src: int) -> np.ndarray:
    """|G(n, src; z)|^2 as (energy, site), from the window Hamiltonian built
    entry by entry and one dense solve per energy."""
    n = v.size
    H = np.zeros((n, n))
    for i in range(n):
        H[i, i] = v[i]
        if i + 1 < n:
            H[i, i + 1] = H[i + 1, i] = 1.0
    rhs = np.zeros(n)
    rhs[src] = 1.0
    return np.array([np.linalg.solve(H - zk * np.eye(n), rhs) for zk in z])


@pytest.mark.parametrize("geometry, window", [
    (Geometry.WHOLE_LINE, LatticeWindow(-40, 40)),
    (Geometry.HALF_LINE, LatticeWindow(1, 80, Geometry.HALF_LINE)),
])
@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_resolvent_weights_match_dense_solves(geometry, window, lam):
    v = potential_values(PotentialSpec(Model.FIBONACCI, lam, geometry=geometry), window.sites())
    src = window.index(1)
    inside = np.linspace(-2.5, lam + 2.5, 61)
    far = np.array([-1e4, -300.0, 300.0, 1e4])
    energies = np.concatenate([inside, far])
    G = _dense_green_columns(v, energies + 0.05j, src)
    expected = np.sum(np.abs(G) ** 2, axis=0)
    # the farthest energy puts |G|^2 at the last site below 1e-300
    assert np.abs(G[-1, -1]) ** 2 < 1e-300
    totals, green, _ = dynamics._resolvent_weights(v, energies, 0.05, src)
    assert np.all(np.isfinite(totals)) and np.all(totals >= 0.0)
    assert np.max(np.abs(totals - expected)) <= 1e-12 * np.max(expected)
    npt.assert_allclose(green, G[:, src], rtol=1e-12)
    far_totals, _, _ = dynamics._resolvent_weights(v, far, 0.05, src)
    far_expected = np.sum(np.abs(G[-far.size:]) ** 2, axis=0)
    assert np.all(np.isfinite(far_totals)) and np.all(far_totals >= 0.0)
    assert np.max(np.abs(far_totals - far_expected)) <= 1e-12 * np.max(far_expected)


@pytest.mark.parametrize("eta", [0.05, 1e-3])
@pytest.mark.parametrize("model, geometry, window", [
    (Model.THUE_MORSE, Geometry.WHOLE_LINE, LatticeWindow(-300, 300)),
    (Model.FIBONACCI, Geometry.WHOLE_LINE, LatticeWindow(-300, 300)),
    (Model.PERIOD_DOUBLING, Geometry.HALF_LINE, LatticeWindow(1, 500, Geometry.HALF_LINE)),
], ids=["tm-whole", "fib-whole", "pd-half"])
def test_resolvent_weights_over_many_rescale_blocks_match_dense_solves(model, geometry,
                                                                         window, eta):
    # with |E| up to 1e4 a side is rescaled every 31 sites: 9 or 16 rescales per
    # side, each one moving the pass-2 weights.  The grid sums agree with dense
    # solves, and so does every single-energy site weight whose |G|^2 is above
    # 1e-150; a smaller one may flush to zero, as with the continued fractions
    v = potential_values(PotentialSpec(model, 1.0, geometry=geometry), window.sites())
    src = window.index(1)
    energies = np.concatenate([np.linspace(-3.0, 4.0, 29), [-1e4, -40.0, 40.0, 1e4]])
    z = energies + 1j * eta
    G = _dense_green_columns(v, z, src)
    expected = np.abs(G) ** 2
    totals, green, _ = dynamics._resolvent_weights(v, energies, eta, src)
    npt.assert_allclose(green, G[:, src], rtol=1e-12)
    assert np.max(np.abs(totals - expected.sum(axis=0))) <= 1e-12 * np.max(expected.sum(axis=0))
    for k in (0, 7, 14, 28, 29, 31, 32):
        weights, green_k, _ = dynamics._resolvent_weights(v, energies[k:k + 1], eta, src)
        assert green_k[0] == pytest.approx(G[k, src], rel=1e-12)
        held = expected[k] > 1e-150
        assert held.sum() >= 10
        npt.assert_allclose(weights[held], expected[k, held], rtol=1e-10)
        assert np.all(weights[~held] <= 1e-150)


def _cut_depth(d: float) -> float:
    """Sites from the source that an energy at distance d from the hull
    [min v - 2, max v + 2] sweeps on a side: the least L >= 1 with
    r^{2L} <= 1e-166 min(d, 1)^2, r = e^{-acosh(1 + d/2)}, and inf inside."""
    if d <= 0.0:
        return math.inf
    return max(1, math.ceil((-math.log(1e-166) - 2.0 * math.log(min(d, 1.0)))
                            / (2.0 * math.acosh(1.0 + 0.5 * d))))


@pytest.mark.parametrize("eta", [0.05, 1e-3])
@pytest.mark.parametrize("model, geometry, window", [
    (Model.THUE_MORSE, Geometry.WHOLE_LINE, LatticeWindow(-300, 300)),
    (Model.PERIOD_DOUBLING, Geometry.HALF_LINE, LatticeWindow(1, 500, Geometry.HALF_LINE)),
], ids=["tm-whole", "pd-half"])
def test_resolvent_weights_sweep_each_energy_as_deep_as_its_green_function_reaches(
        model, geometry, window, eta):
    # outside the hull |G(n, s)| decays at least like r^{|n - s|}: past its depth an
    # energy's sites are dropped, and every kept site still matches a dense solve
    v = potential_values(PotentialSpec(model, 1.0, geometry=geometry), window.sites())
    src = window.index(1)
    lo, hi = float(v.min()) - 2.0, float(v.max()) + 2.0
    distances = [1e-3, 0.05, 0.5, 4.0, 1e4, 0.0, -0.5]
    energies = np.array([lo - d for d in distances] + [hi + d for d in distances])
    G = _dense_green_columns(v, energies + 1j * eta, src)
    expected = np.abs(G) ** 2
    offsets = np.abs(np.arange(v.size) - src)
    dropped = 0
    for k, d in enumerate(distances * 2):
        weights, green, _ = dynamics._resolvent_weights(v, energies[k:k + 1], eta, src)
        assert green[0] == pytest.approx(G[k, src], rel=1e-12)
        held = expected[k] > 1e-150
        npt.assert_allclose(weights[held], expected[k, held], rtol=1e-10)
        kept = offsets <= _cut_depth(d)
        assert np.all(weights[~kept] == 0.0) and np.all(expected[k, ~kept] < 1e-150)
        dropped += np.count_nonzero(~kept)
    assert dropped > 0
    # no energy inside the hull is cut, its edges included
    assert np.all(dynamics._sweep_depths(v, np.linspace(lo, hi, 1001)) == np.inf)
    # energies in any order give what they give deepest first
    totals, green, _ = dynamics._resolvent_weights(v, energies, eta, src)
    assert np.max(np.abs(totals - expected.sum(axis=0))) <= 1e-12 * np.max(expected.sum(axis=0))
    npt.assert_allclose(green, G[:, src], rtol=1e-12)
    order = np.argsort([-_cut_depth(d) for d in distances * 2], kind="stable")
    sorted_totals, sorted_green, _ = dynamics._resolvent_weights(v, energies[order], eta, src)
    assert np.array_equal(sorted_totals, totals) and np.array_equal(sorted_green, green[order])


def test_resolvent_weights_keep_the_site_at_each_depth_for_either_join_parity():
    # an energy joins a side at site j from its edge with (w_{j-2}, w_{j-1}) = (0, 1),
    # whether j is even or odd: the site at its depth holds |G|^2, not 0
    v = potential_values(PotentialSpec(Model.THUE_MORSE, 1.0), np.arange(-300, 301))
    src, eta = 300, 0.05
    lo, hi = float(v.min()) - 2.0, float(v.max()) + 2.0
    distances = [2.0, 3.0, 3.5, 4.0, 10.0, 30.0, 1000.0]
    energies = np.array([lo - d for d in distances] + [hi + d for d in distances])
    expected = np.abs(_dense_green_columns(v, energies + 1j * eta, src)) ** 2
    parities = set()
    for k, d in enumerate(distances * 2):
        depth = _cut_depth(d)
        weights, _, _ = dynamics._resolvent_weights(v, energies[k:k + 1], eta, src)
        for site, side_length in ((src - depth, src), (src + depth, v.size - 1 - src)):
            parities.add((side_length - depth) % 2)
            assert weights[site] > 0.0
            assert abs(weights[site] - expected[k, site]) <= 0.2 * expected[k, site]
    assert parities == {0, 1}


def test_profile_resolvent_takes_each_depth_once(monkeypatch):
    calls = []
    depths = dynamics._sweep_depths

    def spy(v, E):
        calls.append(E.size)
        return depths(v, E)

    monkeypatch.setattr(dynamics, "_sweep_depths", spy)
    prof = profile_resolvent(PotentialSpec(Model.THUE_MORSE, 1.0), 20.0)
    assert calls == [prof.meta["grid_points"]]


@pytest.mark.parametrize("model", [Model.THUE_MORSE, Model.FIBONACCI, Model.FREE,
                                   Model.PERIOD_DOUBLING], ids=["tm", "fib", "free", "pd"])
@pytest.mark.parametrize("geometry", [Geometry.WHOLE_LINE, Geometry.HALF_LINE])
def test_resolvent_profile_meets_the_ward_identity(model, geometry):
    spec = PotentialSpec(model, 1.0, geometry=geometry)
    prof = profile_resolvent(spec, 20.0)
    assert 0.0 <= prof.meta["mass_identity_drift"] <= 1e-12
    # each grid energy steps twice over each side, as far as its depth reaches
    v = potential_values(spec, prof.window.sites())
    count = prof.meta["grid_points"]
    lo, hi = float(v.min()) - 2.0 - 4.0, float(v.max()) + 2.0 + 4.0
    grid = lo + (np.arange(count) + 0.5) * (hi - lo) / count
    d = np.maximum(float(v.min()) - 2.0 - grid, grid - float(v.max()) - 2.0)
    src = prof.window.index(1)
    sides = (src, prof.window.size - 1 - src)
    steps = sum(min(_cut_depth(x), m) for x in d.tolist() for m in sides)
    assert 0 < steps < (prof.window.size - 1) * count
    assert prof.meta["site_energy_steps"] == 2 * steps


@pytest.mark.parametrize("corrupt", [
    lambda totals: totals * (1.0 + 1e-9),
    lambda totals: np.where(np.arange(totals.size) == 3, np.nan, totals),
])
def test_resolvent_profile_refuses_a_broken_quadrature(monkeypatch, corrupt):
    kernel = dynamics._resolvent_weights

    def broken(v, E, eps, src):
        totals, green, steps = kernel(v, E, eps, src)
        return corrupt(totals), green, steps

    monkeypatch.setattr(dynamics, "_resolvent_weights", broken)
    with pytest.raises(ArithmeticError):
        profile_resolvent(FREE, 20.0)


#: Grid- or window-length complex vectors the resolvent route may hold at once.
RESOLVENT_WORK_VECTORS = 12


def test_resolvent_profile_memory_is_linear_in_grid_and_window():
    # a kernel storing every fraction g (grid x window) would take 69 MB here
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    profile_resolvent(spec, 56.0)  # the window potential is built once, outside the count
    tracemalloc.start()
    try:
        prof = profile_resolvent(spec, 56.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    limit = RESOLVENT_WORK_VECTORS * (prof.meta["grid_points"] + prof.window.size) * 16
    assert limit < 2 * 1024 * 1024
    assert peak < limit


# ---------------------------------------------------------------------------
# moments and growth exponents

def _uniform_profile(n_max: int) -> AmplitudeProfile:
    window = LatticeWindow(-n_max, n_max)
    a = np.full(window.size, 1.0 / window.size)
    return AmplitudeProfile(T=1.0, window=window, a=a, method="time-average")


def test_moment_of_point_mass():
    window = LatticeWindow(1, 1, Geometry.HALF_LINE)
    prof = AmplitudeProfile(T=1.0, window=window, a=np.array([1.0]), method="time-average")
    for p in (1.0, 7.0, 120.0):
        assert moments(prof, p) == pytest.approx(0.0, abs=1e-14)


def test_moment_of_uniform_profile():
    n_max, p = 2000, 4.0
    log_m = moments(_uniform_profile(n_max), p)
    assert log_m == pytest.approx(p * math.log(n_max) - math.log(p + 1.0), abs=5e-3)


def test_moment_power_mean_monotone(rng):
    window = LatticeWindow(-64, 64)
    a = rng.dirichlet(np.ones(window.size))
    prof = AmplitudeProfile(T=1.0, window=window, a=a, method="time-average")
    orders = [0.5, 1.0, 2.0, 4.0, 8.0, 30.0, 120.0]
    means = [moments(prof, p) / p for p in orders]
    assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))


def test_times_whose_reciprocal_leaves_the_float_range_are_refused(monkeypatch):
    # 1/T is the resolvent route's eps; at T = 1e-320 the quadrature gave
    # non-finite weights, and at 5e-324 the time step T/8 was zero
    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(dynamics, "_window_potential", no_window)
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    for T in (1e-320, 5e-324):
        for call in (lambda: profile_resolvent(spec, T), lambda: profiles_time_ladder(spec, [T])):
            with pytest.raises(DomainError, match="finite 1/T"):
                call()


def test_resolvent_fractions_past_the_overflow_limit_are_an_overflow():
    # Im z = 1e300 squared leaves the float range, as does a coupling of 1e155
    # (4e5 grid points at T = 1e-150): the quadrature gave non-finite weights;
    # Im z = 1e150 still runs
    with pytest.raises(ScaleOverflowError, match="continued fractions bounded by 1.00e\\+300"):
        profile_resolvent(PotentialSpec(Model.THUE_MORSE, 1.0), 1e-300)
    with pytest.raises(ScaleOverflowError, match="continued fractions"):
        profile_resolvent(PotentialSpec(Model.THUE_MORSE, 1e155), 1e-150,
                          window=LatticeWindow(-3, 3))
    assert profile_resolvent(PotentialSpec(Model.THUE_MORSE, 1.0), 1e-150).meta["grid_points"] == 2


def test_moment_large_order_stays_finite():
    prof = _uniform_profile(50_000)
    assert np.isfinite(moments(prof, 120.0))


def test_moment_order_must_be_positive_and_finite():
    prof = _uniform_profile(3)
    for p in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="positive and finite"):
            moments(prof, p)
    # the largest finite order is a number: 1e308 log 3
    assert moments(prof, 1e308) == 1e308 * math.log(3.0)


@st.composite
def _log_terms(draw):
    """Vectors of one to 40 finite terms, spread up to 1e3, often tied at the max."""
    unit = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40)))
    a = draw(st.floats(-1e3, 1e3)) + draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3])) * unit
    a[draw(st.lists(st.integers(0, a.size - 1), max_size=a.size))] = a.max()
    return a


@settings(max_examples=60, deadline=None)
@given(_log_terms())
def test_logsumexp_is_scipys(a):
    from scipy.special import logsumexp

    assert dynamics._logsumexp(a.copy()) == float(logsumexp(a))


def test_moments_are_scipys_logsumexp():
    from scipy.special import logsumexp

    prof = profile_time(PotentialSpec(Model.THUE_MORSE, 1.0), 30.0)
    sites = prof.sites()
    keep = (sites != 0) & (prof.a > 0.0)
    for p in (0.5, 1.0, 2.0, 4.0, 8.0, 30.0, 120.0):
        terms = p * np.log(np.abs(sites[keep]).astype(np.float64)) + np.log(prof.a[keep])
        assert moments(prof, p) == float(logsumexp(terms))


def _synthetic_series(exponent: float, noise: float = 0.0, seed: int = 0):
    rng = np.random.default_rng(seed)
    ts = np.geomspace(10.0, 1e4, 9)
    logs = exponent * np.log(ts)
    if noise:
        logs = logs + np.log1p(noise * rng.standard_normal(ts.size))
    from quasidyn.dynamics import MomentSeries
    return MomentSeries(p=2.0, points=tuple(zip(ts, logs)))


def test_growth_exponent_exact_power_law():
    fit = growth_exponent(_synthetic_series(2.0))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.confidence <= 1e-10


def test_growth_exponent_with_noise():
    fit = growth_exponent(_synthetic_series(2.0, noise=0.01, seed=4))
    assert 1.95 <= fit.slope <= 2.05


def test_growth_exponent_needs_span():
    from quasidyn.dynamics import MomentSeries
    short = MomentSeries(p=2.0, points=((10.0, 1.0), (12.0, 1.1), (14.0, 1.2),
                                        (16.0, 1.3), (18.0, 1.4)))
    with pytest.raises(DomainError):
        growth_exponent(short)


# ---------------------------------------------------------------------------
# lower bounds

def test_bound_slope_formulas():
    assert bound_slope("tm", 2.0) == 1.0
    assert bound_slope("pd", 8.0) == 1.5
    assert bound_slope("power-eta", 10.0, eta=0.5) == pytest.approx(2.5)
    fib_a = bound_slope("fib-a", 2.0, lam=1.0)
    assert fib_a == pytest.approx(-3.819, abs=2e-3)
    with pytest.raises(DomainError):
        bound_slope("fib-b", 2.0, lam=1.0)
    with pytest.raises(DomainError):
        bound_slope("nonsense", 2.0)


#: The six bound formulas as separate lambdas over a context dict, verbatim:
#: the oracle of the one formula (p - 1 - 4 alpha)/(1 + alpha) and fib-b.
_BOUND_FORMULAS_ORACLE = {
    "tm": lambda p, ctx: p - 1.0,
    "pd": lambda p, ctx: (p - 5.0) / 2.0,
    "fib-a": lambda p, ctx: (p - 1.0 - 4.0 * ctx["alpha"]) / (1.0 + ctx["alpha"]),
    "fib-b": lambda p, ctx: (p - ctx["gamma"] - 3.0 * ctx["alpha"]) / (1.0 + ctx["alpha"]),
    "one-energy": lambda p, ctx: (p - 1.0 - 4.0 * ctx["alpha"]) / (1.0 + ctx["alpha"]),
    "power-eta": lambda p, ctx: (p - 1.0 - 8.0 * ctx["eta"]) / (1.0 + 2.0 * ctx["eta"]),
}


@settings(max_examples=300, deadline=None)
@given(bound_id=st.sampled_from(sorted(_BOUND_FORMULAS_ORACLE)),
       p=st.floats(0.5, 200.0),
       alpha=st.floats(0.0, 1e3),
       eta=st.floats(0.0, 1e3),
       lam=st.sampled_from([1.0, 5.0, 16.0]))
def test_bound_slope_matches_the_six_formulas(bound_id, p, alpha, eta, lam):
    ctx = {"alpha": alpha, "eta": eta, "gamma": None}
    if bound_id.startswith("fib"):
        params = bound_parameters(lam)
        ctx.update(alpha=params.alpha, gamma=params.gamma)
        if bound_id == "fib-b" and not params.gamma_in_regime:
            with pytest.raises(DomainError, match="fib-b requires lambda > 4"):
                bound_slope(bound_id, p, lam=lam, alpha=alpha, eta=eta)
            return
    expected = float(_BOUND_FORMULAS_ORACLE[bound_id](p, ctx))
    assert bound_slope(bound_id, p, lam=lam, alpha=alpha, eta=eta) == expected


def test_bound_slope_keeps_its_errors():
    for bound_id, kwargs, message in [
        ("nonsense", {}, "unknown bound id 'nonsense'; known: "
                         "['fib-a', 'fib-b', 'one-energy', 'pd', 'power-eta', 'tm']"),
        ("fib-a", {}, "fibonacci bounds need the coupling"),
        ("fib-b", {"alpha": 1.0}, "fibonacci bounds need the coupling"),
        ("fib-b", {"lam": 4.0}, "fib-b requires lambda > 4"),
        ("one-energy", {"eta": 1.0}, "one-energy bound needs alpha"),
        ("power-eta", {"alpha": 1.0}, "power-eta bound needs eta"),
    ]:
        with pytest.raises(DomainError) as err:
            bound_slope(bound_id, 2.0, **kwargs)
        assert str(err.value) == message


def test_each_model_takes_its_own_alpha():
    # tm, pd and fib-a are the one formula at the model's own alpha, which is
    # also the default exponent of the powerlaw command
    for model, lam in [(Model.THUE_MORSE, 1.0), (Model.PERIOD_DOUBLING, 1.0),
                       (Model.FIBONACCI, 1.0), (Model.FIBONACCI, 5.0)]:
        alpha = dynamics.MODEL_ALPHA[model](lam)
        bound_id = dynamics.default_bound_id(model)
        assert bound_slope(bound_id, 7.0, lam=lam) == (7.0 - 1.0 - 4.0 * alpha) / (1.0 + alpha)
    assert dynamics.MODEL_ALPHA[Model.FIBONACCI](5.0) == bound_parameters(5.0).alpha
    for model in (Model.FREE, Model.EXPLICIT_PERIODIC):
        assert model not in dynamics.MODEL_ALPHA
        assert dynamics.default_bound_id(model) == "one-energy"


# ---------------------------------------------------------------------------
# transfer-norm power laws

def test_powerlaw_pd_linear_growth():
    spec = PotentialSpec(Model.PERIOD_DOUBLING, 1.0)
    norms = transfer_norms_from_origin(spec, 0.0, 3000)
    c = math.sqrt(2.0) + 1.0
    for m, norm in norms.items():
        if m == 0:
            continue
        assert norm <= c * c * (math.sqrt(2.0) + 0.5 * abs(m))
    report = dynamics._powerlaw_report(norms, 1.0)
    assert report.c_estimate <= c * c * (math.sqrt(2.0) + 0.5)


def test_powerlaw_tm_uniformly_bounded():
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    norms = transfer_norms_from_origin(spec, 2.0, 20_000)
    values = [v for m, v in norms.items() if m >= 1]
    early = max(v for m, v in norms.items() if 1 <= m <= 64)
    assert max(values) <= early + 1e-9


def test_powerlaw_fib_on_band_energies():
    lam = 1.0
    alpha = bound_parameters(lam).alpha
    bands = approximant_spectrum(lam, 10)
    spec = fib_spec(lam)
    for band in list(bands)[:: len(bands) // 4]:
        energy = 0.5 * (band.lo + band.hi)
        norms = transfer_norms_from_origin(spec, energy, 89)
        report = dynamics._powerlaw_report(norms, alpha)
        assert report.c_estimate <= bound_parameters(lam).d


def zeckendorf(m: int) -> list[int]:
    """Indices k_0 < k_1 < ... of the greedy Fibonacci coding of m.

    The index convention is F_1 = 1, F_2 = 2, F_3 = 3, F_4 = 5, ...; the
    greedy choice makes consecutive indices differ by at least 2, and the
    top index is max{i : F_i <= m}.  An oracle for the coding reports, which
    read the top index off ``searchsorted`` instead.
    """
    assert m >= 1
    fib = [1, 2]  # F_i is fib[i - 1]
    while fib[-1] <= m:
        fib.append(fib[-1] + fib[-2])
    indices = []
    for i in range(len(fib), 0, -1):
        if fib[i - 1] <= m:  # then m - F_i < F_(i-1), so index i - 1 is never taken
            indices.append(i)
            m -= fib[i - 1]
    return indices[::-1]


def test_zeckendorf_codings():
    assert zeckendorf(4) == [1, 3]
    fib = [1, 2]
    while fib[-1] < 3000:
        fib.append(fib[-1] + fib[-2])
    for idx, value in enumerate(fib[:9], start=1):
        assert zeckendorf(value) == [idx]
    for m in range(1, 2000):
        indices = zeckendorf(m)
        assert all(b - a >= 2 for a, b in zip(indices, indices[1:]))
        assert sum(fib[i - 1] for i in indices) == m


def test_zeckendorf_bound_on_band_energy():
    lam = 1.0
    band = approximant_spectrum(lam, 10)[40]
    report = zeckendorf_bound_check(fib_spec(lam), 0.5 * (band.lo + band.hi), 89,
                                    bound_parameters(lam).d)
    assert report["ok"]


def test_zeckendorf_report_matches_the_per_m_coding():
    lam = 1.0
    band = approximant_spectrum(lam, 10)[40]
    energy, d = 0.5 * (band.lo + band.hi), 1.1
    norms = dict(transfer_norms_from_origin(fib_spec(lam), energy, 300).items())
    margins = [np.log(norms[m]) - zeckendorf(m)[-1] * math.log(d) for m in range(1, 301)]
    report = zeckendorf_bound_check(fib_spec(lam), energy, 300, d)
    assert report["worst_log_margin"] == max(margins)
    assert report["violations"] == [m for m, g in enumerate(margins, start=1) if g > 0]
    assert report["violations"] and not report["ok"]


def _norms_dict(spec, E, m_max):
    """The norm sweep as a dict, one entry per m."""
    forward = _transfer_prefixes(potential_values(spec, np.arange(2, m_max + 1)), E)
    norms = dict(zip(range(1, m_max + 1), spectral_norm(forward).tolist()))
    if spec.geometry is Geometry.WHOLE_LINE:
        backward = _transfer_prefixes(potential_values(spec, np.arange(1, -m_max, -1)), E)
        norms.update(zip(range(0, -m_max - 1, -1), spectral_norm(backward[1:]).tolist()))
    return norms


def _powerlaw_loop(norms, alpha):
    """The power-law report as a per-m loop: one strict > scan in ascending m, with
    |m|^alpha from np.power per m."""
    best_ratio, best_m, max_norm = 0.0, 1, 0.0
    for m, norm in sorted(norms.items()):
        if m == 0:
            continue
        ratio = norm / np.power(float(abs(m)), alpha)
        max_norm = max(max_norm, norm)
        if ratio > best_ratio:
            best_ratio, best_m = ratio, m
    return PowerlawReport(c_estimate=best_ratio, argmax_m=best_m, max_norm=max_norm)


def _zeckendorf_loop(norms, E, m_max, d):
    """The coding-bound report as a per-m loop over the Zeckendorf codings, with
    each log from np.log per m."""
    log_d = math.log(d)
    norms = dict(norms.items())
    worst_margin = -math.inf
    violations = []
    for m in range(1, m_max + 1):
        margin = np.log(norms[m]) - zeckendorf(m)[-1] * log_d
        worst_margin = max(worst_margin, margin)
        if margin > 0:
            violations.append(m)
    return {"E": E, "m_max": m_max, "d": d, "worst_log_margin": worst_margin,
            "violations": violations, "ok": not violations}


@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("spec", [fib_spec(1.0), PotentialSpec(Model.THUE_MORSE, 1.0),
                                  PotentialSpec(Model.PERIOD_DOUBLING, 2.0)],
                         ids=["fib", "tm", "pd"])
def test_norm_mapping_matches_the_dict(spec, geometry):
    # the two arrays hold the dict's m and norms; items() gives them as Python
    # numbers, ascending in m, and len() counts them
    spec = PotentialSpec(spec.model, spec.lam, geometry)
    for m_max, energy in ((1, 0.3), (2, 0.3), (377, 0.3), (377, 1.1 + 0.05j)):
        old = _norms_dict(spec, energy, m_max)
        new = transfer_norms_from_origin(spec, energy, m_max)
        assert isinstance(new, TransferNorms) and len(new) == len(old) == new.norms.size
        assert new.m.tolist() == sorted(old)
        items = list(new.items())
        assert items == sorted(old.items())
        assert all(type(m) is int and type(v) is float for m, v in items)
        for array in (new.m, new.norms):
            with pytest.raises(ValueError):
                array[0] = 0


_TIED = st.sampled_from([1.0, 1.0, 2.0, 2.5, 4.0, 1e3])


@settings(max_examples=80, deadline=None)
@given(m_max=st.integers(1, 40), whole=st.booleans(), data=st.data(),
       alpha=st.sampled_from([0.0, 1.0, 26.6]))
def test_reports_match_the_per_m_loops(m_max, whole, data, alpha):
    size = 2 * m_max + 1 if whole else m_max
    values = data.draw(st.lists(_TIED | st.floats(1.0, 1e6), min_size=size, max_size=size))
    norms = TransferNorms(np.arange(m_max + 1 - size, m_max + 1), np.array(values))
    report = dynamics._powerlaw_report(norms, alpha)
    assert report == _powerlaw_loop(norms, alpha)
    assert type(report.argmax_m) is int
    for d in (1.1, 1e3):
        coding = dynamics._zeckendorf_report(norms, 0.25, m_max, d)
        assert coding == _zeckendorf_loop(norms, 0.25, m_max, d)
        assert all(type(m) is int for m in coding["violations"])


def test_reports_keep_the_first_of_tied_maxima():
    # m = 0 holds the largest norm and is left out
    norms = TransferNorms(np.arange(-3, 4), np.array([2.0, 5.0, 1.0, 9.0, 5.0, 3.0, 5.0]))
    report = dynamics._powerlaw_report(norms, 0.0)
    assert (report.argmax_m, report.c_estimate, report.max_norm) == (-2, 5.0, 5.0)
    assert _powerlaw_loop(norms, 0.0) == report
    # no positive ratio: c 0 at m = 1
    zeros = TransferNorms(np.arange(-3, 4), np.zeros(7))
    report = dynamics._powerlaw_report(zeros, 1.0)
    assert (report.argmax_m, report.c_estimate) == (1, 0.0)
    assert report == _powerlaw_loop(zeros, 1.0)
    # at alpha = NaN only m = +-1 (1 ** NaN = 1) give a ratio; the NaNs are skipped
    report = dynamics._powerlaw_report(norms, math.nan)
    assert (report.argmax_m, report.c_estimate) == (1, 5.0)
    assert report == _powerlaw_loop(norms, math.nan)


def test_reports_keep_the_bits_of_np_power_and_log():
    # the array reports give the bits of np.power and np.log taken one m at a
    # time, at values where those differ from Python's ** and math.log on some hosts
    peak = np.ones(100)
    peak[68] = 1e60  # m = 69, the largest ratio at alpha 26.6
    norms = TransferNorms(np.arange(1, 101), peak)
    report = dynamics._powerlaw_report(norms, 26.6)
    assert report == _powerlaw_loop(norms, 26.6)
    assert report.c_estimate == 1e60 / np.power(69.0, 26.6)
    logs = np.ones(100)
    logs[0] = 2714.3829971557802  # m = 1, the worst margin
    norms = TransferNorms(np.arange(1, 101), logs)
    report = dynamics._zeckendorf_report(norms, 0.0, 100, 1.0001)
    assert report == _zeckendorf_loop(norms, 0.0, 100, 1.0001)
    assert report["worst_log_margin"] == np.log(2714.3829971557802) - math.log(1.0001)


@pytest.mark.parametrize("geometry", list(Geometry))
def test_norm_sweep_is_capped_by_memory(geometry, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(dynamics, "_transfer_prefixes", reached)
    monkeypatch.setattr(dynamics, "potential_values", reached)
    spec = PotentialSpec(Model.THUE_MORSE, 1.0, geometry)
    largest = dynamics.MAX_SWEEP_BYTES // dynamics._SWEEP_BYTES_PER_M
    assert 100_000 < largest < MAX_WORD_LENGTH
    with pytest.raises(Reached):
        transfer_norms_from_origin(spec, 0.3, largest)
    with pytest.raises(ResourceError, match="exceeds cap 1 GiB"):
        transfer_norms_from_origin(spec, 0.3, largest + 1)


def test_box_bound_past_the_memory_cap_is_refused_before_any_site(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(dynamics, "potential_values", reached)
    largest = dynamics.MAX_SWEEP_BYTES // dynamics._SWEEP_BYTES_PER_M
    with pytest.raises(Reached):
        complex_energy_bound_check(FREE, 0.3, largest, [0.01j])
    with pytest.raises(ResourceError, match="exceeds cap 1 GiB"):
        complex_energy_bound_check(FREE, 0.3, largest + 1, [0.01j])


def test_norm_sweep_memory_per_site_is_within_its_charge():
    # the charged bytes per m hold on both geometries, at real and complex energies
    for geometry in Geometry:
        spec = PotentialSpec(Model.THUE_MORSE, 1.0, geometry)
        transfer_norms_from_origin(spec, 0.3, 100)
        for energy in (0.3, 0.3 + 1e-12j):
            tracemalloc.start()
            try:
                transfer_norms_from_origin(spec, energy, 10_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= dynamics._SWEEP_BYTES_PER_M * 10_000


@pytest.mark.parametrize("spec", [FREE, fib_spec(1.0), PotentialSpec(Model.THUE_MORSE, 1.0),
                                  PotentialSpec(Model.PERIOD_DOUBLING, 1.0),
                                  PotentialSpec(Model.EXPLICIT_PERIODIC, 1.0, seed="01")],
                         ids=["free", "fib", "tm", "pd", "periodic"])
def test_oversized_norm_sweep_is_refused_before_any_site(spec, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(dynamics, "_transfer_prefixes", unreachable)
    monkeypatch.setattr(dynamics, "potential_values", unreachable)
    with pytest.raises(ResourceError, match="exceeds cap"):
        transfer_norms_from_origin(spec, 0.3, MAX_WORD_LENGTH + 1)
    with pytest.raises(DomainError):
        transfer_norms_from_origin(spec, 0.3, 0)


# ---------------------------------------------------------------------------
# perturbed-energy bounds and tail scaling

def test_complex_energy_bound_zero_delta():
    report = complex_energy_bound_check(FREE, 0.3, 120, [0.0 + 0.0j])
    assert report["max_ratio"] <= 1.0 + 1e-12


def test_complex_energy_bound_free_sweep():
    report = complex_energy_bound_check(FREE, 0.0, 200, [1j / 200.0])
    assert report["ok"]


def test_complex_energy_bound_fib_band_energy():
    band = approximant_spectrum(1.0, 10)[40]
    energy = 0.5 * (band.lo + band.hi)
    deltas = [1j / 89.0, 1j / 89.0 ** 2, (0.6 + 0.8j) / 89.0 ** 2]
    report = complex_energy_bound_check(fib_spec(1.0), energy, 89, deltas)
    assert report["ok"]
    half = PotentialSpec(Model.FIBONACCI, 1.0, Geometry.HALF_LINE)
    assert complex_energy_bound_check(half, energy, 89, deltas)["ok"]


def test_complex_energy_bound_gap_energy_has_finite_constant():
    # E = 3.5 lies in a gap: T(n, m; E) grows exponentially across the box,
    # and K(N) must come out finite rather than from overflowed quotients
    report = complex_energy_bound_check(fib_spec(1.0), 3.5, 89, [1j / 89.0])
    assert math.isfinite(report["K"])
    assert report["K"] == pytest.approx(4.42e68, rel=1e-2)
    across_box = spectral_norm(brute_transfer(fib_spec(1.0), 89, -89, 3.5))
    assert report["K"] >= across_box * (1.0 - 1e-12)
    assert math.isfinite(report["max_ratio"])


def test_tail_scaling_refuses_a_window_too_small_for_the_resolvent(monkeypatch):
    # at lambda = 0.1 the 4T + 64 window leaves ~1e-4 of |R delta_1|^2 on its
    # edges; with no doubling left past it, the window is refused
    monkeypatch.setattr(dynamics, "TAIL_WINDOW_DOUBLINGS", 0)
    with pytest.raises(TruncationError, match="enlarge the window"):
        resolvent_tail_scaling(fib_spec(0.1), [100.0, 1000.0])


def test_tail_scaling_takes_the_level_of_the_scale(monkeypatch):
    # at alpha = 0, N(T) = T: the ladder falls on F_6 = 13 and F_7 = 21 and beside them
    monkeypatch.setitem(dynamics.MODEL_ALPHA, Model.FIBONACCI, lambda lam: 0.0)
    levels = []
    spectrum = dynamics.approximant_spectrum

    def spy(lam, k):
        levels.append(k)
        return spectrum(lam, k)

    monkeypatch.setattr(dynamics, "approximant_spectrum", spy)
    ladder = [1.0, 1.5, 12.0, 13.0, 14.0, 21.0, 22.0]
    resolvent_tail_scaling(fib_spec(1.0), ladder)
    fib = fibonacci_numbers(32)
    expected = []
    for n in ladder:  # the level loop F_{k-1} < N <= F_k, written out
        k = 1
        while fib[k] < n:
            k += 1
        expected.append(k)
    assert expected == [1, 2, 6, 6, 7, 7, 8]
    assert levels == expected


@pytest.fixture
def resolvent_radii(monkeypatch):
    """The window radius of every resolvent_vector call, in order."""
    radii = []
    solve = dynamics.resolvent_vector

    def spy(spec, z, window, **kwargs):
        radii.append(window.hi)
        return solve(spec, z, window, **kwargs)

    monkeypatch.setattr(dynamics, "resolvent_vector", spy)
    return radii


@pytest.mark.parametrize("lam, ladder", [
    (0.1, [100.0, 1000.0]), (0.3, [50.0, 200.0]), (0.5, [50.0, 200.0]), (0.7, [50.0, 200.0]),
])
def test_tail_scaling_grows_the_window_to_fit_the_decay(resolvent_radii, lam, ladder):
    report = resolvent_tail_scaling(fib_spec(lam), ladder)
    assert all(math.isfinite(row["S_min"]) and row["S_min"] > 0.0 for row in report["rows"])
    starts = {int(math.ceil(4.0 * T)) + 64 for T in ladder}
    assert set(resolvent_radii) - starts  # some window doubled past its 4T + 64 start
    doubled = {s * 2 ** j for s in starts for j in range(dynamics.TAIL_WINDOW_DOUBLINGS + 1)}
    assert set(resolvent_radii) <= doubled


def test_tail_scaling_keeps_the_start_window_when_it_fits(resolvent_radii):
    # at lambda = 1 no window grows: each energy is solved once, on 4T + 64
    resolvent_tail_scaling(fib_spec(1.0), [50.0, 200.0])
    assert resolvent_radii == [264] * 4 + [864] * 4


def test_tail_scaling_grows_along_ladder():
    report = resolvent_tail_scaling(fib_spec(1.0), [50.0, 200.0])
    assert report["rows"][1]["S_min"] > report["rows"][0]["S_min"]
    assert report["positive"]


def test_tail_scaling_on_the_half_line(resolvent_radii):
    # the windows are the half line's own, sites 1 .. 4T + 64
    report = resolvent_tail_scaling(PotentialSpec(Model.FIBONACCI, 1.0, Geometry.HALF_LINE),
                                    [50.0, 200.0])
    assert all(math.isfinite(row["S_min"]) and row["S_min"] > 0.0 for row in report["rows"])
    assert math.isfinite(report["exponent_in_T"])
    assert resolvent_radii == [264] * 4 + [864] * 4


@pytest.mark.parametrize("ladder", [[100.0], [100.0, 100.0], [0.0, 10.0], [-5.0, 10.0],
                                    [math.nan, 10.0]])
def test_tail_scaling_refuses_a_bad_ladder_before_any_solve(monkeypatch, ladder):
    def no_solve(*args, **kwargs):
        raise AssertionError("a resolvent was solved before the ladder was checked")

    monkeypatch.setattr(dynamics, "resolvent_vector", no_solve)
    with pytest.raises(DomainError, match="two distinct positive times"):
        resolvent_tail_scaling(fib_spec(1.0), ladder)


def test_bound_report_out_of_regime(tmp_path):
    from quasidyn.dynamics import bound_report

    report = bound_report(fib_spec(1.0), [2.0], list(np.geomspace(5.0, 200.0, 6)),
                          "fib-a")
    entry = report.entries[0]
    assert entry.bound_slope < 0.0
    assert entry.verdict is Verdict.OUT_OF_REGIME
    assert report.ok


def test_bound_report_budget_guard():
    from quasidyn.dynamics import bound_report

    with pytest.raises(ResourceError):
        bound_report(FREE, [2.0], [10.0, 1e7], "tm", max_cost=1e6)


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep started before the budget check")


def test_bound_report_budget_counts_the_given_window(monkeypatch):
    # 1537 samples on 40001 sites: 6.15e7 site-steps, far above the budget,
    # although the default light-cone window (3201 sites, 4.92e6) would fit in it
    from quasidyn import dynamics

    monkeypatch.setattr(dynamics, "_chebyshev_sweep", _no_sweep)
    with pytest.raises(ResourceError, match="6.15e"):
        dynamics.bound_report(FREE, [2.0], list(np.geomspace(4.0, 128.0, 7)), "tm",
                              window=LatticeWindow(-20000, 20000), max_cost=5e6)


def test_bound_report_budget_counts_the_step_of_the_smallest_time(monkeypatch):
    # at T_min = 1 the step is 1/8, not 0.5: 4801 samples on the 2529 sites
    # of the light-cone window at T = 100 are 1.21e7 site-steps
    monkeypatch.setattr(dynamics, "_chebyshev_sweep", _no_sweep)
    with pytest.raises(ResourceError, match="1.21e"):
        dynamics.bound_report(FREE, [2.0], list(np.geomspace(1.0, 100.0, 7)), "tm",
                              max_cost=5e6)


def test_bound_report_budget_uses_the_real_time_step(monkeypatch):
    # at lambda = 20 the step is 5.5/24, not 0.5: 10.7e6 site-steps, not 4.9e6
    from quasidyn import dynamics

    monkeypatch.setattr(dynamics, "_chebyshev_sweep", _no_sweep)
    spec = PotentialSpec(Model.THUE_MORSE, 20.0)
    with pytest.raises(ResourceError, match="1.07e"):
        dynamics.bound_report(spec, [2.0], list(np.geomspace(4.0, 128.0, 7)), max_cost=8e6)


def test_bound_report_budget_does_not_name_tmin_under_the_nyquist_step(monkeypatch):
    # at lambda = 20 the step is 5.5/24 below Tmin/8 = 0.3125, so raising Tmin
    # would not make the sweep cheaper: 3,353 samples on 3,201 sites are 1.07e7.
    # A budget of 7e6 is also below the 7.87e6 that a step of Tmin/8 would cost.
    monkeypatch.setattr(dynamics, "_chebyshev_sweep", _no_sweep)
    spec = PotentialSpec(Model.THUE_MORSE, 20.0)
    for max_cost in (9e6, 7e6):
        with pytest.raises(ResourceError) as err:
            dynamics.bound_report(spec, [2.0], list(np.geomspace(2.5, 128.0, 7)),
                                  max_cost=max_cost)
        assert str(err.value) == (f"sweep cost 1.07e+07 site-steps exceeds budget {max_cost:.2e}; "
                                  "lower Tmax, shrink the window or raise the budget")


def test_ladder_computes_chebyshev_coefficients_once(monkeypatch):
    from quasidyn import dynamics

    calls = []
    coefficients = dynamics._chebyshev_coefficients
    monkeypatch.setattr(dynamics, "_chebyshev_coefficients",
                        lambda *args: calls.append(args) or coefficients(*args))
    profiles = profiles_time_ladder(PotentialSpec(Model.THUE_MORSE, 1.0),
                                    list(np.geomspace(4.0, 32.0, 5)))
    assert int(round(profiles[-1].meta["t_max"] / profiles[-1].meta["dt"])) > 100
    assert len(calls) == 1


def test_bound_report_checks_ladder_before_sweep(monkeypatch):
    from quasidyn import dynamics

    def no_sweep(*args, **kwargs):
        raise AssertionError("the ladder was swept before it was validated")

    monkeypatch.setattr(dynamics, "profiles_time_ladder", no_sweep)
    with pytest.raises(DomainError, match="at least 1.5 decades of T"):
        dynamics.bound_report(FREE, [2.0], list(np.geomspace(10.0, 60.0, 7)), "tm")
    with pytest.raises(DomainError, match="at least 5 ladder points"):
        dynamics.bound_report(FREE, [2.0], [10.0, 100.0, 1000.0], "tm")
    with pytest.raises(DomainError, match="ladder times must be distinct"):
        dynamics.bound_report(FREE, [2.0], [10.0, 100.0, 10.0, 300.0, 1000.0], "tm")


def test_bound_report_keeps_its_profiles():
    from quasidyn.dynamics import bound_report

    ladder = list(np.geomspace(2.0, 80.0, 5))
    report = bound_report(FREE, [2.0], ladder, "tm")
    assert [prof.T for prof in report.profiles] == pytest.approx(ladder)
    series = moment_series(report.profiles, 2.0)
    assert growth_exponent(series).slope == pytest.approx(report.entries[0].measured_slope)


def test_bound_report_keeps_the_series_it_fitted():
    report = dynamics.bound_report(FREE, [8.0, 2.0, 8.0], list(np.geomspace(2.0, 80.0, 5)), "tm")
    assert [one.p for one in report.series] == [8.0, 2.0, 8.0]
    for one, entry in zip(report.series, report.entries):
        assert one == moment_series(report.profiles, entry.p)
        assert growth_exponent(one).slope == entry.measured_slope
