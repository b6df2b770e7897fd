"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line with the measured
extremes once its assertions hold.  Tolerances are pinned here and nowhere
else.  The heavy transport ladders (criterion 6) dominate the runtime at a
few minutes total.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

import quasidyn.dynamics as dynamics
import quasidyn.spectra as spectra
from quasidyn.lattice import (
    Geometry,
    Model,
    PotentialSpec,
    ScaleOverflowError,
    perturb,
    potential_values,
    spectral_norm,
    transfer_matrix,
)
from quasidyn.traces import (
    fib_matrices,
    fib_trace_orbit,
    pd_root_certificates,
    subst_trace_orbit,
    subst_transfer,
)

from conftest import brute_transfer, fib_spec


@pytest.fixture(scope="module")
def sigma16():
    return spectra.approximant_spectrum(1.0, 16)


def _band_midpoints(bands, count):
    picks = np.linspace(0, len(bands) - 1, count).astype(int)
    return [0.5 * (bands[i].lo + bands[i].hi) for i in picks]


# ---------------------------------------------------------------------------
# 1. algebraic suite

def test_criterion_1_algebra(sigma16, rng):
    # unimodularity: the determinant of a computed product carries a floor of
    # order eps ||T||^2 (it is a cancellation of two ||T||^2-sized terms), so
    # the 1e-12 gate applies where ||T|| stays small and a norm-scaled gate
    # covers the high-norm samples
    eps = np.finfo(float).eps
    worst_det = 0.0
    n_tight = 0

    def check_det(t):
        nonlocal worst_det, n_tight
        drift = abs(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0] - 1.0)
        norm = spectral_norm(t)
        if norm <= 20.0:
            assert drift < 1e-12
            worst_det = max(worst_det, drift)
            n_tight += 1
        else:
            assert drift < 100.0 * eps * norm * norm

    free = PotentialSpec(Model.FREE)
    for energy in np.linspace(-1.9, 1.9, 5):
        check_det(transfer_matrix(free, 10_001, 1, float(energy)))
    for energy in _band_midpoints(sigma16, 7):
        check_det(transfer_matrix(fib_spec(1.0), 2000, 1, energy))
    tm = PotentialSpec(Model.THUE_MORSE, 1.0)
    check_det(transfer_matrix(tm, 10_001, 1, 2.0))
    assert n_tight >= 9

    # cocycle identity on random triples within +-2000
    energy = _band_midpoints(sigma16, 3)[1]
    spec = fib_spec(1.0)
    worst_cocycle = 0.0
    for _ in range(30):
        n, k, m = (int(v) for v in sorted(rng.integers(-2000, 2001, 3)))
        left = transfer_matrix(spec, n, k, energy) @ transfer_matrix(spec, k, m, energy)
        right = transfer_matrix(spec, n, m, energy)
        worst_cocycle = max(worst_cocycle,
                            spectral_norm(left - right) / spectral_norm(right))
    assert worst_cocycle <= 1e-9

    # conserved quantity of the trace map: 200 random couplings and energies
    worst_drift = 0.0
    for _ in range(200):
        lam = float(rng.uniform(0.0, 4.0))
        e_rand = float(rng.uniform(-4.0, 4.0))
        orbit = fib_trace_orbit(lam, e_rand, 25)
        inv = orbit.invariant_values()
        target = 4.0 + lam * lam
        for j in range(1, 24):
            if not np.isfinite(inv[j]):
                continue
            if max(abs(orbit.xs[j - 1]), abs(orbit.xs[j]), abs(orbit.xs[j + 1])) > 1e6:
                continue
            worst_drift = max(worst_drift, abs(inv[j] - target) / target)
    assert worst_drift < 1e-9

    # trace map against direct products through level 12
    fib = [1, 1]
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    checked = 0
    for lam, e_val in [(1.0, 0.0), (1.0, 0.5), (2.0, -1.2), (1.0, _band_midpoints(sigma16, 3)[0]),
                       (3.0, 1.1)]:
        orbit = fib_trace_orbit(lam, e_val, 12)
        spec_s = fib_spec(lam)
        for k in range(13):
            if orbit.overflow_at is not None and k >= orbit.overflow_at:
                break
            # the level-0 block is the single site-0 step; level k covers 1..F_k
            direct = (brute_transfer(spec_s, 0, -1, e_val) if k == 0
                      else brute_transfer(spec_s, fib[k], 0, e_val))
            assert orbit.xs[k] == pytest.approx(np.trace(direct).real, rel=1e-9, abs=1e-9)
            checked += 1
    assert checked >= 40

    # substitution trace maps against their block recursions through level 14
    n_consistent = 0
    for model in (Model.PERIOD_DOUBLING, Model.THUE_MORSE):
        for _ in range(12):
            lam = float(rng.uniform(0.2, 3.0))
            e_val = float(rng.uniform(-3.0, 3.0))
            orbit = subst_trace_orbit(model, lam, e_val, 14)
            for k in range(15):
                if orbit.overflow_at is not None and k >= orbit.overflow_at:
                    break
                if abs(orbit.xs[k]) > 1e50:
                    break
                try:
                    t0, t1 = subst_transfer(model, lam, e_val, k)
                except ScaleOverflowError:
                    break
                assert orbit.xs[k] == pytest.approx(np.trace(t0).real, rel=1e-8, abs=1e-8)
                assert orbit.ys[k] == pytest.approx(np.trace(t1).real, rel=1e-8, abs=1e-8)
                n_consistent += 1
    assert n_consistent >= 150

    print(f"\nACCEPTANCE 1 algebra: PASS (det drift {worst_det:.2e}, "
          f"cocycle {worst_cocycle:.2e}, invariant drift {worst_drift:.2e})")


# ---------------------------------------------------------------------------
# 2. special energies

def test_criterion_2_special_energies():
    # explicit period-doubling blocks at the zero-energy root, exact equality
    for lam in (1.0, 2.5):
        t0, t1 = subst_transfer(Model.PERIOD_DOUBLING, lam, 0.0, 1)
        npt.assert_array_equal(t0.real, [[-1.0, lam], [0.0, -1.0]])
        npt.assert_array_equal(t1.real, -np.eye(2))

    # every root of the level-k trace, k <= 6: next-level block identities
    worst_trace, worst_norm, n_roots = 0.0, 0.0, 0
    for k in range(7):
        certs = pd_root_certificates(1.0, k)
        assert len(certs) == 2 ** k
        n_roots += len(certs)
        for cert in certs:
            worst_trace = max(worst_trace, cert["trace_defect"])
            worst_norm = max(worst_norm, cert["t1_plus_identity_norm"])
    assert worst_trace <= 1e-8
    assert worst_norm <= 1e-8

    # Thue-Morse identity blocks and uniform norms out to 1e5 sites
    tm = PotentialSpec(Model.THUE_MORSE, 1.0)
    worst_tm_norm = 0.0
    for energy in (2.0, -1.0):
        t0, t1 = subst_transfer(Model.THUE_MORSE, 1.0, energy, 3)
        assert spectral_norm(t0 - np.eye(2)) <= 1e-8
        assert spectral_norm(t1 - np.eye(2)) <= 1e-8
        norms = dynamics.transfer_norms_from_origin(tm, energy, 100_000)
        positive = {m: v for m, v in norms.items() if m >= 1}
        early_peak = max(v for m, v in positive.items() if m <= 64)
        full_peak = max(positive.values())
        assert full_peak <= early_peak + 1e-9
        worst_tm_norm = max(worst_tm_norm, full_peak)

    print(f"\nACCEPTANCE 2 special energies: PASS ({n_roots} pd roots, "
          f"max defects {worst_trace:.2e}/{worst_norm:.2e}, "
          f"tm norm sup {worst_tm_norm:.3f})")


# ---------------------------------------------------------------------------
# 3. band suite at coupling five

def test_criterion_3_bands():
    lam = 5.0
    fib = [1, 1]
    while len(fib) < 11:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 11):
        assert len(spectra.approximant_spectrum(lam, k)) == fib[k]

    for m in range(2, 10):
        report = spectra.covering_check(lam, m)
        assert report.ok, report.violations

    for k in range(2, 9):
        genealogy = spectra.genealogy_check(lam, k)
        assert genealogy["ok"], genealogy

    worst_a = worst_b = 0.0
    for k in range(3, 9):
        ratios = spectra.derivative_ratio_check(lam, k, samples_per_band=33, tol=1e-6)
        assert ratios["ok"], ratios["violations"]
        worst_a = max(worst_a, ratios["max_ratio_type_a"])
        worst_b = max(worst_b, ratios["max_ratio_type_b"])
    assert worst_a <= lam + 11.0 + 1e-6
    assert worst_b <= 2.0 * lam + 22.0 + 1e-6

    partials = spectra.partials_bound_check()
    assert partials["n_samples"] >= 10_000
    assert partials["max_abs_partial"] <= 1.0 + 1e-12

    measure = spectra.measure_report(lam, 10)
    assert measure["decay_exponent"] >= -measure["gamma"] - 0.5

    print(f"\nACCEPTANCE 3 bands: PASS (ratios {worst_a:.2f}/{worst_b:.2f} vs 16/32, "
          f"decay {measure['decay_exponent']:.3f} >= {-measure['gamma'] - 0.5:.3f})")


# ---------------------------------------------------------------------------
# 4. transfer-matrix power laws

def test_criterion_4_power_laws(sigma16):
    lam = 1.0
    params = spectra.bound_parameters(lam)
    spec = fib_spec(lam)
    m_max = 1597  # length of the level-16 block
    worst_ratio_far = 0.0
    worst_ratio_all = 0.0
    for energy in _band_midpoints(sigma16, 20):
        norms = dynamics.transfer_norms_from_origin(spec, energy, m_max)
        coding = dynamics.zeckendorf_bound_check(spec, energy, m_max, params.d)
        assert coding["violations"] == []
        for m, norm in norms.items():
            if m == 0:
                continue
            ratio = norm / abs(m) ** params.alpha
            worst_ratio_all = max(worst_ratio_all, ratio)
            if abs(m) >= 2:
                worst_ratio_far = max(worst_ratio_far, ratio)
    assert worst_ratio_far <= 1.0          # far sites: ratio collapses
    assert worst_ratio_all <= params.d     # bounded everywhere

    free = PotentialSpec(Model.FREE)
    assert dynamics.complex_energy_bound_check(free, 0.0, 200, [1j / 200.0])["ok"]
    sigma10 = spectra.approximant_spectrum(lam, 10)
    deltas = [1j / 89.0, 1j / 89.0 ** 2, (0.6 + 0.8j) / 89.0 ** 2, 0.0]
    worst_pert = 0.0
    for energy in _band_midpoints(sigma10, 4):
        report = dynamics.complex_energy_bound_check(spec, energy, 89, deltas)
        assert report["ok"]
        worst_pert = max(worst_pert, report["max_ratio"])
    half = PotentialSpec(Model.FIBONACCI, lam, Geometry.HALF_LINE)
    assert dynamics.complex_energy_bound_check(
        half, _band_midpoints(sigma10, 3)[1], 89, deltas)["ok"]

    print(f"\nACCEPTANCE 4 power laws: PASS (20 energies to m={m_max}, "
          f"far ratio {worst_ratio_far:.2e}, perturbed ratio {worst_pert:.3f})")


# ---------------------------------------------------------------------------
# 5. two-route profile agreement

def test_criterion_5_parseval():
    cases = [
        (PotentialSpec(Model.FREE), "free"),
        (fib_spec(1.0), "fibonacci"),
        (PotentialSpec(Model.THUE_MORSE, 1.0), "thue-morse"),
    ]
    worst = 0.0
    for spec, name in cases:
        for T in (20.0, 50.0):
            prof_t = dynamics.profile_time(spec, T)
            prof_r = dynamics.profile_resolvent(spec, T, window=prof_t.window)
            rel = float(np.sum(np.abs(prof_t.a - prof_r.a))) / prof_t.total_mass
            assert rel <= 0.02, (name, T, rel)
            worst = max(worst, rel)
    print(f"\nACCEPTANCE 5 parseval: PASS (worst l1 distance {100 * worst:.2f}% of mass)")


# ---------------------------------------------------------------------------
# 6. transport slopes against the theoretical lower bounds

def test_criterion_6_dynamics():
    ladder = list(np.geomspace(10.0, 1000.0, 7))
    lines = []

    free_profiles = dynamics.profiles_time_ladder(PotentialSpec(Model.FREE), ladder)
    free_fit = dynamics.growth_exponent(dynamics.moment_series(free_profiles, 2.0))
    assert abs(free_fit.slope - 2.0) <= 0.1
    lines.append(f"free p=2 slope {free_fit.slope:.3f}")

    tm_spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    tm_profiles = dynamics.profiles_time_ladder(tm_spec, ladder)
    tm_fit = dynamics.growth_exponent(dynamics.moment_series(tm_profiles, 2.0))
    assert tm_fit.slope >= 1.0 - 0.15
    lines.append(f"tm p=2 slope {tm_fit.slope:.3f} >= 0.85")

    pert_spec = perturb(tm_spec, {n: 1.0 for n in range(-2, 3)})
    pert_profiles = dynamics.profiles_time_ladder(pert_spec, ladder)
    pert_fit = dynamics.growth_exponent(dynamics.moment_series(pert_profiles, 2.0))
    assert pert_fit.slope >= 1.0 - 0.15
    assert pert_fit.slope >= tm_fit.slope - 0.15
    lines.append(f"tm-perturbed p=2 slope {pert_fit.slope:.3f}")

    pd_spec = PotentialSpec(Model.PERIOD_DOUBLING, 1.0)
    pd_profiles = dynamics.profiles_time_ladder(pd_spec, ladder)
    pd_fit = dynamics.growth_exponent(dynamics.moment_series(pd_profiles, 8.0))
    assert pd_fit.slope >= 1.5 - 0.2
    lines.append(f"pd p=8 slope {pd_fit.slope:.3f} >= 1.3")

    fib_report = dynamics.bound_report(fib_spec(1.0), [2.0],
                                       list(np.geomspace(10.0, 400.0, 6)), "fib-a")
    entry = fib_report.entries[0]
    assert entry.bound_slope < 0.0
    assert entry.verdict is dynamics.Verdict.OUT_OF_REGIME
    lines.append(f"fib p=2 bound {entry.bound_slope:.2f} -> out-of-regime")

    tail = dynamics.resolvent_tail_scaling(fib_spec(1.0), [100.0, 1000.0, 10_000.0])
    assert tail["positive"]
    lines.append(f"tail exponent {tail['exponent_in_T']:.3f} > 0")

    print("\nACCEPTANCE 6 dynamics: PASS (" + "; ".join(lines) + ")")


# ---------------------------------------------------------------------------
# 7. determinism across runs

def test_criterion_7_determinism(tmp_path):
    from click.testing import CliRunner

    from quasidyn.cli import main

    runner = CliRunner()
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"parseval_{tag}.json"
        result = runner.invoke(main, ["verify", "parseval", "--model", "free",
                                      "--T", "20", "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    bands = []
    for tag in ("a", "b"):
        out = tmp_path / f"bands_{tag}.csv"
        result = runner.invoke(main, ["spectrum", "--model", "fib", "--lambda", "5",
                                      "--k", "8", "--out", str(out)])
        assert result.exit_code == 0
        bands.append(out.read_bytes())
    assert bands[0] == bands[1]

    print("\nACCEPTANCE 7 determinism: PASS (byte-identical across runs)")
