import enum
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import quasidyn
from quasidyn import cli, spectra
from quasidyn.cli import main
from quasidyn.dynamics import profile_resolvent
from quasidyn.lattice import (
    LatticeWindow,
    Model,
    PotentialSpec,
    ResourceError,
    ScaleOverflowError,
    TruncationError,
)
from quasidyn.traces import subst_trace_orbit


@pytest.fixture
def runner():
    return CliRunner()


def _data_rows(path):
    lines = path.read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")][1:]


def test_spectrum_band_table(runner, tmp_path):
    out = tmp_path / "bands.csv"
    result = runner.invoke(main, ["spectrum", "--model", "fib", "--lambda", "5",
                                  "--k", "8", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _data_rows(out)
    assert len(rows) == 34
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["n_bands"] == 34
    assert summary["meta"]["convention"].startswith("fib-blocks")


def test_spectrum_smallest_level(runner, tmp_path):
    out = tmp_path / "bands.csv"
    result = runner.invoke(main, ["spectrum", "--model", "fib", "--lambda", "5",
                                  "--k", "1", "--out", str(out)])
    assert result.exit_code == 0
    assert len(_data_rows(out)) == 1


def test_spectrum_rejects_bad_coupling(runner, tmp_path):
    result = runner.invoke(main, ["spectrum", "--model", "fib", "--lambda", "-2",
                                  "--k", "3", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


def test_spectrum_rejects_other_models(runner, tmp_path):
    result = runner.invoke(main, ["spectrum", "--model", "tm", "--lambda", "1",
                                  "--k", "3", "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["verify", "parseval", "--T", "0"],
    ["verify", "parseval", "--T", "-5"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tmin", "0"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tmin", "-4"],
    ["verify", "covering", "--mmax", "1"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--window", "-3"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--geometry", "half-line", "--window", "0"],
    ["trace", "--model", "tm", "--lambda", "1", "--roots", "2"],
    ["dynamics", "--model", "free", "--alpha", "-0.5"],
    ["dynamics", "--model", "free", "--bound", "power-eta", "--eta", "-1"],
    ["spectrum", "--lambda", "1", "--k", "3", "--measure"],
    ["dynamics", "--model", "xyz"],
    ["verify", "parseval", "--model", "xyz"],
    ["trace", "--model", "fib", "--lambda", "1", "--geometry", "foo"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--perturb", "abc"],
    ["trace", "--model", "fib", "--lambda", "1", "--kmax", "-1"],
    ["verify", "invariant", "--samples", "-1"],
    ["powerlaw", "--model", "fib", "--lambda", "1", "--count", "0"],
    ["powerlaw", "--model", "fib", "--lambda", "1", "--count", "-1"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--perturb", "0:1", "--perturb", "0:2"],
    # sites past int64, read before int() meets Python's 4,300-digit limit, and a
    # perturbation value that reads as inf
    ["trace", "--model", "fib", "--lambda", "1", "--potential", "0:" + "9" * 5001],
    ["trace", "--model", "fib", "--lambda", "1", "--potential", "9" * 20 + ":" + "9" * 20],
    ["dynamics", "--model", "tm", "--lambda", "1", "--perturb", "9" * 5001 + ":1"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--perturb", "0:1e400"],
])
def test_bad_inputs_are_usage_errors(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path / "x.out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def cli_import_modules():
    """The modules that ``import quasidyn.cli`` loads in a fresh interpreter."""
    src = str(Path(quasidyn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, quasidyn.cli; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    modules = set(done.stdout.split())
    assert "quasidyn.cli" in modules
    return modules


def test_cli_import_leaves_scipy_stats_unloaded(cli_import_modules):
    assert not {"scipy.stats", "scipy.optimize"} & cli_import_modules


def test_cli_import_leaves_scipy_special_unloaded(cli_import_modules):
    assert "scipy.special" not in cli_import_modules


def test_cli_import_loads_no_scipy_on_numpys_openblas(cli_import_modules):
    from quasidyn import _lapack

    if _lapack.LIBRARY is None:
        pytest.skip("numpy ships no scipy-openblas64 library here; scipy's routines are bound")
    assert not {m for m in cli_import_modules if m.split(".")[0] == "scipy"}


def test_spectrum_reads_config_file(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=spectrum\nlambda=5.0\nk=4\n# comment line\n")
    out = tmp_path / "bands.csv"
    result = runner.invoke(main, ["spectrum", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0
    assert len(_data_rows(out)) == 5
    # explicit flags override file values
    result = runner.invoke(main, ["spectrum", "--config", str(cfg), "--k", "3",
                                  "--out", str(out)])
    assert result.exit_code == 0
    assert len(_data_rows(out)) == 3


def test_dynamics_reads_config_file(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=dynamics\nlambda=1.0\nTmax=60\n")
    out = tmp_path / "moments.csv"
    base = ["dynamics", "--model", "tm", "--p", "1", "--Tmin", "1", "--Tcount", "5",
            "--config", str(cfg), "--out", str(out)]
    result = runner.invoke(main, base)
    assert result.exit_code == 0, result.output
    doc = json.loads(out.with_suffix(".json").read_text())
    assert "lambda=1;" in doc["spec"] and doc["T_values"][-1] == 60.0
    # explicit flags override file values
    result = runner.invoke(main, base + ["--lambda", "2", "--Tmax", "40"])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.with_suffix(".json").read_text())
    assert "lambda=2;" in doc["spec"] and doc["T_values"][-1] == 40.0
    # file values pass the same checks as the flags
    cfg.write_text("command=dynamics\nlambda=1.0\nTmax=-60\n")
    result = runner.invoke(main, base)
    assert result.exit_code == 2
    assert "--Tmax" in result.stderr


def test_spectrum_model_flag_beats_config_file(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=spectrum\nmodel=tm\nlambda=5.0\nk=4\n")
    out = tmp_path / "bands.csv"
    result = runner.invoke(main, ["spectrum", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2
    result = runner.invoke(main, ["spectrum", "--model", "fib", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(_data_rows(out)) == 5


def test_trace_orbit_csv(runner, tmp_path):
    out = tmp_path / "trace.csv"
    result = runner.invoke(main, ["trace", "--model", "fib", "--lambda", "1",
                                  "--energy", "0.5", "--kmax", "9", "--out", str(out)])
    assert result.exit_code == 0
    assert len(_data_rows(out)) == 10


@pytest.mark.parametrize("model, lam, energy, rows", [
    (Model.PERIOD_DOUBLING, 1.0, 0.0, 21),
    (Model.THUE_MORSE, 1.0, 0.3, 21),
    (Model.THUE_MORSE, 2.5, 0.7, 11),
    # y_15 passes the overflow limit, x_15 does not: the rows stop before level 15
    (Model.PERIOD_DOUBLING, 0.42631562053732996, 1.2391530320896678, 15),
])
def test_trace_substitution_orbit_csv(runner, tmp_path, model, lam, energy, rows):
    out = tmp_path / "trace.csv"
    result = runner.invoke(main, ["trace", "--model", model.value, "--lambda", repr(lam),
                                  "--energy", repr(energy), "--kmax", "20", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "k,x_k,y_k"
    orbit = subst_trace_orbit(model, lam, energy, 20)
    want = [(k, orbit.xs[k], orbit.ys[k]) for k in range(rows)]
    got = [(int(k), float(x), float(y)) for k, x, y in (line.split(",") for line in lines[1:])]
    assert got == want


def test_trace_root_list(runner, tmp_path):
    out = tmp_path / "roots.csv"
    result = runner.invoke(main, ["trace", "--model", "pd", "--lambda", "1",
                                  "--roots", "3", "--out", str(out)])
    assert result.exit_code == 0
    assert len(_data_rows(out)) == 8


def test_trace_root_list_over_the_cap_is_a_budget_refusal(runner, tmp_path):
    out = tmp_path / "roots.csv"
    result = runner.invoke(main, ["trace", "--model", "pd", "--lambda", "1",
                                  "--roots", "13", "--out", str(out)])
    assert result.exit_code == 3
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "budget"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--lambda", "5", "--k", "40"],
    ["powerlaw", "--model", "fib", "--lambda", "1", "--from-level", "40"],
    ["spectrum", "--lambda", "5", "--k", "100"],
])
def test_oversized_bloch_matrix_is_a_budget_refusal(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 3
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "budget"
    # the message names the site cap, never a period size wrapped past int64
    assert "4181 sites" in record["message"]
    assert "1298777728820984005" not in record["message"]
    assert not list(tmp_path.iterdir())


def test_verify_invariant(runner):
    result = runner.invoke(main, ["verify", "invariant", "--lambda", "1",
                                  "--samples", "40"])
    assert result.exit_code == 0
    record = json.loads(result.stdout)["records"][0]
    assert record["ok"] and record["max_relative_drift"] < 1e-9


def test_verify_algebra(runner):
    result = runner.invoke(main, ["verify", "algebra"])
    assert result.exit_code == 0


def test_verify_covering(runner):
    result = runner.invoke(main, ["verify", "covering", "--lambda", "5", "--mmax", "6"])
    assert result.exit_code == 0


@pytest.mark.parametrize("mmax", ["18", "99999999999999999999"])
def test_verify_covering_past_the_cap_is_refused_before_any_work(runner, tmp_path, monkeypatch,
                                                                 mmax):
    # the suite reads levels 1..mmax + 1; the deepest is refused before any is bisected
    from quasidyn import _lapack

    def unreachable(*args, **kwargs):
        raise AssertionError("a Dirichlet spectrum was computed")

    monkeypatch.setattr(_lapack, "dsterf", unreachable)
    out = tmp_path / "covering.json"
    result = runner.invoke(main, ["verify", "covering", "--lambda", "5", "--mmax", mmax,
                                  "--out", str(out)])
    assert result.exit_code == 3, result.output
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "budget"
    assert record["message"] == (f"the level-{int(mmax) + 1} band set needs more than "
                                 f"the cap of 4181 sites")
    assert not out.exists()


@pytest.mark.parametrize("args, levels", [
    (["spectrum", "--lambda", "5", "--k", "15", "--measure"], 15),
    (["verify", "covering", "--lambda", "5", "--mmax", "12"], 13),
])
def test_band_commands_bisect_every_level_in_one_loop(runner, tmp_path, monkeypatch, args,
                                                      levels):
    from quasidyn import _lapack

    calls = {"kernel": 0, "dsterf": 0}

    def spy(name, real):
        def counted(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)
        return counted

    monkeypatch.setattr(spectra, "_BAND_SETS", {})
    monkeypatch.setattr(spectra, "_level_crossings", spy("kernel", spectra._level_crossings))
    monkeypatch.setattr(_lapack, "dsterf", spy("dsterf", _lapack.dsterf))
    result = runner.invoke(main, args + ["--out", str(tmp_path / "x.out")])
    assert result.exit_code == 0, result.output
    # level 1 is one site, with no Dirichlet eigenvalue to find
    assert calls == {"kernel": 1, "dsterf": levels - 1}


@pytest.mark.parametrize("args", [
    ["spectrum", "--model", "fib", "--lambda", "1", "--k", "16"],
    ["spectrum", "--lambda", "5", "--k", "15", "--measure"],
    ["verify", "covering", "--lambda", "5", "--mmax", "12"],
    ["powerlaw", "--model", "fib", "--lambda", "1", "--from-level", "12", "--mmax", "50"],
])
def test_band_commands_build_no_band_per_band(runner, tmp_path, monkeypatch, args):
    built = []

    def counted(*a, **kw):
        built.append(1)
        return band(*a, **kw)

    band = spectra.Band
    monkeypatch.setattr(spectra, "_BAND_SETS", {})
    monkeypatch.setattr(spectra, "Band", counted)
    result = runner.invoke(main, args + ["--out", str(tmp_path / "x.out")])
    assert result.exit_code == 0, result.output
    assert built == []
    # the spy sees the bands a library caller reads out one by one
    assert len(list(spectra.approximant_spectrum(5.0, 3))) == len(built) == 3


def test_verify_parseval(runner, tmp_path):
    out = tmp_path / "parseval.json"
    result = runner.invoke(main, ["verify", "parseval", "--model", "free",
                                  "--T", "20", "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["records"][0]["relative_l1"] <= 0.02


def test_verify_parseval_budget_refusal(runner, tmp_path, monkeypatch):
    from quasidyn import dynamics

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started before the budget check")

    monkeypatch.setattr(dynamics, "_chebyshev_sweep", no_sweep)
    out = tmp_path / "parseval.json"
    result = runner.invoke(main, ["verify", "parseval", "--model", "free", "--T", "56",
                                  "--max-cost", "1e5", "--out", str(out)])
    assert result.exit_code == 3
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "budget"
    assert not out.exists()


@pytest.mark.parametrize("samples, max_cost", [("9" * 20, "5e10"), ("1" + "0" * 399, "inf"),
                                               ("200", "4999")],
                         ids=["20-digits", "400-digits-no-budget", "one-level-past"])
def test_verify_invariant_budget_refusal(runner, tmp_path, monkeypatch, samples, max_cost):
    # samples x 25 orbit levels are charged before any orbit: 200 samples cost 5,000,
    # and a count past the float range is refused whatever the budget
    from quasidyn import cli

    def no_orbit(*args, **kwargs):
        raise AssertionError("an orbit ran before the budget check")

    monkeypatch.setattr(cli, "fib_trace_orbit", no_orbit)
    out = tmp_path / "invariant.json"
    result = runner.invoke(main, ["verify", "invariant", "--samples", samples,
                                  "--max-cost", max_cost, "--out", str(out)])
    assert result.exit_code == 3, result.output
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "budget" and "orbit levels" in record["message"]
    assert not out.exists()


def test_verify_invariant_runs_at_its_budget(runner, tmp_path):
    out = tmp_path / "invariant.json"
    result = runner.invoke(main, ["verify", "invariant", "--samples", "200", "--max-cost",
                                  "5000", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["records"][0]["samples"] == 200


def test_verify_parseval_budget_counts_the_resolvent_grid(runner, tmp_path, monkeypatch):
    # at T = 56 the time route sweeps 9.9e5 site-steps and the resolvent
    # route 2688 grid points on 1473 sites (4.0e6): only the latter is refused
    from quasidyn import dynamics

    def no_solve(*args, **kwargs):
        raise AssertionError("the resolvent route started before the budget check")

    monkeypatch.setattr(dynamics, "_resolvent_weights", no_solve)
    result = runner.invoke(main, ["verify", "parseval", "--model", "free", "--T", "56",
                                  "--max-cost", "2e6"])
    assert result.exit_code == 3
    (line,) = result.stderr.splitlines()
    assert "3.96e+06" in json.loads(line)["message"]


def test_dynamics_budget_counts_the_resolvent_profile(runner, tmp_path, monkeypatch):
    # the time ladder fits 1e7, but the resolvent profile at Tmax = 128 sweeps
    # 6656 grid points on 3201 sites (2.13e7): refused before either route runs
    from quasidyn import dynamics

    def no_sweep(*args, **kwargs):
        raise AssertionError("a route started before the budget check")

    monkeypatch.setattr(dynamics, "_chebyshev_sweep", no_sweep)
    monkeypatch.setattr(dynamics, "_resolvent_weights", no_sweep)
    out, prof_out = tmp_path / "m.csv", tmp_path / "p.csv"
    result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1",
                                  "--Tmin", "4", "--Tmax", "128", "--max-cost", "1e7",
                                  "--out", str(out), "--profile-out", str(prof_out),
                                  "--profile-method", "resolvent"])
    assert result.exit_code == 3
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "budget" and "2.13e+07" in record["message"]
    assert not out.exists() and not prof_out.exists()


@pytest.mark.parametrize("args", [
    ["verify", "parseval", "--model", "tm", "--lambda", "1", "--T", "20"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--p", "2", "--Tmin", "1", "--Tmax", "40",
     "--Tcount", "5", "--out", "{tmp}/m.csv"],
])
def test_command_builds_its_window_potential_once(runner, tmp_path, monkeypatch, args):
    from quasidyn import dynamics

    calls = []
    values = dynamics.potential_values
    monkeypatch.setattr(dynamics, "potential_values",
                        lambda spec, sites: calls.append(sites.size) or values(spec, sites))
    dynamics._window_potential.cache_clear()
    result = runner.invoke(main, [a.replace("{tmp}", str(tmp_path)) for a in args])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_dynamics_one_energy_bound_takes_alpha(runner, tmp_path):
    out = tmp_path / "moments.csv"
    result = runner.invoke(main, ["dynamics", "--model", "free", "--p", "2", "--Tmin", "1",
                                  "--Tmax", "100", "--alpha", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["bound_id"] == "one-energy"
    assert doc["entries"][0]["bound_slope"] == 1.0


def test_dynamics_header_without_exponents_is_unchanged(runner, tmp_path):
    # --alpha and --eta enter the configuration hash only when given, so
    # this run keeps the hash it had before the flags existed
    out = tmp_path / "moments.csv"
    result = runner.invoke(main, ["dynamics", "--model", "free", "--bound", "tm", "--p", "2",
                                  "--Tmin", "1", "--Tmax", "100", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "# config_hash: 16236b7bd45f0271" in out.read_text().splitlines()


def _config_hash(path):
    (line,) = [line for line in path.read_text().splitlines() if line.startswith("# config_hash")]
    return line.split(": ")[1]


def test_powerlaw_hash_covers_the_geometry(runner, tmp_path):
    # the half line sweeps other norms, so it hashes apart; the whole line,
    # named or by default, keeps the hash it had before the key
    outs = {}
    for geometry in (None, "whole-line", "half-line"):
        outs[geometry] = tmp_path / f"{geometry}.csv"
        result = runner.invoke(main, ["powerlaw", "--model", "tm", "--lambda", "1",
                                      "--mmax", "50", "--out", str(outs[geometry])]
                               + (["--geometry", geometry] if geometry else []))
        assert result.exit_code == 0, result.output
    assert _data_rows(outs["half-line"]) != _data_rows(outs[None])
    assert _config_hash(outs[None]) == _config_hash(outs["whole-line"]) == "6bd22cba261e824e"
    assert _config_hash(outs["half-line"]) != _config_hash(outs[None])


def test_dynamics_hash_covers_the_seed_word(runner, tmp_path):
    # a seed word moves every log-moment, so it hashes apart; without one the
    # run keeps the hash it had before the key
    seed = "01" * 801 + "|" + "0110" * 401  # covers the window at T = 128, sites -1600..1600
    outs = {}
    for word in (None, seed):
        outs[word] = tmp_path / f"{word is None}.csv"
        result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1", "--Tmin", "4",
                                      "--Tmax", "128", "--Tcount", "5", "--out", str(outs[word])]
                               + (["--seed-word", word] if word else []))
        assert result.exit_code == 0, result.output
    rows = [[row.split(",")[2] for row in _data_rows(outs[word])] for word in (None, seed)]
    assert all(a != b for a, b in zip(*rows))
    assert _config_hash(outs[None]) == "4ea50805737ab562"
    assert _config_hash(outs[seed]) != _config_hash(outs[None])


@pytest.mark.parametrize("t_min, max_cost, message", [
    # below Tmin = 4 the step is Tmin/8: 4,801 samples on 2,529 sites
    ("1", "5e6", "sweep cost 1.21e+07 site-steps exceeds budget 5.00e+06; "
                 "raise Tmin, lower Tmax, shrink the window or raise the budget"),
    # from Tmin = 4 on the step is 0.5: 1,201 samples on the same sites
    ("4", "2e6", "sweep cost 3.04e+06 site-steps exceeds budget 2.00e+06; "
                 "lower Tmax, shrink the window or raise the budget"),
])
def test_dynamics_budget_names_tmin_only_when_it_sets_the_step(runner, tmp_path, t_min,
                                                               max_cost, message):
    result = runner.invoke(main, ["dynamics", "--model", "free", "--bound", "tm", "--p", "2",
                                  "--Tmin", t_min, "--Tmax", "100", "--max-cost", max_cost,
                                  "--out", str(tmp_path / "m.csv")])
    assert result.exit_code == 3
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["message"] == message


def test_dynamics_small_run(runner, tmp_path):
    out = tmp_path / "moments.csv"
    prof_out = tmp_path / "profile.csv"
    result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1",
                                  "--p", "2", "--Tmin", "5", "--Tmax", "200",
                                  "--Tcount", "6", "--out", str(out),
                                  "--profile-out", str(prof_out)])
    assert result.exit_code == 0, result.output
    assert len(_data_rows(out)) == 6
    doc = json.loads(out.with_suffix(".json").read_text())
    entry = doc["entries"][0]
    assert entry["verdict"] in ("pass", "out-of-regime")
    assert doc["meta"]["convention"].startswith("fib-blocks")
    profile_rows = _data_rows(prof_out)
    assert len(profile_rows) > 1000
    assert all(float(row.split(",")[1]) >= 0.0 for row in profile_rows[:50])


def test_dynamics_resolvent_profile_out(runner, tmp_path):
    # the (n, a) rows are the resolvent profile at the largest T, on the ladder's window
    out, prof_out = tmp_path / "m.csv", tmp_path / "profile.csv"
    result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1", "--p", "2",
                                  "--Tmin", "4", "--Tmax", "128", "--Tcount", "7",
                                  "--profile-out", str(prof_out),
                                  "--profile-method", "resolvent", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = [row.split(",") for row in _data_rows(prof_out)]
    sites = [int(n) for n, _ in rows]
    window = LatticeWindow(sites[0], sites[-1])
    T = np.geomspace(4.0, 128.0, 7)[-1]
    prof = profile_resolvent(PotentialSpec(Model.THUE_MORSE, 1.0), T, window=window)
    assert prof.method == "resolvent" and sites == prof.sites().tolist()
    assert [float(a) for _, a in rows] == prof.a.tolist()


def test_trace_potential_export(runner, tmp_path):
    out = tmp_path / "potential.csv"
    result = runner.invoke(main, ["trace", "--model", "fib", "--lambda", "1",
                                  "--potential", "1:6", "--out", str(out)])
    assert result.exit_code == 0
    values = [row.split(",")[1] for row in _data_rows(out)]
    assert values == ["1", "0", "1", "1", "0", "1"]


def test_trace_potential_past_the_word_cap_is_a_budget_refusal(runner, tmp_path, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, "potential_values", reached)
    args = ["trace", "--model", "fib", "--lambda", "1", "--out", str(tmp_path / "p.csv")]
    result = runner.invoke(main, args + ["--potential", "1:16777217"])
    assert result.exit_code == 3
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "budget"
    assert isinstance(runner.invoke(main, args + ["--potential", "1:16777216"]).exception, Reached)


def test_spectrum_measure_report(runner, tmp_path):
    out = tmp_path / "bands.csv"
    result = runner.invoke(main, ["spectrum", "--model", "fib", "--lambda", "5",
                                  "--k", "6", "--measure", "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads((tmp_path / "bands.measure.json").read_text())
    assert doc["decay_exponent"] >= -doc["gamma"]


def test_dynamics_budget_refusal(runner, tmp_path):
    result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1",
                                  "--p", "2", "--Tmax", "100000000",
                                  "--out", str(tmp_path / "m.csv")])
    assert result.exit_code == 3


@pytest.mark.parametrize("args", [
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tmax", "1e155"],
    ["verify", "parseval", "--model", "tm", "--lambda", "1", "--T", "1e300"],
    ["verify", "parseval", "--model", "tm", "--lambda", "1", "--T", "1e300", "--max-cost", "inf"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tmax", "1e307"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tmax", "1.7e308"],
    ["powerlaw", "--model", "tm", "--lambda", "1", "--mmax", "1" + "0" * 400],
])
def test_a_cost_past_the_float_range_is_a_budget_refusal(runner, tmp_path, monkeypatch, args):
    # the sweep cost reads inf; with no budget, the memory cap refuses the window.
    # A window past the float range, or a memory charge, is refused as well
    from quasidyn import dynamics

    def no_potential(*args):
        raise AssertionError("the window potential was built")

    monkeypatch.setattr(dynamics, "_window_potential", no_potential)
    result = runner.invoke(main, args + ["--out", str(tmp_path / "x.out")])
    assert result.exit_code == 3, result.output
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "budget"


@pytest.mark.parametrize("args, message", [
    (["dynamics", "--model", "tm", "--lambda", "1", "--window", "1" + "0" * 400],
     "exceeds cap 1 GiB"),
    (["dynamics", "--model", "tm", "--lambda", "1e300", "--window", "10", "--Tmax", "1e10",
      "--max-cost", "inf"], "past the float range"),
    (["verify", "parseval", "--model", "tm", "--lambda", "1e308", "--T", "1", "--max-cost", "inf"],
     "past the float range"),
])
def test_counts_past_the_float_range_are_refused_whatever_the_budget(runner, tmp_path,
                                                                    monkeypatch, args, message):
    # a window of 401 digits, a step of 5.5e-300 and a grid spacing of 1/4 across
    # 1e308 each gave a count past the float range, and a traceback
    from quasidyn import dynamics

    def no_route(*args, **kwargs):
        raise AssertionError("a route ran")

    monkeypatch.setattr(dynamics, "_chebyshev_sweep", no_route)
    monkeypatch.setattr(dynamics, "_resolvent_weights", no_route)
    result = runner.invoke(main, args + ["--out", str(tmp_path / "x.out")])
    assert result.exit_code == 3, result.output
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "budget" and message in record["message"]


def test_dynamics_ladder_memory_is_within_its_charge(runner, tmp_path, monkeypatch):
    # a list of numpy scalars and bound_report's sorted copy held 64 bytes per time
    # against a charge of 16; the time route's charge then refuses the ladder
    charges = []
    check = cli._check_memory
    monkeypatch.setattr(cli, "_check_memory",
                        lambda nbytes, *args: charges.append(nbytes) or check(nbytes, *args))
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1",
                                      "--Tcount", "1000000", "--out", str(tmp_path / "m.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 3, result.output
    assert "time route needs about" in result.stderr
    (charge,) = charges
    assert peak <= charge


@pytest.mark.parametrize("args", [
    ["trace", "--model", "fib", "--lambda", "1", "--kmax", "100000000000"],
    ["trace", "--model", "tm", "--lambda", "1", "--kmax", "100000000000"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tcount", "1000000000"],
])
def test_sizes_past_the_memory_cap_are_refused_before_they_are_allocated(runner, tmp_path,
                                                                         monkeypatch, args):
    # 16 bytes per orbit level, and 16 per ladder time on a window of one site or more
    def unreachable(*args, **kwargs):
        raise AssertionError("the array was allocated")

    monkeypatch.setattr(np, "full", unreachable)
    monkeypatch.setattr(np, "geomspace", unreachable)
    result = runner.invoke(main, args + ["--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 3, result.output
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "budget" and "exceeds cap 1 GiB" in record["message"]
    assert not list(tmp_path.iterdir())


def test_dynamics_budget_counts_the_window(runner, tmp_path):
    out = tmp_path / "m.csv"
    result = runner.invoke(main, ["dynamics", "--model", "free", "--bound", "tm", "--p", "2",
                                  "--Tmin", "1", "--Tmax", "100", "--window", "20000",
                                  "--max-cost", "5e6", "--out", str(out)])
    assert result.exit_code == 3
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "budget"
    assert not out.exists()


def test_dynamics_small_window_is_a_truncation_error(runner, tmp_path):
    out = tmp_path / "moments.csv"
    result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1",
                                  "--Tmin", "4", "--Tmax", "128", "--window", "10",
                                  "--out", str(out)])
    assert result.exit_code == 1
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "truncation"
    assert not out.exists()


def test_dynamics_fib_reports_out_of_regime(runner, tmp_path):
    out = tmp_path / "moments.csv"
    result = runner.invoke(main, ["dynamics", "--model", "fib", "--lambda", "1",
                                  "--p", "2", "--Tmin", "5", "--Tmax", "200",
                                  "--Tcount", "6", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["entries"][0]["verdict"] == "out-of-regime"
    assert doc["entries"][0]["bound_slope"] < 0.0


def test_powerlaw_off_spectrum_norms_stay_finite(runner, tmp_path):
    out = tmp_path / "powerlaw.csv"
    args = ["powerlaw", "--model", "tm", "--lambda", "1", "--energy", "5",
            "--alpha", "0", "--out", str(out)]
    result = runner.invoke(main, args + ["--mmax", "200"])
    assert result.exit_code == 0, result.output
    (row,) = _data_rows(out)
    assert "inf" not in row and "nan" not in row
    # past the overflow limit the sweep is refused with one JSON error line
    result = runner.invoke(main, args + ["--mmax", "300"])
    assert result.exit_code == 1
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "overflow"


def test_outputs_are_deterministic(runner, tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"bands_{tag}.csv"
        result = runner.invoke(main, ["spectrum", "--model", "fib", "--lambda", "5",
                                      "--k", "6", "--out", str(out)])
        assert result.exit_code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (paths[0].with_suffix(".json").read_bytes()
            == paths[1].with_suffix(".json").read_bytes())


def test_config_round_trip():
    from quasidyn.cli import RunConfig

    config = RunConfig("spectrum", {"lambda": "5.0", "k": "8"})
    parsed = RunConfig.from_text("command=spectrum\n# a comment\n\nk = 8\nlambda=5.0  # trailing\n")
    assert parsed.command == "spectrum"
    assert parsed.values == config.values
    assert parsed.hash() == config.hash()


# ---------------------------------------------------------------------------
# the runner: one error table, one run line


@pytest.mark.parametrize("error, kind, code", [
    (ResourceError, "budget", 3),
    (TruncationError, "truncation", 1),
    (ScaleOverflowError, "overflow", 1),
    (spectra.BandCountError, "band-count", 1),
    (spectra.ClassificationError, "classification", 1),
])
def test_runner_maps_each_library_error(runner, tmp_path, monkeypatch, error, kind, code):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(spectra, "approximant_spectrum", fail)
    result = runner.invoke(main, ["spectrum", "--lambda", "1", "--k", "3",
                                  "--out", str(tmp_path / "bands.csv")])
    assert result.exit_code == code
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert (record["error"], record["command"], record["exit"]) == (kind, "spectrum", code)
    assert record["message"] == "injected"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("model", ["free", "fib", "tm", "pd"])
def test_oversized_powerlaw_sweep_is_a_budget_refusal(runner, tmp_path, monkeypatch, model):
    from quasidyn import dynamics
    from quasidyn.lattice import MAX_WORD_LENGTH

    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(dynamics, "_transfer_prefixes", unreachable)
    monkeypatch.setattr(dynamics, "potential_values", unreachable)
    out = tmp_path / "powerlaw.csv"
    result = runner.invoke(main, ["powerlaw", "--model", model, "--lambda", "1",
                                  "--energy", "0.3", "--alpha", "1",
                                  "--mmax", str(MAX_WORD_LENGTH + 1), "--out", str(out)])
    assert result.exit_code == 3, result.output
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "budget"
    assert not out.exists()


class _Kind(enum.Enum):
    A = "A"


def _fmt_chain(value):
    """Cell formatting as a chain of isinstance tests."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


@pytest.mark.parametrize("value, text", [
    (True, "true"), (False, "false"), (np.bool_(True), "true"), (np.bool_(False), "false"),
    (0.1, "0.10000000000000001"), (-0.0, "-0"), (float("inf"), "inf"),
    (np.float64(1.0) / 3.0, "0.33333333333333331"), (np.float32(0.5), "0.5"),
    (7, "7"), (np.int64(-12), "-12"), (np.uint8(200), "200"),
    (_Kind.A, "A"), (Model.THUE_MORSE, "thue-morse"), ("x,y", "x,y"), (None, "None"),
])
def test_cell_formats_match_the_isinstance_chain(value, text):
    from quasidyn.cli import _fmt

    assert _fmt(value) == _fmt_chain(value) == text
    assert _fmt(value) == text  # the second call reads the cached formatter


class _Cell(enum.Enum):
    ONE = 1


def test_csv_rows_match_the_per_cell_join(tmp_path):
    # the oracle: every cell formatted alone, as by _fmt_chain, joined by commas
    rows = [
        (np.float64(-0.0), 5e-324, np.float64(1e308), float("inf"), np.float64("nan")),
        (-0.0, np.float64(5e-324), 1e308, np.float64("-inf"), float("nan")),
        (7, np.int64(-12), np.uint8(200), 2 ** 70, np.int32(0)),
        (True, np.bool_(False), False, np.bool_(True), True),
        (_Kind.A, Model.THUE_MORSE, _Cell.ONE, "x", ""),
        # a powerlaw row of a non-Fibonacci model: coding_bound_ok is ""
        (np.float64(-1.0), 0.5, np.int64(377), np.float64(12.25), ""),
        (1.0, np.float64(2.5), 3, 4.0, np.bool_(True)),
        ("100%", "%s", "%d", None, 0.1),
    ]
    config = cli.RunConfig("test", {"x": "1"})
    header = ["a", "b", "c", "d", "e"]
    out = tmp_path / "cells.csv"
    cli.write_csv(out, config, {"tol": 1e-9}, header, rows)
    expected = cli._meta_lines(config, {"tol": 1e-9}) + [",".join(header)] + [
        ",".join(_fmt_chain(cell) for cell in row) for row in rows]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()
    # rows given as lists, and as an iterator, write the same bytes
    cli.write_csv(out, config, {"tol": 1e-9}, header, iter([list(row) for row in rows]))
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_runner_prints_one_run_line(runner):
    result = runner.invoke(main, ["verify", "algebra"])
    assert result.exit_code == 0
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert record["command"] == "verify" and record["exit"] == 0
    assert record["wall_s"] >= 0.0 and "error" not in record


def test_run_line_reports_the_setup_cpu(runner):
    before = time.process_time()
    result = runner.invoke(main, ["verify", "algebra"])
    assert result.exit_code == 0
    (line,) = result.stderr.splitlines()
    setup = json.loads(line)["setup_cpu_s"]
    # the process's CPU at command entry: at least what it had spent before the call
    assert 0.0 <= round(before, 3) <= setup <= time.process_time() + 0.001


def test_every_command_runs_under_the_runner():
    from quasidyn.cli import _Run

    assert main.commands
    assert all(isinstance(cmd, _Run) for cmd in main.commands.values())


def test_refused_short_ladder_keeps_the_benchmark_message(runner, tmp_path, monkeypatch):
    # the benchmark's refused transport job looks for this exact text on stderr
    jobs = Path(__file__).resolve().parents[1] / "bench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("bench_jobs", jobs)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    out = tmp_path / "moments.csv"
    result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1", "--p", "2",
                                  "--Tmax", "60", "--out", str(out)])
    assert result.exit_code == 2
    assert module.DECADES_MESSAGE in result.stderr
    assert not out.exists()


@pytest.fixture
def no_kernels(monkeypatch):
    """Every sweep kernel a command could reach, patched to fail when called."""
    from quasidyn import cli, dynamics

    def unreachable(*args, **kwargs):
        raise AssertionError("a sweep kernel ran")

    for module, name in [(dynamics, "_chebyshev_sweep"), (dynamics, "_resolvent_weights"),
                         (dynamics, "_transfer_prefixes"), (dynamics, "potential_values"),
                         (spectra, "approximant_spectrum"), (spectra, "classify_bands"),
                         (cli, "fib_trace_orbit"), (cli, "subst_trace_orbit")]:
        monkeypatch.setattr(module, name, unreachable)


@pytest.mark.parametrize("args", [
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tmin", "1", "--Tmax", "50",
     "--max-cost", "nan"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--max-cost", "0"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--max-cost", "-1e9"],
    ["verify", "parseval", "--T", "20", "--max-cost", "nan"],
    ["spectrum", "--lambda", "nan", "--k", "3"],
    ["spectrum", "--lambda", "inf", "--k", "3"],
    ["powerlaw", "--model", "fib", "--lambda", "nan"],
    ["powerlaw", "--model", "fib", "--lambda", "inf"],
    ["dynamics", "--model", "tm", "--lambda", "nan"],
    ["dynamics", "--model", "tm", "--lambda", "inf"],
    ["verify", "parseval", "--lambda", "nan"],
    ["verify", "parseval", "--lambda", "inf"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tmax", "inf"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--Tmin", "nan"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--p", "nan"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--p", "0"],
    ["dynamics", "--model", "tm", "--lambda", "1", "--slope-tol", "nan"],
    ["dynamics", "--model", "free", "--alpha", "nan"],
    ["dynamics", "--model", "free", "--bound", "power-eta", "--eta", "inf"],
    ["verify", "parseval", "--T", "inf"],
    ["powerlaw", "--model", "tm", "--lambda", "1", "--alpha", "-100"],
    ["powerlaw", "--model", "tm", "--lambda", "1", "--alpha", "nan"],
    ["powerlaw", "--model", "fib", "--lambda", "1", "--energy", "nan"],
    ["trace", "--model", "fib", "--lambda", "1", "--energy", "nan"],
    ["trace", "--model", "tm", "--lambda", "inf"],
])
def test_bad_numbers_are_refused_before_any_work(runner, tmp_path, no_kernels, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path / "x.out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Invalid value" in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, text", [
    ("dynamics", "command=dynamics\nlambda=nan\n"),
    ("dynamics", "command=dynamics\nlambda=1.0\nTmax=inf\n"),
    ("spectrum", "command=spectrum\nlambda=inf\nk=3\n"),
])
def test_bad_numbers_in_a_config_file_are_refused(runner, tmp_path, no_kernels, command, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "x.out")]
    if command == "dynamics":
        args += ["--model", "tm"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "is not a finite number" in result.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("args, message", [
    (["--model", "free", "--Tmin", "1", "--Tmax", "100", "--bound", "power-eta",
      "--eta", "1e308"], "not finite"),
    (["--model", "free", "--Tmin", "1", "--Tmax", "100", "--bound", "one-energy",
      "--alpha", "1e308"], "not finite"),
    (["--model", "tm", "--lambda", "1", "--alpha", "3"],
     "alpha is read by the one-energy bound only"),
    (["--model", "tm", "--lambda", "1", "--eta", "2"],
     "eta is read by the power-eta bound only"),
    (["--model", "fib", "--lambda", "1", "--seed-word", "01|10"], "reads no seed word"),
])
def test_dynamics_inputs_it_would_drop_are_refused(runner, tmp_path, no_kernels, args, message):
    result = runner.invoke(main, ["dynamics", *args, "--out", str(tmp_path / "m.csv")])
    assert result.exit_code == 2, result.output
    assert message in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, text, reads", [
    ("dynamics", "lambda=1\nTmax=60\nTmin=1\np=4\nbogus=3\n",
     "lambda, Tmax; not read: Tmin, bogus, p"),
    ("dynamics", "command=spectrum\nlambda=1\n",
     "lambda, Tmax; not read: command=spectrum"),
    ("spectrum", "command=spectrum\nlambda=5\nk=3\nkmax=4\n",
     "lambda, k, model; not read: kmax"),
    ("spectrum", "command=dynamics\nlambda=5\nk=3\n",
     "lambda, k, model; not read: command=dynamics"),
])
def test_config_keys_the_command_does_not_read_are_refused(runner, tmp_path, no_kernels,
                                                           command, text, reads):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    result = runner.invoke(main, [command, "--model", "tm" if command == "dynamics" else "fib",
                                  "--config", str(cfg), "--out", str(tmp_path / "x.out")])
    assert result.exit_code == 2, result.output
    assert f"{command} reads only the config keys {reads}" in result.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_powerlaw_alpha_past_the_float_range_is_an_overflow(runner, tmp_path):
    # 2 ** 1e4 overflows a float: one JSON overflow line, exit 1, no file
    out = tmp_path / "powerlaw.csv"
    result = runner.invoke(main, ["powerlaw", "--model", "tm", "--lambda", "1",
                                  "--energy", "0.3", "--mmax", "10", "--alpha", "1e4",
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["error"] == "overflow"
    assert not out.exists()


def test_dynamics_infinite_budget_means_none(runner, tmp_path):
    out = tmp_path / "moments.csv"
    args = ["dynamics", "--model", "tm", "--lambda", "1", "--Tmin", "1", "--Tmax", "50",
            "--Tcount", "5", "--out", str(out)]
    assert runner.invoke(main, args + ["--max-cost", "1e3"]).exit_code == 3
    result = runner.invoke(main, args + ["--max-cost", "inf"])
    assert result.exit_code == 0, result.output
    assert len(_data_rows(out)) == 5


@pytest.mark.parametrize("model, lam, alpha", [
    ("fib", 1.0, spectra.bound_parameters(1.0).alpha),
    ("tm", 1.0, 0.0),
    ("pd", 1.0, 1.0),
])
def test_powerlaw_default_alpha_is_the_models_own(runner, tmp_path, model, lam, alpha):
    from quasidyn import dynamics

    # the same alpha the model's own moment bound takes
    bound_id = dynamics.default_bound_id(Model.parse(model))
    slope = (9.0 - 1.0 - 4.0 * alpha) / (1.0 + alpha)
    assert dynamics.bound_slope(bound_id, 9.0, lam=lam) == slope
    args = ["powerlaw", "--model", model, "--lambda", repr(lam), "--count", "2", "--mmax", "60"]
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    for extra, out in (([], default), (["--alpha", repr(alpha)], explicit)):
        assert runner.invoke(main, args + extra + ["--out", str(out)]).exit_code == 0
    assert default.read_bytes() == explicit.read_bytes()


def test_dynamics_fits_each_moment_series_once(runner, tmp_path, monkeypatch):
    from quasidyn import dynamics

    orders = []
    series = dynamics.moment_series
    monkeypatch.setattr(dynamics, "moment_series",
                        lambda profiles, p: orders.append(p) or series(profiles, p))
    out = tmp_path / "moments.csv"
    result = runner.invoke(main, ["dynamics", "--model", "tm", "--lambda", "1", "--p", "2",
                                  "--p", "8", "--Tmin", "1", "--Tmax", "40", "--Tcount", "5",
                                  "--slope-tol", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert orders == [2.0, 8.0]
    rows = [row.split(",") for row in _data_rows(out)]
    assert [float(p) for _, p, _ in rows] == [2.0] * 5 + [8.0] * 5


#: Extreme values for every numeric option: the smallest subnormal, the largest
#: power of ten, non-numbers, and integers of 20, 400 and 5,001 digits (past
#: int64, past the float range, and past Python's 4,300-digit int() limit).
_EXTREMES = ("0", "5e-324", "1e308", "inf", "nan", "9" * 20, "1" + "0" * 399, "9" * 5001)
_LADDER = ["dynamics", "--model", "tm", "--lambda", "1", "--Tmin", "2", "--Tmax", "64",
           "--Tcount", "5"]

#: Per command: (base arguments, options varied over _EXTREMES one at a time, each
#: a flag and a template whose {} takes the value), then whole rows.
_EXTREME_TABLES = {
    "spectrum": ([(["spectrum", "--lambda", "5", "--k", "4"], ["--lambda", "--k"])], []),
    "trace": ([
        (["trace", "--model", "tm", "--lambda", "1", "--kmax", "6"],
         ["--lambda", "--energy", "--kmax", "--roots"]),
        (["trace", "--model", "fib", "--lambda", "1", "--kmax", "6"], ["--lambda", "--energy"]),
        (["trace", "--model", "fib", "--lambda", "1"], [("--potential", "0:{}"),
                                                        ("--potential", "{}:{}")]),
    ], []),
    "verify": ([
        (["verify", "invariant", "--samples", "2"], ["--lambda", "--seed", "--samples"]),
        (["verify", "algebra"], ["--lambda"]),
        (["verify", "covering", "--lambda", "5", "--mmax", "3"], ["--lambda", "--mmax"]),
        (["verify", "parseval", "--model", "tm", "--lambda", "1", "--T", "4"],
         ["--lambda", "--T", "--max-cost"]),
    ], [
        ["verify", "parseval", "--model", "tm", "--lambda", "1e308", "--T", "1",
         "--max-cost", "inf"],
        ["verify", "parseval", "--model", "tm", "--lambda", "1", "--T", "1e-320"],
        ["verify", "parseval", "--model", "tm", "--lambda", "1", "--T", "1e-300"],
    ]),
    "dynamics": ([
        (_LADDER, ["--lambda", "--p", "--Tmax", "--Tmin", "--Tcount", "--slope-tol", "--window",
                   "--max-cost", ("--perturb", "0:{}"), ("--perturb", "{}:1")]),
        (_LADDER + ["--bound", "one-energy"], ["--alpha"]),
        (_LADDER + ["--bound", "power-eta"], ["--eta"]),
    ], [
        ["dynamics", "--model", "tm", "--lambda", "1", "--window", "1" + "0" * 400],
        ["dynamics", "--model", "tm", "--lambda", "1e300", "--window", "10", "--Tmax", "1e10",
         "--max-cost", "inf"],
        ["dynamics", "--model", "tm", "--lambda", "1", "--Tcount", "1000000000"],
    ]),
    "powerlaw": ([
        (["powerlaw", "--model", "tm", "--lambda", "1", "--mmax", "40"],
         ["--lambda", "--energy", "--count", "--mmax", "--alpha"]),
        (["powerlaw", "--model", "fib", "--lambda", "1", "--mmax", "40", "--count", "2"],
         ["--from-level"]),
    ], []),
}

#: Runs a JSON list of argument lists through the CLI in this one process and
#: prints, per row, its exit code and any traceback.
_TABLE_RUNNER = """
import json, sys, tempfile, traceback
from click.testing import CliRunner
from quasidyn.cli import main
rows, results = json.load(sys.stdin), []
with tempfile.TemporaryDirectory() as tmp:
    for args in rows:
        result = CliRunner().invoke(main, args + ["--out", tmp + "/x.out"])
        crash = None if isinstance(result.exception, (SystemExit, type(None))) else result.exception
        text = "".join(traceback.format_exception(crash)) if crash else result.stderr
        results.append([result.exit_code, text[-600:] if "Traceback" in text else None])
print(json.dumps(results))
"""


def _extreme_rows(command):
    groups, whole = _EXTREME_TABLES[command]
    rows = []
    for base, options in groups:
        for option in options:
            if isinstance(option, str):
                option = (option, "{}")
            flag, template, values = option if len(option) == 3 else (*option, _EXTREMES)
            rows += [base + [flag, template.replace("{}", value)] for value in values]
    return rows + whole


@pytest.mark.parametrize("command", sorted(_EXTREME_TABLES))
def test_no_cli_input_ends_in_a_traceback(command):
    # each command's table in one interpreter under a 4 GiB address-space limit, so
    # an allocation past it is numpy's MemoryError rather than the host's memory
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    rows = _extreme_rows(command)
    src = str(Path(quasidyn.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _TABLE_RUNNER], input=json.dumps(rows),
                          capture_output=True, text=True, env=env, preexec_fn=limit,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    results = json.loads(done.stdout)
    bad = [(" ".join(args)[:160], code, crash) for args, (code, crash) in zip(rows, results)
           if code not in (0, 1, 2, 3) or crash]
    assert not bad, bad
