"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py

Run from the root of the checkout.  The last test starts one small quasidyn
CLI job.
"""

from __future__ import annotations

import copy
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, canonical, job_layer_totals, self_times  # noqa: E402


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_time_minus_children():
    clock = ManualClock()
    tracer = Tracer("job", clock=clock)

    def fit(x):
        clock.now += 2.0
        return x

    traced_fit = tracer.wrap("dynamics.fit", fit)

    def moments(x):  # same layer as moment_series below: merged into its span
        clock.now += 0.25
        return x

    traced_moments = tracer.wrap("dynamics.moments", moments)

    def moment_series(x):
        clock.now += 0.25
        return traced_moments(x)

    traced_series = tracer.wrap("dynamics.moments", moment_series)

    def bound_report(x):
        clock.now += 1.0
        traced_fit(x)
        traced_series(x)
        clock.now += 3.0
        return x

    tracer.wrap("dynamics.bound", bound_report)(1)
    clock.now += 0.5
    wall = clock.now

    assert [s["layer"] for s in tracer.spans] == ["dynamics.bound", "dynamics.fit",
                                                  "dynamics.moments"]
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]
    assert self_times(tracer.spans) == {0: 4.0, 1: 2.0, 2: 0.5}
    totals = job_layer_totals(tracer.spans, wall)
    assert totals["dynamics.bound"]["s"] == 6.5
    assert totals["dynamics.bound"]["self_s"] == 4.0
    assert totals["dynamics.moments"]["calls"] == 1
    assert totals["cli.self"]["s"] == 0.5
    assert sum(t["self_s"] for t in totals.values()) == wall


def test_escaping_exception_counts_as_layer_error():
    tracer = Tracer("job")

    def growth_exponent(series):
        raise ValueError("needs at least 1.5 decades")

    traced = tracer.wrap("dynamics.fit", growth_exponent)
    try:
        traced(None)
    except ValueError:
        pass
    assert job_layer_totals(tracer.spans, 1.0)["dynamics.fit"]["errors"] == 1


@dataclass(frozen=True)
class Spec:
    model: str
    lam: float


def test_repeat_calls_detected_by_argument_value():
    tracer = Tracer("job")

    def transfer_norms_from_origin(spec, E, m_max):
        return {m: 1.0 for m in range(-m_max, m_max + 1) if m}

    traced = tracer.wrap("dynamics.transfer", transfer_norms_from_origin)
    traced(Spec("fib", 1.0), 0.5, 10)
    traced(Spec("fib", 1.0), np.float64(0.5), 10)  # same value, NumPy scalar
    traced(Spec("fib", 1.0), 0.5, m_max=10)  # same value, passed by keyword
    traced(Spec("fib", 1.0), 0.6, 10)
    traced(Spec("fib", 2.0), 0.5, 10)
    totals = job_layer_totals(tracer.spans, 1.0)["dynamics.transfer"]
    assert totals["calls"] == 5
    assert totals["repeat_calls"] == 2
    assert totals["counts"]["site_products"] == 5 * 19


def test_canonical_ladder_arguments():
    ladder = list(np.geomspace(4.0, 128.0, 7))
    assert canonical(ladder) == canonical(sorted(float(t) for t in ladder))
    assert canonical(np.arange(5)) == canonical(np.arange(5))
    assert canonical(np.arange(5)) != canonical(np.arange(1, 6))


def test_reference_tolerances():
    want = {"n_bands": 2, "total_measure": 0.5, "ok": True,
            "bands": {"lo": [0.0, 1.0], "hi": [0.25, 1.25], "kind": ["A", "B"]}}
    close = copy.deepcopy(want)
    close["bands"]["lo"][1] += 0.5 * jobs.EDGE_TOL
    assert jobs.compare(close, want) == []
    far = copy.deepcopy(want)
    far["bands"]["hi"][0] += 2 * jobs.EDGE_TOL
    assert len(jobs.compare(far, want)) == 1
    flipped = dict(want, ok=False)
    assert len(jobs.compare(flipped, want)) == 1


def test_pass_frac_counts_a_wrong_reference_as_a_failed_job():
    job = jobs.Job("measure", "spectrum",
                   ("spectrum", "--model", "fib", "--lambda", "5.0", "--k", "6",
                    "--measure", "--out", "{out}"), 0, "bands.csv")
    env = run.job_environment(ROOT)
    work = ROOT / run.WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        good = run.run_job(job, ROOT, work / "first", env, False, None)
        assert good["problems"] == []
        right = {job.name: good["result"]}
        wrong = copy.deepcopy(right)
        wrong[job.name]["bands"]["lo"][3] += 1e-6
        checked = run.run_job(job, ROOT, work / "right", env, False, right)
        failed = run.run_job(job, ROOT, work / "wrong", env, False, wrong)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert checked["problems"] == []
    assert len(failed["problems"]) == 1 and "bands[3].lo" in failed["problems"][0]
    attempted, n_failed = run.failure_counts([[checked, failed]])
    assert (attempted, n_failed) == (2, 1)
    metrics = run.end_to_end_metrics([[checked], [failed]], attempted, n_failed)
    assert metrics["pass_frac"] == 0.5


def _outcome(job: str, wall: float, traced: bool = False) -> dict:
    outcome = {"job": job, "problems": [], "wall_s": wall, "setup_s": 1.0, "cpu_s": wall,
               "peak_rss_mb": 100.0}
    if traced:
        outcome["layers"] = job_layer_totals([], wall)
        outcome["span_share"] = 0.0
    return outcome


def test_metrics_match_the_units_declared_in_benchmark_json():
    untraced = [[_outcome("a", 1.0), _outcome("b", 2.0)]]
    assert set(run.end_to_end_metrics(untraced, 2, 0)) == set(run.declared_units("end_to_end"))
    traced = [[_outcome("a", 1.1, True), _outcome("b", 2.2, True)]]
    metrics = run.per_layer_metrics("bands", untraced, traced)
    assert set(metrics) == set(run.declared_units("per_layer"))


def test_end_to_end_times_take_each_jobs_least_value():
    passes = [[_outcome("a", 1.0), _outcome("b", 5.0)], [_outcome("a", 3.0), _outcome("b", 2.0)]]
    passes[1][0]["setup_s"] = 0.5
    metrics = run.end_to_end_metrics(passes, 4, 0)
    assert metrics["wall_s"] == 3.0 and metrics["cpu_s"] == 3.0
    assert metrics["setup_s"] == 1.5


def test_tracing_overhead_pairs_each_traced_pass_with_the_one_before():
    untraced = [[_outcome("a", 1.0)], [_outcome("a", 3.0)], [_outcome("a", 9.0)]]
    traced = [[_outcome("a", 1.5, True)], [_outcome("a", 2.5, True)]]
    # pairs give +0.5 and -0.5; the unpaired third untraced pass is ignored
    assert run.tracing_overhead(untraced, traced) == 0.0
