"""quasidyn benchmark: timed CLI workloads with output checks and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --write-reference

Run from the root of a checkout.  The jobs of the workload (bench/jobs.py)
run one at a time, each in a fresh single-threaded Python process
(bench/job.py) that imports quasidyn from ``src/``; the whole set is repeated
until ``--seconds`` have passed.  Every job's exit code and outputs are
checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from each job's
least values over the passes; with ``--trace 1`` the passes alternate
untraced and traced and the metrics are the per-layer ones from the traced
passes (bench/README.md).  Metric units come from BENCHMARK.json.
Scratch outputs go to ``.bench_work/`` and each run's record, with the
pinned environment, to ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
#: A job killed after this long counts as failed.
JOB_TIMEOUT_S = 60.0
#: No job runs past this many seconds after the run starts, so a run that
#: meets a hung job still ends, and reports it, inside 180 s.
RUN_LIMIT_S = 150.0

#: Thread pools pinned to one thread in every job process.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: The layer(s) predicted to dominate each workload's traced time.
PREDICTED = {
    "transport": ("dynamics.propagate",),
    "parseval": ("dynamics.propagate", "dynamics.resolvent"),
    "bands": ("spectra.edges",),
    "powerlaw": ("dynamics.transfer",),
}


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them; ``kind`` is
    ``end_to_end`` or ``per_layer``."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# environment

def job_environment(root: Path) -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_record(root: Path, workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_threads": PINNED_THREADS,
    }


# ---------------------------------------------------------------------------
# running and checking one job

def run_job(job, root: Path, job_dir: Path, env: dict, traced: bool, references,
            timeout: float = JOB_TIMEOUT_S) -> dict:
    """Run one job in a fresh process and check it; returns its outcome."""
    from jobs import compare, extract, invariants, reference_view

    job_dir.mkdir(parents=True)
    rel_dir = job_dir.relative_to(root)
    args = [a.replace("{out}", str(rel_dir / job.out)) for a in job.args]
    record_path = job_dir / "record.json"
    cmd = [sys.executable, str(BENCH_DIR / "job.py"), str(record_path),
           "1" if traced else "0", job.name, "--", *args]
    outcome = {"job": job.name, "args": args, "traced": traced, "problems": []}
    with open(job_dir / "stdout.txt", "w") as out, open(job_dir / "stderr.txt", "w") as err:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=out, stderr=err,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
    stderr = (job_dir / "stderr.txt").read_text(errors="replace")
    if proc is None or proc.returncode != 0 or not record_path.exists():
        outcome["problems"].append(
            "job process failed: " + ("timeout" if proc is None else f"exit {proc.returncode}")
            + f"; stderr tail: {stderr[-400:]!r}")
        return outcome
    rec = json.loads(record_path.read_text())
    outcome.update(
        exit_code=rec["exit_code"],
        setup_s=rec["setup_cpu_s"],
        setup_wall_s=rec["t_entry"] - t_spawn,
        wall_s=rec["t_exit"] - rec["t_entry"],
        cpu_s=rec["cpu_s"],
        peak_rss_mb=rec["peak_rss_kb"] / 1024.0,
    )
    if rec["spans"] is not None:
        from tracer import job_layer_totals

        outcome["layers"] = job_layer_totals(rec["spans"], outcome["wall_s"])
        outcome["span_share"] = 1.0 - outcome["layers"]["cli.self"]["s"] / outcome["wall_s"]
    if rec["crash"]:
        outcome["problems"].append("crash: " + rec["crash"].strip().splitlines()[-1])
    if rec["exit_code"] != job.expect_exit:
        outcome["problems"].append(f"exit code {rec['exit_code']}, expected {job.expect_exit}")
    try:
        result = extract(job, job_dir)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        outcome["problems"].append(f"unreadable output: {exc!r}")
        return outcome
    outcome["problems"] += invariants(job, result, stderr)
    if references is not None:
        outcome["problems"] += compare(reference_view(result), references[job.name])
    outcome["result"] = reference_view(result)
    return outcome


def run_pass(jobs, root: Path, work: Path, env: dict, traced: bool, references, index: int,
             deadline: float):
    outcomes = []
    for job in jobs:
        job_dir = work / f"pass{index}-{job.name}"
        timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
        outcome = run_job(job, root, job_dir, env, traced, references, timeout)
        outcome.pop("result", None)
        shutil.rmtree(job_dir, ignore_errors=True)
        outcomes.append(outcome)
        for problem in outcome["problems"]:
            print(f"FAIL {job.name}: {problem}", file=sys.stderr)
    return outcomes


# ---------------------------------------------------------------------------
# metrics

def job_minima(passes: list[list[dict]], key: str) -> dict[str, float]:
    """Job name -> the least value of ``key`` over the passes in which the job
    has timings.

    Other tenants of a shared host take CPU from a job in bursts (steal
    time), which only ever adds to its times; the least value is the one they
    disturbed least, and it moves with the program's own cost.
    """
    values: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            if key in o:
                values.setdefault(o["job"], []).append(o[key])
    return {job: min(v) for job, v in values.items()}


def failure_counts(passes: list[list[dict]]) -> tuple[int, int]:
    """(attempted, failed) over all job runs; a job with any problem failed."""
    runs = [o for outcomes in passes for o in outcomes]
    return len(runs), sum(1 for o in runs if o["problems"])


def end_to_end_metrics(untraced: list[list[dict]], attempted: int, failed: int) -> dict:
    """Each job's least wall time, set-up CPU time and command CPU time over
    the passes (see ``job_minima``) summed over the jobs, and the largest
    per-job least peak RSS."""
    metrics = {}
    if any("wall_s" in o for outcomes in untraced for o in outcomes):
        for key in ("wall_s", "setup_s", "cpu_s"):
            metrics[key] = sum(job_minima(untraced, key).values())
        metrics["peak_rss_mb"] = max(job_minima(untraced, "peak_rss_mb").values())
    metrics["pass_frac"] = (attempted - failed) / attempted
    return metrics


def per_layer_metrics(workload: str, untraced: list[list[dict]], traced: list[list[dict]]) -> dict:
    from tracer import layer_metrics, merge_totals

    per_pass = []
    for outcomes in traced:
        if any("layers" not in o for o in outcomes):
            continue
        m = layer_metrics(merge_totals([o["layers"] for o in outcomes]))
        wall = sum(o["wall_s"] for o in outcomes)
        m["trace.predicted_share"] = sum(m[f"{layer}.s"] for layer in PREDICTED[workload]) / wall
        m["trace.span_share"] = min(o["span_share"] for o in outcomes)
        per_pass.append(m)
    if not per_pass:
        return {}
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = tracing_overhead(untraced, traced)
    return metrics


def tracing_overhead(untraced: list[list[dict]], traced: list[list[dict]]) -> float:
    """Sum over jobs of the median, over paired passes, of the traced minus
    the untraced command CPU time.  The passes alternate, so each traced pass
    is paired with the untraced pass before it.  CPU time, because tracing
    costs CPU and host steal, which swamps it in wall time, is not charged
    to it."""
    diffs: dict[str, list[float]] = {}
    for plain, with_trace in zip(untraced, traced):
        for a, b in zip(plain, with_trace):
            if "cpu_s" in a and "cpu_s" in b:
                diffs.setdefault(a["job"], []).append(b["cpu_s"] - a["cpu_s"])
    return sum(statistics.median(d) for d in diffs.values())


def dominant_layer(traced: list[list[dict]]) -> str | None:
    """Layer with the most self time over the traced passes."""
    self_s: dict[str, float] = {}
    for outcomes in traced:
        for o in outcomes:
            for layer, t in o.get("layers", {}).items():
                self_s[layer] = self_s.get(layer, 0.0) + t["self_s"]
    return max(self_s, key=self_s.get) if self_s else None


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run the default seed once and store its outputs as reference")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "quasidyn" / "cli.py").is_file():
        print("bench: src/quasidyn/cli.py not found; run from the root of a quasidyn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from jobs import DEFAULT_SEED, WORKLOADS, workload_jobs

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.write_reference else args.seed
    jobs = workload_jobs(args.workload, seed)
    reference_path = BENCH_DIR / "reference" / f"{args.workload}.json"
    references = None
    if seed == DEFAULT_SEED and not args.write_reference:
        references = json.loads(reference_path.read_text())
    env = job_environment(root)
    work = root / WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    record = {"env": environment_record(root, args.workload, seed),
              "jobs": [list(j.args) for j in jobs], "passes": []}
    print(json.dumps({"env": record["env"]}, sort_keys=True), file=sys.stderr)
    try:
        if args.write_reference:
            return write_reference(jobs, root, work, env, reference_path)
        t0 = time.monotonic()
        untraced, traced = [], []
        while True:
            is_traced = bool(args.trace) and len(untraced) > len(traced)
            t_pass = time.monotonic()
            outcomes = run_pass(jobs, root, work, env, is_traced, references,
                                len(untraced) + len(traced), t0 + RUN_LIMIT_S)
            (traced if is_traced else untraced).append(outcomes)
            record["passes"].append(outcomes)
            # stop when one more pass would end past --seconds by more than
            # half a pass, so a run lasts about --seconds however long a pass is
            now = time.monotonic()
            enough = not args.trace or traced
            if enough and now - t0 + 0.5 * (now - t_pass) >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = failure_counts(untraced + traced)
    if args.trace:
        metrics = per_layer_metrics(args.workload, untraced, traced)
        record["dominant_layer"] = dominant_layer(traced)
        record["predicted_layers"] = PREDICTED[args.workload]
    else:
        metrics = end_to_end_metrics(untraced, attempted, failed)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise SystemExit(f"bench: metrics not declared in BENCHMARK.json: {undeclared}")
    record["metrics"] = metrics
    records = root / WORK_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (records / f"{stamp}-{args.workload}-seed{seed}-trace{args.trace}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    summary = {"passes": len(untraced) + len(traced), "dominant_layer": record.get("dominant_layer")}
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def write_reference(jobs, root: Path, work: Path, env: dict, path: Path) -> int:
    """Store the default seed's outputs as the reference, if every job passes."""
    references = {}
    for job in jobs:
        job_dir = work / f"reference-{job.name}"
        outcome = run_job(job, root, job_dir, env, False, None)
        if outcome["problems"]:
            print(f"bench: {job.name} failed, reference not written: {outcome['problems']}",
                  file=sys.stderr)
            return 1
        references[job.name] = outcome["result"]
    path.write_text(json.dumps(references, sort_keys=True) + "\n")
    print(f"bench: wrote {path.relative_to(root)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
