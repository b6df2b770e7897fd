"""The benchmark's workloads: quasidyn CLI jobs, their expected outcomes and
the checks that decide whether each job came out right.

Every workload is a list of jobs drawn from the seed.  Seed 0 is the default
seed: it runs the couplings named in bench/README.md exactly and compares each
job's numbers with the committed references in bench/reference/.  Any other
seed draws the couplings from a narrow range around those values (lambda > 4
stays above 4), which changes the work per job by a few percent at most.
Every seed checks each job's invariants.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("transport", "parseval", "bands", "powerlaw")

#: The CLI's own edge tolerance (``spectrum --edge-tol`` default).
EDGE_TOL = 1e-10
#: Relative tolerance on log-moments, slopes, norms and masses.
REL_TOL = 1e-9
#: Exact text the CLI prints when a ladder spans too few decades of T.
DECADES_MESSAGE = "growth exponent needs at least 1.5 decades of T"


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``{out}`` in ``args`` is replaced by the output path."""

    name: str
    kind: str
    args: tuple[str, ...]
    expect_exit: int
    out: str


def _couplings(seed: int) -> tuple[float, float]:
    if seed == DEFAULT_SEED:
        return 1.0, 5.0
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.95, 1.05)), float(rng.uniform(4.75, 5.25))


def _g(x: float) -> str:
    return repr(float(x))


def workload_jobs(workload: str, seed: int) -> list[Job]:
    lam1, lam5 = _couplings(seed)
    if workload == "transport":
        return [
            Job("ladder", "dynamics",
                ("dynamics", "--model", "tm", "--lambda", _g(lam1), "--p", "2",
                 "--Tmin", "4", "--Tmax", "128", "--Tcount", "7", "--out", "{out}"),
                0, "moments.csv"),
            # 0.78 decades under the default --Tmin 10: the CLI must refuse
            Job("short-ladder", "rejected",
                ("dynamics", "--model", "tm", "--lambda", _g(lam1), "--p", "2",
                 "--Tmax", "60", "--out", "{out}"),
                2, "moments.csv"),
        ]
    if workload == "parseval":
        return [Job(f"parseval-{model}", "parseval",
                    ("verify", "parseval", "--model", model, "--lambda", _g(lam1),
                     "--T", "56", "--out", "{out}"), 0, "parseval.json")
                for model in ("tm", "fib", "free")]
    if workload == "bands":
        return [
            Job("deep-level", "spectrum",
                ("spectrum", "--model", "fib", "--lambda", _g(lam1), "--k", "16",
                 "--out", "{out}"), 0, "bands.csv"),
            Job("measure", "spectrum",
                ("spectrum", "--model", "fib", "--lambda", _g(lam5), "--k", "15",
                 "--measure", "--out", "{out}"), 0, "bands.csv"),
            Job("covering", "covering",
                ("verify", "covering", "--lambda", _g(lam5), "--mmax", "12",
                 "--out", "{out}"), 0, "covering.json"),
        ]
    if workload == "powerlaw":
        return [
            Job("fib-many-short", "powerlaw",
                ("powerlaw", "--model", "fib", "--lambda", _g(lam1), "--from-level", "15",
                 "--mmax", "987", "--out", "{out}"), 0, "powerlaw.csv"),
            Job("tm-few-long", "powerlaw",
                ("powerlaw", "--model", "tm", "--lambda", _g(lam1), "--mmax", "15000",
                 "--out", "{out}"), 0, "powerlaw.csv"),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def job_option(job: Job, flag: str) -> str:
    return job.args[job.args.index(flag) + 1]


# ---------------------------------------------------------------------------
# reading a job's outputs into a result: scalars, and tables kept as columns

def _read_csv(path: Path) -> dict[str, list]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    header, body = rows[0], rows[1:]
    return {col: [_cell(r[i]) for r in body] for i, col in enumerate(header)}


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def extract(job: Job, out_dir: Path) -> dict:
    """The numbers a job produced.  Raises if an expected output is missing."""
    out = out_dir / job.out
    if job.kind == "rejected":
        return {"output_written": out.exists()}
    if job.kind == "dynamics":
        report = json.loads(out.with_suffix(".json").read_text())
        entries = report["entries"]
        return {"ok": report["ok"], "moments": _read_csv(out),
                "entries": {k: [e[k] for e in entries] for k in entries[0]}}
    if job.kind == "parseval":
        doc = json.loads(out.read_text())
        rec = doc["records"][0]
        keys = ("ok", "relative_l1", "l1_distance", "mass_time", "mass_resolvent")
        return {"suite_ok": doc["ok"], **{k: rec[k] for k in keys}}
    if job.kind == "spectrum":
        table = _read_csv(out)
        summary = json.loads(out.with_suffix(".json").read_text())
        result = {"n_bands": summary["n_bands"], "total_measure": summary["total_measure"],
                  "min_width": summary["min_width"],
                  "bands": {c: table[c] for c in ("lo", "hi", "kind")},
                  "_levels": table["k"], "_indices": table["band_index"]}
        if "--measure" in job.args:
            rep = json.loads(out.with_suffix(".measure.json").read_text())
            rows = rep["rows"]
            result["measure_rows"] = {k: [r[k] for r in rows] for k in rows[0]}
            result["decay_respects_gamma"] = rep["decay_respects_gamma"]
            result["_measure_report"] = rep
        return result
    if job.kind == "covering":
        doc = json.loads(out.read_text())
        rec = doc["records"][0]
        return {"ok": rec["ok"], "violations": len(rec["violations"])}
    if job.kind == "powerlaw":
        return {"rows": _read_csv(out)}
    raise ValueError(f"unknown job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# invariants, checked on every seed

def _fib(k: int) -> int:
    a, b = 1, 1  # F_0 = F_1 = 1, the convention of quasidyn.traces
    for _ in range(k):
        a, b = b, a + b
    return a


def _all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def invariants(job: Job, result: dict, stderr: str) -> list[str]:
    """Problems with a job's result that no seed may show."""
    bad: list[str] = []
    if job.kind == "rejected":
        if DECADES_MESSAGE not in stderr:
            bad.append("refusal message missing from stderr")
        if result["output_written"]:
            bad.append("refused job wrote its moment table")
    elif job.kind == "dynamics":
        moments = result["moments"]
        n_p = job.args.count("--p")
        if len(moments["T"]) != int(job_option(job, "--Tcount")) * n_p:
            bad.append("moment table has the wrong number of rows")
        if not _all_finite(moments["T"] + moments["log_moment"]):
            bad.append("non-finite log-moment")
        if not result["ok"] or any(v == "soft-fail" for v in result["entries"]["verdict"]):
            bad.append("lower-bound verdict failed")
        if not _all_finite(result["entries"]["measured_slope"]):
            bad.append("non-finite slope")
    elif job.kind == "parseval":
        if not (result["ok"] and result["suite_ok"]):
            bad.append("parseval suite not ok")
        if not (math.isfinite(result["relative_l1"]) and result["relative_l1"] <= 0.02):
            bad.append(f"relative L1 {result['relative_l1']} above 0.02")
        for key in ("mass_time", "mass_resolvent"):
            if not abs(result[key] - 1.0) <= 0.01:
                bad.append(f"{key} {result[key]} not within 0.01 of 1")
    elif job.kind == "spectrum":
        bad += _band_invariants(job, result)
    elif job.kind == "covering":
        if not result["ok"] or result["violations"]:
            bad.append("band covering violated")
    elif job.kind == "powerlaw":
        rows = result["rows"]
        expected = 20 if job_option(job, "--model") == "fib" else 2
        if len(rows["E"]) != expected:
            bad.append(f"{len(rows['E'])} energies, expected {expected}")
        if not _all_finite(rows["E"] + rows["c_estimate"] + rows["max_norm"]):
            bad.append("non-finite power-law row")
        if min(rows["max_norm"], default=0.0) < 1.0:
            bad.append("transfer norm below 1")
        if job_option(job, "--model") == "fib" and not all(v is True for v in rows["coding_bound_ok"]):
            bad.append("coding bound violated")
    return bad


def _band_invariants(job: Job, result: dict) -> list[str]:
    bad = []
    k = int(job_option(job, "--k"))
    lam = float(job_option(job, "--lambda"))
    bands = result["bands"]
    lo, hi = np.array(bands["lo"]), np.array(bands["hi"])
    if not (result["n_bands"] == lo.size == _fib(k)):
        bad.append(f"{lo.size} bands, expected F_{k} = {_fib(k)}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        bad.append("non-finite band edge")
    elif np.any(hi <= lo) or np.any(lo[1:] <= hi[:-1]):
        bad.append("bands not sorted, disjoint and of positive width")
    elif not math.isclose(result["total_measure"], float(np.sum(hi - lo)), rel_tol=1e-12):
        bad.append("total measure differs from the sum of widths")
    if set(result["_levels"]) != {k} or result["_indices"] != list(range(lo.size)):
        bad.append("band table rows are not level k numbered from 0")
    if lam > 4.0 and not all(kind in ("A", "B") for kind in bands["kind"]):
        bad.append("band left unclassified above coupling 4")
    if "measure_rows" in result:
        rows = result["measure_rows"]
        if rows["k"] != list(range(1, k + 1)):
            bad.append("measure report levels are not 1..k")
        if any(n != f or n != _fib(lev) for lev, n, f in zip(rows["k"], rows["n_bands"], rows["f_k"])):
            bad.append("measure report band count differs from F_k")
        if not result["decay_respects_gamma"]:
            bad.append("measure decay faster than the closed-form exponent")
        rep = result["_measure_report"]
        ratios = [b / a for a, b in zip(rows["min_width"], rows["min_width"][1:])]
        if not np.allclose(ratios, rep["min_width_ratios"], rtol=1e-12, atol=0.0):
            bad.append("width ratios inconsistent with the measure rows")
        slope = float(np.polyfit(np.log(rows["f_k"]), np.log(rows["measure"]), 1)[0])
        if not math.isclose(slope, rep["decay_exponent"], rel_tol=1e-9):
            bad.append("decay exponent inconsistent with the measure rows")
    return bad


# ---------------------------------------------------------------------------
# reference comparison, on the default seed

def _tolerance(key: str, row: dict) -> tuple[float, float]:
    """(absolute, relative) tolerance for one number, given its row or result."""
    if key in ("lo", "hi", "E"):
        return EDGE_TOL, 0.0
    if key == "min_width":
        return 2 * EDGE_TOL, 0.0
    if key in ("total_measure", "measure"):
        return 2 * EDGE_TOL * row["n_bands"], 0.0
    if key == "max_abs_trace_derivative":
        # the samples sit at band-interior points, which move with the edges
        return 0.0, 2 * EDGE_TOL / row["min_width"]
    return 0.0, REL_TOL


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(key: str, got, want, row: dict) -> bool:
    if _numeric(got) and _numeric(want) and (isinstance(got, float) or isinstance(want, float)):
        abs_tol, rel_tol = _tolerance(key, row)
        return abs(got - want) <= abs_tol + rel_tol * abs(want)
    return type(got) is type(want) and got == want


def compare(result: dict, reference: dict) -> list[str]:
    """Differences between a result and its reference beyond the tolerances."""
    bad = []
    for key, want in reference.items():
        got = result.get(key)
        if isinstance(want, dict):
            if not isinstance(got, dict) or set(got) != set(want):
                bad.append(f"{key}: columns differ from the reference")
                continue
            lengths = {len(col) for col in want.values()} | {len(col) for col in got.values()}
            if len(lengths) != 1:
                bad.append(f"{key}: row count differs from the reference")
                continue
            misses = []
            for i in range(lengths.pop()):
                want_row = {c: want[c][i] for c in want}
                misses += [f"{key}[{i}].{col}: {got[col][i]!r} vs reference {want_row[col]!r}"
                           for col in want if not _same(col, got[col][i], want_row[col], want_row)]
            if misses:
                bad.append(f"{len(misses)} value(s) differ from the reference, first {misses[0]}")
        elif not _same(key, got, want, reference):
            bad.append(f"{key}: {got!r} vs reference {want!r}")
    return bad


def reference_view(result: dict) -> dict:
    """The part of a result that is stored as reference and compared."""
    return {k: v for k, v in result.items() if not k.startswith("_") and k != "output_written"}
