"""Span tracing around the calls into quasidyn's layers.

The benchmark never edits the program: it replaces the public functions of
each layer, in every ``quasidyn`` module namespace that holds them, by a
wrapper that records one span per call.  A span carries the layer name, the
function, start and end (``time.perf_counter``), the parent span, the job id,
whether an exception escaped it, whether its arguments repeat an earlier
call's in the same job, and the work counters read from its arguments and
result.  Spans stay in memory and are written out when the job ends.

A call made while a span of the same layer is open (``profile_time`` calling
``profiles_time_ladder``, ``genealogy_check`` calling ``classify_bands``) is
part of that span and records nothing of its own.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import inspect
import os
import sys
import time

import numpy as np

# layer -> (defining module, public functions).  The layer names are the
# per-layer metric prefixes documented in bench/README.md.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "lattice.potential": ("quasidyn.lattice", ("potential_values",)),
    "traces.grid": ("quasidyn.traces", ("fib_trace_orbit_grid", "trace_derivative_grid")),
    "traces.roots": ("quasidyn.traces", ("pd_special_energies", "tm_special_energies",
                                         "pd_root_certificates", "tm_root_certificates")),
    "spectra.edges": ("quasidyn.spectra", ("approximant_spectrum",)),
    "spectra.laws": ("quasidyn.spectra", ("classify_bands", "covering_check",
                                          "genealogy_check", "measure_report",
                                          "derivative_ratio_check")),
    "dynamics.propagate": ("quasidyn.dynamics", ("profiles_time_ladder", "profile_time",
                                                 "evolve_state")),
    "dynamics.resolvent": ("quasidyn.dynamics", ("profile_resolvent", "resolvent_vector")),
    "dynamics.transfer": ("quasidyn.dynamics", ("transfer_norms_from_origin",)),
    "dynamics.bound": ("quasidyn.dynamics", ("bound_report",)),
    "dynamics.moments": ("quasidyn.dynamics", ("moments", "moment_series")),
    "dynamics.fit": ("quasidyn.dynamics", ("growth_exponent",)),
    "cli.write": ("quasidyn.cli", ("write_csv", "write_json")),
}

# Layers whose calls are keyed by their arguments to count repeats.  Keying
# hashes array arguments, so it is kept off the layers called thousands of
# times per job.
KEYED_LAYERS = frozenset({"dynamics.propagate", "dynamics.transfer", "spectra.edges"})


# ---------------------------------------------------------------------------
# argument keys

def canonical(value):
    """A hashable form of ``value`` under which equal arguments compare equal.

    NumPy scalars become Python numbers and lists become tuples, so the
    sorted float list ``bound_report`` passes and the ``np.geomspace`` list
    the CLI passes give the same key.
    """
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return ("ndarray", data.dtype.str, data.shape, hashlib.sha1(data.tobytes()).hexdigest())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), canonical(v)) for k, v in value.items()))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, canonical(getattr(value, f.name))) for f in dataclasses.fields(value))
    if value is None or isinstance(value, (bool, int, float, complex, str)):
        return value
    return (type(value).__name__, repr(value))


def call_key(name: str, arguments: dict) -> tuple:
    """Key of one call: the function name and its bound, defaulted arguments."""
    return (name,) + tuple((k, canonical(v)) for k, v in arguments.items())


# ---------------------------------------------------------------------------
# work counters, read from a call's bound arguments and its result

def _approximant_sites(k: int) -> int:
    """Period of the level-k approximant: F_k sites, one site at level 0."""
    from quasidyn.traces import fibonacci_numbers

    return int(fibonacci_numbers(k)[k]) if k >= 1 else 1


def _light_cone_sites(window_size: int, times: np.ndarray) -> int:
    """Site-steps inside the ``default_window_radius(t)`` cone, clipped to the window."""
    from quasidyn.dynamics import default_window_radius

    radii = np.array([default_window_radius(float(t)) for t in times], dtype=np.int64)
    return int(np.sum(np.minimum(window_size, 2 * radii + 1)))


def _propagate_counts(arguments: dict, result) -> dict:
    if isinstance(result, np.ndarray):  # evolve_state: one expansion to time t
        times = np.array([float(arguments["t"])])
        size = result.size
    else:  # one profile, or a ladder's profiles sampled on one time grid
        profiles = result if isinstance(result, list) else [result]
        size = profiles[0].window.size
        dt = float(profiles[0].meta["dt"])
        samples = int(round(max(p.meta["t_max"] for p in profiles) / dt)) + 1
        times = dt * np.arange(samples)
    return {"site_steps": size * times.size, "cone_site_steps": _light_cone_sites(size, times)}


def _resolvent_counts(arguments: dict, result) -> dict:
    if isinstance(result, np.ndarray):  # resolvent_vector: one banded solve
        return {"solves": 1}
    return {"solves": int(result.meta["grid_points"])}


def _write_counts(arguments: dict, result) -> dict:
    return {"bytes": os.path.getsize(arguments["path"])}


COUNTERS = {
    "lattice.potential": lambda a, r: {"sites": int(np.size(a["sites"]))},
    "traces.grid": lambda a, r: {"points": int(np.size(a["energies"]))},
    "spectra.edges": lambda a, r: {"sites": _approximant_sites(int(a["k"]))},
    "dynamics.propagate": _propagate_counts,
    "dynamics.resolvent": _resolvent_counts,
    "dynamics.transfer": lambda a, r: {"site_products": len(r) - 1},
    "cli.write": _write_counts,
}


# ---------------------------------------------------------------------------
# recording

class Tracer:
    """Records spans for one job process."""

    def __init__(self, job_id: str, clock=time.perf_counter):
        self.job_id = job_id
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._seen: set = set()

    def wrap(self, layer: str, fn):
        signature = inspect.signature(fn)
        keyed = layer in KEYED_LAYERS
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1]["layer"] == layer:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "job": self.job_id, "layer": layer,
                    "fn": fn.__name__,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "error": False, "repeat": False, "counts": {}}
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if keyed:
                key = call_key(fn.__name__, bound.arguments)
                span["repeat"] = key in self._seen
                self._seen.add(key)
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every layer function in every loaded ``quasidyn`` module."""
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(layer, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "quasidyn" or mod_name.startswith("quasidyn.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _zero_totals() -> dict:
    return {"s": 0.0, "self_s": 0.0, "calls": 0, "repeat_calls": 0, "errors": 0, "counts": {}}


def job_layer_totals(spans: list[dict], wall: float) -> dict:
    """Per-layer sums for one job: inclusive and self time, calls, repeats,
    errors and work counters, plus the CLI's own time (``wall`` minus the
    top-level spans)."""
    own = self_times(spans)
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s["layer"], _zero_totals())
        t["s"] += s["end"] - s["start"]
        t["self_s"] += own[s["id"]]
        t["calls"] += 1
        t["repeat_calls"] += int(s["repeat"])
        t["errors"] += int(s["error"])
        for name, value in s["counts"].items():
            t["counts"][name] = t["counts"].get(name, 0) + value
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    totals["cli.self"] = dict(_zero_totals(), s=wall - top, self_s=wall - top, calls=1)
    return totals


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(totals: dict) -> dict[str, float]:
    """The per-layer metric values (see bench/README.md) from summed totals."""
    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def count(layer, key):
        return totals.get(layer, {}).get("counts", {}).get(key, 0)

    m: dict[str, float] = {}
    prop_steps = count("dynamics.propagate", "site_steps")
    for layer, work in (("dynamics.propagate", "site_steps"),
                        ("dynamics.resolvent", "solves"),
                        ("dynamics.transfer", "site_products"),
                        ("spectra.edges", "sites")):
        m[f"{layer}.s"] = get(layer, "s")
        m[f"{layer}.calls"] = get(layer, "calls")
        if layer in KEYED_LAYERS:
            m[f"{layer}.repeat_calls"] = get(layer, "repeat_calls")
        m[f"{layer}.{work}"] = count(layer, work)
        m[f"{layer}.{work}_per_s"] = _rate(count(layer, work), get(layer, "s"))
    m["dynamics.propagate.cone_share"] = (
        count("dynamics.propagate", "cone_site_steps") / prop_steps if prop_steps else 0.0)
    for layer in ("spectra.laws", "dynamics.bound"):
        m[f"{layer}.self_s"] = get(layer, "self_s")
        m[f"{layer}.calls"] = get(layer, "calls")
    for layer, work in (("traces.grid", "points"), ("traces.roots", None),
                        ("lattice.potential", "sites"), ("dynamics.moments", None),
                        ("dynamics.fit", None)):
        m[f"{layer}.s"] = get(layer, "s")
        m[f"{layer}.calls"] = get(layer, "calls")
        if work:
            m[f"{layer}.{work}"] = count(layer, work)
    m["cli.write.s"] = get("cli.write", "s")
    m["cli.write.bytes"] = count("cli.write", "bytes")
    m["cli.self.s"] = get("cli.self", "s")
    for layer in LAYERS:
        m[f"{layer}.errors"] = get(layer, "errors")
    return m


def merge_totals(per_job: list[dict]) -> dict:
    """Sum per-job layer totals over the jobs of one workload pass."""
    out: dict[str, dict] = {}
    for totals in per_job:
        for layer, t in totals.items():
            acc = out.setdefault(layer, _zero_totals())
            for key in ("s", "self_s", "calls", "repeat_calls", "errors"):
                acc[key] += t[key]
            for name, value in t["counts"].items():
                acc["counts"][name] = acc["counts"].get(name, 0) + value
    return out
