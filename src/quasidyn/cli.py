"""Command-line front end: deterministic experiment runs with CSV/JSON output.

Subcommands
-----------
spectrum   band table of a Fibonacci periodic approximant
trace      trace orbits (and special-energy root lists) for any model
verify     named invariant suites with a machine-readable report
dynamics   moment ladders and lower-bound verdicts
powerlaw   transfer-matrix power-law and block-coding bound sweeps

Every output file embeds the tool version, the block-indexing convention,
the tolerances in force, and a hash of the resolved configuration, so that
identical configurations yield byte-identical files.

One runner, :class:`_Run`, sets every exit code: 0 or 1 as a command's checks
pass or fail, else the code ``ERRORS`` gives the library error that ended it
(``budget`` 3; ``truncation``, ``overflow``, ``band-count``, ``classification``
1).  A ``DomainError`` or an out-of-range option is a usage error (exit 2).
Every other run prints one JSON run line on stderr, ``command``, ``exit`` and
``wall_s``, plus ``error`` and ``message`` for an error; keeping timing out of
the files preserves the determinism contract.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from quasidyn import __version__
from quasidyn.lattice import (
    DomainError,
    Geometry,
    Model,
    PotentialSpec,
    ResourceError,
    ScaleOverflowError,
    TruncationError,
    _check_memory,
    _check_word_length,
    potential_values,
)
from quasidyn.traces import (
    FIB_CONVENTION_ID,
    fib_trace_orbit,
    indexing_convention_report,
    pd_special_energies,
    subst_trace_orbit,
    tm_special_energies,
)
from quasidyn import dynamics, spectra

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_RESOURCE = 3

#: The one error table: library error -> (error kind, exit code).
ERRORS: dict[type[Exception], tuple[str, int]] = {
    ResourceError: ("budget", EXIT_RESOURCE),
    TruncationError: ("truncation", EXIT_CHECK_FAILED),
    ScaleOverflowError: ("overflow", EXIT_CHECK_FAILED),
    spectra.BandCountError: ("band-count", EXIT_CHECK_FAILED),
    spectra.ClassificationError: ("classification", EXIT_CHECK_FAILED),
}


class _Number(click.FloatRange):
    """A float option within its range, never NaN, and finite unless ``allow_inf``.

    NaN passes every comparison of ``click.FloatRange``, so it is refused here.
    """

    def __init__(self, *args, allow_inf: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.allow_inf = allow_inf

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if math.isnan(number) or (math.isinf(number) and not self.allow_inf):
            self.fail(f"{number} is not a finite number.", param, ctx)
        return number

    def _describe_range(self) -> str:
        return super()._describe_range() if (self.min, self.max) != (None, None) else "finite"


_FLOAT = _Number()
_POSITIVE = _Number(min=0.0, min_open=True)
_NONNEGATIVE = _Number(min=0.0)
#: A work budget: positive, and inf for none.
_BUDGET = _Number(min=0.0, min_open=True, allow_inf=True)
_GEOMETRY = click.Choice([g.value for g in Geometry])

#: One ``--perturb`` item: an integer site, a colon and a decimal value.
_SITE_VALUE = re.compile(r"[+-]?\d+:[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


# ---------------------------------------------------------------------------
# configuration and deterministic writers

@dataclass
class RunConfig:
    """Resolved run configuration, read from flat key=value text."""

    command: str
    values: dict = field(default_factory=dict)

    def hash(self) -> str:
        canon = "\n".join(f"{k}={self.values[k]}" for k in sorted(self.values))
        return hashlib.sha256(f"{self.command}\n{canon}".encode()).hexdigest()[:16]

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values: dict = {}
        command = ""
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key == "command":
                command = val
            else:
                values[key] = val
        return cls(command=command, values=values)


def _flags_or_file(path: str | None, **keys: str) -> list:
    """Each option ``name=key`` from its flag if given, else from the config file's
    ``key``, else its default.  A file value passes the same checks as the flag,
    through the option's type.  A file key the command does not read, or a
    ``command`` line naming another command, is a usage error.
    """
    ctx = click.get_current_context()
    config = RunConfig.from_text(Path(path).read_text()) if path else RunConfig(ctx.command.name)
    refused = sorted(set(config.values) - set(keys.values()))
    if config.command not in ("", ctx.command.name):
        refused.insert(0, f"command={config.command}")
    if refused:
        raise click.UsageError(f"{ctx.command.name} reads only the config keys "
                               f"{', '.join(keys.values())}; not read: {', '.join(refused)}")
    values = []
    for name, key in keys.items():
        if ctx.get_parameter_source(name) is ParameterSource.DEFAULT and key in config.values:
            (param,) = (p for p in ctx.command.params if p.name == name)
            values.append(param.type_cast_value(ctx, config.values[key]))
        else:
            values.append(ctx.params[name])
    return values


#: Cell formatters, tried in order against a cell's type (the first that matches).
_FORMATS = (
    ((bool, np.bool_), lambda v: "true" if v else "false"),
    ((float, np.floating), lambda v: f"{float(v):.17g}"),
    ((int, np.integer), lambda v: str(int(v))),
    (enum.Enum, lambda v: str(v.value)),
    (object, str),
)


@functools.cache
def _formatter(cls: type):
    return next(fmt for types, fmt in _FORMATS if issubclass(cls, types))


def _fmt(value) -> str:
    """A CSV cell or config value as text; the formatter is looked up once per type."""
    return _formatter(type(value))(value)


def _meta_lines(config: RunConfig, tolerances: dict) -> list[str]:
    meta = {
        "tool": f"quasidyn {__version__}",
        "convention": FIB_CONVENTION_ID,
        "config_hash": config.hash(),
        **{f"tol_{k}": _fmt(v) for k, v in sorted(tolerances.items())},
    }
    return [f"# {k}: {meta[k]}" for k in sorted(meta)]


def write_csv(path: Path, config: RunConfig, tolerances: dict,
              header: list[str], rows: list[tuple]) -> None:
    lines = _meta_lines(config, tolerances)
    lines.append(",".join(header))
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, config: RunConfig, tolerances: dict, payload: dict) -> None:
    doc = {
        "meta": {
            "tool": f"quasidyn {__version__}",
            "convention": FIB_CONVENTION_ID,
            "config_hash": config.hash(),
            "tolerances": _jsonable(tolerances),
        },
        **_jsonable(payload),
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _build_spec(model: str, lam: float, geometry: str, seed: str | None,
                perturb_sites: tuple[str, ...]) -> PotentialSpec:
    """The spec of the options; a ``--perturb`` site given twice is refused by
    ``PotentialSpec`` (usage error)."""
    overlay = []
    for item in perturb_sites:
        if not _SITE_VALUE.fullmatch(item):
            raise DomainError(f"--perturb expects SITE:VALUE, got {item!r}")
        site, _, value = item.partition(":")
        overlay.append((int(site), float(value)))
    return PotentialSpec(Model.parse(model), lam,
                         Geometry(geometry), seed=seed, perturbation=tuple(overlay))


class _Run(click.Command):
    """Every subcommand: its body's ``ok``, or an ``ERRORS`` error, sets the exit code."""

    def invoke(self, ctx: click.Context):
        t_start = time.monotonic()
        # the process's CPU up to here: interpreter start-up and imports
        line: dict = {"command": self.name, "setup_cpu_s": round(time.process_time(), 3)}
        try:
            code = EXIT_OK if super().invoke(ctx) else EXIT_CHECK_FAILED
        except DomainError as err:
            raise click.UsageError(str(err), ctx) from None
        except tuple(ERRORS) as err:
            kind, code = next(ERRORS[t] for t in type(err).__mro__ if t in ERRORS)
            line.update(error=kind, message=str(err))
        line.update(exit=code, wall_s=round(time.monotonic() - t_start, 3))
        click.echo(json.dumps(line, sort_keys=True), err=True)
        ctx.exit(code)


class _Main(click.Group):
    command_class = _Run


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Quantum dynamics of one-dimensional aperiodic chains."""


# ---------------------------------------------------------------------------
# spectrum

@main.command()
@click.option("--model", default="fib", show_default=True)
@click.option("--lambda", "lam", type=_FLOAT, default=0.0, help="coupling constant")
@click.option("--k", type=int, default=0, help="approximant level")
@click.option("--measure", "with_measure", is_flag=True,
              help="also emit the measure-decay report JSON (coupling above 4)")
@click.option("--out", type=click.Path(path_type=Path), default=Path("bands.csv"),
              show_default=True, help="band CSV path; a JSON summary sits next to it")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def spectrum(model, lam, k, with_measure, out, config_path):
    """Band table of the level-k Fibonacci periodic approximant."""
    lam, k, model = _flags_or_file(config_path, lam="lambda", k="k", model="model")
    model = Model.parse(model)
    if model is not Model.FIBONACCI:
        raise click.UsageError("band spectra are computed for the Fibonacci model only")
    if lam <= 0:
        raise click.UsageError("--lambda must be positive")
    if k < 1:
        raise click.UsageError("--k must be at least 1")
    if with_measure and lam <= 4.0:
        raise click.UsageError("--measure needs coupling above 4")
    config = RunConfig("spectrum", {"model": model.value, "lambda": _fmt(lam), "k": k})
    if lam > 4.0 and k >= 2:
        bands = spectra.classify_bands(lam, k)
    else:
        bands = spectra.approximant_spectrum(lam, k)
    rows = [(k, i, b.lo, b.hi, b.width, b.kind.value) for i, b in enumerate(bands)]
    write_csv(out, config, {},
              ["k", "band_index", "lo", "hi", "width", "kind"], rows)
    write_json(out.with_suffix(".json"), config, {}, {
        "lambda": lam,
        "k": k,
        "n_bands": len(bands),
        "total_measure": bands.total_measure,
        "min_width": bands.min_width,
    })
    if with_measure:
        measure = spectra.measure_report(lam, k)
        write_json(out.with_suffix(".measure.json"), config, {}, measure)
    click.echo(f"{len(bands)} bands -> {out}")
    return True


# ---------------------------------------------------------------------------
# trace

@main.command()
@click.option("--model", required=True)
@click.option("--lambda", "lam", type=_FLOAT, required=True)
@click.option("--energy", "--E", "energy", type=_FLOAT, default=0.0, show_default=True)
@click.option("--kmax", type=click.IntRange(min=1), default=12, show_default=True)
@click.option("--roots", "roots_level", type=int, default=None,
              help="emit the special-energy root list of this level instead of an orbit")
@click.option("--potential", "potential_range", default=None, metavar="LO:HI",
              help="emit the potential sequence (site, value) on this range instead")
@click.option("--geometry", type=_GEOMETRY, default="whole-line", show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("trace.csv"),
              show_default=True)
def trace(model, lam, energy, kmax, roots_level, potential_range, geometry, out):
    """Trace orbit CSV (k, x_k[, y_k]), root list, or potential sequence."""
    model = Model.parse(model)
    config = RunConfig("trace", {"model": model.value, "lambda": _fmt(lam),
                                 "energy": _fmt(energy), "kmax": kmax,
                                 "roots": roots_level if roots_level is not None else "",
                                 "potential": potential_range or "",
                                 "geometry": geometry})
    if potential_range is not None:
        bounds = re.fullmatch(r"([+-]?\d+):([+-]?\d+)", potential_range)
        if bounds is None:
            raise click.UsageError("--potential expects LO:HI with integer sites")
        lo, hi = (int(b) for b in bounds.groups())
        if lo > hi:
            raise click.UsageError("--potential range must satisfy LO <= HI")
        _check_word_length(hi - lo + 1, f"--potential range {potential_range}")
        spec = _build_spec(model.value, lam, geometry, None, ())
        sites = np.arange(lo, hi + 1)
        values = potential_values(spec, sites)
        write_csv(out, config, {}, ["site", "value"], list(zip(sites, values)))
        click.echo(f"{sites.size} sites -> {out}")
        return True
    if roots_level is not None:
        finders = {Model.PERIOD_DOUBLING: pd_special_energies,
                   Model.THUE_MORSE: tm_special_energies}
        if model not in finders:
            raise click.UsageError("root lists exist for the pd and tm models")
        roots = finders[model](lam, roots_level)
        write_csv(out, config, {}, ["index", "E_root"],
                  [(i, e) for i, e in enumerate(roots)])
        click.echo(f"{roots.size} roots -> {out}")
        return True
    if model is Model.FIBONACCI:
        orbit = fib_trace_orbit(lam, energy, kmax)
        columns = {"x_k": orbit.xs}
    elif model in (Model.PERIOD_DOUBLING, Model.THUE_MORSE):
        orbit = subst_trace_orbit(model, lam, energy, kmax)
        columns = {"x_k": orbit.xs, "y_k": orbit.ys}
    else:
        raise click.UsageError("trace orbits exist for fib, pd, and tm models")
    # the levels before the overflow gate
    stop = orbit.overflow_at if orbit.overflow_at is not None else kmax + 1
    write_csv(out, config, {}, ["k", *columns], list(zip(range(stop), *columns.values())))
    click.echo(f"orbit to k={kmax} -> {out}")
    return True


# ---------------------------------------------------------------------------
# verify

def _suite_invariant(lam: float, samples: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    target_tol = 1e-9
    worst = 0.0
    checked = 0
    for _ in range(samples):
        lam_s = lam if lam > 0 else rng.uniform(0.1, 4.0)
        energy = rng.uniform(-4.0, 4.0)
        orbit = fib_trace_orbit(lam_s, energy, 25)
        inv = orbit.invariant_values()
        target = 4.0 + lam_s * lam_s
        xs = orbit.xs
        for j in range(1, 24):
            if not np.isfinite(inv[j]):
                continue
            if max(abs(xs[j - 1]), abs(xs[j]), abs(xs[j + 1])) > 1e6:
                continue
            worst = max(worst, abs(inv[j] - target) / target)
            checked += 1
    return {"name": "fibonacci-invariant", "ok": worst < target_tol,
            "max_relative_drift": worst, "tolerance": target_tol,
            "triples_checked": checked, "samples": samples}


def _suite_algebra(lam: float) -> dict:
    report = indexing_convention_report(lam=lam if lam > 0 else 1.0)
    ok = report["adopted"] == "A(F_k)...A(1)" and report["residual_adopted"] < 1e-10
    return {"name": "block-convention", "ok": ok, **report}


def _suite_covering(lam: float, mmax: int) -> dict:
    worst: list = []
    for m in range(2, mmax + 1):
        rep = spectra.covering_check(lam, m)
        if not rep.ok:
            worst.extend(rep.violations)
    return {"name": "band-covering", "ok": not worst, "lambda": lam,
            "mmax": mmax, "violations": worst}


def _suite_parseval(model: str, lam: float, T: float, max_cost: float) -> dict:
    spec = PotentialSpec(Model.parse(model), lam)
    dynamics._profile_setup(spec, [T], None, max_cost, resolvent=True)
    prof_t = dynamics.profile_time(spec, T)
    prof_r = dynamics.profile_resolvent(spec, T, window=prof_t.window)
    l1 = float(np.sum(np.abs(prof_t.a - prof_r.a)))
    rel = l1 / prof_t.total_mass
    return {"name": "parseval-cross-validation", "ok": rel <= 0.02,
            "model": model, "lambda": lam, "T": T,
            "l1_distance": l1, "relative_l1": rel, "tolerance": 0.02,
            "mass_time": prof_t.total_mass, "mass_resolvent": prof_r.total_mass}


@main.command()
@click.argument("suite", type=click.Choice(["invariant", "algebra", "covering", "parseval"]))
@click.option("--model", default="fib", show_default=True)
@click.option("--lambda", "lam", type=_FLOAT, default=0.0,
              help="coupling; 0 samples couplings at random where applicable")
@click.option("--samples", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--T", "t_avg", type=_POSITIVE, default=50.0, show_default=True)
@click.option("--mmax", type=click.IntRange(min=2), default=9, show_default=True)
@click.option("--seed", type=int, default=20250808, show_default=True)
@click.option("--max-cost", type=_BUDGET, default=5e10, show_default=True,
              help="parseval: refuse a time-route sweep (site-steps) or resolvent "
                   "quadrature (grid points x sites) above this")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def verify(suite, model, lam, samples, t_avg, mmax, seed, max_cost, out):
    """Run one named invariant suite and emit a JSON report."""
    config = RunConfig("verify", {"suite": suite, "model": model, "lambda": _fmt(lam),
                                  "samples": samples, "T": _fmt(t_avg), "mmax": mmax,
                                  "seed": seed})
    if suite == "invariant":
        record = _suite_invariant(lam, samples, seed)
    elif suite == "algebra":
        record = _suite_algebra(lam)
    elif suite == "covering":
        record = _suite_covering(lam if lam > 0 else 5.0, mmax)
    else:
        record = _suite_parseval(model, lam, t_avg, max_cost)
    payload = {"suite": suite, "records": [record], "ok": record["ok"]}
    if out is not None:
        write_json(out, config, {}, payload)
    else:
        click.echo(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
    return record["ok"]


# ---------------------------------------------------------------------------
# dynamics

@main.command(name="dynamics")
@click.option("--model", required=True)
@click.option("--lambda", "lam", type=_FLOAT, default=0.0, show_default=True)
@click.option("--p", "p_values", type=_POSITIVE, multiple=True, default=(2.0,),
              show_default=True)
@click.option("--Tmax", "t_max", type=_POSITIVE, default=1000.0, show_default=True)
@click.option("--Tcount", "t_count", type=click.IntRange(min=5), default=7, show_default=True)
@click.option("--Tmin", "t_min", type=_POSITIVE, default=10.0, show_default=True)
@click.option("--bound", "bound_id", default=None,
              help="bound formula id; defaults to the model's own bound")
@click.option("--slope-tol", type=_FLOAT, default=0.15, show_default=True)
@click.option("--perturb", "perturb_sites", multiple=True,
              help="site:value overlay, repeatable")
@click.option("--window", "window_radius", type=click.IntRange(min=1), default=None,
              help="window radius override (default: light-cone sized)")
@click.option("--geometry", type=_GEOMETRY, default="whole-line", show_default=True)
@click.option("--seed-word", "seed", default=None)
@click.option("--max-cost", type=_BUDGET, default=5e10, show_default=True)
@click.option("--alpha", type=_NONNEGATIVE, default=None,
              help="power-law exponent alpha of the one-energy bound")
@click.option("--eta", type=_NONNEGATIVE, default=None,
              help="exponent eta of the power-eta bound")
@click.option("--out", type=click.Path(path_type=Path), default=Path("moments.csv"),
              show_default=True, help="moment CSV path; the report JSON sits next to it")
@click.option("--profile-out", type=click.Path(path_type=Path), default=None,
              help="also write the site profile (n, a) at the largest T")
@click.option("--profile-method", type=click.Choice(["time", "resolvent"]),
              default="time", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def dynamics_cmd(model, lam, p_values, t_max, t_count, t_min, bound_id, slope_tol,
                 perturb_sites, window_radius, geometry, seed, max_cost, alpha, eta, out,
                 profile_out, profile_method, config_path):
    """Moment ladder CSV plus a lower-bound verdict JSON."""
    lam, t_max = _flags_or_file(config_path, lam="lambda", t_max="Tmax")
    if Model.parse(model) is not Model.FREE and lam <= 0:
        raise click.UsageError("--lambda must be positive for the aperiodic models")
    exponents = {name: value for name, value in (("alpha", alpha), ("eta", eta))
                 if value is not None}
    spec = _build_spec(model, lam, geometry, seed, perturb_sites)
    # the time route holds 16 bytes per ladder time on each window site, and
    # no window has fewer than one site
    _check_memory(16 * t_count, f"a ladder of {t_count} times", "lower Tcount")
    t_values = list(np.geomspace(t_min, t_max, t_count))
    config = RunConfig("dynamics", {
        "model": spec.model.value, "lambda": _fmt(lam), "geometry": geometry,
        "p": ",".join(_fmt(p) for p in p_values), "Tmin": _fmt(t_min),
        "Tmax": _fmt(t_max), "Tcount": t_count,
        "bound": bound_id or dynamics.default_bound_id(spec.model),
        "slope_tol": _fmt(slope_tol),
        "perturb": ";".join(perturb_sites),
        "window": window_radius if window_radius is not None else "",
        **{name: _fmt(value) for name, value in exponents.items()},
        **({"seed": seed} if seed is not None else {}),
    })
    window = None if window_radius is None else dynamics._origin_window(spec, window_radius)
    if profile_out is not None and profile_method == "resolvent":
        # the resolvent profile at the largest T counts before the ladder sweeps
        dynamics._profile_setup(spec, t_values, window, max_cost, resolvent=True)
    report = dynamics.bound_report(spec, list(p_values), t_values, bound_id,
                                   slope_tolerance=slope_tol, max_cost=max_cost,
                                   window=window, alpha=alpha, eta=eta)
    profiles = report.profiles
    rows = [(T, series.p, logm) for series in report.series for T, logm in series.points]
    tolerances = {"slope": slope_tol}
    write_csv(out, config, tolerances, ["T", "p", "log_moment"], rows)
    if profile_out is not None:
        prof = profiles[-1]
        if profile_method == "resolvent":
            prof = dynamics.profile_resolvent(spec, prof.T, window=prof.window)
        profile_config = RunConfig("dynamics-profile", {
            **config.values, "profile_method": profile_method,
            "profile_T": _fmt(prof.T),
            "window": f"{prof.window.lo}:{prof.window.hi}",
        })
        write_csv(profile_out, profile_config, tolerances, ["n", "a"],
                  list(zip(prof.sites(), prof.a)))
    write_json(out.with_suffix(".json"), config, tolerances, {
        "bound_id": report.bound_id,
        "spec": report.spec_description,
        "T_values": list(report.T_values),
        "entries": [{
            "p": e.p,
            "measured_slope": e.measured_slope,
            "slope_confidence": e.slope_confidence,
            "bound_slope": e.bound_slope,
            "verdict": e.verdict.value,
        } for e in report.entries],
        "ok": report.ok,
    })
    for e in report.entries:
        click.echo(f"p={e.p:g}: slope={e.measured_slope:.3f} bound={e.bound_slope:.3f} "
                   f"-> {e.verdict.value}")
    return report.ok


# ---------------------------------------------------------------------------
# powerlaw

@main.command()
@click.option("--model", required=True)
@click.option("--lambda", "lam", type=_FLOAT, required=True)
@click.option("--energy", "--E", "energies", type=_FLOAT, multiple=True,
              help="explicit energies; defaults per model")
@click.option("--from-level", "from_level", type=int, default=None,
              help="sample energies from this approximant level (fib only)")
@click.option("--count", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--mmax", type=click.IntRange(min=2), default=1000, show_default=True)
@click.option("--alpha", type=_NONNEGATIVE, default=None,
              help="power-law exponent; defaults to the model's own")
@click.option("--geometry", type=_GEOMETRY, default="whole-line", show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("powerlaw.csv"),
              show_default=True)
def powerlaw(model, lam, energies, from_level, count, mmax, alpha, geometry, out):
    """Transfer-norm power-law sweep with the Fibonacci coding bound."""
    spec = _build_spec(model, lam, geometry, None, ())
    if alpha is None and spec.model in dynamics.MODEL_ALPHA:
        alpha = dynamics.MODEL_ALPHA[spec.model](lam)
    if alpha is None:
        raise click.UsageError("--alpha is required for this model")
    energy_list = list(energies)
    if not energy_list:
        if spec.model is Model.FIBONACCI:
            level = from_level if from_level is not None else 10
            bands = spectra.approximant_spectrum(lam, level)
            picks = np.linspace(0, len(bands.bands) - 1, min(count, len(bands.bands)))
            energy_list = [0.5 * (bands.bands[int(i)].lo + bands.bands[int(i)].hi)
                           for i in picks]
        elif spec.model is Model.PERIOD_DOUBLING:
            energy_list = [0.0]
        elif spec.model is Model.THUE_MORSE:
            roots = tm_special_energies(lam, 3)
            energy_list = [float(e) for e in roots]
        else:
            raise click.UsageError("supply --energy for this model")
    config = RunConfig("powerlaw", {
        "model": spec.model.value, "lambda": _fmt(lam), "alpha": _fmt(alpha),
        "mmax": mmax, "energies": ",".join(_fmt(e) for e in energy_list),
        **({"geometry": geometry} if geometry != "whole-line" else {}),
    })
    rows = []
    all_ok = True
    d_const = spectra.bound_parameters(lam).d if spec.model is Model.FIBONACCI else None
    for energy in energy_list:
        norms = dynamics.transfer_norms_from_origin(spec, energy, mmax)
        rep = dynamics._powerlaw_report(norms, alpha)
        zk_ok = ""
        if d_const is not None:
            zk = dynamics._zeckendorf_report(norms, energy, mmax, d_const)
            zk_ok = zk["ok"]
            all_ok = all_ok and zk["ok"]
        rows.append((energy, rep.c_estimate, rep.argmax_m, rep.max_norm, zk_ok))
    write_csv(out, config, {}, ["E", "c_estimate", "argmax_m", "max_norm", "coding_bound_ok"],
              rows)
    click.echo(f"{len(rows)} energies -> {out}")
    return all_ok


if __name__ == "__main__":
    main()
