"""The benchmark's span tracer wraps quasidyn functions by name and reads
work counters from their arguments; these names must keep existing."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

#: layer -> the argument its work counter reads, for the layers that read one
COUNTER_ARGUMENT = {
    "lattice.potential": "sites",
    "traces.grid": "energies",
    "spectra.edges": "k",
    "cli.write": "path",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_name_functions_with_their_counter_arguments():
    tracer = _load_tracer()
    assert set(COUNTER_ARGUMENT) <= set(tracer.COUNTERS)
    for layer, (module_name, names) in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"{layer}: {module_name}.{name} is gone"
            params = inspect.signature(fn).parameters
            if layer in COUNTER_ARGUMENT:
                assert COUNTER_ARGUMENT[layer] in params, f"{module_name}.{name}"
    # evolve_state's propagate count reads its time argument
    from quasidyn.dynamics import evolve_state

    assert "t" in inspect.signature(evolve_state).parameters


def test_propagate_counts_read_real_time_route_results():
    # the propagate counters read dt, t_max and the window size from what
    # the time route returns; a rename there would zero them silently
    from quasidyn.dynamics import evolve_state, profile_time, profiles_time_ladder
    from quasidyn.lattice import LatticeWindow, Model, PotentialSpec

    tracer = _load_tracer()
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    ladder = profiles_time_ladder(spec, [2.0, 5.0])
    counts = tracer._propagate_counts({}, ladder)
    samples = round(ladder[-1].meta["t_max"] / ladder[-1].meta["dt"]) + 1
    assert counts["site_steps"] == samples * ladder[-1].window.size > 0
    assert 0 < counts["cone_site_steps"] <= counts["site_steps"]
    assert tracer._propagate_counts({}, profile_time(spec, 2.0))["site_steps"] > 0
    window = LatticeWindow(-40, 40)
    counts = tracer._propagate_counts({"t": 5.0}, evolve_state(spec, 5.0, window))
    assert counts["site_steps"] == window.size


def test_resolvent_counts_read_real_resolvent_results():
    # the resolvent counter reads the grid size from the profile's metadata;
    # a renamed key would zero dynamics.resolvent.solves silently
    from quasidyn.dynamics import profile_resolvent, resolvent_vector
    from quasidyn.lattice import LatticeWindow, Model, PotentialSpec

    tracer = _load_tracer()
    spec = PotentialSpec(Model.THUE_MORSE, 1.0)
    prof = profile_resolvent(spec, 2.0)
    assert tracer._resolvent_counts({}, prof)["solves"] == prof.meta["grid_points"] > 0
    phi = resolvent_vector(spec, 0.3 + 0.5j, LatticeWindow(-20, 20))
    assert tracer._resolvent_counts({}, phi) == {"solves": 1}


def test_transfer_counts_read_real_norm_sweeps():
    # the transfer counter reads len() of what transfer_norms_from_origin
    # returns: the m in -m_max..m_max on the whole line, 1..m_max on the half line
    from quasidyn.dynamics import transfer_norms_from_origin
    from quasidyn.lattice import Geometry, Model, PotentialSpec

    count = _load_tracer().COUNTERS["dynamics.transfer"]
    m_max = 50
    for geometry, products in ((Geometry.WHOLE_LINE, 2 * m_max), (Geometry.HALF_LINE, m_max - 1)):
        spec = PotentialSpec(Model.FIBONACCI, 1.0, geometry)
        norms = transfer_norms_from_origin(spec, 0.3, m_max)
        assert count({}, norms) == {"site_products": products}
