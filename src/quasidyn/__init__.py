"""Transfer matrices, trace maps, band spectra, and quantum transport for
one-dimensional aperiodic tight-binding chains."""

from quasidyn.lattice import (
    DomainError,
    Geometry,
    LatticeWindow,
    Model,
    PotentialSpec,
    ResourceError,
    ScaleOverflowError,
    TruncationError,
    one_step_matrix,
    perturb,
    potential_value,
    potential_values,
    spectral_norm,
    substitution_word,
    transfer_matrix,
    transfer_matrix_scaled,
)
from quasidyn.traces import (
    FIB_CONVENTION_ID,
    fib_invariant,
    fib_matrices,
    fib_trace_orbit,
    fibonacci_numbers,
    indexing_convention_report,
    pd_special_energies,
    subst_trace_orbit,
    subst_transfer,
    tm_special_energies,
)
from quasidyn.spectra import (
    Band,
    BandKind,
    BandSet,
    approximant_spectrum,
    bound_parameters,
    classify_bands,
    covering_check,
    derivative_ratio_check,
    f_pm,
    genealogy_check,
    measure_report,
    trace_bound_check,
)
from quasidyn.dynamics import (
    AmplitudeProfile,
    BoundReport,
    GoodSetInput,
    MomentSeries,
    Verdict,
    bound_report,
    complex_energy_bound_check,
    evolve_state,
    growth_exponent,
    moment_series,
    moments,
    outside_probability,
    powerlaw_check,
    profile_resolvent,
    profile_time,
    profiles_time_ladder,
    resolvent_vector,
    good_set_moment_bound,
)

__version__ = "0.1.0"
