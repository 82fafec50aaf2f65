"""Spin entanglement of two-particle wave packets in black-hole spacetimes.

The library follows one pipeline: a circular or radial path through a
static spherically symmetric metric produces a momentum-dependent spin
rotation angle; Gaussian averaging of its cosine and sine gives the trig
moments; those fix the Bell-state reduced density matrices, whose
Wootters concurrence and entanglement of formation quantify the
gravitationally induced spin decoherence.  Units are c = r_s = 1
throughout, with radii z = r/r_s and momenta in units of mc.
"""

from .errors import (
    AssertionFailure,
    ConvergenceError,
    DomainError,
    EmptyDataError,
    GraventError,
    HorizonError,
    NumericalError,
)
from .spacetime import (
    ChargedBlackHole,
    ETA,
    KruskalPoint,
    Tetrad,
    frame_transform_matrix,
    horizons,
    kruskal_map,
    kruskal_metric_matrix,
    kruskal_radius,
    kruskal_tetrad,
    metric_matrix,
    metric_potentials,
    outer_horizon,
    tetrad_static,
)
from .wigner import (
    CircularOrbitState,
    OrbitParams,
    circular_orbit_state,
    kruskal_rate,
    lambda_circular,
    lambda_radial,
    momentum_factor,
    product_integral,
    rotation_matrix,
    schwarzschild_rate,
    spin_rep,
    theta_amplitude,
    theta_circular,
    theta_zeros,
    wigner_rate_matrix,
    wigner_rate_w13,
)
from .entanglement import (
    BELL_STATES,
    BellState,
    CHI1,
    CHI2,
    CHI3,
    CHI4,
    MomentumDistribution,
    TrigMoments,
    batch_characteristic,
    batch_reduced_density_bruteforce,
    bell_state,
    binary_entropy,
    density_matrix_diagnostics,
    entanglement_of_formation,
    reduced_density_bruteforce,
    reduced_density_closed,
    spin_flip,
    trig_moments,
    wootters_concurrence,
)
from .experiments import (
    FrameRateRow,
    RadialInvarianceReport,
    SweepRow,
    SweepSpec,
    figure_preset,
    find_entanglement_minima,
    frame_comparison,
    oracle_equivalence_report,
    radial_invariance_check,
    random_orbit_params,
    resolve_sweep,
    run_sweep,
    sweep_point,
    validation_checks,
)
from .output import emit_csv, emit_json, emit_svg

__version__ = "0.1.0"
