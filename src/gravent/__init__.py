"""Spin entanglement of two-particle wave packets in black-hole spacetimes.

The library follows one pipeline: a circular or radial path through a
static spherically symmetric metric produces a momentum-dependent spin
rotation angle; Gaussian averaging of its cosine and sine gives the trig
moments; those fix the Bell-state reduced density matrices, whose
Wootters concurrence and entanglement of formation quantify the
gravitationally induced spin decoherence.  Units are c = r_s = 1
throughout, with radii z = r/r_s and momenta in units of mc.
"""

import importlib

# Each public name, by the module that defines it.  A name is imported when
# it is first used (PEP 562), so `import gravent` loads no numpy until a
# name that needs it is read.
_EXPORTS = {
    "errors": ("AssertionFailure", "ConvergenceError", "DomainError", "EmptyDataError",
               "GraventError", "HorizonError", "NumericalError"),
    "roots": ("horizons", "outer_horizon", "theta_zeros"),
    "spacetime": ("ChargedBlackHole", "ETA", "KruskalPoint", "Tetrad",
                  "frame_transform_matrix", "kruskal_map", "kruskal_radius", "metric_matrix",
                  "metric_potentials", "tetrad_static"),
    "wigner": ("CircularOrbitState", "OrbitParams", "circular_orbit_state", "kruskal_rate",
               "lambda_circular", "lambda_radial", "momentum_factor", "product_integral",
               "rotation_matrix", "spin_rep", "theta_amplitude", "theta_circular",
               "wigner_rate", "wigner_rate_matrix", "wigner_rate_w13"),
    "entanglement": ("BELL_STATES", "BellState", "CHI1", "CHI2", "CHI3", "CHI4",
                     "MomentumDistribution", "TrigMoments", "batch_characteristic",
                     "batch_reduced_density_bruteforce", "batch_trig_moments", "bell_state",
                     "binary_entropy", "density_matrix_diagnostics", "entanglement_of_formation",
                     "reduced_density_bruteforce", "reduced_density_closed", "spin_flip",
                     "trig_moments", "wootters_concurrence"),
    "experiments": ("FrameRateRow", "RadialInvarianceReport", "SweepRow", "SweepSpec",
                    "figure_preset", "find_entanglement_minima", "frame_comparison",
                    "oracle_equivalence_report", "radial_invariance_check",
                    "random_orbit_params", "resolve_sweep", "run_sweep", "validation_checks"),
    "output": ("emit_csv", "emit_json", "emit_svg"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, such as gravent.wigner
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
