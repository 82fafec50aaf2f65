"""Property tests: pipeline invariants on drawn in-domain orbits.

Orbits are drawn from the ranges of random_orbit_params (clear of the
horizons, where the default quadrature converges); the sweep-mask test
draws grids across the domain's edges instead, with the quadrature
stubbed.  Draws are derandomized so that a run of the suite is
reproducible, and max_examples is kept small so that the module takes a
few seconds.
"""

import math
from dataclasses import asdict, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gravent.experiments as experiments
from gravent import (
    BELL_STATES,
    DomainError,
    HorizonError,
    MomentumDistribution,
    OrbitParams,
    SweepSpec,
    density_matrix_diagnostics,
    entanglement_of_formation,
    horizons,
    outer_horizon,
    reduced_density_bruteforce,
    reduced_density_closed,
    theta_amplitude,
    theta_circular,
    theta_zeros,
    trig_moments,
)
from gravent.experiments import _sweep_rows
from gravent.cli import render_sweep
from gravent.entanglement import Averages
from gravent.roots import MAX_MOMENTUM, MAX_RADIUS, no_orbit

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def orbits(draw, xi2_max=0.29):
    xi2 = draw(st.floats(0.0, xi2_max))
    floor = (outer_horizon(xi2) or 0.0) + 0.6
    return OrbitParams(
        xi2=xi2,
        z=draw(st.floats(floor, floor + 5.0)),
        q=draw(st.floats(0.05, 1.2)) * draw(st.sampled_from((1.0, -1.0))),
        beta=draw(st.floats(0.3, 1.5)),
        tau_ratio=draw(st.floats(0.2, 3.0)),
    )


def moments(params: OrbitParams):
    return trig_moments(lambda p: theta_circular(params, p),
                        MomentumDistribution(params.q, params.beta))


def row_at(params: OrbitParams):
    """The sweep row at the orbit, swept in tau so every other value is fixed."""
    spec = SweepSpec("tau_ratio", 0.0, 1.0, 2, params)
    return _sweep_rows(spec, [params.tau_ratio], False)[0]


@PROPERTY
@given(orbits())
def test_moment_norm_and_entanglement_are_bounded(params):
    m = moments(params)
    # a weighted mean of unit vectors, up to rounding of the weighted sum
    assert m.C * m.C + m.S * m.S <= 1.0 + 1e-14
    row = row_at(params)
    assert row.flags == ()
    assert 0.0 <= row.E <= 1.0


@PROPERTY
@given(orbits(), st.sampled_from(BELL_STATES))
def test_density_matrices_are_physical(params, chi):
    closed = reduced_density_closed(chi, moments(params))
    brute = reduced_density_bruteforce(chi, lambda p: theta_circular(params, p),
                                       MomentumDistribution(params.q, params.beta))
    for rho in (closed, brute):
        diag = density_matrix_diagnostics(rho)
        assert diag.hermiticity < 1e-12
        assert diag.trace_error < 1e-10
        assert diag.min_eigenvalue > -1e-10


@PROPERTY
@given(orbits())
def test_no_elapsed_time_keeps_full_entanglement(params):
    # each estimate is normalized by the rule's own weight sum, so a zero
    # angle averages to exactly 1
    assert row_at(replace(params, tau_ratio=0.0)).E == 1.0


@PROPERTY
@given(orbits(xi2_max=9.0 / 32.0))
# a charge just above 1/4 has the root 0.500000000004 next to the near-zero
# of z^2 - z + xi2, where no orbit exists: theta_zeros leaves it out
@example(OrbitParams(xi2=0.25 + 1e-12, z=1.1, q=0.6, beta=1.0, tau_ratio=5.0))
@example(OrbitParams(xi2=0.25 + 1e-12, z=2.5, q=-1.2, beta=0.3, tau_ratio=3.0))
def test_angle_zero_radii_keep_full_entanglement(params):
    for z in theta_zeros(params.xi2):
        assert row_at(replace(params, z=z)).E > 1.0 - 1e-12


@PROPERTY
@given(orbits())
def test_concurrence_is_even_in_momentum(params):
    m = moments(params)
    flipped = moments(replace(params, q=-params.q))
    k, k_flipped = m.C * m.C + m.S * m.S, flipped.C * flipped.C + flipped.S * flipped.S
    assert math.isclose(k, k_flipped, rel_tol=0.0, abs_tol=1e-12)


@PROPERTY
@given(orbits(), st.sampled_from(("q", "tau_ratio", "z")),
       st.integers(2, 8), st.booleans(), st.sampled_from(("csv", "json", "svg")))
def test_sweeps_are_byte_identical_from_run_to_run(params, variable, samples,
                                                   stationary_phase, fmt):
    lo = {"q": -1.0, "tau_ratio": 0.0, "z": params.z}[variable]
    spec = SweepSpec(variable, lo, lo + 2.0, samples, params)
    assert render_sweep(spec, stationary_phase, fmt) == render_sweep(spec, stationary_phase, fmt)


@st.composite
def straddling_sweeps(draw):
    """A sweep spec and a grid whose range crosses an edge of the domain.

    The edges are |q| = MAX_MOMENTUM, tau = 0, z = 0, z = MAX_RADIUS, the
    horizons and the near-zero of z^2 - z + xi2 at xi2 just above 1/4; the
    edge itself is one of the grid's points, and a non-finite value may
    join them.  The fixed radius is drawn only where an orbit exists.
    """
    xi2 = draw(st.one_of(st.floats(0.0, 0.6),
                         st.sampled_from((0.16, 0.25, 0.25 + 1e-12, 0.265))))
    zp = outer_horizon(xi2)
    z = draw(st.floats(1e-6, 3.0).map(lambda dz: (zp or 0.0) + dz)
             .filter(lambda z: not no_orbit(z, xi2)))
    fixed = OrbitParams(xi2=xi2, z=z, q=draw(st.floats(-2.0, 2.0)),
                        beta=draw(st.floats(0.3, 2.0)), tau_ratio=draw(st.floats(0.0, 5.0)))
    variable = draw(st.sampled_from(("q", "tau_ratio", "z")))
    edges = {"q": [MAX_MOMENTUM, -MAX_MOMENTUM], "tau_ratio": [0.0],
             "z": [0.0, 0.5, MAX_RADIUS] + horizons(xi2)}[variable]
    edge = draw(st.sampled_from(edges))
    width = draw(st.floats(1e-9, 1.0)) * max(1.0, abs(edge))
    lo = edge - width * draw(st.floats(0.01, 1.0))
    hi = edge + width * draw(st.floats(0.01, 1.0))
    xs = np.linspace(lo, hi, draw(st.integers(2, 12))).tolist() + [edge]
    xs += draw(st.lists(st.sampled_from((math.nan, math.inf, -math.inf)), max_size=1))
    return SweepSpec(variable, lo, hi, 2, fixed), xs


def _expected_row(spec, x):
    """What the scalar checks make of the row at x: a flag, or the amplitude and q."""
    try:
        params = OrbitParams(**{**asdict(spec.fixed), spec.variable: x})
        return theta_amplitude(params), params.q
    except DomainError:
        return "domain"
    except HorizonError:
        return "horizon"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(straddling_sweeps())
def test_sweep_masks_match_orbit_params(sweep):
    # the quadrature is stubbed: it records the kappa and centre q of each
    # row it receives, so every row shows what the masks and the amplitude
    # expression made of it
    spec, xs = sweep
    seen = []

    def stub(kappa, q, beta, depth, certify):
        n = kappa.size
        seen.extend(zip(kappa.tolist(), np.broadcast_to(q, n).tolist()))
        values = np.tile([1.0, 0.0], (n, 1))
        return Averages(values, np.zeros(n), np.zeros(n, dtype=int), np.zeros(n, dtype=int))

    real = experiments.batch_characteristic
    experiments.batch_characteristic = stub
    try:
        rows = experiments._sweep_rows(spec, xs, False)
    finally:
        experiments.batch_characteristic = real
    computed = iter(seen)
    for x, row in zip(xs, rows):
        expected = _expected_row(spec, x)
        if isinstance(expected, str):
            assert row.flags == (expected,), (x, row)
        else:
            amplitude, q = map(np.float64, expected)
            kappa = amplitude * q * q * np.sqrt(q * q + 1.0)  # as _s_line forms it
            got = next(computed)
            assert row.flags == () and np.array_equal(got, (kappa, q), equal_nan=True), (
                x, row, got, expected)
    assert next(computed, None) is None
