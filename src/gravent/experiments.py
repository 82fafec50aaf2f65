"""Parameter sweeps, figure presets, feature finders and self-checks.

A sweep varies one of (q, tau_ratio, z) while the remaining orbit
parameters stay fixed, running each grid point through the
angle -> moments -> concurrence K = C^2 + S^2 -> entanglement pipeline.
The rows are computed as arrays over the grid: the entries of
wigner.DOMAIN_CHECKS for the swept variable, the checks OrbitParams makes
one row at a time, flag the domain rows, radial_factor's mask the horizon
rows, and the angle's amplitude is one array expression.
The moments of a sweep's rows come from a nested trapezoid rule batched
across rows: each level evaluates only the rows still active, and every
row stops at its own level, exactly where it would stop alone
(sweep_point is the one-row case).  On a z- or tau-sweep every row has
the same q, so the rows on the real line share one table of the
momentum factor M(q, p) per block of each level.  A row whose angle
turns fast integrates e^{i Theta} along a line shifted into the complex
momentum plane, where the oscillation is damped (_contour_shift).  K is
the concurrence of every Bell input; the reduced density matrices and
Wootters' concurrence serve only as oracles in oracle_equivalence_report,
which takes every draw's brute-force tensor from one batched quadrature
pass and runs Wootters and the density-matrix checks on stacked 4x4
matrices.  Failures are recorded per row (horizon,
domain, quadrature non-convergence) instead of aborting the sweep; with
the opt-in stationary-phase convention the horizon and non-convergent
rows report zero moments and zero entanglement, the rapid-oscillation
limit.  It is a fallback: no row of the six presets needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entanglement import (
    BELL_STATES,
    BellState,
    CONVERGED,
    NO_CONVERGENCE,
    NOT_FINITE,
    REDUCED_TOLERANCE,
    MomentumDistribution,
    batch_reduced_density_bruteforce,
    batch_trig_moments,
    density_matrix_diagnostics,
    entanglement_of_formation,
    reduced_density_bruteforce,
    trig_moments,
    wootters_concurrence,
    reduced_density_closed,
)
from .errors import AssertionFailure, DomainError, HorizonError
from .spacetime import ChargedBlackHole, outer_horizon
from .wigner import (
    DOMAIN_CHECKS,
    TAU_S,
    OrbitParams,
    kruskal_rate,
    lambda_radial,
    momentum_factor,
    product_integral,
    radial_factor,
    schwarzschild_rate,
    theta_amplitude,
    theta_circular,  # not called here; perfbench/layers.py traces it at this module
)

SWEEP_VARIABLES = ("q", "tau_ratio", "z")

# A z-sweep may not start on the horizon itself; clamp just above it.
HORIZON_CLAMP_MARGIN = 1e-3


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a one-dimensional parameter sweep.

    `fixed` supplies every orbit parameter; its value for the swept
    variable is a placeholder that the grid overwrites row by row.  No
    Bell state is named: every Bell input has the same concurrence
    C^2 + S^2, so a sweep's rows hold for all four.
    """

    variable: str
    lo: float
    hi: float
    samples: int
    fixed: OrbitParams

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise DomainError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"lo and hi must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.samples < 2:
            raise DomainError(f"samples must be >= 2, got {self.samples}")


@dataclass(frozen=True)
class SweepRow:
    """One record of a sweep: swept value, moments, concurrence, E, flags."""

    x: float
    C: float
    S: float
    concurrence: float
    E: float
    flags: tuple[str, ...] = ()


def resolve_sweep(spec: SweepSpec) -> tuple[SweepSpec, tuple[str, ...]]:
    """Clamp a z-sweep's lower edge above the outer horizon.

    Returns the effective spec plus human-readable notes recording any
    adjustment; specs that need no clamping come back unchanged.
    """
    if spec.variable != "z":
        return spec, ()
    zp = outer_horizon(spec.fixed.xi2)
    if zp is None or spec.lo > zp:
        return spec, ()
    lo = zp + HORIZON_CLAMP_MARGIN
    if lo >= spec.hi:
        raise DomainError(
            f"sweep range [{spec.lo}, {spec.hi}] lies inside the horizon z+={zp}"
        )
    note = f"lo clamped from {spec.lo!r} to {lo!r} (outer horizon at {zp!r})"
    return replace(spec, lo=lo), (note,)


def sweep_point(spec: SweepSpec, x: float,
                stationary_phase: bool = False) -> SweepRow:
    """Run the full pipeline at a single value of the swept variable."""
    return _sweep_rows(spec, [x], stationary_phase)[0]


def run_sweep(spec: SweepSpec, stationary_phase: bool = False) -> list[SweepRow]:
    """Evaluate the sweep over its grid; rows come back in ascending x."""
    spec, _ = resolve_sweep(spec)
    grid = np.linspace(spec.lo, spec.hi, spec.samples)
    return _sweep_rows(spec, grid.tolist(), stationary_phase)


# Row outcomes decided before the quadrature, beside its per-row statuses
_DOMAIN, _HORIZON = -1, -2
_REFUSALS = {_DOMAIN: "domain", NOT_FINITE: "domain", _HORIZON: "horizon",
             NO_CONVERGENCE: "no-convergence"}


def _sweep_rows(spec: SweepSpec, xs: list[float],
                stationary_phase: bool) -> list[SweepRow]:
    """The pipeline at each x, computed as arrays over the rows.

    spec.fixed has passed every check of OrbitParams, so only the swept
    variable is checked: a row is domain where any entry of DOMAIN_CHECKS
    for that variable holds, the checks OrbitParams makes, and otherwise
    horizon where radial_factor's mask holds.  Each row's angle is
    Theta = amplitude * M(q, p), the amplitude 2 pi tau R(z) one array
    expression over the grid, so two batch_trig_moments calls give the
    moments of every row left: one for the rows on the real line and one
    for the rows on shifted lines.  On a z- or tau-sweep q is one scalar,
    so the rows on the real line share one momentum table M(q, p) per
    block of each level.  The concurrence is C^2 + S^2, clipped to 1
    where rounding lifts it above.
    """
    fixed, grid = spec.fixed, np.asarray(xs, dtype=float)
    z, tau, q = (grid if spec.variable == name else getattr(fixed, name)
                 for name in ("z", "tau_ratio", "q"))
    domain = np.logical_or.reduce([bad(grid) for name, bad, _ in DOMAIN_CHECKS
                                   if name == spec.variable])
    radial, horizon = radial_factor(z, fixed.xi2)
    outcome = np.where(domain, _DOMAIN, np.where(horizon, _HORIZON, CONVERGED))
    live = np.flatnonzero(outcome == CONVERGED)
    with np.errstate(all="ignore"):  # refused rows may hold inf or nan
        amplitude = np.broadcast_to(TAU_S * tau * radial, grid.shape)[live]
    if spec.variable == "q":
        q = grid[live]
    beta = fixed.beta
    shift = _contour_shift(amplitude, q, beta)
    values = np.empty((grid.size, 2))
    # unshifted rows form a batch on the real line, with real arithmetic
    real = shift == 0.0
    for part, line in ((real, None), (~real, shift[~real])):
        if part.any():
            centre = q[part] if spec.variable == "q" else q
            moments = batch_trig_moments(amplitude[part], momentum_factor,
                                         centre, beta, line)
            outcome[live[part]], values[live[part]] = moments.status, moments.values
    out = []
    for x, status, (c, s) in zip(xs, outcome.tolist(), values.tolist()):
        if status in _REFUSALS:
            out.append(_refused_row(x, _REFUSALS[status], stationary_phase))
        else:
            conc = min(c * c + s * s, 1.0)
            e = entanglement_of_formation(conc)
            flags = ("reduced-tolerance",) if status == REDUCED_TOLERANCE else ()
            out.append(SweepRow(x, c, s, conc, e, flags))
    return out


def _contour_shift(amplitude: np.ndarray, q: np.ndarray, beta: float) -> np.ndarray:
    """Per-row shift of the quadrature line x = t - i*shift, x = (p - q)/beta.

    Theta = amplitude * q gamma^2 - kappa * u(p) with kappa = amplitude
    q^2 gamma and u(p) = p / (sqrt(p^2 + 1) + 1), whose slope at q is
    1/(gamma (gamma + 1)).  So near x = 0 the phase turns at omega =
    |kappa| beta u'(q) per unit of x, and e^{-x^2} e^{i Theta} is flattest
    on the line through its saddle, at depth omega/2 on the side of
    sign(kappa); the other side grows.  The depth is capped at 2, which
    bounds the Gaussian's growth e^{depth^2}, and at 0.7/beta, 0.3/beta
    short of u's branch points p = +-i.  On presets 1 and 2 and six
    perturbed q-sweeps, caps from 0.5/beta to 0.8/beta all held the rows
    to 2e-13 of a fine real-line reference, with fewer nodes the deeper
    the cap (0.7/beta: 22% fewer than 0.5/beta), while 1/beta refused 21
    rows near the branch points and erred by 2e-11 on others; 0.7/beta
    keeps clear of that.  Rows with omega < 4 stay on the real line:
    shifted too, the slow rows of figures 3 and 5 needed 256 intervals
    174 and 324 times where the real line needs them 29 and 19 times,
    since the shifted line passes nearer the branch points.
    """
    gamma = np.sqrt(q * q + 1.0)
    kappa = amplitude * q * q * gamma
    omega = np.abs(kappa) * beta / (gamma * (gamma + 1.0))
    depth = np.minimum(np.minimum(0.5 * omega, 0.7 / beta), 2.0)
    return np.where(omega >= 4.0, np.sign(kappa) * depth, 0.0)


def _refused_row(x: float, flag: str, stationary_phase: bool) -> SweepRow:
    """A row the pipeline could not compute, flagged with the reason."""
    if stationary_phase and flag != "domain":
        # rapid-oscillation limit: the moments average to zero
        return SweepRow(x, 0.0, 0.0, 0.0, 0.0, (flag, "stationary-phase"))
    return SweepRow(x, math.nan, math.nan, math.nan, math.nan, (flag,))


def figure_preset(n: int) -> SweepSpec:
    """The six built-in sweeps.

    1: E vs q (xi2=0.265, z=1.6, beta=1, tau/tau_s=5, q in [0, 20])
    2: same as 1 with beta=4 (wide packet, oscillatory descent)
    3: E vs tau/tau_s in [0, 30] at the preset-1 orbit with q=0.6
    4: E vs z (xi2=0.16, two horizons; z from the outer horizon to 6)
    5: E vs z (xi2=0.265, naked singularity, two angle zeros)
    6: E vs z (xi2=0.5, naked singularity, no angle zeros)
    """
    if n == 1:
        fixed = OrbitParams(xi2=0.265, z=1.6, q=0.0, beta=1.0, tau_ratio=5.0)
        return SweepSpec("q", 0.0, 20.0, 400, fixed)
    if n == 2:
        fixed = OrbitParams(xi2=0.265, z=1.6, q=0.0, beta=4.0, tau_ratio=5.0)
        return SweepSpec("q", 0.0, 20.0, 400, fixed)
    if n == 3:
        fixed = OrbitParams(xi2=0.265, z=1.6, q=0.6, beta=1.0, tau_ratio=0.0)
        return SweepSpec("tau_ratio", 0.0, 30.0, 400, fixed)
    if n == 4:
        fixed = OrbitParams(xi2=0.16, z=2.0, q=0.6, beta=1.0, tau_ratio=5.0)
        return SweepSpec("z", 0.8, 6.0, 400, fixed)
    if n == 5:
        fixed = OrbitParams(xi2=0.265, z=2.0, q=0.6, beta=1.0, tau_ratio=5.0)
        return SweepSpec("z", 0.0, 6.0, 400, fixed)
    if n == 6:
        fixed = OrbitParams(xi2=0.5, z=2.0, q=0.6, beta=1.0, tau_ratio=5.0)
        return SweepSpec("z", 0.0, 6.0, 400, fixed)
    raise DomainError(f"figure number must be 1..6, got {n}")


def _is_data_row(row: SweepRow) -> bool:
    return math.isfinite(row.E) and all(f == "reduced-tolerance" for f in row.flags)


def _golden_section_min(f, a: float, b: float, tol: float) -> float:
    gr = 0.5 * (math.sqrt(5.0) + 1.0)
    c = b - (b - a) / gr
    d = a + (b - a) / gr
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) / gr
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) / gr
            fd = f(d)
    return 0.5 * (a + b)


def find_entanglement_minima(spec: SweepSpec) -> list[tuple[float, float]]:
    """Local minima of E(z): grid scan plus golden-section refinement.

    Only strict interior dips among clean consecutive rows count, which
    keeps flat stretches and flagged gaps from producing spurious hits.
    A refused row is never clean, so the stationary-phase convention
    could not change the result.
    Refinement narrows each bracket until it is shorter than 1e-4.
    """
    if spec.variable != "z":
        raise DomainError("minima search expects a z-sweep")
    spec, _ = resolve_sweep(spec)
    rows = run_sweep(spec)

    def value_at(z: float) -> float:
        row = sweep_point(spec, z)
        return row.E if math.isfinite(row.E) else math.inf

    minima = []
    for i in range(1, len(rows) - 1):
        left, mid, right = rows[i - 1], rows[i], rows[i + 1]
        if not (_is_data_row(left) and _is_data_row(mid) and _is_data_row(right)):
            continue
        if mid.E < left.E - 1e-8 and mid.E < right.E - 1e-8:
            z_min = _golden_section_min(value_at, left.x, right.x, 1e-4)
            minima.append((z_min, value_at(z_min)))
    return minima


@dataclass(frozen=True)
class RadialInvarianceReport:
    """Outcome of the radial-geodesic no-decoherence check."""

    bell_tag: str
    rotation_angle: float
    max_deviation: float


def radial_invariance_check(bell: BellState,
                            dist: MomentumDistribution | None = None,
                            rate_fn=None) -> RadialInvarianceReport:
    """Radial free fall leaves any Bell state's density matrix intact.

    Accumulates the (identically zero) rotation rate along an infalling
    radial path over 5 units of proper time in 256 steps, extracts the
    accumulated angle, pushes it through the brute-force density pipeline
    and compares against the untouched projector.  A deviation above 1e-10 raises AssertionFailure naming
    the worst entry.  Supplying `rate_fn` overrides the radial rate; a
    non-trivial one serves as a negative control.
    """
    model = ChargedBlackHole(0.0)
    if rate_fn is None:
        def rate_fn(tau):
            # infalling path, z from 6 down to 4
            z = 6.0 - 0.4 * tau
            return lambda_radial(model, z, 0.4)[1]

    accumulated = product_integral(rate_fn, 0.0, 5.0, 256)
    angle = math.atan2(accumulated[0, 2], accumulated[0, 0])
    dist = dist or MomentumDistribution(q=0.6, beta=1.0)
    rho = reduced_density_bruteforce(bell, lambda p: angle, dist)
    deviation = np.abs(rho - bell.projector())
    worst = np.unravel_index(deviation.argmax(), deviation.shape)
    max_dev = float(deviation[worst])
    if max_dev > 1e-10:
        raise AssertionFailure(
            f"{bell.tag}: entry {worst} deviates by {max_dev:.3e} "
            f"(got {rho[worst]:.12f}, expected {bell.projector()[worst]:.12f})"
        )
    return RadialInvarianceReport(bell.tag, angle, max_dev)


def random_orbit_params(rng: np.random.Generator) -> OrbitParams:
    """A random configuration kept well clear of horizons and aliasing.

    Charges span both the two-horizon and the naked range; radii start
    0.6 above the outer horizon (or 0.6 outright when none exists) and
    momenta, widths and times stay small enough that the default
    quadrature converges on every draw.
    """
    xi2 = float(rng.uniform(0.0, 0.29))
    zp = outer_horizon(xi2)
    floor = (zp if zp is not None else 0.0) + 0.6
    z = float(rng.uniform(floor, floor + 5.0))
    q = float(rng.uniform(0.05, 1.2)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    beta = float(rng.uniform(0.3, 1.5))
    tau_ratio = float(rng.uniform(0.2, 3.0))
    return OrbitParams(xi2=xi2, z=z, q=q, beta=beta, tau_ratio=tau_ratio)


def oracle_equivalence_report(draws: int = 100, seed: int = 20240808) -> dict:
    """Compare the closed-form pipeline against the brute-force reference.

    For each random draw and each Bell state, builds the reduced density
    matrix both ways, then aggregates worst-case deviations: entrywise
    closed-vs-brute-force distance, concurrence against C^2+S^2, spread
    of the concurrence across Bell states, and the density-matrix
    hygiene numbers (hermiticity, trace, smallest eigenvalue).  Each draw
    gets its amplitude once and its moments from its own trig_moments
    call; one batched pass gives every draw's brute-force tensor, which
    does not depend on the Bell state, contracted with all four states.
    Wootters and the hygiene checks run on the stacked matrices, each
    matrix with the bits it gives alone.
    """
    if draws < 1:
        raise DomainError(f"draws must be >= 1, got {draws}")
    rng = np.random.default_rng(seed)
    params = [random_orbit_params(rng) for _ in range(draws)]
    amplitude = np.array([theta_amplitude(p) for p in params])
    closed, norms = [], []
    for a, p in zip(amplitude.tolist(), params):
        moments = trig_moments(lambda mom: a * momentum_factor(p.q, mom),
                               MomentumDistribution(p.q, p.beta))
        norms.append(moments.C ** 2 + moments.S ** 2)
        closed.append([reduced_density_closed(chi, moments) for chi in BELL_STATES])
    closed, norms = np.array(closed), np.array(norms)
    q, beta = np.array([(p.q, p.beta) for p in params]).T
    brute = batch_reduced_density_bruteforce(amplitude, momentum_factor, q, beta)
    conc = wootters_concurrence(closed)
    diag = density_matrix_diagnostics(np.stack([closed, brute]))
    return {
        "draws": draws,
        "max_entry_deviation": float(np.abs(closed - brute).max()),
        "max_concurrence_vs_moments": float(np.abs(conc - norms[:, None]).max()),
        "max_cross_bell_spread": float((conc.max(axis=1) - conc.min(axis=1)).max()),
        "max_hermiticity": float(diag.hermiticity.max()),
        "max_trace_error": float(diag.trace_error.max()),
        "min_eigenvalue": float(diag.min_eigenvalue.min()),
        "max_moment_norm": float(norms.max()),
    }


@dataclass(frozen=True)
class FrameRateRow:
    """Rotation rate at one radius seen from the two frames."""

    r: float
    static_rate: float
    kruskal_rate: float
    flags: tuple[str, ...] = ()


def frame_comparison(r_grid, q: float, p: float) -> list[FrameRateRow]:
    """Static-frame versus falling-frame rotation rates on a radius grid.

    The static column diverges toward r = 1 and vanishes at r = 3/2; the
    falling-frame column stays finite through the horizon.  Both trends
    are marked in the row flags.  The grid must be non-empty and every
    input finite.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0:
        raise DomainError("the radius grid is empty")
    if not (np.all(np.isfinite(r_grid)) and math.isfinite(q) and math.isfinite(p)):
        raise DomainError(f"radii, q and p must be finite, got q={q}, p={p} and "
                          f"{np.count_nonzero(~np.isfinite(r_grid))} non-finite radii")
    rows = []
    for r in r_grid:
        flags: list[str] = []
        kr = float(kruskal_rate(r, q, p))
        try:
            sr = float(schwarzschild_rate(r, q, p))
        except HorizonError:
            rows.append(FrameRateRow(float(r), math.nan, kr, ("static-divergent",)))
            continue
        if abs(sr) > 1e3:
            flags.append("static-divergent")
        if abs(sr) < 1e-12:
            flags.append("static-zero")
        rows.append(FrameRateRow(float(r), sr, kr, tuple(flags)))
    return rows
