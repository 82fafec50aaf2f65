"""Parameter sweeps, figure presets, feature finders and self-checks.

A sweep varies one of (q, tau_ratio, z) while the remaining orbit
parameters stay fixed, running each grid point through the
angle -> moments -> concurrence K = C^2 + S^2 -> entanglement pipeline.
The rows are computed as arrays over the grid (_sweep_rows): the domain
and horizon masks, the angle's amplitude, the moments, and K and E over
the rows computed.  The moments come from a nested trapezoid rule
batched across rows, each row stopping exactly where it would stop alone,
so a one-point grid gives the row a single value would.  Every row
averages e^{-i kappa (u(p) - u(q))} in s = asinh p: a slow row on the
real line, a fast one along a line s = t + i d where the oscillation is
damped (_s_line).  On a z- or tau-sweep every row has the same q, so the
rows of one depth share one table of their line per level.  The six
figure presets are one table, _PRESETS.  K is the concurrence of every
Bell input; the reduced density matrices and Wootters' concurrence serve
only as oracles in oracle_equivalence_report, which takes every draw's
moments from one batched quadrature pass and every draw's brute-force
tensor from another, and runs Wootters and the density-matrix checks on
stacked 4x4 matrices.  Failures are recorded per row (horizon, domain,
quadrature non-convergence) instead of aborting the sweep, a row whose
angle overflows being domain; with the opt-in stationary-phase
convention the horizon and non-convergent rows report zero moments and
zero entanglement, the rapid-oscillation limit.  It is a fallback: no
row of the presets or of the wide packets the tests sweep needs it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .entanglement import (
    BELL_STATES,
    CONVERGED,
    NO_CONVERGENCE,
    NOT_FINITE,
    REDUCED_TOLERANCE,
    MomentumDistribution,
    TrigMoments,
    batch_characteristic,
    batch_reduced_density_bruteforce,
    batch_trig_moments,
    density_matrix_diagnostics,
    entanglement_of_formation,
    reduced_density_bruteforce,
    trig_moments,
    wootters_concurrence,
    reduced_density_closed,
)
from .errors import AssertionFailure, DomainError, GraventError
from .roots import DOMAIN_CHECKS, check_domain, outer_horizon, theta_zeros
from .spacetime import ETA, ChargedBlackHole, frame_transform_matrix, kruskal_map
from .wigner import (
    TAU_S,
    OrbitParams,
    kruskal_rate,
    lambda_radial,
    momentum_factor,
    product_integral,
    radial_factor,
    rotation_matrix,
    spin_rep,
    theta_amplitude,
    theta_circular,  # not called here; perfbench/layers.py traces it at this module
    wigner_rate,
    wigner_rate_matrix,
    _charged_prefactor,
    _midpoints,
)

# A z-sweep may not start on the horizon itself; clamp just above it.
HORIZON_CLAMP_MARGIN = 1e-3


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a one-dimensional parameter sweep.

    `fixed` supplies every orbit parameter; its value for the swept
    variable is a placeholder that the grid overwrites row by row.  No
    Bell state is named: every Bell input has the same concurrence
    C^2 + S^2, so a sweep's rows hold for all four.  variable, the range
    and samples pass their entries of DOMAIN_CHECKS, and lo < hi.
    """

    variable: str
    lo: float
    hi: float
    samples: int
    fixed: OrbitParams

    def __post_init__(self):
        check_domain({"lo": self.lo, "hi": self.hi})  # numbers, before hi - lo is formed
        check_domain({"variable": self.variable, "span": self.hi - self.lo,
                      "samples": self.samples}, {"span": "hi - lo"})
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")


class SweepRow(NamedTuple):
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


def run_sweep(spec: SweepSpec, stationary_phase: bool = False) -> list[SweepRow]:
    """Evaluate the sweep over its grid; rows come back in ascending x."""
    spec, _ = resolve_sweep(spec)
    grid = np.linspace(spec.lo, spec.hi, spec.samples)
    return _sweep_rows(spec, grid.tolist(), stationary_phase)


# Row outcomes decided before the quadrature, beside its per-row statuses
_DOMAIN, _HORIZON = -1, -2
_REFUSALS = {_DOMAIN: "domain", NOT_FINITE: "domain", _HORIZON: "horizon",
             NO_CONVERGENCE: "no-convergence"}
_COMPUTED = {CONVERGED: (), REDUCED_TOLERANCE: ("reduced-tolerance",)}  # status: flags


def _sweep_rows(spec: SweepSpec, xs: list[float],
                stationary_phase: bool) -> list[SweepRow]:
    """The pipeline at each x, computed as arrays over the rows.

    spec.fixed has passed every check of OrbitParams, so only the swept
    variable is checked: a row is domain where any entry of DOMAIN_CHECKS
    for that variable fails, the checks OrbitParams makes, and otherwise
    horizon where radial_factor's mask holds.  Each row's angle is
    Theta = amplitude * M(q, p), the amplitude 2 pi tau R(z) one array
    expression over the grid, so one batch_characteristic call gives the
    moments of every row left: C + iS = e^{i phase} phi(kappa), on lines
    in s = asinh p (_s_line).  A row whose phase or phi is not finite is
    domain too, so no nan reaches E.  Over the rows computed, the
    concurrence C^2 + S^2, clipped to 1 where rounding lifts it above,
    and E are one array each; _refused_row gives the others.
    """
    fixed, grid = spec.fixed, np.asarray(xs, dtype=float)
    z, tau, q = (grid if spec.variable == name else getattr(fixed, name)
                 for name in ("z", "tau_ratio", "q"))
    domain = ~np.logical_and.reduce([valid(grid) for name, valid, _ in DOMAIN_CHECKS
                                     if name == spec.variable])
    radial, horizon = radial_factor(z, fixed.xi2)
    outcome = np.where(domain, _DOMAIN, np.where(horizon, _HORIZON, CONVERGED))
    live = np.flatnonzero(outcome == CONVERGED)
    q = grid[live] if spec.variable == "q" else q
    values = np.full((4, grid.size), math.nan)  # C, S, K, E
    with np.errstate(all="ignore"):  # a row's inf or nan is reported through its status
        amplitude = np.broadcast_to(TAU_S * tau * radial, grid.shape)[live]
        kappa, phase, depth = _s_line(amplitude, q, fixed.beta)
        phi = batch_characteristic(kappa, q, fixed.beta, depth)
        (c, s), (re, im) = (np.cos(phase), np.sin(phase)), phi.values.T
        values[:2, live] = c * re - s * im, s * re + c * im  # C + iS = e^{i phase} phi
    # phi is finite where its status is computed; a phase that overflows is domain
    outcome[live] = np.where(np.isfinite(phase), phi.status, NOT_FINITE)
    done = (outcome == CONVERGED) | (outcome == REDUCED_TOLERANCE)
    values[2, done] = np.minimum(np.square(values[:2, done]).sum(axis=0), 1.0)
    values[3, done] = entanglement_of_formation(values[2, done])
    # tuple.__new__ is SweepRow._make without its length check
    out = list(map(tuple.__new__, repeat(SweepRow), zip(xs, *values.tolist(),
                                                        map(_COMPUTED.get, outcome.tolist()))))
    for i in np.flatnonzero(~done).tolist():
        out[i] = _refused_row(xs[i], _REFUSALS[int(outcome[i])], stationary_phase)
    return out


# The s-line's depth: 0 for a row whose angle turns slower than _S_TURN per
# unit of x = (p - q)/beta; otherwise at most _S_DEPTH, and no deeper than
# lets the weight grow by e^{_S_GROWTH} on the line.
_S_TURN = 4.0
_S_DEPTH = 0.3
_S_GROWTH = 4.0


def _s_line(amplitude: np.ndarray, q, beta: float):
    """Per row: kappa, the constant phase and the depth of the line in s = asinh p.

    Theta = phase - kappa (u(p) - u(q)) with phase = amplitude q gamma, the
    angle at p = q, kappa = amplitude q^2 gamma and u(p) = tanh(s/2), whose
    slope 1/(gamma_p (gamma_p + 1)) peaks at 1/2 at p = 0: anywhere in the
    packet the angle turns at most at omega = |kappa| beta / 2 per unit of
    x = (p - q)/beta.  A row with omega < _S_TURN has little to damp
    wherever its packet reaches and runs on the real line (depth 0), where
    its weight is real and a z- or tau-sweep's rows share it.
    The others run at depth of the sign of -kappa.  There the weight's
    modulus peaks near p = q at e^{G}, G = sin^2 d (1 + q^2/cos 2d)/beta^2,
    costing digits to cancellation before the damping sets in, so the
    depth is capped where G = _S_GROWTH (as e^{depth^2} was capped at e^4
    on the former line in x), and at _S_DEPTH, inside the strip |Im s| <
    pi/4 where the weight decays.  For y = sin^2 d, G = _S_GROWTH is
    2 y^2 - b y + _S_GROWTH beta^2 = 0, b = 1 + q^2 + 2 _S_GROWTH beta^2,
    whose smaller root is taken.
    """
    gamma = np.sqrt(q * q + 1.0)
    kappa = amplitude * q * q * gamma
    phase = amplitude * q * gamma
    omega = 0.5 * np.abs(kappa) * beta
    g = _S_GROWTH * beta * beta
    b = 1.0 + q * q + 2.0 * g
    # b^2 - 8 g, written as a sum of squares
    y = 2.0 * g / (b + np.sqrt((1.0 + q * q - 2.0 * g) ** 2 + 8.0 * g * q * q))
    depth = np.minimum(np.arcsin(np.sqrt(y)), _S_DEPTH)
    return kappa, phase, np.where(omega < _S_TURN, 0.0, -np.sign(kappa) * depth)


def _refused_row(x: float, flag: str, stationary_phase: bool) -> SweepRow:
    """A row the pipeline could not compute, flagged with the reason."""
    if stationary_phase and flag != "domain":  # rapid-oscillation limit: zero moments
        return SweepRow(x, 0.0, 0.0, 0.0, 0.0, (flag, "stationary-phase"))
    return SweepRow(x, math.nan, math.nan, math.nan, math.nan, (flag,))


# The built-in sweeps, 400 rows each, as (variable, lo, hi, fixed orbit); the
# swept variable's value in the orbit is a placeholder the grid overwrites.
_PRESETS = (
    ("q", 0.0, 20.0, {"xi2": 0.265, "z": 1.6, "q": 0.0, "beta": 1.0, "tau_ratio": 5.0}),
    ("q", 0.0, 20.0, {"xi2": 0.265, "z": 1.6, "q": 0.0, "beta": 4.0, "tau_ratio": 5.0}),
    ("tau_ratio", 0.0, 30.0, {"xi2": 0.265, "z": 1.6, "q": 0.6, "beta": 1.0, "tau_ratio": 0.0}),
    ("z", 0.8, 6.0, {"xi2": 0.16, "z": 2.0, "q": 0.6, "beta": 1.0, "tau_ratio": 5.0}),
    ("z", 0.0, 6.0, {"xi2": 0.265, "z": 2.0, "q": 0.6, "beta": 1.0, "tau_ratio": 5.0}),
    ("z", 0.0, 6.0, {"xi2": 0.5, "z": 2.0, "q": 0.6, "beta": 1.0, "tau_ratio": 5.0}),
)


def figure_preset(n: int) -> SweepSpec:
    """Built-in sweep n of _PRESETS, for n in 1..6.

    1 and 2 sweep E over q, 2 with the wide packet of the oscillatory
    descent; 3 sweeps it over tau/tau_s at preset 1's orbit; 4 to 6 over
    z, 4 from the outer of two horizons, 5 and 6 around naked
    singularities with two angle zeros and with none.
    """
    for key, (variable, lo, hi, fixed) in enumerate(_PRESETS, 1):
        if key == n:
            return SweepSpec(variable, lo, hi, 400, OrbitParams(**fixed))
    raise DomainError(f"figure number must be 1..6, got {n}")


def _is_data_row(row: SweepRow) -> bool:
    return math.isfinite(row.E) and all(f == "reduced-tolerance" for f in row.flags)


# Each refinement pass lays _REFINE_INTERVALS intervals on every open bracket,
# its best z +- the last pass's spacing, so 32 intervals narrow a bracket
# 16-fold per pass; a bracket closes once that spacing is below _REFINE_TOL |z|.
_REFINE_INTERVALS = 32
_REFINE_TOL = 1e-7


def find_entanglement_minima(spec: SweepSpec) -> list[tuple[float, float]]:
    """Local minima of E(z): grid scan plus batched refinement.

    Only strict interior dips among clean consecutive rows count, which
    keeps flat stretches and flagged gaps from producing spurious hits.
    A refused row is never clean, so the stationary-phase convention
    could not change the result.  Each pass evaluates every open
    bracket's points in one _sweep_rows call and keeps, per bracket, the
    clean row of smallest E; its own point is among them, so a minimum's
    E never rises above its dip's.  A minimum is that row's (z, E).
    """
    if spec.variable != "z":
        raise DomainError("minima search expects a z-sweep")
    spec, _ = resolve_sweep(spec)
    rows = run_sweep(spec)
    best = [mid for left, mid, right in zip(rows, rows[1:], rows[2:])
            if _is_data_row(left) and _is_data_row(mid) and _is_data_row(right)
            and mid.E < left.E - 1e-8 and mid.E < right.E - 1e-8]
    offsets = np.linspace(-1.0, 1.0, _REFINE_INTERVALS + 1)  # 0.0 exactly at the middle
    step = (spec.hi - spec.lo) / (spec.samples - 1)
    while open_ := [i for i, row in enumerate(best) if step > _REFINE_TOL * abs(row.x)]:
        zs = np.array([best[i].x for i in open_])[:, None] + step * offsets
        found = _sweep_rows(spec, zs.ravel().tolist(), False)
        for j, i in enumerate(open_):
            points = found[j * offsets.size:(j + 1) * offsets.size]
            best[i] = min(filter(_is_data_row, points), key=lambda row: row.E)
        step *= 2.0 / _REFINE_INTERVALS
    return [(row.x, row.E) for row in best]


@dataclass(frozen=True)
class RadialInvarianceReport:
    """Outcome of the radial-geodesic no-decoherence check."""

    bell_tag: str
    rotation_angle: float
    max_deviation: float


def radial_invariance_check(bells, dist: MomentumDistribution | None = None,
                            rate_fn=None) -> list[RadialInvarianceReport]:
    """Radial free fall leaves every Bell state's density matrix intact.

    Accumulates, over 5 units of proper time in 256 steps of an infalling
    radial path, the rate wigner_rate derives from lambda_radial (one call
    for every step's midpoint) for the packet's centroid momentum along the
    fall, which is exactly 0.0 (across the fall it would not be).  The path
    is integrated once; one brute-force pass gives each state in bells its
    density matrix, compared against the untouched projector.  A deviation
    above 1e-10 raises AssertionFailure naming the first state at fault and
    its worst entry.  Supplying `rate_fn` overrides the derived rate; a
    non-trivial one serves as a negative control.
    """
    dist = dist or MomentumDistribution(q=0.6, beta=1.0)
    if rate_fn is None:  # infalling path, z from 6 down to 4
        radii = 6.0 - 0.4 * _midpoints(0.0, 5.0, 256)
        rate_fn = wigner_rate(lambda_radial(ChargedBlackHole(0.0), radii, 0.4), (dist.q, 0.0, 0.0))
    accumulated = product_integral(rate_fn, 0.0, 5.0, 256)
    angle = math.atan2(accumulated[0, 2], accumulated[0, 0])
    reports = []
    rhos = reduced_density_bruteforce(bells, lambda p: angle, dist)
    for bell, rho in zip(bells, rhos):
        deviation = np.abs(rho - bell.projector())
        worst = np.unravel_index(deviation.argmax(), deviation.shape)
        max_dev = float(deviation[worst])
        if max_dev > 1e-10:
            raise AssertionFailure(
                f"{bell.tag}: entry {worst} deviates by {max_dev:.3e} "
                f"(got {rho[worst]:.12f}, expected {bell.projector()[worst]:.12f})"
            )
        reports.append(RadialInvarianceReport(bell.tag, angle, max_dev))
    return reports


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Draws:
    """The doubles np.random.default_rng(seed) gives, without numpy.random.

    That generator is PCG64 (O'Neill, HMC-CS-2014-0905, the 128-bit setseq
    LCG with XSL-RR output) seeded through numpy's SeedSequence; both are
    integer algorithms, which Python ints follow bit for bit.  The seed's
    32-bit words, low first, are hashed into a pool of 4 words, every pool
    word mixed with every other and with each word past the 4th; the pool
    cycled through a second hash gives the 8 words of
    generate_state(4, uint64), low word first, which set the LCG's start
    and increment.  A double is (x >> 11) 2^-53 of the next 64-bit output
    x, and uniform(low, high) is low + (high - low) double.  seed must be
    a non-negative integer (the entries of DOMAIN_CHECKS for seed).
    """

    def __init__(self, seed: int):
        seed, words = operator.index(seed), []
        while True:
            words.append(seed & _M32)
            seed >>= 32
            if not seed:
                break
        const = 0x43B0D7E5

        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _M32
            value = value * const & _M32
            return value ^ value >> 16

        def mix(x, y):
            x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return x ^ x >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        const, state = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            state.append(value ^ value >> 16)
        w = [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self._state = (self._inc + (w[0] << 64 | w[1])) & _M128  # 0 stepped once, plus the start
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def random(self) -> float:
        self._step()
        hi, rot = self._state >> 64, self._state >> 122
        x = hi ^ (self._state & _M64)
        x = (x >> rot | x << (64 - rot)) & _M64
        return (x >> 11) * 2.0 ** -53

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        low, high = float(low), float(high)
        return low + (high - low) * self.random()


def random_orbit_params(rng, size: int | None = None):
    """A random configuration kept well clear of horizons and aliasing.

    rng is anything with uniform(low, high) and uniform() as numpy's
    Generator has them: a np.random.Generator, or the _Draws stream that
    gives its doubles, from which both give equal parameters.  Charges
    span both the two-horizon and the naked range; radii start
    0.6 above the outer horizon (or 0.6 outright when none exists) and
    momenta, widths and times stay small enough that the default
    quadrature converges on every draw.  Given a size, the fields
    (xi2, z, q, beta, tau_ratio) of that many draws as arrays, unchecked.
    """
    draws = []
    for _ in range(size or 1):
        xi2 = float(rng.uniform(0.0, 0.29))
        zp = outer_horizon(xi2)
        floor = (zp if zp is not None else 0.0) + 0.6
        z = float(rng.uniform(floor, floor + 5.0))
        q = float(rng.uniform(0.05, 1.2)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        draws.append((xi2, z, q, float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.2, 3.0))))
    return OrbitParams(*draws[0]) if size is None else np.array(draws).T


def oracle_equivalence_report(draws: int = 100, seed: int = 20240808) -> dict:
    """Compare the closed-form pipeline against the brute-force reference.

    For each random draw and each Bell state, builds the reduced density
    matrix both ways, then aggregates worst-case deviations: entrywise
    closed-vs-brute-force distance, concurrence against C^2+S^2, spread
    of the concurrence across Bell states, and the density-matrix
    hygiene numbers (hermiticity, trace, smallest eigenvalue).  The draws
    are checked, and their amplitudes and closed forms formed, as arrays.
    One batched pass gives every draw's
    moments, and another every draw's brute-force tensor, which does not
    depend on the Bell state, contracted with all four states; each draw
    gets the bits its own trig_moments and reduced_density_bruteforce
    calls give, and the first draw that fails raises their error.
    Wootters and the hygiene checks run on the stacked matrices, each
    matrix with the bits it gives alone.
    """
    check_domain({"count": draws, "seed": seed}, {"count": "draws"})
    rng = _Draws(seed)
    xi2, z, q, beta, tau = random_orbit_params(rng, draws)
    check_domain({"xi2": xi2, "z": z, "q": q, "beta": beta, "tau_ratio": tau})
    amplitude = TAU_S * tau * _charged_prefactor(z, xi2)  # HorizonError wherever z <= z+ too
    cs = batch_trig_moments(amplitude, momentum_factor, q, beta).values  # each draw's C, S
    norms = np.array([c ** 2 + s ** 2 for c, s in cs.tolist()])
    closed = np.stack([reduced_density_closed(chi, TrigMoments(*cs.T)) for chi in BELL_STATES], 1)
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


class FrameRateRow(NamedTuple):
    """Rotation rate at one radius seen from the two frames."""

    r: float
    static_rate: float
    kruskal_rate: float
    flags: tuple[str, ...] = ()


def frame_comparison(r_grid, q: float, p: float) -> list[FrameRateRow]:
    """Static-frame versus falling-frame rotation rates on a radius grid.

    The static column diverges toward r = 1 and vanishes at r = 3/2; the
    falling-frame column stays finite through the horizon.  Both trends
    are marked in the row flags; where radial_factor masks the static rate
    it reads nan.  The grid must be one-dimensional and non-empty, the
    radii pass the entries of DOMAIN_CHECKS for z and q and p their own,
    and kruskal_rate raises where the falling-frame rate overflows.
    """
    try:
        r_grid = np.asarray(r_grid, dtype=float)
    except ValueError as exc:  # a ragged nesting, or text that is not a number
        raise DomainError(f"the radius grid must be one-dimensional, of numbers: {exc}") from None
    if r_grid.ndim != 1:
        raise DomainError(f"the radius grid must be one-dimensional, got shape {r_grid.shape}")
    if r_grid.size == 0:
        raise DomainError("the radius grid is empty")
    check_domain({"z": r_grid, "q": q, "p": p}, {"z": "r"})
    factor, singular = radial_factor(r_grid, 0.0)
    static = np.where(singular, math.nan, factor) * momentum_factor(q, p)
    rows = []
    for r, sr, divergent in zip(r_grid.tolist(), static.tolist(), singular.tolist()):
        flags = ("static-divergent",) if divergent or abs(sr) > 1e3 else ()
        if abs(sr) < 1e-12:
            flags += ("static-zero",)
        rows.append(FrameRateRow(r, sr, float(kruskal_rate(r, q, p)), flags))
    return rows


# Fast sweep rows (on a shifted line in s) as {figure: q values}, picked where
# the oracle's rule in x converges: at every fast row of figure 1, and on
# figure 2 only below q ~ 2.6
_FAST_ROWS = {1: (1.5, 2.0, 3.0, 6.0, 20.0), 2: (1.0, 1.5, 2.5)}


def validation_checks(report: dict) -> list[tuple[str, bool, str]]:
    """The checks of `gravent validate`, as (name, passed, detail).

    The first five grade an oracle_equivalence_report; the rest make their own inputs.
    The last runs _FAST_ROWS through _sweep_rows, the path of the figures.
    """
    checks = [
        ("oracle equivalence (closed vs brute force)", report["max_entry_deviation"] < 1e-8,
         f"max entry deviation {report['max_entry_deviation']:.3e}"),
        ("concurrence equals C^2+S^2", report["max_concurrence_vs_moments"] < 1e-8,
         f"max |conc - (C^2+S^2)| {report['max_concurrence_vs_moments']:.3e}"),
        ("concurrence identical across Bell states", report["max_cross_bell_spread"] < 1e-10,
         f"max spread {report['max_cross_bell_spread']:.3e}"),
        ("density matrices Hermitian, unit trace, PSD",
         report["max_hermiticity"] < 1e-12 and report["max_trace_error"] < 1e-10
         and report["min_eigenvalue"] > -1e-10,
         f"herm {report['max_hermiticity']:.1e}, trace {report['max_trace_error']:.1e}, "
         f"min eig {report['min_eigenvalue']:.1e}"),
        ("moment bound C^2+S^2 <= 1", report["max_moment_norm"] <= 1.0,
         f"max C^2+S^2 = {report['max_moment_norm']:.12f}"),
    ]

    draws = _Draws(7)
    pairs = [(draws.uniform(-6, 6), draws.uniform(-6, 6)) for _ in range(50)]
    dev = max(float(np.abs(spin_rep(a) @ spin_rep(b) - spin_rep(a + b)).max())
              for a, b in pairs)
    checks.append(("spin_rep homomorphism", dev < 1e-12, f"max deviation {dev:.3e}"))

    rate = wigner_rate_matrix(ChargedBlackHole(0.16), 1.6, 0.6, 0.3)
    accum = product_integral(rate, 0.0, 2.0, 10_000)
    dev = float(np.abs(accum - rotation_matrix(rate[0, 2] * 2.0)).max())
    checks.append(("product integral vs closed-form rotation", dev < 1e-8,
                   f"max deviation {dev:.3e}"))

    name = "radial-geodesic invariance (all Bell states)"
    try:
        dev = max(each.max_deviation for each in radial_invariance_check(BELL_STATES))
        checks.append((name, True, f"max deviation {dev:.3e}"))
    except GraventError as exc:
        checks.append((name, False, str(exc)))

    frames = [frame_transform_matrix(kruskal_map(r, t))
              for r in np.linspace(1.05, 10.0, 10).tolist() for t in (-3.0, 0.0, 2.0, 5.0)]
    dev = max(float(np.abs(m @ ETA @ m.T - ETA).max()) for m in frames)
    checks.append(("frame transform preserves the Minkowski metric", dev < 1e-10,
                   f"max deviation {dev:.3e}"))

    # roots exist exactly when the discriminant 9 - 32 xi2 is >= 0; the
    # larger one always lies outside the outer horizon
    xi2_grid = (0.0, 0.1, 0.16, 0.25, 0.265, 0.28, 9.0 / 32.0, 0.3, 0.5)
    residual, miscounted = 0.0, []
    for xi2 in xi2_grid:
        roots = theta_zeros(xi2)
        residual = max([residual] + [abs(2 * z * z - 3 * z + 4 * xi2) for z in roots])
        if bool(roots) != (9.0 - 32.0 * xi2 >= 0.0):
            miscounted.append(xi2)
    checks.append((
        "angle zeros are roots of 2z^2 - 3z + 4xi2", residual < 1e-14 and not miscounted,
        f"max residual {residual:.3e} over {len(xi2_grid)} xi2 values, root count "
        + (f"wrong at xi2 = {miscounted}" if miscounted else "matches 9 - 32xi2")))

    devs = []  # a refused row's nan fails the check
    for n, qs in _FAST_ROWS.items():
        spec = figure_preset(n)
        for row in _sweep_rows(spec, list(qs), False):
            q, beta = row.x, spec.fixed.beta
            a = theta_amplitude(replace(spec.fixed, q=q))
            x = trig_moments(lambda p: a * momentum_factor(q, p), MomentumDistribution(q, beta))
            devs += [abs(row.C - x.C), abs(row.S - x.S)]
    dev = float(np.max(devs))
    checks.append(("fast sweep rows in s match trig_moments in x", dev < 1e-12,
                   f"max C, S deviation {dev:.3e} over {len(devs) // 2} rows of figures 1-2"))
    return checks
