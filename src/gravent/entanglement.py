"""Gaussian trig moments, Bell-state reduced density matrices, concurrence.

The two-particle wave packet is separable in momentum with identical
Gaussian weights w(p) = exp(-(p-q)^2/beta^2) / (sqrt(pi) beta) for each
particle, and a maximally entangled spin part.  Tracing out momentum
after both spins pick up a momentum-dependent rotation leaves matrices
that depend only on the two averages

    C = <cos Theta>,   S = <sin Theta>

over w(p).  The averages come from a nested trapezoid rule, which
converges exponentially for integrands analytic in a strip around its
line (Trefethen & Weideman, SIAM Review 56, 2014).  Sweeps average in
s = asinh p, where u(p) = p/(sqrt(p^2+1)+1) = tanh(s/2) turns on the unit
scale and is analytic for |Im s| < pi whatever the packet's width; a fast
row runs along a line moved off the real axis, where the oscillation is
damped, as numerical steepest descent does (Huybrechs & Vandewalle, SIAM
J. Numer. Anal. 44, 2006): batch_characteristic.  The oracle averages in
x = (p - q)/beta (trig_moments), and its closed forms are checked against
a brute-force average of rotated projectors, the reference implementation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .roots import BELL_TAGS, check_domain


@dataclass(frozen=True)
class BellState:
    """One of the four maximally entangled two-spin states."""

    tag: str
    vector: tuple[float, float, float, float]

    def __post_init__(self):
        check_domain({"bell": self.tag})

    def array(self) -> np.ndarray:
        return np.array(self.vector)

    def projector(self) -> np.ndarray:
        v = self.array()
        return np.outer(v, v).astype(complex)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
CHI1 = BellState(BELL_TAGS[0], (_INV_SQRT2, 0.0, 0.0, _INV_SQRT2))
CHI2 = BellState(BELL_TAGS[1], (_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2))
CHI3 = BellState(BELL_TAGS[2], (0.0, _INV_SQRT2, _INV_SQRT2, 0.0))
CHI4 = BellState(BELL_TAGS[3], (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0))
BELL_STATES = (CHI1, CHI2, CHI3, CHI4)


def bell_state(tag: str) -> BellState:
    check_domain({"bell": tag})
    return BELL_STATES[BELL_TAGS.index(tag)]


@dataclass(frozen=True)
class MomentumDistribution:
    """Normalized Gaussian weight centered at q with width beta.

    q and beta are held to the rules of OrbitParams (roots.check_domain).
    """

    q: float
    beta: float

    def __post_init__(self):
        check_domain(vars(self))

    def weight(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        u = (p - self.q) / self.beta
        return np.exp(-u * u) / (math.sqrt(math.pi) * self.beta)


# Each row doubles its trapezoid intervals until successive estimates agree
# to TOL; one that reaches the cap with a residual above FAIL_RESIDUAL fails.
TOL = 1e-10
FAIL_RESIDUAL = 1e-6


@dataclass(frozen=True)
class QuadConfig:
    """The interval cap of the adaptive trapezoid rule, 64 * 2**k with k >= 1."""

    max_nodes: int = 2048


# The one cap of every quadrature, read at call time; no caller passes one.
DEFAULT_QUAD = QuadConfig()

# The rule's variable runs over [-7, 7]: x = (p - q)/beta, or an affine image
# of a line in s; the weight e^{-x^2} at the ends is 5e-22, below rounding,
# so the end nodes are left out and every node is interior.
_HALF_WIDTH = 7.0

# A line in s starts at 32 intervals: there u turns on the unit scale whatever
# the packet's width.  Of the presets' 2,398 rows, 1,652 stop at 64, 52 at 32
# and 457 are decided without the rule.  The oracle's rule in x, the
# reference, keeps its 64.
_FIRST_IN_S = 32

# Temporaries of the batched quadrature hold about this many elements, so a
# sweep's memory stays flat however many rows it has.  Complex temporaries,
# and the (rows, 2, nodes) integrands written from them or from cos and sin,
# take 16 bytes per node: at 2**12 each stays at 64 KiB, and at 80 KiB
# where a short last block of a level joins the one before (one call fewer),
# below the 128 KiB at which glibc malloc switched between reusing heap
# blocks and mapping fresh pages (~10k page faults and ~25% of a q-sweep,
# depending on import order).  Tables that a level's blocks share have one row.
_BLOCK_ELEMENTS = 2 ** 12

# Per-row outcome of _adaptive_average.  A REDUCED_TOLERANCE row stopped at
# the cap with a residual between TOL and FAIL_RESIDUAL; it has a value.
CONVERGED = 0
NOT_FINITE = 1
NO_CONVERGENCE = 2
REDUCED_TOLERANCE = 3


@dataclass(frozen=True)
class Averages:
    """Per-row results of one batched adaptive average.

    values[i] holds row i's averages (one per integrand component),
    residual[i] the change between its last two levels, nodes[i] the
    interval count it stopped at and status[i] one of CONVERGED,
    REDUCED_TOLERANCE, NOT_FINITE and NO_CONVERGENCE.  A row that
    batch_characteristic decides from its modulus bound evaluated no node:
    nodes[i] is 0.  A row that its strip bound stopped (_adaptive_average)
    reports that bound, below 1e-13, as its residual.
    """

    values: np.ndarray
    residual: np.ndarray
    nodes: np.ndarray
    status: np.ndarray


def _adaptive_average(rows_fn, size: int, n: int = 64, turn=None, strip=None) -> Averages:
    """Average an integrand against the weight it comes with, per row.

    rows_fn(index, t) gets the indices of a block of rows, ascending, and
    a level's new nodes t in (-7, 7), of shape (1, nodes), under an
    errstate that lets a non-finite row pass without a warning (its
    status reports it).  It returns the integrand g, shape (len(index),
    components, nodes), a function that gives the angle's rows, shape
    (rows, nodes), at the positions in the block it is passed, and the
    real weight w, with one row per row of the block or one row that is
    the level's weight for every block.  g turns with the angle's real
    part and is no larger than e^{-Im angle}, as e^{i angle} is.  The
    row's value is the integral of g w over that of w.

    The rule is the trapezoid rule in t, nested: the first level has n
    intervals, and each level doubles them, evaluating only the new
    midpoints, until the row's estimates agree to TOL or the next level
    would pass the cap, DEFAULT_QUAD.max_nodes.  Each estimate is the running sum of g w over
    that of w, the same product, so a constant integrand averages to
    itself exactly.  Each level evaluates only the rows still active, in
    blocks of about _BLOCK_ELEMENTS nodes; the sum of a one-row weight
    that serves a block of more rows is formed once per level.  A row's
    value, nodes and residual are written once, at the level where it
    stops, and the active rows are compacted only at a level where some
    stop.

    Two levels agreeing is no proof on their own: a frequency the finer
    level aliases is aliased by the coarser one too, so a fast, nearly
    pure oscillation can leave both with the same wrong value.  So the
    agreement counts only where the finer level resolves the angle: with
    h its interval, the angle's rate of turn stays short of the first
    alias frequency 2 pi/h by _SPREAD, or by pi/h (the Nyquist limit)
    where that is less, at every node whose share of the estimate could
    reach TOL.  The new midpoints lie 2h apart, so their own angles tell
    (_resolved).  A caller may vouch for a row instead: turn[i], where
    given, bounds row i's |d Re angle/dt| on the whole line, and a row
    whose advance between the midpoints stays within half the limit
    (_cleared) is resolved without its nodes being looked at.  Where the
    angle is unresolved the residual is inf.  A row whose integrand is
    not finite stops with status NOT_FINITE; one that reaches the cap
    unconverged stops with NO_CONVERGENCE if its residual is above
    FAIL_RESIDUAL and with REDUCED_TOLERANCE otherwise.

    A caller may also certify a row: strip[i], where given, holds a level
    and a bound on row i's error there (_lines).  The row stops at that
    level, if nothing stopped it before, with status CONVERGED and the
    bound as its residual, unless its estimate is not finite.
    """
    values = sums = norms = prev = None
    residual = np.full(size, math.inf)
    nodes = np.zeros(size, dtype=int)
    status = np.zeros(size, dtype=int)  # CONVERGED
    active = np.arange(size)
    certified = set() if strip is None else set(strip[:, 0].tolist()) - {math.inf}
    strip = strip if certified else None  # the levels where some row stops on its bound
    t = (2.0 * _HALF_WIDTH / n) * np.arange(1, n) - _HALF_WIDTH
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite row: see its status
        while active.size:
            h = 2.0 * _HALF_WIDTH / n
            block = max(1, _BLOCK_ELEMENTS // t.size)
            capped = prev is not None and 2 * n > DEFAULT_QUAD.max_nodes
            est = total = None
            res = np.empty(active.size)
            # sums, norms, estimates, turn and these flags are kept in the order of active
            unvouched = None if turn is None else ~_cleared(turn, h)
            edges = list(range(0, active.size, block)) + [active.size]
            if len(edges) > 2 and edges[-1] - edges[-2] <= block // 4:
                del edges[-2]  # a short last block joins the one before: 5/4 as large at most
            for start, stop in zip(edges, edges[1:]):
                rows = slice(start, stop)
                integrand, angle, w = rows_fn(active[rows], t[None])
                # one gemv per row, the product a lone row gets, so batching moves
                # no bits; the same product on the constant 1 adds up the weights
                part = (integrand @ w[..., None])[..., 0]
                if total is None or len(w) == len(integrand):
                    total = (np.ones((1,) + integrand.shape[1:]) @ w[..., None])[..., 0]
                if sums is None:
                    values, sums, norms = np.empty((3, size, part.shape[1]))
                if est is None:
                    est = np.empty((active.size, part.shape[1]))
                if prev is None:
                    sums[rows], norms[rows] = part, total
                else:
                    sums[rows] += part
                    norms[rows] += total
                np.divide(sums[rows], norms[rows], out=est[rows])
                if prev is not None:
                    change = np.abs(est[rows] - prev[rows]).max(axis=1, out=res[rows])
                    # only a row that would stop without failing, and that no
                    # bound vouches for, has its angle checked
                    ask = change <= FAIL_RESIDUAL if capped else change < TOL
                    ask = np.flatnonzero(ask if unvouched is None else ask & unvouched[rows])
                    if ask.size:
                        unresolved = ~_resolved(angle(ask), w if len(w) == 1 else w[ask], h)
                        res[start + ask[unresolved]] = math.inf
            # a row stops where its estimate is not finite, where it converged or its
            # strip bound certifies it, and at the cap; only then are its results
            # written and the active rows compacted
            bad = ~np.isfinite(est).all(axis=1)
            stop = np.ones_like(bad) if capped else bad if prev is None else bad | (res < TOL)
            sure = (strip[:, 0] == n) & ~bad if n in certified else None
            if sure is not None:
                stop |= sure
            if stop.any():
                done = active[stop]
                values[done], nodes[done] = est[stop], n
                if prev is not None:
                    residual[done] = res[stop]
                    if capped:  # every row stops: the unconverged ones fail or lose digits
                        status[done] = np.where(res < TOL, CONVERGED, np.where(
                            res > FAIL_RESIDUAL, NO_CONVERGENCE, REDUCED_TOLERANCE))
                status[done[bad[stop]]] = NOT_FINITE
                if sure is not None:
                    residual[active[sure]], status[active[sure]] = strip[sure, 1], CONVERGED
                keep = ~stop
                active, est, sums, norms = active[keep], est[keep], sums[keep], norms[keep]
                turn = None if turn is None else turn[keep]
                strip = None if strip is None else strip[keep]
            prev = est
            n *= 2
            t = (2.0 * _HALF_WIDTH / n) * np.arange(1, n, 2) - _HALF_WIDTH
    return Averages(values, residual, nodes, status)


# Nodes whose weighted integrand stays below this add at most
# 14/sqrt(pi) * _NEGLIGIBLE ~ 8e-12 to an estimate, well below TOL, so
# their angle need not be resolved.
_NEGLIGIBLE = 1e-12

# e^{i Theta} times its envelope has its spectrum around the local rate of
# turn Theta'(x), spread by the envelope's own spectrum: e^{-x^2}'s falls
# below 1e-12 within 10.5 of it, and the damped envelopes on the lines in s
# spread wider.  On q-sweeps a margin of 20 erred no more than one of 30;
# below 128 intervals the Nyquist limit leaves less.
_SPREAD = 30.0


def _alias_limit(h: float) -> float:
    """How far Re angle may advance between nodes 2h apart: 2h (2 pi/h - min(_SPREAD, pi/h))."""
    return 2.0 * (2.0 * math.pi - min(_SPREAD * h, math.pi))


def _cleared(turn: np.ndarray, h: float) -> np.ndarray:
    """Per row: does turn, a bound on |d Re angle/dt|, keep the advance within half the limit?

    Between nodes 2h apart Re angle advances by at most 2h turn; half the
    limit leaves room for the rounding of the angle.  A non-finite turn
    clears nothing.
    """
    return 2.0 * h * turn < 0.5 * _alias_limit(h)


def _resolved(angle: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Per row: does a rule of interval h resolve the angle where it matters?

    Between neighbouring nodes, 2h apart, Re angle must advance by less
    than _alias_limit(h) wherever either neighbour's weighted size
    e^{-Im angle} w is above _NEGLIGIBLE; w has one row, or one per row of
    the angle.
    """
    real = angle.real  # not finite in a row the status reports, under the driver's errstate
    fast = np.abs(real[..., 1:] - real[..., :-1]) >= _alias_limit(h)
    resolved = ~fast.any(axis=-1)
    rows = np.flatnonzero(~resolved)
    if rows.size:
        size = w if len(w) == 1 else w[rows]
        with np.errstate(divide="ignore"):  # in logs: e^{-Im angle} underflows where damped
            big = (np.log(size) - angle[rows].imag > math.log(_NEGLIGIBLE)
                   if np.iscomplexobj(angle) else size > _NEGLIGIBLE)
        resolved[rows] = ~(fast[rows] & (big[:, 1:] | big[:, :-1])).any(axis=-1)
    return resolved


def _raise_failed_rows(out: Averages) -> Averages:
    """out, unless a row failed: then DomainError or ConvergenceError for the first."""
    for row in np.flatnonzero(np.isin(out.status, (NOT_FINITE, NO_CONVERGENCE)))[:1]:
        residual, nodes = float(out.residual[row]), int(out.nodes[row])
        if out.status[row] == NOT_FINITE:
            raise DomainError("theta is not finite on the quadrature support")
        if residual == math.inf:
            raise ConvergenceError(
                f"theta turns too fast for the {nodes}-interval rule at the cap")
        raise ConvergenceError(
            f"residual {residual:.3e} at the {nodes}-interval cap "
            f"(limit {FAIL_RESIDUAL:.1e})"
        )
    return out


def _cis(theta: np.ndarray) -> np.ndarray:
    """cos theta and sin theta, stacked on a new axis before the nodes axis."""
    out = np.empty(theta.shape[:-1] + (2, theta.shape[-1]))
    # under _adaptive_average's errstate: a non-finite angle is reported through its row's status
    np.cos(theta, out=out[..., 0, :])
    np.sin(theta, out=out[..., 1, :])
    return out


@dataclass(frozen=True)
class TrigMoments:
    """<cos Theta> and <sin Theta> plus the achieved-tolerance report.

    residual is the change between the rule's last two levels and nodes
    the interval count it stopped at.
    """

    C: float
    S: float
    residual: float = 0.0
    nodes: int = 0


def _batch_average(integrand, amplitude, factor, q, beta) -> Averages:
    """_adaptive_average of integrand(Theta) per row, on the real line in x.

    Row i's angle is Theta_i(p) = amplitude[i] * factor(q_i, p), averaged
    against e^{-x^2} over x = (p - q_i)/beta_i.  q and beta are each one
    value per row, or one scalar for all: a scalar centre gives the rows
    one momentum table per block, factor(q, p) with p of shape (1, nodes),
    with the bits a column of equal centres gives.  integrand maps angles
    (rows, nodes) to (rows, components, nodes).  This is the oracle's
    rule, run by batch_trig_moments and batch_reduced_density_bruteforce;
    trig_moments and reduced_density_bruteforce are their one-row case.
    """
    amplitude, q, beta = (np.asarray(v, dtype=float) for v in (amplitude, q, beta))

    def rows(index, t):
        centre = q if q.ndim == 0 else q[index, None]
        width = beta if beta.ndim == 0 else beta[index, None]
        theta = amplitude[index, None] * factor(centre, centre + width * t)
        return integrand(theta), theta.__getitem__, np.exp(-t * t)

    return _adaptive_average(rows, amplitude.size)


# batch_characteristic leaves out the nodes whose integrand is below
# e^{_DROPPED} ~ 1e-20: even 2048 of them add nothing to the sums.
_DROPPED = -46.0

# A shifted row whose modulus bound stays this far, in the exponent, below
# e^{_DROPPED} drops every node, so it is decided without the quadrature
# (batch_characteristic); the margin covers the rounding of the bound and of
# the nodes' log modulus.
_BOUND_MARGIN = 1.0


def _exp_asinh(x):
    """e^{asinh x} = x + sqrt(x^2 + 1), without cancellation for x < 0, and sqrt(x^2 + 1)."""
    root = np.sqrt(x * x + 1.0)
    return np.where(x >= 0.0, root + x, 1.0 / (root + np.abs(x))), root


def _line_table(t, centre, half, cos_2d, e_q, cos_b, lean_b, sin_b, tilt, share, jac_c, jac_s,
                shifted=True):
    """What a line s = asinh q + centre + half t + i d fixes of the integrand, at nodes t.

    With tanh(s/2) - tanh(asinh(q)/2) = du + i sin d inv and -((sinh s -
    q)/beta)^2 = w_log + i w_arg, returns du, inv e_q/(e_q + 1), w_arg,
    w_log and cosh s times the scale (jac_re + i jac_im), the arguments
    being the columns of batch_characteristic's line_of.  With E =
    expm1(centre + half t), e^t = e_q (1 + E), Re sinh s - q = cos d E (e_q
    + e^{-t})/2 - q (1 - cos d) and du = inv e_q/(e_q + 1) (E (1 + e^{-t}) +
    2 q (1 - cos d)/(e_q + 1)): no difference of nearby values is taken.
    On the real line (shifted false) w_arg and jac_im are 0.0, not formed.
    """
    # in place wherever a temporary is read no more: each sum and product is
    # the one of the formulas above, at most with its operands swapped
    tau = half * t
    tau += centre
    e = np.expm1(tau)
    big = np.exp(tau, out=tau)  # e^t without 1 + E's rounding
    big *= e_q
    small = 1.0 / big
    twice_cosh = big + small
    inv = twice_cosh + cos_2d
    np.divide(share, inv, out=inv)
    # (sinh s - q)/beta = dev + i im, dev = E (e_q + e^{-t}) cos_b - lean_b
    dev = e_q + small
    dev *= e
    dev *= cos_b
    dev -= lean_b
    im = twice_cosh * sin_b
    du = e * small  # (E e^{-t} + E + tilt) inv
    du += e
    du += tilt
    du *= inv
    w_log = im - dev  # (im - dev) (im + dev)
    w_log *= dev + im
    twice_cosh *= jac_c  # jac_re
    if not shifted:
        return du, inv, 0.0, w_log, twice_cosh, 0.0
    w_arg = -2.0 * dev  # -2 dev im
    w_arg *= im
    big -= small
    big *= jac_s  # jac_im = (e^t - e^{-t}) jac_s
    return du, inv, w_arg, w_log, twice_cosh, big


def _shifted_log(table, k, k_sin, bound):
    """A shifted row's phase, log modulus and live nodes at the nodes of its line's table.

    A node below e^{_DROPPED - bound} is left at 0 (a non-finite one is
    kept, for its row's status): most nodes of a fast row are damped away.
    """
    du, inv, w_arg, w_log = table[:4]
    arg = k * du
    np.subtract(w_arg, arg, out=arg)
    log_mod = k_sin * inv
    log_mod += w_log
    dead = log_mod < _DROPPED - bound
    dead &= np.isfinite(arg)
    return arg, log_mod, np.logical_not(dead, out=dead)


def _weight_peak(sin_d, cos_2d, q, beta):
    """G = sin^2 d (1 + q^2/cos 2d)/beta^2, the weight's largest log modulus at depth d."""
    return (sin_d / beta) ** 2 * (1.0 + q * q / cos_2d)


def _damping(kappa, sin_d, cos_d, cosh_x):
    """kappa sin d/(cosh x + cos d), the log modulus of e^{-i kappa tanh(s/2)} at s = x + i d."""
    return kappa * sin_d / (cosh_x + cos_d)


def _lines(kappa, q, beta, depth, certify=True):
    """batch_characteristic's rows: what fixes each one's line, what it adds, and which are decided.

    kappa and depth are float arrays of one shape.  line_of[i] holds the
    arguments of _line_table after t, row_of[i] kappa, kappa sin d (e_q +
    1)/e_q and log_bound; decided[i] is True for a shifted row whose every
    node would be dropped.  strip[i] holds the first level 32 * 2^k up to
    the cap at which the strip bound is below strip._STRIP_TARGET and the
    bound there, for a shifted row not decided, and inf where there is
    none (strip._strip_levels); strip is None unless certify.
    """
    cos_d, sin_d, cos_2d = np.cos(depth), np.sin(depth), np.cos(2.0 * depth)
    versine, (e_q, gamma) = 2.0 * np.sin(0.5 * depth) ** 2, _exp_asinh(q)  # 1 - cos d
    # the ends: S = sinh t with (S cos d - q)^2 - (1 + S^2) sin^2 d = 49 beta^2, less q
    # (lean = q cos d - q cos 2d), and t - asinh q from e^{asinh x} - e_q =
    # (x - q)(e^{asinh x} + e_q)/(gamma_x + gamma), which takes no difference
    root = np.sqrt(q * q * sin_d * sin_d
                   + cos_2d * (_HALF_WIDTH ** 2 * beta * beta + sin_d * sin_d))
    lean = 2.0 * q * np.sin(1.5 * depth) * np.sin(0.5 * depth)
    step = np.stack([lean - root, lean + root]) / cos_2d
    e_x, gamma_x = _exp_asinh(q + step)
    r = step * (e_x + e_q) / ((gamma_x + gamma) * e_q)
    lo, hi = np.where(r > -0.5, np.log1p(np.maximum(r, -0.5)), np.log(e_x / e_q))
    centre, half = 0.5 * (lo + hi), (hi - lo) / (2.0 * _HALF_WIDTH)
    scale = half / beta  # dt/beta per unit of the rule's variable, times sqrt(pi)
    # |cosh s| <= cosh t, largest at an end
    cosh_end = np.maximum(np.cosh(np.log(e_q) + lo), np.cosh(np.log(e_q) + hi))
    at_end = scale * cosh_end
    log_bound = np.log(at_end)
    line_of, row_of = np.empty(kappa.shape + (11,)), np.empty(kappa.shape + (3,))
    for column, value in enumerate((
            centre, half, 2.0 * cos_d, e_q, 0.5 * cos_d / beta, q * versine / beta,
            0.5 * sin_d / beta, 2.0 * q * versine / (e_q + 1.0), 2.0 * e_q / (e_q + 1.0),
            0.5 * cos_d * scale, 0.5 * sin_d * scale)):
        line_of[..., column] = value
    # an infinite kappa: see its status; a strip that reaches pi/4: see strip._strip_terms
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        k_sin = kappa * sin_d
        row_of[..., 0], row_of[..., 2] = kappa, log_bound
        row_of[..., 1] = k_sin * (e_q + 1.0) / e_q
        # batch_characteristic's bound, G + kappa sin d/(cosh x_end + cos d)
        log_mod_max = _weight_peak(sin_d, cos_2d, q, beta) + _damping(kappa, sin_d, cos_d, cosh_end)
        decided = ((log_mod_max < _DROPPED - log_bound - _BOUND_MARGIN) & (depth != 0.0)
                   & np.isfinite(4.0 * kappa))
        strip = np.full(kappa.shape + (2,), math.inf) if certify else None
        rows = np.flatnonzero((depth != 0.0) & ~decided) if certify else ()
        if len(rows):
            # here, not at the top: strip reads this module, and a call that
            # certifies no row does not load it
            from .strip import _strip_levels, _strip_terms

            at = [v if v.ndim == 0 else v[rows] for v in (kappa, q, beta, depth, half, at_end)]
            strip[rows] = _strip_levels(*_strip_terms(*at), DEFAULT_QUAD.max_nodes)
    return line_of, row_of, decided, strip


def batch_characteristic(kappa, q, beta, depth, certify=True) -> Averages:
    """phi(kappa) = <e^{-i kappa (u(p) - u(q))}>, u(p) = p/(sqrt(p^2+1)+1), per row.

    The average is over the Gaussian of centre q_i and width beta_i, taken
    in s = asinh p, where u = tanh(s/2) is analytic in the strip |Im s| <
    pi and the weight e^{-(sinh s - q)^2/beta^2} cosh s/(sqrt(pi) beta)
    decays along every line |Im s| < pi/4.  Row i runs along the line
    s = t + i depth[i], written about t = asinh q (_line_table); by
    Cauchy's theorem its value is the real line's, and with depth of the
    sign of -kappa the oscillation is damped by e^{-|kappa| sin|depth| /
    (cosh t + cos depth)}.  The ends of t are where the weight's modulus
    falls to e^{-49}, as on the real line at p = q +- 7 beta; inside, it
    peaks at e^{sin^2 d (1 + q^2/cos 2d)/beta^2}, which the caller bounds
    through the depth.  On the real line (depth 0) a row is averaged
    against the line's real weight; a shifted row carries its complex
    weight, averaged against e^{-t^2}.  q and beta are each one value per
    row, or one scalar for all; rows on one line share its tables, formed
    once per level of the call.  values[:, 0] holds Re phi, values[:, 1] Im phi.

    On the real line the angle -kappa du turns at most at |kappa| half/2
    per unit of t, half being the line's half-width over 7 (line_of[:, 1]),
    since u' = 1/(2 cosh^2(s/2)) <= 1/2; so between nodes 2h apart it
    advances by at most h |kappa| half.  _adaptive_average takes that
    bound as the rows' turn and checks the nodes of a row only where the
    bound does not clear it (_cleared): a call with depth 0 and a fast
    kappa still gets the node test.  A sweep row runs on the real line
    only where _cleared clears omega = |kappa| beta/2 at 128 intervals
    (experiments._s_line), and half <= beta since ds <= dp, so its turn
    is cleared from 128 intervals on; a coarser level tests its nodes.

    A shifted row drops each node whose log modulus, log_mod, is below
    _DROPPED - log_bound, log_bound bounding the rest of the integrand
    (_shifted_log).  On the line s = x + i d, x in [x_lo, x_hi],

        log_mod = w_log + kappa sin d/(cosh x + cos d),
        w_log = (cosh^2 x sin^2 d - (sinh x cos d - q)^2)/beta^2.

    w_log is a concave quadratic in sinh x (cos 2d > 0), so it is at most
    its peak G = sin^2 d (1 + q^2/cos 2d)/beta^2.  With depth of the sign
    of -kappa the second term is -|kappa sin d|/(cosh x + cos d), largest
    at the end of larger cosh x.  So a row with

        G + kappa sin d/(cosh x_end + cos d) < _DROPPED - log_bound - _BOUND_MARGIN

    drops every node of every level up to the cap, its phase being finite
    where 4 kappa is.  The rule would return phi = 0 at 64 intervals with
    residual 0; the row gets those bits, status CONVERGED and nodes 0
    without entering the rule.  The margin covers the rounding: each term
    of log_mod is rounded to a few ulps of its size, and where the test is
    close both sizes are of order |_DROPPED - log_bound| + G (G <= 4 on
    _s_line's depths), since w_log <= G and the damping is <= 0, so the
    two never cancel.  A row turned the wrong way (kappa sin d > 0) is
    never decided, as log_bound >= 0: the support spans at least 14 beta
    in p, at most its span in x times cosh x_end.  Nor is a row whose
    4 kappa is not finite.

    A shifted row stops where two levels agree, as every row does, or
    earlier, at the first level where its strip bound (gravent.strip) is
    below 1e-13: there the rule's error is bounded over strips around its
    line, and the row reports that bound as its residual.
    certify false forms no bound: rows that share their line, as a z- or
    tau-sweep's do, nearly all stop at 64 intervals, where no strip inside
    |Im s| < pi/4 certifies them earlier, and there forming the bound cost
    more than the levels it saved.
    """
    kappa, q, beta, depth = (np.asarray(v, dtype=float) for v in (kappa, q, beta, depth))
    kappa, depth = np.broadcast_arrays(kappa, depth)
    line_of, row_of, decided, strip = _lines(kappa, q, beta, depth, certify)
    shared = q.ndim == 0 and beta.ndim == 0

    def blocks(index, form, integrand):
        # the rows_fn of the rows index: integrand(rows, form(t, their line)).
        # Rows of one depth, with q and beta scalar, share a line and its tables,
        # formed once per level of this call; the blocks ascend, so a block is on
        # one line where no change of depth lies between its ends
        lines, tables = depth[index], {}
        changes = np.flatnonzero(lines[1:] != lines[:-1]).tolist()

        def rows_fn(i, t):
            rows = index[i]
            if not shared or changes and bisect_left(changes, i[0]) != bisect_left(changes, i[-1]):
                return integrand(rows, form(t, line_of[rows].T[..., None]))
            key = (t.shape[-1], lines[i[0]])  # one level, one line
            if key not in tables:
                tables[key] = form(t, line_of[rows[:1]].T[..., None])
            return integrand(rows, tables[key])

        return rows_fn

    def real_line(t, line):  # -du and the line's real weight
        du, _, _, w_log, jac_re, _ = _line_table(t, *line, False)
        w = np.exp(w_log)
        w *= jac_re
        return np.negative(du, out=du), w

    def shifted_line(t, line):  # the table, the complex Jacobian, t^2 and e^{-t^2}
        *table, jac_re, jac_im = _line_table(t, *line)
        tt = t * t
        return table, _complex(jac_re, jac_im), tt, np.exp(-tt)

    def on_the_axis(rows, line):  # e^{-i kappa du} against the line's real weight
        minus_du, w = line
        angle = row_of[rows, :1] * minus_du
        return _cis(angle), angle.__getitem__, w

    def off_the_axis(rows, line):
        table, jac, tt, weight = line
        k, k_sin, bound = row_of[rows].T[..., None]
        arg, log_mod, live = _shifted_log(table, k, k_sin, bound)
        log_mod += tt  # averaged against e^{-t^2}, the integrand carries e^{t^2}
        expo = _complex(log_mod, arg)
        term = np.exp(expo, out=np.zeros(arg.shape, complex), where=live)
        term *= jac
        integrand = np.empty((len(term), 2, term.shape[1]))
        integrand[:, 0], integrand[:, 1] = term.real, term.imag

        def angle(ask):  # arg - i (log_mod + bound), formed only for the rows the alias test reads
            return -1j * (expo[ask] + bound[ask])

        return integrand, angle, weight

    # each kind of row in a pass of its own, the real line's vouched for by
    # its turn (above); a decided row keeps the zeros, with status CONVERGED
    on_axis = depth == 0.0
    out = Averages(np.zeros((kappa.size, 2)), np.zeros(kappa.size),
                   *np.zeros((2, kappa.size), dtype=int))
    # one errstate for both passes: a turn that is not finite clears nothing,
    # and a non-finite row is reported through its status
    with np.errstate(invalid="ignore", over="ignore"):
        turn = 0.5 * np.abs(kappa) * line_of[:, 1]
        for part, form, integrand, vouch in (
                (on_axis, real_line, on_the_axis, {"turn": turn}),
                (~on_axis & ~decided, shifted_line, off_the_axis, {"strip": strip})):
            index = np.flatnonzero(part)
            if index.size:
                got = _adaptive_average(blocks(index, form, integrand), index.size, _FIRST_IN_S,
                                        **{name: None if rows is None else rows[index]
                                           for name, rows in vouch.items()})
                for name in ("values", "residual", "nodes", "status"):
                    getattr(out, name)[index] = getattr(got, name)
    return out


def _complex(re, im):
    """re + 1j * im, bit for bit, written into its parts: 0 im + re and im + 0.

    The real part of 1j * im is 0 im, nan where im is not finite: e^{re + i
    inf} is nan, as it must be for its row's status, but e^{-inf + i inf} is
    0 without it.
    """
    out = np.empty(np.broadcast(re, im).shape, complex)
    np.multiply(im, 0.0, out=out.real)
    out.real += re
    np.add(im, 0.0, out=out.imag)
    return out


def _as_factor(theta_fn):
    """theta_fn(p) broadcast to p, as the factor of a row of amplitude 1.0.

    1.0 * Theta is exact, so that row averages theta_fn's own bits.
    """
    return lambda _, p: np.broadcast_to(np.asarray(theta_fn(p), dtype=float), p.shape)


def trig_moments(theta_fn, dist: MomentumDistribution) -> TrigMoments:
    """Gaussian averages of cos Theta(p) and sin Theta(p), on the real line in x.

    The one-row case of batch_trig_moments.
    theta_fn must accept an array of momenta; it may return one angle
    for all of them.  Under the probability weight, C^2 + S^2 <= 1
    always, with equality only for constant Theta.
    Raises DomainError for a non-finite Theta and ConvergenceError when
    the interval cap leaves a residual above FAIL_RESIDUAL or a Theta
    that turns too fast for the cap's rule.
    """
    out = batch_trig_moments([1.0], _as_factor(theta_fn), dist.q, dist.beta)
    (c, s), = out.values
    return TrigMoments(C=float(c), S=float(s), residual=float(out.residual[0]),
                       nodes=int(out.nodes[0]))


def reduced_density_closed(bell: BellState, m: TrigMoments) -> np.ndarray:
    """Final two-spin density matrix in closed form.

    Built from K = C^2 + S^2, X = C^2 - S^2 and Y = 2 C S; the sign of the
    Y cross terms follows from direct integration of the rotated Bell
    projectors.  All four outputs share the eigenvalue pair (1 +- K)/2 on
    a two-dimensional support, hence equal concurrence K.  Of arrays C
    and S, the stack (..., 4, 4) of the matrices each pair gives alone.
    """
    c, s = np.asarray(m.C, dtype=float), np.asarray(m.S, dtype=float)
    sgn, zero = (1.0 if bell.tag in ("chi1", "chi2") else -1.0), np.zeros_like(c)
    if bell.tag in ("chi1", "chi4"):
        K = c * c + s * s
        a, b = 1.0 + sgn * K, 1.0 - sgn * K
        rho = [[a, zero, zero, a], [zero, b, -b, zero], [zero, -b, b, zero], [a, zero, zero, a]]
    else:  # chi2 or chi3
        X = c * c - s * s
        a, b, y = 1.0 + sgn * X, 1.0 - sgn * X, sgn * (2.0 * c * s)
        rho = [[a, y, y, -a], [y, b, b, -y], [y, b, b, -y], [-a, -y, -y, a]]
    return 0.25 * np.moveaxis(np.array(rho), (0, 1), (-2, -1)).astype(complex)


def _rotation_products(theta: np.ndarray) -> np.ndarray:
    """D[i,a] D[k,c] (..., 16, nodes), D the rotation by theta/2; they turn with theta."""
    c, s = np.moveaxis(_cis(0.5 * theta), -2, 0)
    d = np.stack([c, -s, s, c], axis=-2).reshape(theta.shape[:-1] + (2, 2, -1))
    prod = d[..., :, :, None, None, :] * d[..., None, None, :, :, :]
    return prod.reshape(theta.shape[:-1] + (16, -1))


def _bell_densities(moments: np.ndarray, bells) -> np.ndarray:
    """rho[..., chi, ij, kl] = sum m[i,a,k,c] m[j,b,l,d] chi[a,b] chi[c,d], chi in bells.

    The terms ((m m) chi) chi are added into zeros a outermost, then c, b,
    d: np.einsum's order, and so its bits.
    """
    m = moments.reshape(moments.shape[:-1] + (1, 2, 2, 2, 2))  # [..., 1, i, a, k, c]
    chi = np.array([bell.vector for bell in bells]).reshape(-1, 2, 2, 1, 1, 1, 1)
    rho = np.zeros(m.shape[:-5] + (len(chi), 2, 2, 2, 2))  # [..., chi, i, j, k, l]
    for a, c, b, d in np.ndindex(2, 2, 2, 2):
        rho += ((m[..., :, None, a, :, None, c] * m[..., None, :, b, None, :, d])
                * chi[:, a, b]) * chi[:, c, d]
    return rho.reshape(rho.shape[:-4] + (4, 4)).astype(complex)


def reduced_density_bruteforce(bell, theta_fn, dist: MomentumDistribution) -> np.ndarray:
    """Reference reduced density matrix from the component integrals.

    The one-row case of batch_reduced_density_bruteforce, for one state,
    or, from the same pass, for each of a sequence of states (len, 4, 4).
    Both particles carry the same distribution, so a single 2x2x2x2
    tensor m[i,a,k,c] = <D[i,a] D[k,c]> of the half-angle rotation D
    feeds the whole contraction.
    """
    out = _raise_failed_rows(_batch_average(_rotation_products, [1.0], _as_factor(theta_fn),
                                            dist.q, dist.beta))
    one = isinstance(bell, BellState)
    rho = _bell_densities(out.values[0], [bell] if one else bell)
    return rho[0] if one else rho


def batch_reduced_density_bruteforce(amplitude, factor, q, beta) -> np.ndarray:
    """reduced_density_bruteforce of each row and Bell state, (rows, 4, 4, 4).

    The rows are those of _batch_average, on the real line in x; one
    adaptive pass over the 16 components gives every row's tensor.
    """
    out = _batch_average(_rotation_products, amplitude, factor, q, beta)
    return _bell_densities(_raise_failed_rows(out).values, BELL_STATES)


def batch_trig_moments(amplitude, factor, q, beta) -> Averages:
    """trig_moments of each row: values[i] holds row i's (C, S).

    The rows are those of _batch_average, on the real line in x; one
    adaptive pass gives every row the bits and node count it gets alone.
    The first row that fails raises the error trig_moments raises for it.
    """
    return _raise_failed_rows(_batch_average(_cis, amplitude, factor, q, beta))


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SIGMA_Y, _SIGMA_Y)


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y), over a stack (..., 4, 4)."""
    return _SYSY @ rho.conj() @ _SYSY


def wootters_concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the decreasingly ordered square roots of the eigenvalues
    of rho @ spin_flip(rho); those are non-negative for any physical rho,
    so an eigenvalue below -1e-6 flags an invalid input while smaller
    negatives are clipped as round-off.  The l_i themselves are computed
    as the singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), an
    equivalent form whose zero values carry eps-level noise instead of
    the sqrt(eps) a generic eigensolver leaves on rho rho~.  Of a stack
    (..., 4, 4), an array (...) of the values each matrix gives alone.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got shape {rho.shape}")
    evals = np.linalg.eigvals(rho @ spin_flip(rho))
    if np.abs(evals.imag).max() > 1e-6:
        raise NumericalError(f"complex eigenvalue {evals.flat[np.abs(evals.imag).argmax()]}")
    if evals.real.min() < -1e-6:
        raise NumericalError(f"negative eigenvalue {evals.real.min():.3e} of rho rho~")
    w, u = np.linalg.eigh(0.5 * (rho + rho.conj().swapaxes(-1, -2)))
    root = (u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ u.conj().swapaxes(-1, -2)
    lam = np.linalg.svd(root @ _SYSY @ root.conj(), compute_uv=False)
    conc = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(conc) if conc.ndim == 0 else conc


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log1p(-x)/ln 2 for x in [0, 1], with h(0) = h(1) = 0.

    Of a float, or of each element of an array with the float's bits: the
    logs are math's per value, whose bits numpy's do not always give.
    """
    y = np.asarray(x, dtype=float)
    check_domain({"x": y})
    # log2 y where y > 0 and log1p(-y) where y < 1, else 0, which the terms multiply by 0
    log2_y, log1p_y, pos, below = np.zeros_like(y), np.zeros_like(y), y > 0.0, y < 1.0
    log2_y[pos] = list(map(math.log2, y[pos].tolist()))
    log1p_y[below] = list(map(math.log1p, (-y[below]).tolist()))
    h = (0.0 - y * log2_y) - (1.0 - y) * log1p_y / math.log(2.0)
    return float(h) if h.ndim == 0 else h


def entanglement_of_formation(concurrence):
    """Entanglement of formation h(y), y = C^2/(2 (1 + sqrt(1 - C^2))), for C in [0, 1].

    y = (1 - sqrt(1 - C^2))/2 without the cancellation, so E keeps its
    relative digits as C -> 0.  Of a float, or of each element of an
    array with the float's bits.  The first C below -1e-12, above 1 + 1e-12
    or nan raises DomainError.
    """
    c = np.asarray(concurrence, dtype=float)
    check_domain({"concurrence": c})
    k2 = np.square(np.clip(c, 0.0, 1.0))
    return binary_entropy(k2 / (2.0 * (1.0 + np.sqrt(1.0 - k2))))


@dataclass(frozen=True)
class DensityMatrixDiagnostics:
    hermiticity: float | np.ndarray
    trace_error: float | np.ndarray
    min_eigenvalue: float | np.ndarray


def density_matrix_diagnostics(rho: np.ndarray) -> DensityMatrixDiagnostics:
    """Hermiticity residual, trace deviation and smallest eigenvalue.

    Floats for one matrix, arrays (...) for a stack (..., 4, 4).
    """
    rho = np.asarray(rho)
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    trace = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    min_eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().swapaxes(-1, -2))).min(axis=-1)
    if rho.ndim == 2:
        herm, trace, min_eig = float(herm), float(trace), float(min_eig)
    return DensityMatrixDiagnostics(herm, trace, min_eig)
