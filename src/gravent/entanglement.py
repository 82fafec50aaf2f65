"""Gaussian trig moments, Bell-state reduced density matrices, concurrence.

The two-particle wave packet is separable in momentum with identical
Gaussian weights w(p) = exp(-(p-q)^2/beta^2) / (sqrt(pi) beta) for each
particle, and a maximally entangled spin part.  Tracing out momentum
after both spins pick up a momentum-dependent rotation leaves matrices
that depend only on the two averages

    C = <cos Theta>,   S = <sin Theta>

over w(p).  The averages come from a nested trapezoid rule in
x = (p - q)/beta, which converges exponentially for integrands analytic
in a strip around its line (Trefethen & Weideman, SIAM Review 56, 2014);
a sweep row may move that line into the complex plane, where a fast
oscillation is damped, as numerical steepest descent does (Huybrechs &
Vandewalle, SIAM J. Numer. Anal. 44, 2006).  The closed forms are checked
against a brute-force average of rotated projectors, which is the
reference implementation whenever the two disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError


@dataclass(frozen=True)
class BellState:
    """One of the four maximally entangled two-spin states."""

    tag: str
    vector: tuple[float, float, float, float]

    def array(self) -> np.ndarray:
        return np.array(self.vector)

    def projector(self) -> np.ndarray:
        v = self.array()
        return np.outer(v, v).astype(complex)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
CHI1 = BellState("chi1", (_INV_SQRT2, 0.0, 0.0, _INV_SQRT2))
CHI2 = BellState("chi2", (_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2))
CHI3 = BellState("chi3", (0.0, _INV_SQRT2, _INV_SQRT2, 0.0))
CHI4 = BellState("chi4", (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0))
BELL_STATES = (CHI1, CHI2, CHI3, CHI4)


def bell_state(tag: str) -> BellState:
    for chi in BELL_STATES:
        if chi.tag == tag:
            return chi
    raise DomainError(f"unknown Bell state {tag!r}; expected chi1..chi4")


@dataclass(frozen=True)
class MomentumDistribution:
    """Normalized Gaussian weight centered at q with width beta."""

    q: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.beta)):
            raise DomainError(f"q and beta must be finite, got q={self.q}, beta={self.beta}")
        if self.beta <= 0:
            raise DomainError(f"beta must be positive, got {self.beta}")

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

# The rule integrates over x = (p - q)/beta on [-7, 7]; the weight e^{-x^2}
# at the ends is 5e-22, below rounding, so the end nodes are left out and
# every node is interior.
_HALF_WIDTH = 7.0

# Temporaries of the batched quadrature hold about this many elements, so a
# sweep's memory stays flat however many rows it has.  Complex temporaries
# take 16 bytes per element: at 2**12 each stays at 64 KiB, below the 128 KiB
# at which glibc malloc switched between reusing heap blocks and mapping
# fresh pages (~10k page faults and ~25% of a q-sweep, depending on import
# order).
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
    REDUCED_TOLERANCE, NOT_FINITE and NO_CONVERGENCE.
    """

    values: np.ndarray
    residual: np.ndarray
    nodes: np.ndarray
    status: np.ndarray


def _adaptive_average(rows_fn, size: int, shift=None) -> Averages:
    """Average an integrand over the Gaussian weight e^{-x^2}/sqrt(pi), per row.

    Row i integrates along the line x = t - i*shift[i], t in [-7, 7];
    with no shift, every row stays on the real line.  For an integrand
    analytic between that line and the real axis, Cauchy's theorem keeps
    the value.  rows_fn(index, x) gets the indices of a block of rows and
    their nodes x, real of shape (1, nodes) with no shift and complex of
    shape (len(index), nodes) with one.  It returns the integrand times
    e^{t^2 - x^2} (the shifted Gaussian over the real one), shape
    (len(index), components, nodes), and an angle of shape (len(index),
    nodes): the integrand turns with its real part and is no larger than
    e^{-Im angle}, as e^{i angle} is.

    The rule is the trapezoid rule in t, nested: each level doubles the
    intervals, evaluating only the new midpoints, until the row's
    estimates agree to TOL or the next level would pass the cap,
    DEFAULT_QUAD.max_nodes.  Each estimate is the running sum over the
    rule's weight sum, so a constant integrand averages to itself exactly.
    Each level evaluates only the rows still active, in blocks of about
    _BLOCK_ELEMENTS nodes.

    Two levels agreeing is no proof on their own: a frequency the finer
    level aliases is aliased by the coarser one too, so a fast, nearly
    pure oscillation can leave both with the same wrong value.  So the
    agreement counts only where the finer level resolves the angle: with
    h its interval, the angle's rate of turn stays short of the first
    alias frequency 2 pi/h by _SPREAD, or by pi/h (the Nyquist limit)
    where that is less, at every node whose share of the estimate could
    reach TOL.  The new midpoints lie 2h apart, so their own angles tell
    (_resolved).  Where the angle is unresolved the residual is inf.  A
    row whose integrand is not finite stops with status NOT_FINITE; one
    that reaches the cap unconverged stops with NO_CONVERGENCE if its
    residual is above FAIL_RESIDUAL and with REDUCED_TOLERANCE otherwise.
    """
    if shift is not None:
        shift = np.asarray(shift, dtype=float)
    values = sums = weight = prev = None
    residual = np.full(size, math.inf)
    nodes = np.zeros(size, dtype=int)
    status = np.zeros(size, dtype=int)  # CONVERGED
    active = np.arange(size)
    n = 64
    t = (2.0 * _HALF_WIDTH / n) * np.arange(1, n) - _HALF_WIDTH
    while active.size:
        w = np.exp(-t * t)
        block = max(1, _BLOCK_ELEMENTS // t.size)
        capped = 2 * n > DEFAULT_QUAD.max_nodes
        est, res = None, np.empty(active.size)
        for start in range(0, active.size, block):
            rows = slice(start, start + block)
            idx = active[rows]
            x = t[None] if shift is None else t - 1j * shift[idx, None]
            integrand, angle = rows_fn(idx, x)
            # (rows, components, nodes) @ w runs one gemv per row, the
            # same product a lone row gets, so batching moves no bits
            part = integrand @ w
            if est is None:
                # the same product on the constant 1 adds up the weights
                new_weight = (np.ones((1, part.shape[1], t.size)) @ w)[0]
                if sums is None:
                    values, sums = np.empty((2, size, part.shape[1]))
                    weight = new_weight
                else:
                    weight = weight + new_weight
                est = np.empty((active.size, part.shape[1]))
            sums[idx] = part if prev is None else sums[idx] + part
            est[rows] = sums[idx] / weight
            if prev is not None:
                res[rows] = np.abs(est[rows] - prev[rows]).max(axis=1)
                # only a row that would stop without failing has its angle
                # checked
                ask = np.flatnonzero(res[rows] <= FAIL_RESIDUAL if capped
                                     else res[rows] < TOL)
                if ask.size:
                    unresolved = ~_resolved(angle[ask], w, 2.0 * _HALF_WIDTH / n)
                    res[start + ask[unresolved]] = math.inf
        values[active] = est
        nodes[active] = n
        done = ~np.isfinite(est).all(axis=1)
        status[active[done]] = NOT_FINITE
        if prev is not None:
            residual[active] = res
            converged = res < TOL
            if capped:
                failed = ~done & ~converged
                status[active[failed]] = np.where(res[failed] > FAIL_RESIDUAL,
                                                  NO_CONVERGENCE, REDUCED_TOLERANCE)
                done[:] = True
            else:
                done |= converged
        keep = ~done
        active, prev = active[keep], est[keep]
        n *= 2
        t = (2.0 * _HALF_WIDTH / n) * np.arange(1, n, 2) - _HALF_WIDTH
    if values is None:  # an empty batch
        values = np.empty((0, 0))
    return Averages(values, residual, nodes, status)


# Nodes whose weighted integrand stays below this add at most
# 14/sqrt(pi) * _NEGLIGIBLE ~ 8e-12 to an estimate, well below TOL, so
# their angle need not be resolved.
_NEGLIGIBLE = 1e-12

# e^{i Theta} times its envelope has its spectrum around the local rate of
# turn Theta'(x), spread by the envelope's own spectrum: e^{-x^2}'s falls
# below 1e-12 within 10.5 of it, and the damped envelopes on shifted lines
# spread wider.  On q-sweeps a margin of 20 erred no more than one of 30;
# below 128 intervals the Nyquist limit leaves less.
_SPREAD = 30.0


def _resolved(angle: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Per row: does a rule of interval h resolve the angle where it matters?

    Between neighbouring nodes, 2h apart, Re angle must advance by less
    than 2h (2 pi/h - min(_SPREAD, pi/h)) wherever either neighbour's
    weighted size e^{-Im angle} w is above _NEGLIGIBLE.
    """
    limit = 2.0 * (2.0 * math.pi - min(_SPREAD * h, math.pi))
    # a non-finite angle is reported through its row's status
    with np.errstate(invalid="ignore"):
        fast = np.abs(np.diff(angle.real, axis=-1)) >= limit
    resolved = ~fast.any(axis=-1)
    rows = np.flatnonzero(~resolved)
    if rows.size:
        size = np.exp(-angle[rows].imag) * w if np.iscomplexobj(angle) else w[None]
        matters = np.maximum(size[:, 1:], size[:, :-1]) > _NEGLIGIBLE
        resolved[rows] = ~(fast[rows] & matters).any(axis=-1)
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
    """Re and Im of e^{i theta}, stacked on a new axis before the nodes axis.

    For a real theta these are cos theta and sin theta.
    """
    out = np.empty(theta.shape[:-1] + (2, theta.shape[-1]))
    # a non-finite angle is reported through its row's status, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        if np.iscomplexobj(theta):
            re = np.ascontiguousarray(theta.real)
            np.cos(re, out=out[..., 0, :])
            np.sin(re, out=out[..., 1, :])
            out *= np.exp(-theta.imag)[..., None, :]
        else:
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


def batch_trig_moments(amplitude, factor, q, beta, shift=None) -> Averages:
    """<cos Theta> and <sin Theta> for a batch of rows in one adaptive pass.

    Row i's angle is Theta_i(p) = amplitude[i] * factor(q_i, p), averaged
    over the Gaussian of centre q_i and width beta_i along the line
    p = q_i + beta_i (t - i shift[i]) (the real line by default); Theta
    must be analytic between that line and the real axis.  q and beta are
    each one value per row, or one scalar for all: with one scalar centre
    the rows on the real line share one momentum table per block,
    factor(q, p) with p of shape (1, nodes), and differ only in the
    amplitude column, with the bits a column of equal centres gives.
    factor gets q as that scalar or as the column q[index, None].  On a
    shifted line only e^{i Theta} is damped, so it is the one integrand:
    C is the real part of its average and S the imaginary part.
    values[:, 0] holds C and values[:, 1] holds S; see _adaptive_average
    for the rest.
    """
    return _batch_average(_cis, amplitude, factor, q, beta, shift)


def _batch_average(integrand, amplitude, factor, q, beta, shift=None) -> Averages:
    """_adaptive_average of integrand(Theta) over the rows of batch_trig_moments.

    integrand maps angles (rows, nodes) to (rows, components, nodes); only
    _cis may be averaged on a shifted line.  Every average goes through
    here: trig_moments and reduced_density_bruteforce are its one-row case.
    """
    amplitude, q, beta = (np.asarray(v, dtype=float) for v in (amplitude, q, beta))

    def rows(index, x):
        centre = q if q.ndim == 0 else q[index, None]
        width = beta if beta.ndim == 0 else beta[index, None]
        theta = amplitude[index, None] * factor(centre, centre + width * x)
        if np.iscomplexobj(x):
            # e^{t^2 - x^2} joins the exponent: with x = t + iy,
            # t^2 - x^2 = i * (-y (x + t))
            theta = theta - x.imag * (x + x.real)
        return integrand(theta), theta

    return _adaptive_average(rows, amplitude.size, shift)


def _as_factor(theta_fn):
    """theta_fn(p) broadcast to p, as the factor of a row of amplitude 1.0.

    1.0 * Theta is exact, so that row averages theta_fn's own bits.
    """
    return lambda _, p: np.broadcast_to(np.asarray(theta_fn(p), dtype=float), p.shape)


def trig_moments(theta_fn, dist: MomentumDistribution) -> TrigMoments:
    """Gaussian averages of cos Theta(p) and sin Theta(p), on the real line.

    The one-row case of batch_trig_moments, with failures raised.
    theta_fn must accept an array of momenta; it may return one angle
    for all of them.  Under the probability weight, C^2 + S^2 <= 1
    always, with equality only for constant Theta.
    Raises DomainError for a non-finite Theta and ConvergenceError when
    the interval cap leaves a residual above FAIL_RESIDUAL or a Theta
    that turns too fast for the cap's rule.
    """
    out = _raise_failed_rows(
        _batch_average(_cis, [1.0], _as_factor(theta_fn), dist.q, dist.beta))
    (c, s), = out.values
    return TrigMoments(C=float(c), S=float(s), residual=float(out.residual[0]),
                       nodes=int(out.nodes[0]))


def reduced_density_closed(bell: BellState, m: TrigMoments) -> np.ndarray:
    """Final two-spin density matrix in closed form.

    Built from K = C^2 + S^2, X = C^2 - S^2 and Y = 2 C S; the sign of the
    Y cross terms follows from direct integration of the rotated Bell
    projectors.  All four outputs share the eigenvalue pair (1 +- K)/2 on
    a two-dimensional support, hence equal concurrence K.
    """
    K = m.C * m.C + m.S * m.S
    X = m.C * m.C - m.S * m.S
    Y = 2.0 * m.C * m.S
    if bell.tag in ("chi1", "chi4"):
        sgn = 1.0 if bell.tag == "chi1" else -1.0
        a = 1.0 + sgn * K
        b = 1.0 - sgn * K
        rho = np.array([
            [a, 0.0, 0.0, a],
            [0.0, b, -b, 0.0],
            [0.0, -b, b, 0.0],
            [a, 0.0, 0.0, a],
        ])
    elif bell.tag in ("chi2", "chi3"):
        sgn = 1.0 if bell.tag == "chi2" else -1.0
        a = 1.0 + sgn * X
        b = 1.0 - sgn * X
        y = sgn * Y
        rho = np.array([
            [a, y, y, -a],
            [y, b, b, -y],
            [y, b, b, -y],
            [-a, -y, -y, a],
        ])
    else:
        raise DomainError(f"unknown Bell state {bell.tag!r}")
    return 0.25 * rho.astype(complex)


def _rotation_products(theta: np.ndarray) -> np.ndarray:
    """D[i,a] D[k,c] (..., 16, nodes), D the rotation by theta/2; they turn with theta."""
    c, s = np.moveaxis(_cis(0.5 * theta), -2, 0)
    d = np.stack([c, -s, s, c], axis=-2).reshape(theta.shape[:-1] + (2, 2, -1))
    prod = d[..., :, :, None, None, :] * d[..., None, None, :, :, :]
    return prod.reshape(theta.shape[:-1] + (16, -1))


def _bell_densities(moments: np.ndarray, bells) -> np.ndarray:
    """rho[..., chi, ij, kl] = sum m[i,a,k,c] m[j,b,l,d] chi[a,b] chi[c,d], chi in bells."""
    m = moments.reshape(moments.shape[:-1] + (1, 2, 2, 2, 2))
    chi = np.array([bell.vector for bell in bells]).reshape(-1, 2, 2)
    rho = np.einsum("...iakc,...jbld,...ab,...cd->...ijkl", m, m, chi, chi)
    return rho.reshape(rho.shape[:-4] + (4, 4)).astype(complex)


def reduced_density_bruteforce(bell: BellState, theta_fn,
                               dist: MomentumDistribution) -> np.ndarray:
    """Reference reduced density matrix from the component integrals.

    The one-row, one-state case of batch_reduced_density_bruteforce.  Both
    particles carry the same distribution, so a single 2x2x2x2 tensor
    m[i,a,k,c] = <D[i,a] D[k,c]> of the half-angle rotation D feeds the
    whole contraction.
    """
    out = _raise_failed_rows(_batch_average(_rotation_products, [1.0], _as_factor(theta_fn),
                                            dist.q, dist.beta))
    return _bell_densities(out.values[0], [bell])[0]


def batch_reduced_density_bruteforce(amplitude, factor, q, beta) -> np.ndarray:
    """reduced_density_bruteforce of each row and Bell state, (rows, 4, 4, 4).

    The rows are those of batch_trig_moments, on the real line; one
    adaptive pass over the 16 components gives every row's tensor.
    """
    out = _batch_average(_rotation_products, amplitude, factor, q, beta)
    return _bell_densities(_raise_failed_rows(out).values, BELL_STATES)


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


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    total = 0.0
    for v in (x, 1.0 - x):
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def entanglement_of_formation(concurrence: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2))/2) for C in [0, 1]."""
    if not -1e-12 <= concurrence <= 1.0 + 1e-12:
        raise DomainError(f"concurrence must lie in [0, 1], got {concurrence}")
    c = min(max(concurrence, 0.0), 1.0)
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


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
