"""Gaussian trig moments, Bell-state reduced density matrices, concurrence.

The two-particle wave packet is separable in momentum with identical
Gaussian weights w(p) = exp(-(p-q)^2/beta^2) / (sqrt(pi) beta) for each
particle, and a maximally entangled spin part.  Tracing out momentum
after both spins pick up a momentum-dependent rotation leaves matrices
that depend only on the two averages

    C = <cos Theta>,   S = <sin Theta>

over w(p).  The closed forms are checked against a brute-force average of
rotated projectors, which is the reference implementation whenever the
two disagree.
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


# Each row doubles its Gauss-Hermite nodes until successive estimates agree
# to TOL; one that reaches the cap with a residual above FAIL_RESIDUAL fails.
TOL = 1e-10
FAIL_RESIDUAL = 1e-6


@dataclass(frozen=True)
class QuadConfig:
    """The node cap of the adaptive Gauss-Hermite quadrature.

    Every row starts at min(64, max_nodes // 2) nodes and doubles up to
    max_nodes.
    """

    max_nodes: int = 2048

    def __post_init__(self):
        if self.max_nodes < 4:
            raise DomainError(f"max_nodes must be >= 4, got {self.max_nodes}")


DEFAULT_QUAD = QuadConfig()

# Node tables are computed once per count and shared; immutable thereafter.
_HERMITE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _HERMITE_CACHE:
        from scipy.special import roots_hermite  # only once a table is built

        x, w = roots_hermite(n)
        w = w / math.sqrt(math.pi)
        keep = w > 0.0  # weights underflow beyond |x| ~ 27; drop dead nodes
        x = x[keep].copy()
        w = w[keep].copy()
        x.setflags(write=False)
        w.setflags(write=False)
        _HERMITE_CACHE[n] = (x, w)
    return _HERMITE_CACHE[n]


# Temporaries of the batched quadrature hold about this many elements, so a
# sweep's memory stays flat however many rows it has.  At 2**14 (128 KiB
# each) whether glibc malloc reuses heap blocks or maps fresh pages at every
# level hung on the import order: ~10k page faults and ~25% of the time of a
# q-sweep round once SciPy was imported after gravent.  At 2**13 none fault.
_BLOCK_ELEMENTS = 2 ** 13

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
    residual[i] the change between its last two node levels, nodes[i]
    the node count it stopped at and status[i] one of CONVERGED,
    REDUCED_TOLERANCE, NOT_FINITE and NO_CONVERGENCE.
    """

    values: np.ndarray
    residual: np.ndarray
    nodes: np.ndarray
    status: np.ndarray


def _adaptive_average(rows_fn, q, beta: float, quad: QuadConfig) -> Averages:
    """Average an integrand over a Gaussian of width beta centred at each q.

    rows_fn(index, p) gets the indices of a block of rows and their momenta
    p, shape (len(index), nodes), and returns the integrand, shape
    (len(index), components, nodes).  Every row starts at
    min(64, quad.max_nodes // 2) nodes and doubles until its own estimates
    agree to TOL or it reaches quad.max_nodes; each level evaluates only the
    rows still active, in blocks of about _BLOCK_ELEMENTS momenta.  A row
    whose integrand is not finite stops with status NOT_FINITE; one that
    reaches the cap unconverged stops with NO_CONVERGENCE if its residual
    is above FAIL_RESIDUAL and with REDUCED_TOLERANCE otherwise.
    """
    q = np.asarray(q, dtype=float)
    values = None
    residual = np.full(q.size, math.inf)
    nodes = np.zeros(q.size, dtype=int)
    status = np.zeros(q.size, dtype=int)  # CONVERGED
    active = np.arange(q.size)
    prev = None
    n = min(64, quad.max_nodes // 2)
    while active.size:
        x, w = _hermite_rule(n)
        block = max(1, _BLOCK_ELEMENTS // x.size)
        # (rows, components, nodes) @ w runs one gemv per row, the same
        # product a lone row gets, so batching moves no bits
        parts = [rows_fn(idx, q[idx, None] + beta * x) @ w
                 for idx in (active[i:i + block] for i in range(0, active.size, block))]
        est = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if values is None:
            values = np.empty((q.size, est.shape[1]))
        values[active] = est
        nodes[active] = n
        # max propagates nan and inf, so a row's res is finite exactly when
        # its whole estimate is
        res = np.abs(est if prev is None else est - prev).max(axis=1)
        done = ~np.isfinite(res)
        status[active[done]] = NOT_FINITE
        if prev is not None:
            residual[active] = res
            converged = res < TOL
            if n >= quad.max_nodes:
                capped = ~done & ~converged
                status[active[capped]] = np.where(res[capped] > FAIL_RESIDUAL,
                                                  NO_CONVERGENCE, REDUCED_TOLERANCE)
                done[:] = True
            else:
                done |= converged
        keep = ~done
        active, prev = active[keep], est[keep]
        n = min(2 * n, quad.max_nodes)
    if values is None:  # an empty batch
        values = np.empty((0, 0))
    return Averages(values, residual, nodes, status)


def _average_one(rows_fn, dist: MomentumDistribution, quad: QuadConfig):
    """The one-row case of _adaptive_average, with failures raised.

    rows_fn maps a 1-D array of momenta to the integrand, shape
    (components, nodes).  Returns (averages, residual, nodes_used).
    """
    out = _adaptive_average(lambda _, p: rows_fn(p[0])[None], [dist.q],
                            dist.beta, quad)
    residual, nodes = float(out.residual[0]), int(out.nodes[0])
    if out.status[0] == NOT_FINITE:
        raise DomainError("theta is not finite on the quadrature support")
    if out.status[0] == NO_CONVERGENCE:
        raise ConvergenceError(
            f"residual {residual:.3e} at the {nodes}-node cap "
            f"(limit {FAIL_RESIDUAL:.1e})"
        )
    return out.values[0], residual, nodes


def _cos_sin(theta: np.ndarray) -> np.ndarray:
    """cos and sin of theta, stacked on a new axis before the nodes axis."""
    # a non-finite angle is reported through its row's status, not a warning
    with np.errstate(invalid="ignore"):
        c, s = np.cos(theta), np.sin(theta)
    return np.concatenate((c[..., None, :], s[..., None, :]), axis=-2)


@dataclass(frozen=True)
class TrigMoments:
    """<cos Theta> and <sin Theta> plus the achieved-tolerance report."""

    C: float
    S: float
    residual: float = 0.0
    nodes: int = 0


def batch_trig_moments(theta_rows, q, beta: float,
                       quad: QuadConfig = DEFAULT_QUAD) -> Averages:
    """<cos Theta> and <sin Theta> for a batch of rows in one adaptive pass.

    Row i averages over the Gaussian of centre q[i] and width beta.
    theta_rows(index, p) returns Theta for the rows `index` at momenta p,
    both of shape (len(index), nodes).  values[:, 0] holds C and
    values[:, 1] holds S; see _adaptive_average for the rest.
    """
    return _adaptive_average(lambda index, p: _cos_sin(theta_rows(index, p)),
                             q, beta, quad)


def trig_moments(theta_fn, dist: MomentumDistribution,
                 quad: QuadConfig = DEFAULT_QUAD) -> TrigMoments:
    """Gaussian averages of cos Theta(p) and sin Theta(p).

    theta_fn must accept an array of momenta.  Under the probability
    weight, C^2 + S^2 <= 1 always, with equality only for constant Theta.
    Raises DomainError for a non-finite Theta and ConvergenceError when
    the node cap leaves a residual above FAIL_RESIDUAL.
    """
    (c, s), residual, nodes = _average_one(
        lambda p: _cos_sin(np.asarray(theta_fn(p), dtype=float)), dist, quad)
    return TrigMoments(C=float(c), S=float(s), residual=residual, nodes=nodes)


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


def reduced_density_bruteforce(bell: BellState, theta_fn,
                               dist: MomentumDistribution,
                               quad: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """Reference reduced density matrix from the component integrals.

    Each entry is a sum of products of two one-dimensional averages of
    half-angle rotation entries, one per particle.  Both particles carry
    the same distribution, so a single 2x2x2x2 second-moment tensor
    m[i,a,k,c] = <D[i,a] D[k,c]> feeds the whole contraction.
    """

    def rows(p):
        c, s = _cos_sin(0.5 * np.asarray(theta_fn(p), dtype=float))
        d = np.empty((2, 2, p.size))
        d[0, 0] = c
        d[0, 1] = -s
        d[1, 0] = s
        d[1, 1] = c
        prod = d[:, :, None, None, :] * d[None, None, :, :, :]
        return prod.reshape(16, -1)

    flat, _, _ = _average_one(rows, dist, quad)
    moments = flat.reshape(2, 2, 2, 2)
    chi = bell.array().reshape(2, 2)
    rho = np.einsum("iakc,jbld,ab,cd->ijkl", moments, moments, chi, chi)
    return rho.reshape(4, 4).astype(complex)


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SIGMA_Y, _SIGMA_Y)


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    return _SYSY @ rho.conj() @ _SYSY


def wootters_concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the decreasingly ordered square roots of the eigenvalues
    of rho @ spin_flip(rho); those are non-negative for any physical rho,
    so an eigenvalue below -1e-6 flags an invalid input while smaller
    negatives are clipped as round-off.  The l_i themselves are computed
    as the singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), an
    equivalent form whose zero values carry eps-level noise instead of
    the sqrt(eps) a generic eigensolver leaves on rho rho~.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got shape {rho.shape}")
    evals = np.linalg.eigvals(rho @ spin_flip(rho))
    if np.abs(evals.imag).max() > 1e-6:
        raise NumericalError(f"complex eigenvalue {evals[np.abs(evals.imag).argmax()]}")
    if evals.real.min() < -1e-6:
        raise NumericalError(f"negative eigenvalue {evals.real.min():.3e} of rho rho~")
    w, u = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    lam = np.linalg.svd(root @ _SYSY @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


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
    hermiticity: float
    trace_error: float
    min_eigenvalue: float


def density_matrix_diagnostics(rho: np.ndarray) -> DensityMatrixDiagnostics:
    """Hermiticity residual, trace deviation and smallest eigenvalue."""
    rho = np.asarray(rho)
    herm = float(np.abs(rho - rho.conj().T).max())
    trace = float(abs(rho.trace() - 1.0))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    return DensityMatrixDiagnostics(herm, trace, min_eig)
