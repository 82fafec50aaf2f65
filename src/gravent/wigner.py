"""Local Lorentz generators, Wigner rotation rates and accumulated angles.

Momenta are dimensionless (p = p^3/mc, q = q^3/mc) and the mass shell is
gamma = sqrt(q^2 + 1).  For a circular orbit in the equatorial plane the
rotation rate has a single independent component, the 1-3 element; the
accumulated angle for the charged hole is

    Theta = 2 pi (tau/tau_s) * (2 z^2 - 3 z + 4 xi2) / (2 z^2 sqrt(z^2 - z + xi2))
            * M(q, p)

with the shared momentum factor

    M(q, p) = q sqrt(q^2+1) (sqrt(q^2+1) - q p / (sqrt(p^2+1) + 1)).

tau_s, the period of a photon circling at the mass radius, equals 2 pi in
these units and is absorbed into the prefactor; callers pass tau/tau_s.
wigner_rate is the one place a 3x3 rate is formed from a path's 4x4
generator (lambda_circular, lambda_radial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonError
from .roots import check_domain, outer_horizon
from .spacetime import HORIZON_TOL, metric_potentials

TAU_S = 2.0 * math.pi


def momentum_factor(q, p):
    """M(q, p), the momentum dependence shared by every rotation-rate formula.

    Vectorized over p, and over q given as an array that broadcasts
    against p (a column of q values against rows of momenta).  M(q, q)
    reduces to q*gamma exactly, and M is odd under (q, p) -> (-q, -p).
    M = q gamma - q^2 gamma (u(p) - u(q)) with u(p) = p / (sqrt(p^2 + 1) +
    1) = tanh(asinh(p)/2), the form the sweeps average every row in.
    Unchecked: the quadratures call it on every block of nodes.
    """
    gamma = np.sqrt(q * q + 1.0)
    p = np.asarray(p, dtype=float)
    return q * gamma * (gamma - q * p / (np.sqrt(p * p + 1.0) + 1.0))


@dataclass(frozen=True)
class OrbitParams:
    """Dimensionless configuration of the circular-orbit experiment.

    xi2: squared charge of the hole; z: orbit radius (units of r_s);
    q: centroid momentum; beta: width of the Gaussian momentum
    distribution; tau_ratio: elapsed proper time in units of tau_s.
    The first entry of DOMAIN_CHECKS that fails raises DomainError; a
    radius on or inside the outer horizon then raises HorizonError.
    """

    xi2: float
    z: float
    q: float
    beta: float
    tau_ratio: float

    def __post_init__(self):
        check_domain(vars(self))
        zp = outer_horizon(self.xi2)
        if zp is not None and self.z <= zp:
            raise HorizonError(
                f"orbit at z={self.z} is not outside the outer horizon z+={zp}"
            )


@dataclass(frozen=True)
class CircularOrbitState:
    """Frame-measured four-momentum and proper acceleration of the centroid."""

    gamma: float
    q0: float
    q3: float
    a1: float


def circular_orbit_state(model, z: float, q: float) -> CircularOrbitState:
    """Centroid kinematics on the circle of radius z with momentum q.

    q0 = gamma = sqrt(q^2+1), q3 = q (mass shell holds identically), and
    the only acceleration component is radial:
    a1 = gamma^2 e^{-B} (A' - (1/z)(gamma^2-1)/gamma^2).
    """
    check_domain({"q": q})
    a, b, a_prime = metric_potentials(model, z)
    gamma2 = q * q + 1.0
    gamma = math.sqrt(gamma2)
    a1 = gamma2 * math.exp(-b) * (a_prime - (q * q / gamma2) / z)
    return CircularOrbitState(gamma=gamma, q0=gamma, q3=q, a1=a1)


def lambda_circular(model, z: float, q: float) -> np.ndarray:
    """4x4 boost-rotation generator of the circular orbit.

    Four non-zero entries, with e^{-B} (A' - 1/z) = -R(z), minus the
    radial factor of Theta:
        lam[0,1] = lam[1,0] = -gamma (gamma^2 - 1) R(z)
        lam[1,3] = -lam[3,1] = gamma^3 v R(z),  v = q/gamma.
    lam @ ETA is antisymmetric, as for any Lorentz-algebra element.
    """
    check_domain({"q": q})
    gamma = math.sqrt(q * q + 1.0)
    fac = -_charged_prefactor(z, model.xi2)
    lam = np.zeros((4, 4))
    lam[0, 1] = lam[1, 0] = gamma * q * q * fac          # gamma (gamma^2-1)
    lam[1, 3] = -q * (q * q + 1.0) * fac                 # -gamma^3 v = -gamma^2 q
    lam[3, 1] = -lam[1, 3]
    return lam


def wigner_rate(lam, p) -> np.ndarray:
    """3x3 rotation rate of a particle of spatial momentum p under generator lam.

    Terashima & Ueda, Phys. Rev. A 69, 032113 (2004):
        theta^i_k = lam^i_k + (lam^i_0 p^k - lam^k_0 p^i) / (k^0 + 1)
    for i, k = 1..3, with k^0 = sqrt(1 + |p|^2); lam[a, b] = lam^a_b, or
    a stack (..., 4, 4) of generators.  The result is antisymmetric
    whenever lam @ ETA is.  p passes the entries of DOMAIN_CHECKS for p.
    """
    p = np.asarray(p, dtype=float)
    check_domain({"p": p})
    return _wigner_rate(np.asarray(lam, dtype=float), p)


def _wigner_rate(lam: np.ndarray, p: np.ndarray) -> np.ndarray:
    """wigner_rate for float arrays lam and p, p already checked."""
    col, row = lam[..., 1:, :1], lam[..., None, 1:, 0]  # lam^i_0 as a column and as a row
    return lam[..., 1:, 1:] + (col * p - p[:, None] * row) / (np.sqrt(1.0 + p @ p) + 1.0)


def wigner_rate_w13(model, z: float, q: float, p) -> float | np.ndarray:
    """The 1-3 rotation-rate element for particle momentum p along the orbit.

    w13 = -e^{-B} (A' - 1/z) M(q, p) = R(z) M(q, p), the closed form of
    wigner_rate(lambda_circular(model, z, q), (0, 0, p))[0, 2], vectorized
    over p for the sweeps.  The 2-3 element vanishes identically, the 1-2
    element lam^1_0 p^2 / (k^0 + 1) only because p lies along the orbit
    (the 3-axis); a radial fall's rate likewise vanishes only for p along
    the fall (lambda_radial).
    """
    return _charged_prefactor(z, model.xi2) * _checked_momentum_factor(q, p)


def wigner_rate_matrix(model, z: float, q: float, p: float) -> np.ndarray:
    """3x3 rotation rate of a particle of momentum p along the circular orbit."""
    return wigner_rate(lambda_circular(model, z, q), (0.0, 0.0, p))


def radial_factor(z, xi2) -> tuple[np.ndarray, np.ndarray]:
    """(2z^2 - 3z + 4 xi2) / (2 z^2 sqrt(z^2 - z + xi2)), the radial factor of Theta.

    Elementwise over arrays of radii and charges; returns the factor and a mask of
    the radii where no orbit has it: z <= 0, z on or inside the outer
    horizon (below the inner one z^2 - z + xi2 > 0 again and the factor
    is finite, but no circle there lies outside the hole) and z where
    z^2 - z + xi2 -> 0 and the factor diverges, with no horizon near
    z = 1/2 at xi2 ~ 1/4.  IEEE + - * / and sqrt round alike in numpy
    and math, so a float gives the bits math would.  Unchecked: a sweep
    masks its grid with DOMAIN_CHECKS.
    """
    z = np.asarray(z, dtype=float)[()]  # a float becomes a numpy scalar
    floor = np.reshape([zp or 0.0 for zp in map(outer_horizon, np.ravel(xi2).tolist())],
                       np.shape(xi2))  # 0.0 where no horizon exists
    with np.errstate(all="ignore"):  # the singular entries are masked
        s = z * z - z + xi2
        singular = (z <= floor) | (s / (z * z) < HORIZON_TOL)
        factor = (2 * z * z - 3 * z + 4 * xi2) / (2 * z * z * np.sqrt(s))
    return factor, singular


def _charged_prefactor(z, xi2):
    """radial_factor at one radius, a float, or over arrays; DomainError where the
    entries of DOMAIN_CHECKS for z fail, HorizonError where the factor is singular."""
    check_domain({"z": z})
    factor, singular = radial_factor(z, xi2)
    if singular.any():
        z, xi2 = np.broadcast_arrays(z, xi2)
        raise HorizonError(f"radial factor singular on or inside the horizons "
                           f"(z={z.flat[singular.argmax()]}, xi2={xi2.flat[singular.argmax()]})")
    return float(factor) if factor.ndim == 0 else factor


def _checked_momentum_factor(q, p):
    """momentum_factor(q, p) once the entries of DOMAIN_CHECKS for q and p pass."""
    p = np.asarray(p, dtype=float)
    check_domain({"q": q, "p": p})
    return momentum_factor(q, p)


def theta_amplitude(params: OrbitParams) -> float:
    """2 pi (tau/tau_s) times the radial factor: Theta = amplitude * M(q, p).

    Zero when tau = 0 or 2z^2 - 3z + 4 xi2 = 0; raises HorizonError on or
    inside the horizons, toward which it diverges.
    """
    return TAU_S * params.tau_ratio * _charged_prefactor(params.z, params.xi2)


def theta_circular(params: OrbitParams, p) -> float | np.ndarray:
    """Accumulated rotation angle for the charged hole, closed form.

    Vanishes identically in p when q = 0, tau = 0, or 2z^2 - 3z + 4 xi2 = 0;
    diverges toward the horizons, where z^2 - z + xi2 -> 0.
    """
    return theta_amplitude(params) * _checked_momentum_factor(params.q, p)


def lambda_radial(model, z, v: float) -> np.ndarray:
    """4x4 generator of radial free fall at local speed v.

    A pure boost along the fall, lam[0,1] = lam[1,0] = -gamma A' e^{-B}.
    Its rate wigner_rate(lam, p) is exactly zero for a momentum p along
    the fall (the 1-axis), so such a spin never rotates; across the fall
    theta^1_3 = lam^1_0 p^3 / (k^0 + 1) is not zero.  Of an array of
    radii, the stack (..., 4, 4) of their generators, e^{-B} math's each.
    """
    check_domain({"v": v})
    _, b, a_prime = metric_potentials(model, z)
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    lam = np.zeros(np.shape(b) + (4, 4))
    lam[..., 0, 1] = lam[..., 1, 0] = -gamma * a_prime * np.vectorize(math.exp, otypes=[float])(-b)
    return lam


def rotation_matrix(theta: float) -> np.ndarray:
    """Rotation by theta about the 2-axis of the local frame."""
    check_domain({"theta": theta})
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def spin_rep(theta: float) -> np.ndarray:
    """Spin-1/2 representation of rotation_matrix(theta); unitary, det 1.

    spin_rep(a) @ spin_rep(b) == spin_rep(a + b) and the half angle makes
    it double-cover the rotation.
    """
    check_domain({"theta": theta})
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _expm_planar(m: np.ndarray) -> np.ndarray:
    """exp(m) for a stack of generators with m^3 = c m, where c = tr(m^2)/2.

    Then exp(m) = I + f m + g m^2 with f = sinh(r)/r and
    g = 2 (sinh(r/2)/r)^2 for r = sqrt(c), and sin in place of sinh for
    c < 0, r = sqrt(-c); f = 1 and g = 1/2 at c = 0.  Every generator the
    library builds qualifies: a rotation rate (any 3x3 antisymmetric
    matrix), the radial boost and the circular-orbit generator.  Any
    other matrix raises DomainError.
    """
    m2 = m @ m
    c = 0.5 * np.trace(m2, axis1=-2, axis2=-1)
    residual = np.abs(m2 @ m - c[:, None, None] * m).max(axis=(1, 2))
    bad = residual > 1e-12 * np.abs(m).sum(axis=2).max(axis=1) ** 3
    if bad.any():
        raise DomainError(f"generator is not planar: |m^3 - c m| = "
                          f"{residual[bad.argmax()]:.3e}")
    r = np.sqrt(np.abs(c))
    with np.errstate(invalid="ignore"):  # 0/0 at c = 0, replaced below
        f = np.where(c > 0, np.sinh(r), np.sin(r)) / r
        g = 2.0 * (np.where(c > 0, np.sinh(0.5 * r), np.sin(0.5 * r)) / r) ** 2
    f[c == 0] = 1.0
    g[c == 0] = 0.5
    return np.eye(m.shape[-1]) + f[:, None, None] * m + g[:, None, None] * m2


# product_integral exponentiates this many steps per batch
_STEP_BLOCK = 4096


def _midpoints(tau_i: float, tau_f: float, steps: int) -> np.ndarray:
    """The midpoints tau_i + (k + 1/2) dtau, dtau = (tau_f - tau_i)/steps, of product_integral."""
    return tau_i + (np.arange(steps) + 0.5) * ((tau_f - tau_i) / steps)


def product_integral(rate_fn, tau_i: float, tau_f: float, steps: int) -> np.ndarray:
    """Time-ordered product of exp(rate * dtau) factors, later times leftmost.

    The rates come as a callable, called at each step's midpoint
    (_midpoints), as one (d, d) matrix, a constant rate, or as a
    (steps, d, d) stack of the midpoints' rates.  Each step exponentiates
    its rate in closed form (_expm_planar), so every factor is an exact
    group element and the global error is O(dtau^2).  The factors of each
    block of _STEP_BLOCK steps are multiplied pairwise, level by level
    (_pairwise_product), and the blocks' products chained in time order;
    rounding then grows with log(steps), not with steps.  A block whose
    rates all have the bits of its first (+0.0 and -0.0 told apart), as a
    matrix's always do, exponentiates that one rate and forms one product
    per level, with the bits the tree of its equal factors gets.  The
    rates must be square, finite and of a kind _expm_planar takes.
    """
    check_domain({"tau_i": tau_i, "tau_f": tau_f, "count": steps}, {"count": "steps"})
    dtau = (tau_f - tau_i) / steps
    rates = None if callable(rate_fn) else np.asarray(rate_fn, dtype=float)
    if rates is None:
        taus = _midpoints(tau_i, tau_f, steps).tolist()
    elif rates.ndim < 2 or rates.shape not in ((square := rates.shape[-1:] * 2), (steps,) + square):
        raise DomainError(f"rates must be a square matrix or one per step, "
                          f"got shape {rates.shape} for {steps} steps")
    acc = None
    for start in range(0, steps, _STEP_BLOCK):
        stop = min(start + _STEP_BLOCK, steps)
        block = (np.array([rate_fn(tau) for tau in taus[start:stop]], dtype=float)
                 if rates is None else rates[start:stop] if rates.ndim == 3 else rates[None])
        finite = np.isfinite(block).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"non-finite rate at step {start + int(finite.argmin())}")
        bits = block.view(np.uint64).reshape(len(block), -1)
        block = block[:1] if (bits == bits[0]).all() else block  # a constant rate: one exponential
        factor = _pairwise_product(_expm_planar(block * dtau), stop - start)
        acc = factor if acc is None else factor @ acc
    return acc


def _pairwise_product(factors: np.ndarray, count: int) -> np.ndarray:
    """product_integral's tree over count factors, or count copies of one: a level pairs
    them, later on the left, and an odd last one with the carry (a later factor) or becomes it."""
    carry = None
    while count + (carry is not None) > 1:
        if count % 2:
            carry = factors[-1:] if carry is None else carry @ factors[-1:]
            factors = factors[:-1] if len(factors) > 1 else factors
        count //= 2
        factors = factors[1::2] @ factors[::2] if len(factors) > 1 else factors @ factors
    return (factors if count else carry)[0]


def kruskal_rate(r: float, q: float, p) -> float | np.ndarray:
    """Falling-frame (Kruskal tetrad) rotation rate; finite at r = 1.

    (1/(4r)) sqrt(e^{-r}/r) (3 + r) M(q, p), where q and p are the momenta
    the falling observer assigns, for all r > 0 down to the singularity.
    The prefactor grows like 0.75 r^{-3/2}, so below r ~ 4e-206 |M|^{2/3}
    the rate is no finite float and raises DomainError.
    """
    check_domain({"r": r})
    rate = 0.25 / r * math.sqrt(math.exp(-r) / r) * (3.0 + r) * _checked_momentum_factor(q, p)
    if not np.isfinite(rate).all():
        raise DomainError(f"falling-frame rate at r={r} is not a finite float")
    return rate
