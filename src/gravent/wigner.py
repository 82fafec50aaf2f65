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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonError
from .spacetime import ChargedBlackHole, HORIZON_TOL, metric_potentials, outer_horizon

TAU_S = 2.0 * math.pi

# The bracket of M(q, p) is a difference of two terms of size ~q that is
# of order 1 near p = q, so it loses about log10(q) digits: past this bound
# it keeps fewer than 8, and from q ~ 1e16 on it cancels to exactly 0.
MAX_MOMENTUM = 1e8

# The radial factor's denominator 2 z^2 sqrt(z^2 - z + xi2) grows like 2 z^3
# and overflows from z ~ 5.6e102; up to this radius every intermediate of
# it stays finite.
MAX_RADIUS = 1e100


def momentum_factor(q, p):
    """M(q, p), the momentum dependence shared by every rotation-rate formula.

    Vectorized over p, and over q given as an array that broadcasts
    against p (a column of q values against rows of momenta).  p may be
    complex: M is analytic in p off the branch points p = +-i.  M(q, q)
    reduces to q*gamma exactly, and M is odd under (q, p) -> (-q, -p).
    """
    gamma = np.sqrt(q * q + 1.0)
    p = np.asarray(p, dtype=complex if np.iscomplexobj(p) else float)
    return q * gamma * (gamma - q * p / (np.sqrt(p * p + 1.0) + 1.0))


# (field, where a value is out of the domain, message with {} for the value),
# in the order OrbitParams checks them.  The predicates are elementwise, so
# a sweep masks its grid with the checks of its swept field.
DOMAIN_CHECKS = tuple((name, lambda v: ~np.isfinite(v), f"{name} must be finite, got {{}}")
                      for name in ("xi2", "z", "q", "beta", "tau_ratio")) + (
    ("xi2", lambda v: v < 0, "xi2 must be >= 0, got {}"),
    ("q", lambda v: np.abs(v) > MAX_MOMENTUM, f"|q| must be <= {MAX_MOMENTUM:g}, got q={{}}"),
    ("z", lambda v: v <= 0, "orbit radius must be positive, got z={}"),
    ("z", lambda v: v > MAX_RADIUS, f"orbit radius must be <= {MAX_RADIUS:g}, got z={{}}"),
    ("beta", lambda v: v <= 0, "beta must be positive, got {}"),
    ("tau_ratio", lambda v: v < 0, "tau_ratio must be >= 0, got {}"),
)


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
        for name, bad, message in DOMAIN_CHECKS:
            value = getattr(self, name)
            if bad(value):
                raise DomainError(message.format(value))
        zp = outer_horizon(self.xi2)
        if zp is not None and self.z <= zp:
            raise HorizonError(
                f"orbit at z={self.z} is not outside the outer horizon z+={zp}"
            )

    @property
    def model(self) -> ChargedBlackHole:
        return ChargedBlackHole(self.xi2)


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
    a, b, a_prime = metric_potentials(model, z)
    gamma2 = q * q + 1.0
    gamma = math.sqrt(gamma2)
    a1 = gamma2 * math.exp(-b) * (a_prime - (q * q / gamma2) / z)
    return CircularOrbitState(gamma=gamma, q0=gamma, q3=q, a1=a1)


def _rate_factor(model, z: float) -> float:
    """e^{-B} (A' - 1/z), the radial factor of the circular-orbit generator."""
    _, b, a_prime = metric_potentials(model, z)
    return math.exp(-b) * (a_prime - 1.0 / z)


def lambda_circular(model, z: float, q: float) -> np.ndarray:
    """4x4 boost-rotation generator of the circular orbit.

    Four non-zero entries:
        lam[0,1] = lam[1,0] = gamma (gamma^2 - 1) e^{-B} (A' - 1/z)
        lam[1,3] = -lam[3,1] = -gamma^3 v e^{-B} (A' - 1/z),  v = q/gamma.
    lam @ ETA is antisymmetric, as for any Lorentz-algebra element.
    """
    gamma = math.sqrt(q * q + 1.0)
    fac = _rate_factor(model, z)
    lam = np.zeros((4, 4))
    lam[0, 1] = lam[1, 0] = gamma * q * q * fac          # gamma (gamma^2-1)
    lam[1, 3] = -q * (q * q + 1.0) * fac                 # -gamma^3 v = -gamma^2 q
    lam[3, 1] = -lam[1, 3]
    return lam


def wigner_rate_w13(model, z: float, q: float, p) -> float | np.ndarray:
    """The 1-3 rotation-rate element for particle momentum p.

    w13 = -e^{-B} (A' - 1/z) M(q, p); all other independent components
    vanish for equatorial circular motion.
    """
    return -_rate_factor(model, z) * momentum_factor(q, p)


def wigner_rate_matrix(model, z: float, q: float, p: float) -> np.ndarray:
    """3x3 antisymmetric rotation-rate matrix over spatial labels (1,2,3)."""
    w13 = float(wigner_rate_w13(model, z, q, p))
    w = np.zeros((3, 3))
    w[0, 2] = w13
    w[2, 0] = -w13
    return w


def radial_factor(z, xi2: float) -> tuple[np.ndarray, np.ndarray]:
    """(2z^2 - 3z + 4 xi2) / (2 z^2 sqrt(z^2 - z + xi2)), the radial factor of Theta.

    Elementwise over an array of radii; returns the factor and a mask of
    the radii where no orbit has it: z <= 0, z on or inside the outer
    horizon (below the inner one z^2 - z + xi2 > 0 again and the factor
    is finite, but no circle there lies outside the hole) and z where
    z^2 - z + xi2 -> 0 and the factor diverges, with no horizon near
    z = 1/2 at xi2 ~ 1/4.  IEEE + - * / and sqrt round alike in numpy
    and math, so a float gives the bits math would.
    """
    z = np.asarray(z, dtype=float)[()]  # a float becomes a numpy scalar
    zp = outer_horizon(xi2)
    floor = zp if zp is not None else 0.0
    with np.errstate(all="ignore"):  # the singular entries are masked
        s = z * z - z + xi2
        singular = (z <= floor) | (s / (z * z) < HORIZON_TOL)
        factor = (2 * z * z - 3 * z + 4 * xi2) / (2 * z * z * np.sqrt(s))
    return factor, singular


def _charged_prefactor(z: float, xi2: float) -> float:
    """radial_factor at one radius; HorizonError where it is singular."""
    factor, singular = radial_factor(z, xi2)
    if singular:
        raise HorizonError(
            f"radial factor singular on or inside the horizons (z={z}, xi2={xi2})"
        )
    return float(factor)


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
    return theta_amplitude(params) * momentum_factor(params.q, p)


def theta_zeros(xi2: float) -> list[float]:
    """Orbit radii where the rotation angle vanishes for every momentum.

    The real roots (3 -+ sqrt(9 - 32 xi2)) / 4 of 2z^2 - 3z + 4 xi2 = 0
    (empty for xi2 > 9/32), keeping only radii outside the outer horizon.
    The closed form is returned as is; no root-finder refines it.
    """
    if not (math.isfinite(xi2) and xi2 >= 0):
        raise DomainError(f"xi2 must be finite and >= 0, got {xi2}")
    disc = 9.0 - 32.0 * xi2
    if disc < 0:
        return []
    if disc == 0:
        roots = [0.75]
    else:
        d = math.sqrt(disc)
        roots = [(3.0 - d) / 4.0, (3.0 + d) / 4.0]
    zp = outer_horizon(xi2)
    floor = zp if zp is not None else 0.0
    return [r for r in roots if r > floor]


def lambda_radial(model, z: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Generator and rotation rate for radial free fall at local speed v.

    The generator is a pure boost, lam[0,1] = lam[1,0] = -gamma A' e^{-B};
    the associated 3x3 rotation rate is exactly zero, so the accumulated
    spin rotation is the identity whatever the elapsed time.
    """
    if abs(v) >= 1.0:
        raise DomainError(f"|v| must be < 1, got v={v}")
    _, b, a_prime = metric_potentials(model, z)
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    lam = np.zeros((4, 4))
    lam[0, 1] = lam[1, 0] = -gamma * a_prime * math.exp(-b)
    return lam, np.zeros((3, 3))


def rotation_matrix(theta: float) -> np.ndarray:
    """Rotation by theta about the 2-axis of the local frame."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def spin_rep(theta: float) -> np.ndarray:
    """Spin-1/2 representation of rotation_matrix(theta); unitary, det 1.

    spin_rep(a) @ spin_rep(b) == spin_rep(a + b) and the half angle makes
    it double-cover the rotation.
    """
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


def product_integral(rate_fn, tau_i: float, tau_f: float, steps: int) -> np.ndarray:
    """Time-ordered product of exp(rate * dtau) factors, later times leftmost.

    Each step exponentiates the rate at the step midpoint in closed form
    (_expm_planar), so every factor is an exact group element and the
    global error is O(dtau^2).  rate_fn must return a square matrix of
    fixed shape with finite entries, of one of the kinds _expm_planar
    takes.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    dtau = (tau_f - tau_i) / steps
    acc = None
    for start in range(0, steps, _STEP_BLOCK):
        ks = range(start, min(start + _STEP_BLOCK, steps))
        rates = np.array([rate_fn(tau_i + (k + 0.5) * dtau) for k in ks], dtype=float)
        finite = np.isfinite(rates).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"non-finite rate at step {start + int(finite.argmin())}")
        for step in _expm_planar(rates * dtau):
            acc = step if acc is None else step @ acc
    return acc


def schwarzschild_rate(r: float, q: float, p) -> float | np.ndarray:
    """Static-frame rotation rate around the uncharged hole.

    The xi2 = 0 case of Theta's radial factor, (1 - 3/(2r)) / (r sqrt(1 - 1/r)),
    times M(q, p): zero on the circle r = 3/2, divergent toward the
    horizon r = 1, HorizonError for r <= 1.
    """
    return _charged_prefactor(r, 0.0) * momentum_factor(q, p)


def kruskal_rate(r: float, q: float, p) -> float | np.ndarray:
    """Falling-frame (Kruskal tetrad) rotation rate; finite at r = 1.

    (1/(4r)) sqrt(e^{-r}/r) (3 + r) M(q, p), where q and p are the momenta
    the falling observer assigns.  Valid for all r > 0 down to the
    central singularity.
    """
    if r <= 0:
        raise DomainError(f"radius must be positive, got r={r}")
    prefactor = 0.25 / r * math.sqrt(math.exp(-r) / r) * (3.0 + r)
    return prefactor * momentum_factor(q, p)
