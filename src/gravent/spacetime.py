"""The charged black hole's static metric, static tetrad and Kruskal maps.

Everything is dimensionless: c = 1 and radii are measured in units of the
mass radius, z = r / r_s.  The line element handled here is

    ds^2 = -e^{2A(z)} dt^2 + e^{2B(z)} dz^2 + z^2 (dtheta^2 + sin^2 theta dphi^2)

with e^{2A} = e^{-2B} = 1 - 1/z + xi2/z^2 for a hole of squared charge
xi2; the potentials' radial derivatives are analytic.  The horizons, the
roots of e^{2A}, are in roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonError
from .roots import HORIZON_TOL, check_domain, no_orbit

# Minkowski metric in the local inertial frame, signature (-, +, +, +).
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class ChargedBlackHole:
    """Charged (mass + charge) black hole, e^{2A} = 1 - 1/z + xi2/z^2.

    xi2 is the squared dimensionless charge.  Two horizons exist for
    xi2 < 1/4, one degenerate horizon at z = 1/2 for xi2 = 1/4, and none
    (naked singularity) for xi2 > 1/4.  metric_potentials evaluates the
    metric.
    """

    xi2: float

    def __post_init__(self):
        check_domain(vars(self))


def metric_potentials(model: ChargedBlackHole, z):
    """(A, B, dA/dz) at radius z: (1/2) log g, -(1/2) log g and (1/2) g'/g.

    g = e^{2A} = 1 - 1/z + xi2/z^2 is formed once.  Of a float, floats;
    of an array of radii, arrays, the logs math's per value as for a
    float.  Raises DomainError unless z is finite and positive, or where
    a potential is no finite float (g' overflows from z ~ 1e-103 at
    xi2 > 0), and HorizonError where g falls below HORIZON_TOL (on or
    inside a horizon, where the Wigner angle turns imaginary), not where
    roots.no_orbit holds: g > 0 and the metric is real below the inner horizon.
    """
    check_domain({"r": z}, {"r": "z"})
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):  # an overflow is reported below; xi2 = 0 adds no 0/0
        g = 1.0 - 1.0 / z + (model.xi2 / (z * z) if model.xi2 else 0.0)
        a_prime = 0.5 * (1.0 / (z * z) - 2.0 * model.xi2 / (z * z * z)) / g
    overflow = ~np.isfinite([g, a_prime]).all(0)
    for bad, error, text in ((g < HORIZON_TOL, HorizonError, "on or inside a horizon"),
                             (overflow, DomainError, "too near the singularity")):
        if bad.any():
            raise error(f"z={z.flat[bad.argmax()]} is {text} of charged black hole "
                        f"(xi2={model.xi2}) (e^{{2A}}={g.flat[bad.argmax()]:.3e})")
    a = 0.5 * np.vectorize(math.log, otypes=[float])(g)
    return (float(a), float(-a), float(a_prime)) if z.ndim == 0 else (a, -a, a_prime)


@dataclass(frozen=True)
class Tetrad:
    """Diagonal orthonormal frame components for the static chart.

    e0t, e1r, e2theta, e3phi are the non-zero entries of e_a^mu; the frame
    satisfies e_a^mu e_b^nu g_munu = eta_ab at its construction point.
    """

    e0t: float
    e1r: float
    e2theta: float
    e3phi: float

    def as_matrix(self) -> np.ndarray:
        """Columns are the frame vectors in coordinate components."""
        return np.diag([self.e0t, self.e1r, self.e2theta, self.e3phi])


def tetrad_static(model, z: float, theta: float) -> Tetrad:
    """Static-observer tetrad (e^{-A}, e^{-B}, 1/z, 1/(z sin theta)).

    Diverges on horizons (HorizonError) and on the polar axis
    (DomainError at sin theta = 0).
    """
    a, b, _ = metric_potentials(model, z)
    check_domain({"theta": theta, "off_axis": theta})
    return Tetrad(math.exp(-a), math.exp(-b), 1.0 / z, 1.0 / (z * math.sin(theta)))


def metric_matrix(model, z: float, theta: float) -> np.ndarray:
    """Coordinate metric diag(-e^{2A}, e^{2B}, z^2, z^2 sin^2 theta)."""
    a, b, _ = metric_potentials(model, z)
    check_domain({"theta": theta})
    s = math.sin(theta)
    return np.diag([-math.exp(2 * a), math.exp(2 * b), z * z, z * z * s * s])


# ---------------------------------------------------------------------------
# Kruskal chart of the uncharged hole (xi2 = 0), still in units r_s = c = 1.
# The defining relations are
#     R^2 - T^2 = 4 (r - 1) e^r,          T/R = tanh(t/2)   (exterior)
# with the roles of T and R swapped inside the horizon.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KruskalPoint:
    """A point of the Kruskal chart together with its areal radius."""

    T: float
    R: float
    r: float


def kruskal_map(r: float, t: float) -> KruskalPoint:
    """Map (r, t) of the static chart to Kruskal (T, R).

    Exterior branch for r >= 1, future-interior branch for 0 < r < 1;
    both satisfy R^2 - T^2 = 4 (r - 1) e^r.  |T| and |R| grow like
    sqrt|r - 1| e^{(r + |t|)/2}: the point is computed where both are
    finite floats, about r + |t| + ln|r - 1| < 1418, and anything beyond
    (or a t that is not finite) raises DomainError.
    """
    check_domain({"r": r})
    try:
        amp = 2.0 * math.sqrt(abs(r - 1.0)) * math.exp(0.5 * r)
        big, small = amp * math.cosh(0.5 * t), amp * math.sinh(0.5 * t)
    except OverflowError:
        big = math.inf
    if not math.isfinite(big):
        raise DomainError(f"Kruskal coordinates of (r={r}, t={t}) are not finite floats")
    if r >= 1.0:
        return KruskalPoint(small, big, r)
    return KruskalPoint(big, small, r)


def kruskal_radius(T: float, R: float) -> float:
    """Invert R^2 - T^2 = 4 (r - 1) e^r for the areal radius r.

    The left side ranges over (-4, inf) for r in (0, inf) and the map is
    strictly increasing, so a bracketed bisection is exact business.
    Targets at or below -4 lie beyond the r = 0 singularity.  A finite
    target has its root below r = 702, where e^r is still finite; T, R
    whose target is not finite raise DomainError.
    """
    target = R * R - T * T
    if not math.isfinite(target):
        raise DomainError(f"(T={T}, R={R}) has no finite R^2-T^2 (got {target})")
    if target <= -4.0:
        raise DomainError(
            f"(T={T}, R={R}) lies past the r=0 singularity (R^2-T^2={target})"
        )

    def g(r: float) -> float:
        return 4.0 * (r - 1.0) * math.exp(r) - target

    lo, hi = 1e-300, 1.0
    while g(hi) < 0.0:  # g(709.78) = inf: e^709.78 is near the largest float
        lo, hi = hi, min(2.0 * hi, 709.78)
    # bisection to ~1e-13 relative tolerance
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def frame_transform_matrix(p: KruskalPoint) -> np.ndarray:
    """Local frame map from the static tetrad to the Kruskal tetrad.

    The Kruskal tetrad, free-falling and finite at r = 1, has the legs
    (sqrt(r) e^{r/2}, sqrt(r) e^{r/2}, 1/r, 1/(r sin theta)) in (T, R,
    theta, phi).  A boost along the radial axis built from the point's (T, R); satisfies
    T eta T^t = eta.  Real only outside the horizon, where an orbit exists (no_orbit).
    The scale 1/(2 sqrt(r - 1) e^{r/2}) is formed from e^{-r/2}, which stays
    a normal float wherever kruskal_map gives a point; e^{-r}/(r - 1) goes
    subnormal from r ~ 708 and to 0 from r ~ 739.
    """
    if no_orbit(p.r, 0.0):
        raise HorizonError(f"frame transform singular at the horizon (r={p.r})")
    a = 0.5 * math.exp(-0.5 * p.r) / math.sqrt(p.r - 1.0)
    out = np.eye(4)
    out[0, 0] = a * p.R
    out[0, 1] = -a * p.T
    out[1, 0] = -a * p.T
    out[1, 1] = a * p.R
    return out

