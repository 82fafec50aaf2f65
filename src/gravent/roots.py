"""Closed-form roots of the charged hole, and the names the CLI offers.

The horizons solve z^2 - z + xi2 = 0 and the rotation-free circles
2 z^2 - 3 z + 4 xi2 = 0 (z = r / r_s, xi2 the squared charge).  Both are
quadratics solved with `math` alone, and the sweep variables and Bell
tags are plain strings, so this module imports no numpy: `gravent
horizons` and `gravent zeros` run on it and the standard library only.
"""

from __future__ import annotations

import math

from .errors import DomainError

# The orbit parameters a sweep may vary.
SWEEP_VARIABLES = ("q", "tau_ratio", "z")

# The tags of the four Bell states chi1..chi4, in the order of BELL_STATES.
BELL_TAGS = ("chi1", "chi2", "chi3", "chi4")


def horizons(xi2: float) -> list[float]:
    """Real roots of z^2 - z + xi2 = 0, ascending.

    These are the event-horizon radii of the charged hole: two for
    xi2 < 1/4, the single degenerate root 1/2 for xi2 = 1/4, none for
    xi2 > 1/4.  The product-of-roots form keeps the small root accurate.
    """
    if not (math.isfinite(xi2) and xi2 >= 0):
        raise DomainError(f"xi2 must be finite and >= 0, got {xi2}")
    disc = 1.0 - 4.0 * xi2
    if disc < 0:
        return []
    if disc == 0:
        return [0.5]
    z_plus = 0.5 * (1.0 + math.sqrt(disc))
    z_minus = xi2 / z_plus if z_plus > 0 else 0.0
    return [z_minus, z_plus]


def outer_horizon(xi2: float) -> float | None:
    """Largest horizon radius, or None for a naked singularity."""
    roots = horizons(xi2)
    return roots[-1] if roots else None


def theta_zeros(xi2: float) -> list[float]:
    """Orbit radii where the rotation angle vanishes for every momentum.

    The real roots (3 -+ sqrt(9 - 32 xi2)) / 4 of 2z^2 - 3z + 4 xi2 = 0
    (empty for xi2 > 9/32), keeping only radii outside the outer horizon.
    The closed form is returned as is; no root-finder refines it.
    """
    zp = outer_horizon(xi2)  # checks xi2
    disc = 9.0 - 32.0 * xi2
    if disc < 0:
        return []
    if disc == 0:
        roots = [0.75]
    else:
        d = math.sqrt(disc)
        roots = [(3.0 - d) / 4.0, (3.0 + d) / 4.0]
    floor = zp if zp is not None else 0.0
    return [r for r in roots if r > floor]
