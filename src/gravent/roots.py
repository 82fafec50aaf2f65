"""Closed-form roots of the charged hole, the input rules, and the names the CLI offers.

The horizons solve z^2 - z + xi2 = 0 and the rotation-free circles
2 z^2 - 3 z + 4 xi2 = 0 (z = r / r_s, xi2 the squared charge).  Both are
quadratics solved with `math` alone, the input rules (DOMAIN_CHECKS) and
the orbit rule (no_orbit) are comparisons and arithmetic, the sweep
variables and Bell tags plain strings, so this module imports no numpy:
`gravent horizons` and `gravent zeros` run on it and the stdlib only.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError

# The orbit parameters a sweep may vary.
SWEEP_VARIABLES = ("q", "tau_ratio", "z")

# The tags of the four Bell states chi1..chi4, in the order of BELL_STATES.
BELL_TAGS = ("chi1", "chi2", "chi3", "chi4")

# The bracket of M(q, p) is a difference of two terms of size ~q that is
# of order 1 near p = q, so it loses about log10(q) digits: past this bound
# it keeps fewer than 8, and from q ~ 1e16 on it cancels to exactly 0.
MAX_MOMENTUM = 1e8

# The radial factor's denominator 2 z^2 sqrt(z^2 - z + xi2) grows like 2 z^3
# and overflows from z ~ 5.6e102; up to this radius every intermediate of
# it stays finite.
MAX_RADIUS = 1e100

# z^2 - z + xi2 below this times z^2 (|e^{2A}| below it) counts as sitting on a horizon.
HORIZON_TOL = 1e-9


def _is_integer(value) -> bool:
    """An int, or one value of a type that stands for one (numpy's integers)."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


# (field, where a value is in the domain, message), in the order check_domain
# tries them, every finiteness entry first.  Comparisons, so nan fails each
# and a sweep masks a grid with them.
DOMAIN_CHECKS = tuple((key, lambda v: abs(v) < math.inf, "{name} must be finite, got {value}")
                      for key in ("xi2", "z", "q", "p", "beta", "tau_ratio", "theta", "tau_i",
                                  "tau_f", "lo", "hi")) + (
    # hi - lo of a grid's finite ends, whose step is inf where it overflows
    ("span", lambda v: abs(v) < math.inf, "the span {name} overflows, got {value}"),
    ("xi2", lambda v: v >= 0, "{name} must be >= 0, got {value}"),
) + tuple((key, lambda v: abs(v) <= MAX_MOMENTUM,  # a momentum, of the packet or a particle
           f"|{{name}}| must be <= {MAX_MOMENTUM:g}, got {{name}}={{value}}")
          for key in ("q", "p")) + (
    ("z", lambda v: v > 0, "orbit radius must be positive, got {name}={value}"),
    ("z", lambda v: v <= MAX_RADIUS,
     f"orbit radius must be <= {MAX_RADIUS:g}, got {{name}}={{value}}"),
    ("beta", lambda v: v > 0, "{name} must be positive, got {value}"),
    # 49 beta^2, which sets the ends of a sweep's line in s, underflows below ~3e-163
    ("beta", lambda v: v >= 1e-150, "{name} must be >= 1e-150, got {value}"),
    # the momenta q + beta x reach |q| + 7 beta, far below 1e154 where p * p overflows
    ("beta", lambda v: v <= MAX_MOMENTUM,
     f"{{name}} must be <= {MAX_MOMENTUM:g}, got {{value}}"),
    ("tau_ratio", lambda v: v >= 0, "{name} must be >= 0, got {value}"),
    # a radius of the metric or the Kruskal chart, which reaches down to r = 0
    ("r", lambda v: (v > 0) & (v < math.inf),
     "radius must be positive and finite, got {name}={value}"),
    # a tetrad's leg 1/(r sin theta) diverges on the polar axis
    ("off_axis", lambda v: abs(math.sin(v)) >= 1e-12,
     "tetrad undefined on the polar axis (theta={value})"),
    ("v", lambda v: abs(v) < 1, "|{name}| must be < 1, got {name}={value}"),
    ("x", lambda v: (v >= 0) & (v <= 1), "{name} must lie in [0, 1], got {value}"),
    ("count", lambda v: v >= 1, "{name} must be >= 1, got {value}"),  # of steps, draws, radii
    ("samples", lambda v: v >= 2, "{name} must be >= 2, got {value}"),  # of a sweep's grid
    ("seed", lambda v: v >= 0, "{name} must be >= 0, got {value}"),  # of the oracle's draws
) + tuple((key, _is_integer, "{name} must be an integer, got {value}")
          for key in ("count", "samples", "seed")) + (
    ("variable", lambda v: v in SWEEP_VARIABLES,
     f"{{name}} must be one of {SWEEP_VARIABLES}, got {{value!r}}"),
    ("bell", lambda v: v in BELL_TAGS, "unknown Bell state {value!r}; expected chi1..chi4"),
    # a concurrence that rounding has moved past an end of [0, 1] by up to 1e-12
    ("concurrence", lambda v: (v >= -1e-12) & (v <= 1 + 1e-12),
     "{name} must lie in [0, 1], got {value}"),
)


# Each field's entries with their places in DOMAIN_CHECKS, so that a check
# looks up the entries of its fields instead of walking the whole table.
_ENTRIES = {field: [(place, entry) for place, entry in enumerate(DOMAIN_CHECKS)
                    if entry[0] == field] for field, _, _ in DOMAIN_CHECKS}


def check_domain(values: dict, names: dict | None = None) -> None:
    """Raise DomainError for the first entry of DOMAIN_CHECKS that fails.

    Only the entries of the fields in values run, in the table's order,
    each on a number, a string or an array (anything with a non-zero
    ndim), whose first element at fault the message names.  A value that
    an entry cannot compare (text or None where a number belongs) fails
    it as not a number.  names renames a field in the messages.
    """
    for _, (field, valid, message) in sorted(e for f in values for e in _ENTRIES.get(f, ())):
        value = values[field]
        try:
            ok = valid(value)
        except TypeError:  # text or None where the entry compares numbers
            ok, message = False, "{name} must be a number, got {value!r}"
        if getattr(ok, "ndim", 0):  # an array
            if ok.all():
                continue
            ok, value = False, value.flat[ok.argmin()]
        if not ok:
            name = (names or {}).get(field, field)
            raise DomainError(message.format(name=name, value=value))


def horizons(xi2: float) -> list[float]:
    """Real roots of z^2 - z + xi2 = 0, ascending.

    These are the event-horizon radii of the charged hole: two for
    xi2 < 1/4, the single degenerate root 1/2 for xi2 = 1/4, none for
    xi2 > 1/4.  The product-of-roots form keeps the small root accurate.
    """
    check_domain({"xi2": xi2})
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


def no_orbit(z, xi2):
    """True where no circular orbit of radius z exists around the hole of charge xi2.

    That is z <= 0; z < 1/2 at xi2 <= 1/4, inside the outer horizon (which
    never lies below 1/2): below the inner one z^2 - z + xi2 > 0 again and
    the radial factor is finite, but no circle there lies outside the hole;
    and z^2 - z + xi2 < HORIZON_TOL z^2: on, between or next to the
    horizons, where the radial factor diverges, or next to the near-zero at
    z = 1/2 of xi2 just above 1/4.  There it does not diverge: for xi2 - 1/4
    up to 1e-10 it stays below 2.0005 within 4e-5 of z = 1/2, both z^2 - z
    + xi2 and 2z^2 - 3z + 4 xi2 vanishing together.  The band stays only
    until the rule and the radial factor are written in factored form,
    (z - 1/2)^2 + (xi2 - 1/4), which can tell the two apart.  Comparisons
    and arithmetic, so a float and an array get the same answer.
    """
    return (z <= 0) | ((xi2 <= 0.25) & (z < 0.5)) | (z * z - z + xi2 < HORIZON_TOL * z * z)


def theta_zeros(xi2: float) -> list[float]:
    """Orbit radii where the rotation angle vanishes for every momentum.

    The real roots (3 -+ sqrt(9 - 32 xi2)) / 4 of 2z^2 - 3z + 4 xi2 = 0
    (empty for xi2 > 9/32), keeping only radii where an orbit exists
    (no_orbit).  The closed form is returned as is; no root-finder refines it.
    """
    check_domain({"xi2": xi2})
    disc = 9.0 - 32.0 * xi2
    if disc < 0:
        return []
    d = math.sqrt(disc)
    roots = sorted({(3.0 - d) / 4.0, (3.0 + d) / 4.0})  # the one root 0.75 where disc = 0
    return [r for r in roots if not no_orbit(r, xi2)]
