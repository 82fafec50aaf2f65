"""Tour of the spacetime layer: horizons, tetrads and rotation rates.

Run with `python demos/01_geometry_and_orbits.py`.  Everything is in
units c = r_s = 1; radii are z = r/r_s.
"""

import numpy as np

from gravent import (
    ChargedBlackHole,
    ETA,
    HorizonError,
    OrbitParams,
    circular_orbit_state,
    horizons,
    metric_matrix,
    metric_potentials,
    tetrad_static,
    theta_circular,
    theta_zeros,
    wigner_rate_w13,
)


def horizon_census():
    print("=== Horizon census ===")
    for xi2 in (0.0, 0.16, 0.25, 0.265, 0.5):
        roots = horizons(xi2)
        kind = ("naked singularity" if not roots
                else "extremal" if len(roots) == 1 else "two horizons")
        print(f"  xi2 = {xi2:<6} -> {kind:<18} {[round(r, 6) for r in roots]}")
    print()


def frame_orthonormality():
    print("=== Static tetrad reconstructs the Minkowski metric ===")
    model = ChargedBlackHole(0.16)
    for z in (0.9, 1.6, 4.0, 25.0):
        e = tetrad_static(model, z, np.pi / 2).as_matrix()
        g = metric_matrix(model, z, np.pi / 2)
        residual = np.abs(e.T @ g @ e - ETA).max()
        a, b, _ = metric_potentials(model, z)
        print(f"  z = {z:<5} e^(2A) = {np.exp(2 * a):.6f}   "
              f"|e g e - eta|_max = {residual:.2e}")
    try:
        tetrad_static(model, 0.8, np.pi / 2)
    except HorizonError as exc:
        print(f"  at the outer horizon: HorizonError ({exc})")
    print()


def special_radii():
    print("=== Radii where the spin rotation switches off ===")
    for xi2 in (0.16, 0.25, 0.265, 0.3):
        zeros = theta_zeros(xi2)
        print(f"  xi2 = {xi2:<6} rotation-free circles at "
              f"{[round(z, 6) for z in zeros] or 'none'}")
    model = ChargedBlackHole(0.16)
    z1 = theta_zeros(0.16)[0]
    print(f"  check: rate at z1 = {z1:.6f} for several momenta:",
          [f"{wigner_rate_w13(model, z1, 0.6, p):.1e}" for p in (-1.0, 0.0, 2.0)])
    print()


def orbit_kinematics():
    print("=== Circular-orbit kinematics (xi2 = 0.16, z = 1.6) ===")
    model = ChargedBlackHole(0.16)
    for q in (0.0, 0.6, 2.0):
        state = circular_orbit_state(model, 1.6, q)
        print(f"  q = {q:<4} gamma = {state.gamma:.6f}  "
              f"radial acceleration a1 = {state.a1:+.6f}")
    print("  (q = 0 is a static observer held against gravity)")
    print()


def angle_blowup():
    print("=== Accumulated angle toward the outer horizon (xi2 = 0.16) ===")
    for dz in (0.2, 0.02, 0.002, 2e-7):
        params = OrbitParams(0.16, 0.8 + dz, 0.6, 1.0, 5.0)
        print(f"  z = z+ + {dz:<7} Theta(p=0) = {theta_circular(params, 0.0):+.3e}")
    print("  the angle diverges at the horizon; the sweep quadrature damps the")
    print("  oscillation on a line moved off the real axis in s = asinh p,")
    print("  and such rows come out fully decohered")
    print()


if __name__ == "__main__":
    horizon_census()
    frame_orthonormality()
    special_radii()
    orbit_kinematics()
    angle_blowup()
