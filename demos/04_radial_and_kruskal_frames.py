"""Radial free fall, time-ordered accumulation, and the choice of frame.

Run with `python demos/04_radial_and_kruskal_frames.py`.  Two stories:
first, a radially falling packet whose momentum points along the fall
accumulates no spin rotation at all, so any Bell state survives intact,
while a momentum across the fall turns; second, the rotation rate is a
property of the observer's frame, and the freely falling (Kruskal) frame
stays regular at the horizon where the static frame blows up.
"""

import math

import numpy as np

from gravent import (
    BELL_STATES,
    ChargedBlackHole,
    frame_comparison,
    frame_transform_matrix,
    kruskal_map,
    kruskal_radius,
    lambda_radial,
    product_integral,
    radial_invariance_check,
    rotation_matrix,
    wigner_rate,
    wigner_rate_matrix,
)


def product_integral_demo():
    print("=== Time-ordered accumulation ===")
    model = ChargedBlackHole(0.16)
    rate = wigner_rate_matrix(model, 1.6, 0.6, 0.3)
    tau = 2.0
    accumulated = product_integral(lambda t: rate, 0.0, tau, 4096)
    exact = rotation_matrix(rate[0, 2] * tau)
    print(f"  constant rate w13 = {rate[0, 2]:+.6f}, tau = {tau}")
    print(f"  |product integral - closed-form rotation|_max = "
          f"{np.abs(accumulated - exact).max():.2e}")
    boost_path = lambda t: lambda_radial(model, 5.0 - 0.4 * t, 0.4)
    lam = product_integral(boost_path, 0.0, 4.0, 2048)
    # a product of 0-1 boosts leaves the 2 and 3 axes alone, so the last two
    # columns of its spatial block are those of its rotation part
    print(f"  radial-path accumulation: rotation block deviates from the "
          f"identity by {np.abs(lam[1:, 2:] - np.eye(3)[:, 1:]).max():.2e} (pure boost)")
    print()


def radial_story():
    print("=== Radial free fall preserves every Bell state ===")
    for report in radial_invariance_check(BELL_STATES):
        print(f"  {report.bell_tag}: accumulated angle {report.rotation_angle:+.1e}, "
              f"density-matrix deviation {report.max_deviation:.2e}")
    model = ChargedBlackHole(0.0)
    for label, p in (("along", (0.6, 0.0, 0.0)), ("across", (0.0, 0.0, 0.6))):
        path = lambda t: wigner_rate(lambda_radial(model, 6.0 - 0.4 * t, 0.4), p)
        turned = product_integral(path, 0.0, 5.0, 256)
        print(f"  momentum 0.6 {label:>6} the fall: rate at z = 6 "
              f"{path(0.0)[0, 2]:+.1e}, angle after 5 units "
              f"{math.atan2(turned[0, 2], turned[0, 0]):+.1e}")
    print("  a radially falling observer can carry entangled spins with")
    print("  zero gravitational decoherence, whatever the travel time,")
    print("  as long as their momenta point along the fall")
    print()


def kruskal_chart():
    print("=== Kruskal chart round trip ===")
    for r, t in ((2.5, 1.3), (1.05, -4.0), (0.6, 2.0)):
        point = kruskal_map(r, t)
        back = kruskal_radius(point.T, point.R)
        print(f"  (r={r}, t={t}) -> (T={point.T:+.4f}, R={point.R:+.4f}) "
              f"-> r = {back:.12f}")
    tmat = frame_transform_matrix(kruskal_map(2.0, 0.0))
    print(f"  frame transform at t=0 is the identity "
          f"(residual {np.abs(tmat - np.eye(4)).max():.1e})")
    print()


def frame_story():
    print("=== Static frame vs falling frame near the horizon ===")
    grid = [1.0, 1.000001, 1.2, 1.5, 2.0, 5.0, 10.0]
    rows = frame_comparison(grid, q=1.0, p=0.0)
    print(f"  {'r':>9}  {'static rate':>13}  {'falling rate':>13}  flags")
    for row in rows:
        static = "     (inf)" if np.isnan(row.static_rate) else f"{row.static_rate:+.6f}"
        print(f"  {row.r:>9.6f}  {static:>13}  {row.kruskal_rate:+13.6f}  "
              f"{';'.join(row.flags)}")
    print("  the static rate diverges at r = 1 and vanishes at r = 1.5;")
    print("  the falling frame sees a finite rate through the horizon, so")
    print("  which circles decohere depends on the observer's frame")
    print()


if __name__ == "__main__":
    product_integral_demo()
    radial_story()
    kruskal_chart()
    frame_story()
