"""From rotation angle to spin entanglement, step by step.

Run with `python demos/02_entanglement_pipeline.py`.  The pipeline is
    Theta(p)  ->  (C, S) = <cos Theta>, <sin Theta>
              ->  reduced density matrix  ->  concurrence  ->  E
and the closed-form matrices are cross-checked against the brute-force
average of rotated projectors at every step.
"""

import numpy as np

from gravent import (
    BELL_STATES,
    MomentumDistribution,
    OrbitParams,
    density_matrix_diagnostics,
    entanglement_of_formation,
    reduced_density_bruteforce,
    reduced_density_closed,
    theta_circular,
    trig_moments,
    wootters_concurrence,
)

REFERENCE = OrbitParams(xi2=0.265, z=1.6, q=0.6, beta=1.0, tau_ratio=5.0)


def moments_step():
    print("=== Gaussian trig moments at the reference orbit ===")
    theta_fn = lambda p: theta_circular(REFERENCE, p)
    dist = MomentumDistribution(q=REFERENCE.q, beta=REFERENCE.beta)
    m = trig_moments(theta_fn, dist)
    print(f"  C = {m.C:+.12f}")
    print(f"  S = {m.S:+.12f}")
    print(f"  C^2 + S^2 = {m.C**2 + m.S**2:.12f} (always <= 1)")
    print(f"  converged with {m.nodes} trapezoid intervals, residual {m.residual:.1e}")
    print()
    return m, theta_fn, dist


def density_step(m, theta_fn, dist):
    print("=== Reduced density matrices: closed form vs brute force ===")
    for chi in BELL_STATES:
        closed = reduced_density_closed(chi, m)
        brute = reduced_density_bruteforce(chi, theta_fn, dist)
        diag = density_matrix_diagnostics(closed)
        print(f"  {chi.tag}: |closed - brute|_max = "
              f"{np.abs(closed - brute).max():.2e}   "
              f"hermiticity {diag.hermiticity:.1e}, "
              f"trace error {diag.trace_error:.1e}, "
              f"min eigenvalue {diag.min_eigenvalue:+.1e}")
    print()
    return reduced_density_closed(BELL_STATES[0], m)


def entanglement_step(m, rho):
    print("=== Concurrence and entanglement of formation ===")
    k = m.C**2 + m.S**2
    for chi in BELL_STATES:
        conc = wootters_concurrence(reduced_density_closed(chi, m))
        print(f"  {chi.tag}: concurrence = {conc:.12f}")
    print(f"  all four equal C^2 + S^2 = {k:.12f}")
    print(f"  entanglement of formation E = {entanglement_of_formation(k):.9f}")
    print()


def width_limits():
    print("=== Narrow and wide packets ===")
    theta_fn = lambda p: theta_circular(REFERENCE, p)
    for beta in (1e-6, 0.5, 1.0, 2.0):
        m = trig_moments(theta_fn, MomentumDistribution(q=REFERENCE.q, beta=beta))
        k = m.C**2 + m.S**2
        print(f"  beta = {beta:<6} C^2+S^2 = {k:.9f}   "
              f"E = {entanglement_of_formation(min(k, 1.0)):.9f}")
    print("  beta -> 0 recovers a sharp momentum (no decoherence);")
    print("  wider packets average the rotation and lose entanglement")
    print()


if __name__ == "__main__":
    m, theta_fn, dist = moments_step()
    rho = density_step(m, theta_fn, dist)
    entanglement_step(m, rho)
    width_limits()
