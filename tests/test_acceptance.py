"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the verdict
lines for passing criteria as well).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import polar
from scipy.optimize import brentq

from gravent import (
    BELL_STATES,
    ChargedBlackHole,
    ETA,
    OrbitParams,
    figure_preset,
    find_entanglement_minima,
    frame_transform_matrix,
    horizons,
    kruskal_map,
    kruskal_rate,
    lambda_radial,
    momentum_factor,
    oracle_equivalence_report,
    product_integral,
    radial_invariance_check,
    rotation_matrix,
    run_sweep,
    theta_zeros,
    validation_checks,
    wigner_rate_matrix,
    wigner_rate_w13,
)
from gravent.experiments import _sweep_rows
from gravent.cli import main


def verdict(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def oracle_report():
    return oracle_equivalence_report(draws=100)


def _cli_floats(capsys, *argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    values = []
    for line in out.splitlines():
        try:
            values.append(float(line))
        except ValueError:
            pass
    return values


def test_criterion_01_theta_zero_radii(capsys):
    z16 = _cli_floats(capsys, "zeros", "--xi2", "0.16")
    z265 = _cli_floats(capsys, "zeros", "--xi2", "0.265")
    z30 = _cli_floats(capsys, "zeros", "--xi2", "0.3")
    ok = (len(z16) == 1 and abs(z16[0] - 1.2425) < 1e-4
          and len(z265) == 2
          and abs(z265[0] - 0.5697) < 1e-4 and abs(z265[1] - 0.9303) < 1e-4
          and z30 == [])
    verdict(1, ok, f"zeros(0.16)={z16}, zeros(0.265)={z265}, zeros(0.3)={z30}")
    assert ok


def test_criterion_02_horizons():
    h16 = horizons(0.16)
    h25 = horizons(0.25)
    h50 = horizons(0.5)
    ok = (len(h16) == 2
          and abs(h16[0] - 0.2) < 1e-12 and abs(h16[1] - 0.8) < 1e-12
          and h25 == [0.5] and h50 == [])
    verdict(2, ok, f"horizons: 0.16 -> {h16}, 0.25 -> {h25}, 0.5 -> {h50}")
    assert ok


def test_criterion_03_peak_property():
    # the peak sits at the theta_zeros radius (1.2425 is its 4-decimal
    # rounding, reported by criterion 1 with tolerance 1e-4)
    rng = np.random.default_rng(42)
    worst = 1.0
    for xi2 in (0.16, 0.265):
        zeros = theta_zeros(xi2)
        for _ in range(5):
            q = float(rng.uniform(0.1, 3.0))
            beta = float(rng.uniform(0.3, 3.0))
            tau = float(rng.uniform(0.5, 10.0))
            fixed = OrbitParams(xi2=xi2, z=2.0, q=q, beta=beta, tau_ratio=tau)
            spec = replace(figure_preset(4 if xi2 == 0.16 else 5), fixed=fixed)
            for z in zeros:
                worst = min(worst, _sweep_rows(spec, [z], False)[0].E)
    ok = worst > 1.0 - 1e-6
    verdict(3, ok, f"min E over 5 random (q, beta, tau) draws at every "
                   f"accessible angle zero: {worst:.9f}")
    assert ok


def test_criterion_04_minima_locations():
    fig4 = find_entanglement_minima(figure_preset(4))
    fig5 = find_entanglement_minima(figure_preset(5))
    ok4 = len(fig4) == 1 and abs(fig4[0][0] - 2.25) < 0.1
    ok5 = (len(fig5) == 2 and abs(fig5[0][0] - 0.65) < 0.1
           and abs(fig5[1][0] - 1.96) < 0.1)
    detail = (f"fig4 minima {[(round(z, 4), round(e, 4)) for z, e in fig4]}, "
              f"fig5 minima {[(round(z, 4), round(e, 4)) for z, e in fig5]}")
    verdict(4, ok4 and ok5, detail)
    assert ok4 and ok5


def test_criterion_05_descent_and_oscillation():
    # non-convergent rows use the stationary-phase convention (E = 0), the
    # honest limit value where the moments oscillate below quadrature reach
    rows1 = run_sweep(figure_preset(1), stationary_phase=True)
    e1 = np.array([r.E for r in rows1])
    start_ok = abs(e1[0] - 1.0) < 1e-6
    mono_ok = bool(np.all(np.diff(e1) <= 1e-3))
    tail_ok = e1[-1] < 0.05
    rows2 = run_sweep(figure_preset(2), stationary_phase=True)
    clean = [i for i, r in enumerate(rows2)
             if all(f == "reduced-tolerance" for f in r.flags)]
    maxima = [i for i in clean
              if i - 1 in clean and i + 1 in clean
              and rows2[i].E > rows2[i - 1].E + 1e-9
              and rows2[i].E > rows2[i + 1].E + 1e-9]
    osc_ok = len(maxima) >= 1
    ok = start_ok and mono_ok and tail_ok and osc_ok
    verdict(5, ok, f"fig1: E(0)={e1[0]:.8f}, max rise={np.diff(e1).max():.2e}, "
                   f"E(20)={e1[-1]:.4f}; fig2 interior maxima at q="
                   f"{[round(rows2[i].x, 3) for i in maxima[:4]]}")
    assert ok


def _gaussian_average(f, q, beta):
    weight = lambda p: math.exp(-((p - q) / beta) ** 2) / (math.sqrt(math.pi) * beta)
    value, _ = quad(lambda p: weight(p) * f(p), q - 12 * beta, q + 12 * beta,
                    epsabs=1e-14, epsrel=1e-13, limit=400)
    return value


def _momentum_factor_by_hand(q, p):
    gamma = math.sqrt(q * q + 1.0)
    return q * gamma * (gamma - q * p / (math.sqrt(p * p + 1.0) + 1.0))


def _reference_entanglement(fixed, z):
    # Theta = 2 pi (tau/tau_s) (2z^2 - 3z + 4 xi2) / (2 z^2 sqrt(z^2 - z + xi2)) M,
    # averaged by adaptive quadrature; K = C^2 + S^2 for every Bell input
    amp = (2 * math.pi * fixed.tau_ratio * (2 * z * z - 3 * z + 4 * fixed.xi2)
           / (2 * z * z * math.sqrt(z * z - z + fixed.xi2)))
    theta = lambda p: amp * _momentum_factor_by_hand(fixed.q, p)
    c = _gaussian_average(lambda p: math.cos(theta(p)), fixed.q, fixed.beta)
    s = _gaussian_average(lambda p: math.sin(theta(p)), fixed.q, fixed.beta)
    k = c * c + s * s
    x = 0.5 * (1.0 + math.sqrt(max(1.0 - k * k, 0.0)))
    return -sum(v * math.log2(v) for v in (x, 1.0 - x) if v > 0.0)


def _far_field_coefficient(fixed):
    # the prefactor of Theta tends to 1/z, so 1 - K -> Var[Theta] and
    # 1 - E -> (1 - K) / ln 2: 1 - E -> c_inf / z^2 with c_inf as returned
    m = lambda p: _momentum_factor_by_hand(fixed.q, p)
    mean = _gaussian_average(m, fixed.q, fixed.beta)
    var = _gaussian_average(lambda p: (m(p) - mean) ** 2, fixed.q, fixed.beta)
    return (2 * math.pi * fixed.tau_ratio) ** 2 * var / math.log(2)


def _far_field_coefficient_from(variable, fixed):
    # M - <M> = -q^2 gamma (u - <u>), u(p) = p/(sqrt(p^2 + 1) + 1), so
    # Var[M] = q^4 gamma^2 Var[u]: c_inf through the variance of variable(p)
    mean = _gaussian_average(variable, fixed.q, fixed.beta)
    var = _gaussian_average(lambda p: (variable(p) - mean) ** 2, fixed.q, fixed.beta)
    q2_gamma = fixed.q * fixed.q * math.sqrt(fixed.q * fixed.q + 1.0)
    return (2 * math.pi * fixed.tau_ratio * q2_gamma) ** 2 * var / math.log(2)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_criterion_06_far_field_coefficient_through_the_variance_of_u(n):
    fixed = figure_preset(n).fixed
    c_inf = _far_field_coefficient(fixed)
    through_u = _far_field_coefficient_from(lambda p: p / (math.sqrt(p * p + 1.0) + 1.0), fixed)
    assert c_inf == pytest.approx(through_u, rel=1e-9)
    # negative control: the variance of p in place of that of u misses by far more
    through_p = _far_field_coefficient_from(lambda p: p, fixed)
    assert abs(through_p / c_inf - 1.0) > 1.0


def test_criterion_06_asymptotics():
    # Far out the prefactor is (1/z)(1 - 1/z + ...), so E recovers as
    # 1 - E = (c_inf / z^2)(1 - 2/z + ...) and first passes 0.999 near z = 129.2
    radii = (50.0, 100.0, 200.0)
    details, asym_fails = [], []
    for n in (4, 5, 6):
        spec = figure_preset(n)
        es = {z: _sweep_rows(spec, [z], False)[0].E for z in radii}
        e_ref = _reference_entanglement(spec.fixed, 50.0)
        c_inf = _far_field_coefficient(spec.fixed)
        ratios = {z: (1.0 - e) * z * z / c_inf for z, e in es.items()}
        diff = es[50.0] - e_ref
        if not abs(diff) < 1e-8:
            asym_fails.append(f"fig{n} |E(50) - ref| = {abs(diff):.2e} > 1e-8")
        for z, ratio in ratios.items():
            if not abs(ratio - 1.0) < 3.0 / z:
                asym_fails.append(f"fig{n} |ratio(z={z:g}) - 1| = "
                                  f"{abs(ratio - 1.0):.4f} > {3.0 / z:.4f}")
        if not ratios[50.0] < ratios[100.0] < ratios[200.0]:
            asym_fails.append(f"fig{n} ratio does not rise with z")
        if not es[200.0] > 0.999:
            asym_fails.append(f"fig{n} E(200) = {es[200.0]:.6f} falls "
                              f"{0.999 - es[200.0]:.2e} short of 0.999")
        details.append(
            f"fig{n}: E(50)={es[50.0]:.10f} ref={e_ref:.10f} diff={diff:.1e} "
            f"c_inf={c_inf:.4f} (1-E)z^2/c_inf="
            + "/".join(f"{r:.4f}" for r in ratios.values())
            + f" at z=50/100/200, E(200)={es[200.0]:.6f}")
    fig6_minima = find_entanglement_minima(figure_preset(6))
    asym_ok = not asym_fails
    fig6_ok = fig6_minima == []
    ok = asym_ok and fig6_ok
    detail = "; ".join(details) + f"; fig6 interior minima: {fig6_minima}"
    if not asym_ok:
        detail += "; asymptotics half failed: " + ", ".join(asym_fails)
    if not fig6_ok:
        detail += f"; minima half failed: {len(fig6_minima)} found, none expected"
    verdict(6, ok, detail)
    assert ok


def test_criterion_07_oracle_equivalence(oracle_report):
    dev = oracle_report["max_entry_deviation"]
    ok = dev < 1e-8 and oracle_report["draws"] == 100
    verdict(7, ok, f"closed vs brute force, 100 draws x 4 Bell states: "
                   f"max entry deviation {dev:.3e}")
    assert ok


def test_criterion_08_concurrence_identity(oracle_report):
    against_moments = oracle_report["max_concurrence_vs_moments"]
    spread = oracle_report["max_cross_bell_spread"]
    ok = against_moments < 1e-8 and spread < 1e-10
    verdict(8, ok, f"|concurrence - (C^2+S^2)| <= {against_moments:.3e}, "
                   f"cross-Bell spread <= {spread:.3e}")
    assert ok


def test_criterion_09_density_matrix_hygiene(oracle_report):
    herm = oracle_report["max_hermiticity"]
    trace = oracle_report["max_trace_error"]
    min_eig = oracle_report["min_eigenvalue"]
    norm = oracle_report["max_moment_norm"]
    ok = herm < 1e-12 and trace < 1e-10 and min_eig > -1e-10 and norm <= 1.0
    verdict(9, ok, f"hermiticity {herm:.2e}, trace error {trace:.2e}, "
                   f"min eigenvalue {min_eig:.2e}, max C^2+S^2 {norm:.12f}")
    assert ok


def test_criterion_10_product_integral():
    model = ChargedBlackHole(0.16)
    rate = wigner_rate_matrix(model, 1.6, 0.6, 0.3)
    tau = 2.0
    accumulated = product_integral(lambda t: rate, 0.0, tau, 10_000)
    const_dev = float(np.abs(accumulated - rotation_matrix(rate[0, 2] * tau)).max())

    gen = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    exact = rotation_matrix(4.0 / 3.0)  # integral of 1 + t^2 on [0, 1]
    errors = [float(np.abs(product_integral(lambda t: (1 + t * t) * gen,
                                            0.0, 1.0, n) - exact).max())
              for n in (32, 64, 128)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]

    boost_fn = lambda t: lambda_radial(model, 5.0 - 0.4 * t, 0.4)
    lam = product_integral(boost_fn, 0.0, 4.0, 2000)
    u, _ = polar(lam[1:, 1:])
    rot_dev = float(np.abs(u - np.eye(3)).max())

    ok = const_dev < 1e-8 and min(orders) >= 1.95 and rot_dev < 1e-8
    verdict(10, ok, f"constant-rate deviation {const_dev:.2e}, observed orders "
                    f"{[round(o, 2) for o in orders]}, radial rotation block "
                    f"deviation {rot_dev:.2e}")
    assert ok


def test_criterion_11_radial_invariance():
    devs = {report.bell_tag: report.max_deviation
            for report in radial_invariance_check(BELL_STATES)}
    ok = all(d < 1e-10 for d in devs.values())
    verdict(11, ok, "max deviations " +
            ", ".join(f"{k}={v:.2e}" for k, v in devs.items()))
    assert ok


def test_criterion_12_frame_comparison():
    static = ChargedBlackHole(0.0)  # the static-frame rate of the uncharged hole
    zero_at = brentq(lambda r: wigner_rate_w13(static, r, 1.0, 0.0), 1.2, 2.0,
                     xtol=1e-14)
    root_ok = abs(zero_at - 1.5) < 1e-10 and wigner_rate_w13(static, 1.5, 1.0, 0.0) == 0.0
    diverge = abs(wigner_rate_w13(static, 1.0 + 1e-8, 1.0, 0.0))
    diverge_ok = diverge > 1e3
    q, p = 0.7, 0.2
    kr_dev = abs(kruskal_rate(1.0, q, p)
                 - math.exp(-0.5) * momentum_factor(q, p))
    kruskal_ok = kr_dev < 1e-10
    lorentz_dev = 0.0
    for r in np.linspace(1.05, 10.0, 5):
        for t in (-3.0, 0.0, 1.7, 5.0):
            tmat = frame_transform_matrix(kruskal_map(float(r), t))
            lorentz_dev = max(lorentz_dev,
                              float(np.abs(tmat @ ETA @ tmat.T - ETA).max()))
    identity_dev = float(np.abs(frame_transform_matrix(kruskal_map(2.0, 0.0))
                                - np.eye(4)).max())
    ok = (root_ok and diverge_ok and kruskal_ok
          and lorentz_dev < 1e-10 and identity_dev < 1e-10)
    verdict(12, ok, f"static zero at r={zero_at:.12f}, |rate(1+1e-8)|={diverge:.1f}, "
                    f"kruskal horizon deviation {kr_dev:.1e}, Lorentz residual "
                    f"{lorentz_dev:.1e} on 20 points, T(t=0) identity residual "
                    f"{identity_dev:.1e}")
    assert ok


def test_criterion_13_determinism(tmp_path, capsys):
    first = tmp_path / "fig4_run1.csv"
    second = tmp_path / "fig4_run2.csv"
    assert main(["figure", "4", "-o", str(first)]) == 0
    assert main(["figure", "4", "-o", str(second)]) == 0
    capsys.readouterr()
    ok = first.read_bytes() == second.read_bytes()
    verdict(13, ok, f"figure 4 CSV runs byte-identical: {ok} "
                    f"({first.stat().st_size} bytes)")
    assert ok


# the lines of `gravent validate`, in order
VALIDATE_CHECKS = (
    "oracle equivalence (closed vs brute force)",
    "concurrence equals C^2+S^2",
    "concurrence identical across Bell states",
    "density matrices Hermitian, unit trace, PSD",
    "moment bound C^2+S^2 <= 1",
    "spin_rep homomorphism",
    "product integral vs closed-form rotation",
    "radial-geodesic invariance (all Bell states)",
    "frame transform preserves the Minkowski metric",
    "angle zeros are roots of 2z^2 - 3z + 4xi2",
    "fast sweep rows in s match trig_moments in x",
)


def test_criterion_14_validate_checks(oracle_report):
    # the list `gravent validate` prints, graded on this suite's 100 draws;
    # criteria 01-13 state their own bounds independently
    checks = validation_checks(oracle_report)
    failed = [f"{name} ({detail})" for name, passed, detail in checks if not passed]
    verdict(14, not failed and len(checks) == 11,
            f"{len(checks) - len(failed)} of {len(checks)} validate checks pass"
            + (f"; failed: {failed}" if failed else ""))
    assert tuple(name for name, _, _ in checks) == VALIDATE_CHECKS
    assert not failed
