import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import gravent.entanglement as entanglement
import gravent.experiments as experiments
from gravent.cli import main
from gravent.entanglement import QuadConfig
from gravent import (
    AssertionFailure,
    BELL_STATES,
    CHI2,
    CHI4,
    DomainError,
    MomentumDistribution,
    OrbitParams,
    SweepSpec,
    TrigMoments,
    batch_reduced_density_bruteforce,
    density_matrix_diagnostics,
    figure_preset,
    find_entanglement_minima,
    frame_comparison,
    momentum_factor,
    oracle_equivalence_report,
    radial_invariance_check,
    random_orbit_params,
    resolve_sweep,
    reduced_density_bruteforce,
    reduced_density_closed,
    run_sweep,
    sweep_point,
    theta_amplitude,
    theta_circular,
    trig_moments,
    wootters_concurrence,
)


def small_spec(**overrides):
    base = dict(variable="z", lo=1.0, hi=3.5, samples=60,
                fixed=OrbitParams(0.16, 2.0, 0.6, 1.0, 5.0))
    base.update(overrides)
    return SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(DomainError):
        small_spec(variable="mass")
    with pytest.raises(DomainError):
        small_spec(lo=2.0, hi=2.0)
    with pytest.raises(DomainError):
        small_spec(samples=1)
    for lo, hi in ((math.nan, 3.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 3.0)):
        with pytest.raises(DomainError, match="finite"):
            small_spec(lo=lo, hi=hi)


# every flag a row can carry: z <= 0 is domain, z = 0.5 sits on the
# near-degenerate zero of z^2 - z + xi2 (horizon), and the wide packet
# (beta = 30) keeps the contour shift within 0.7/beta of the real line, so
# its rows run into the interval cap with bad and with acceptable residuals
EVERY_FLAG_SPEC = SweepSpec("z", 0.0, 1.0, 401, OrbitParams(0.25 + 1e-12, 1.0, 0.6, 30.0, 5.0))


@pytest.mark.parametrize("quad", [QuadConfig(), QuadConfig(256)], ids=["default", "256"])
@pytest.mark.parametrize("stationary_phase", [False, True])
def test_batched_sweep_equals_row_by_row(monkeypatch, quad, stationary_phase):
    # run_sweep's one batched quadrature gives every row bit for bit what
    # sweep_point gives it alone
    monkeypatch.setattr(entanglement, "DEFAULT_QUAD", quad)
    flags_seen = set()
    for spec in [figure_preset(n) for n in range(1, 7)] + [EVERY_FLAG_SPEC]:
        spec, _ = resolve_sweep(spec)
        rows = run_sweep(spec, stationary_phase)
        grid = np.linspace(spec.lo, spec.hi, spec.samples)
        assert rows == [sweep_point(spec, float(x), stationary_phase) for x in grid]
        flags_seen.update(f for row in rows for f in row.flags)
    assert {"horizon", "domain", "no-convergence", "reduced-tolerance"} <= flags_seen


def test_figure_presets_fields():
    f1 = figure_preset(1)
    assert (f1.variable, f1.lo, f1.hi, f1.samples) == ("q", 0.0, 20.0, 400)
    assert (f1.fixed.xi2, f1.fixed.z, f1.fixed.beta, f1.fixed.tau_ratio) == (
        0.265, 1.6, 1.0, 5.0)
    f2 = figure_preset(2)
    assert f2.fixed.beta == 4.0
    assert (f2.fixed.xi2, f2.fixed.z, f2.fixed.tau_ratio) == (0.265, 1.6, 5.0)
    f3 = figure_preset(3)
    assert f3.variable == "tau_ratio"
    assert (f3.lo, f3.hi) == (0.0, 30.0)
    assert (f3.fixed.xi2, f3.fixed.z, f3.fixed.q, f3.fixed.beta) == (
        0.265, 1.6, 0.6, 1.0)
    f4 = figure_preset(4)
    assert f4.variable == "z"
    assert (f4.fixed.xi2, f4.fixed.q, f4.fixed.beta, f4.fixed.tau_ratio) == (
        0.16, 0.6, 1.0, 5.0)
    assert f4.lo == 0.8  # outer horizon; resolution clamps just above
    f5 = figure_preset(5)
    assert (f5.fixed.xi2, f5.fixed.q, f5.fixed.beta, f5.fixed.tau_ratio) == (
        0.265, 0.6, 1.0, 5.0)
    f6 = figure_preset(6)
    assert f6.fixed.xi2 == 0.5
    with pytest.raises(DomainError):
        figure_preset(7)


def test_resolve_sweep_clamps_horizon():
    resolved, notes = resolve_sweep(figure_preset(4))
    assert resolved.lo == pytest.approx(0.801, abs=1e-12)
    assert len(notes) == 1 and "clamped" in notes[0]
    # naked singularity needs no clamp
    resolved, notes = resolve_sweep(figure_preset(6))
    assert resolved.lo == 0.0
    assert notes == ()
    # q sweeps are untouched
    resolved, notes = resolve_sweep(figure_preset(1))
    assert notes == ()


def test_sweep_rows_ascending_and_deterministic():
    spec = small_spec(samples=24)
    rows1 = run_sweep(spec)
    rows2 = run_sweep(spec)
    assert [r.x for r in rows1] == sorted(r.x for r in rows1)
    assert rows1 == rows2


def test_zero_time_row_is_pure():
    spec = SweepSpec("tau_ratio", 0.0, 1.0, 4,
                     OrbitParams(0.16, 1.6, 0.6, 1.0, 0.0))
    rows = run_sweep(spec)
    assert rows[0].x == 0.0
    assert rows[0].E == pytest.approx(1.0, abs=1e-6)
    assert rows[0].concurrence == pytest.approx(1.0, abs=1e-8)


def test_zero_angle_row_is_exactly_pure():
    # each estimate is normalized by the rule's own weight sum, so the
    # tau = 0 row of figure 3 prints exactly 1
    row = run_sweep(figure_preset(3))[0]
    assert (row.x, row.C, row.S, row.concurrence, row.E) == (0.0, 1.0, 0.0, 1.0, 1.0)


def test_sweep_point_flags():
    spec = small_spec()
    row = sweep_point(spec, 0.5)  # between the horizons
    assert row.flags == ("horizon",)
    assert math.isnan(row.E)
    row = sweep_point(spec, 0.5, stationary_phase=True)
    assert row.flags == ("horizon", "stationary-phase")
    assert row.E == 0.0 and row.C == 0.0 and row.S == 0.0
    row = sweep_point(spec, -1.0)
    assert row.flags == ("domain",)
    # the rapid oscillation near the outer horizon is damped on the shifted
    # contour and computed; a wide packet there still fails convergence
    row = sweep_point(spec, 0.8 + 1e-6)
    assert row.flags == () and 0.0 <= row.E < 1e-12
    wide = replace(spec, fixed=replace(spec.fixed, beta=50.0))
    row = sweep_point(wide, 0.8 + 1e-6)
    assert row.flags == ("no-convergence",)
    row = sweep_point(wide, 0.8 + 1e-6, stationary_phase=True)
    assert row.flags == ("no-convergence", "stationary-phase")
    assert row.E == 0.0


@pytest.mark.parametrize("n", range(1, 7))
def test_preset_rows_report_moment_norm_as_concurrence(n):
    # sweeps report K = C^2 + S^2 directly; Wootters on the closed-form rho
    # is the oracle, sampled on every 10th computed row (near-horizon rows
    # with small K included).  C*C, not C**2: libm's pow is not correctly
    # rounded and differs from the product in the last bit on some rows.
    computed = [row for row in run_sweep(figure_preset(n)) if math.isfinite(row.C)]
    assert computed
    for row in computed:
        assert row.concurrence == row.C * row.C + row.S * row.S
    for row in computed[::10]:
        moments = TrigMoments(row.C, row.S)
        for chi in BELL_STATES:
            conc = wootters_concurrence(reduced_density_closed(chi, moments))
            assert abs(conc - row.concurrence) < 1e-12, (n, row.x, chi.tag)


def test_sweep_concurrence_never_exceeds_one():
    # a narrow packet leaves C^2 + S^2 one rounding above 1 on most rows of
    # preset 5's orbit; the printed concurrence is the one E is taken of
    spec = figure_preset(5)
    rows = run_sweep(replace(spec, fixed=replace(spec.fixed, beta=1e-9)))
    computed = [row for row in rows if not row.flags]
    assert len(computed) == 399
    assert all(row.concurrence <= 1.0 for row in computed)


def test_z_and_tau_rows_of_equal_amplitude_collapse():
    # Theta = A M(q, p) with A = 2 pi tau R(z): at fixed (q, beta), a z-row
    # and a tau-row of equal A have equal K whatever z and tau are
    def radial(z, xi2):
        return (2 * z * z - 3 * z + 4 * xi2) / (2 * z * z * math.sqrt(z * z - z + xi2))

    z_spec = figure_preset(5)
    xi2, tau = z_spec.fixed.xi2, z_spec.fixed.tau_ratio
    tau_spec = SweepSpec("tau_ratio", 0.0, 1.0, 2, replace(z_spec.fixed, z=1.6))
    checked = 0
    for row in run_sweep(z_spec)[::7]:
        if row.flags:  # z = 0
            continue
        tau_row = sweep_point(tau_spec, tau * radial(row.x, xi2) / radial(1.6, xi2))
        if tau_row.flags:  # tau < 0: A < 0 between the angle's zeros
            continue
        assert abs(tau_row.concurrence - row.concurrence) <= 1e-12, row.x
        checked += 1
    assert checked == 54


def test_oracle_report_rejects_zero_draws():
    with pytest.raises(DomainError):
        oracle_equivalence_report(draws=0)


def test_find_minima_fig4_like_range():
    spec = small_spec(lo=1.3, hi=3.5, samples=90)
    minima = find_entanglement_minima(spec)
    assert len(minima) == 1
    z_min, e_min = minima[0]
    assert z_min == pytest.approx(2.2864, abs=0.05)
    assert 0.0 < e_min < 1.0


def test_find_minima_requires_z_sweep():
    with pytest.raises(DomainError):
        find_entanglement_minima(figure_preset(1))


def test_find_minima_ignores_flat_zero_stretches():
    # refused rows near the horizon must not register as spurious dips
    spec = small_spec(lo=0.85, hi=1.35, samples=40)
    minima = find_entanglement_minima(spec)
    assert minima == []


def test_radial_invariance_all_bells():
    for chi in BELL_STATES:
        report = radial_invariance_check(chi)
        assert report.bell_tag == chi.tag
        assert abs(report.rotation_angle) < 1e-14
        assert report.max_deviation < 1e-10


def test_radial_invariance_negative_control():
    spoiled = np.zeros((3, 3))
    spoiled[0, 2] = 0.15
    spoiled[2, 0] = -0.15
    with pytest.raises(AssertionFailure):
        radial_invariance_check(CHI2, rate_fn=lambda tau: spoiled)


def test_radial_invariance_respects_distribution():
    report = radial_invariance_check(
        CHI4, dist=MomentumDistribution(q=-0.4, beta=2.0))
    assert report.max_deviation < 1e-10


def test_frame_comparison_rows():
    rows = frame_comparison([1.0, 1.5, 3.0, 10.0], q=1.0, p=0.0)
    at_horizon, at_photon, mid, far = rows
    assert math.isnan(at_horizon.static_rate)
    assert at_horizon.flags == ("static-divergent",)
    assert at_horizon.kruskal_rate == pytest.approx(
        math.exp(-0.5) * 2.0, abs=1e-12)  # M(1, 0) = 2
    assert at_photon.static_rate == 0.0
    assert "static-zero" in at_photon.flags
    assert at_photon.kruskal_rate != 0.0
    assert not mid.flags
    assert abs(far.static_rate) < abs(mid.static_rate)
    assert abs(far.kruskal_rate) < abs(mid.kruskal_rate)


def test_frame_comparison_marks_near_horizon_divergence():
    rows = frame_comparison([1.0 + 1e-8], q=1.0, p=0.0)
    assert rows[0].flags == ("static-divergent",)
    assert abs(rows[0].static_rate) > 1e3


def test_random_orbit_params_always_valid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        params = random_orbit_params(rng)  # constructor validates
        assert params.beta > 0
        assert params.tau_ratio >= 0


def test_far_field_recovery():
    # entanglement climbs back toward 1 as the orbit recedes
    values = [sweep_point(figure_preset(4), z).E for z in (6.0, 50.0, 500.0)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 0.999


def test_oracle_equivalence_report_small():
    report = oracle_equivalence_report(draws=8, seed=123)
    assert report["max_entry_deviation"] < 1e-8
    assert report["max_concurrence_vs_moments"] < 1e-8
    assert report["max_cross_bell_spread"] < 1e-10
    assert report["max_hermiticity"] < 1e-12
    assert report["max_trace_error"] < 1e-10
    assert report["min_eigenvalue"] > -1e-10
    assert report["max_moment_norm"] <= 1.0


# The reports as the oracle computed them one draw, one Bell state and one
# matrix at a time; the array passes must give every value to the bit.
ORACLE_GOLDENS = {
    (100, 20240808): {
        "draws": 100,
        "max_entry_deviation": 5.551115123125783e-16,
        "max_concurrence_vs_moments": 2.7755575615628914e-15,
        "max_cross_bell_spread": 3.552713678800501e-15,
        "max_hermiticity": 1.1102230246251565e-16,
        "max_trace_error": 8.881784197001252e-16,
        "min_eigenvalue": -2.509596400043492e-16,
        "max_moment_norm": 0.9999972833062007,
    },
    (8, 123): {
        "draws": 8,
        "max_entry_deviation": 5.551115123125783e-16,
        "max_concurrence_vs_moments": 2.3314683517128287e-15,
        "max_cross_bell_spread": 2.886579864025407e-15,
        "max_hermiticity": 5.551115123125783e-17,
        "max_trace_error": 8.881784197001252e-16,
        "min_eigenvalue": -3.0570795410628934e-16,
        "max_moment_norm": 0.9999966098431715,
    },
}


@pytest.mark.parametrize("draws,seed", sorted(ORACLE_GOLDENS))
def test_oracle_report_keeps_its_bits(draws, seed):
    assert oracle_equivalence_report(draws, seed) == ORACLE_GOLDENS[draws, seed]


# Sweeps off the presets, with their digests of repr(run_sweep(spec, sp))
# as the code computed them before the rows were computed as arrays; the
# goldens in demos/out cover only the six presets.
SEEDED_SPECS = {
    # two horizons: the lower edge is clamped just above z+ = 0.8
    "z-two-horizons": SweepSpec("z", 0.3, 3.1, 71, OrbitParams(0.16, 2.0, 0.45, 0.8, 4.2)),
    # just naked: z <= 0 is domain, the near-zero of z^2 - z + xi2 is
    # horizon, and the wide packet brings rows to the cap
    "z-near-degenerate": SweepSpec("z", -0.4, 1.6, 81,
                                   OrbitParams(0.25 + 1e-11, 1.0, 0.7, 20.0, 3.5)),
    # naked with two angle zeros, negative momentum, wide packet
    "z-naked-zeros": SweepSpec("z", 0.0, 4.5, 61, OrbitParams(0.27, 2.0, -0.55, 2.5, 6.0)),
    # naked without zeros, out to the far field
    "z-naked-far": SweepSpec("z", 0.2, 40.0, 53, OrbitParams(0.45, 2.0, 1.4, 0.6, 8.0)),
    # tau < 0 is domain
    "tau-negative-start": SweepSpec("tau_ratio", -3.0, 25.0, 57,
                                    OrbitParams(0.2, 1.35, 0.8, 0.9, 0.0)),
    # close to the outer horizon the angle turns fast and most rows are shifted
    "tau-near-horizon": SweepSpec("tau_ratio", 0.0, 12.0, 41,
                                  OrbitParams(0.16, 0.83, 0.5, 1.1, 0.0)),
    # through q = 0, both signs
    "q-both-signs": SweepSpec("q", -6.0, 9.0, 49, OrbitParams(0.24, 1.7, 0.0, 1.6, 3.0)),
    # |q| > 1e8 is domain
    "q-past-max": SweepSpec("q", -2.5e8, 2.5e8, 9, OrbitParams(0.1, 3.0, 0.0, 0.7, 2.0)),
}
SEEDED_DIGESTS = {
    ("z-two-horizons", False): "df27e6e264520ac80f18cc1dd3d5ee94a5071f1003022723611be2c0aac54c7e",
    ("z-two-horizons", True): "df27e6e264520ac80f18cc1dd3d5ee94a5071f1003022723611be2c0aac54c7e",
    ("z-near-degenerate", False): "a8bef519483d96b0394577dbabc7d4844b8267be36c09e6662e2562e77ab8f6f",
    ("z-near-degenerate", True): "ce15ed53d5ae127129568e1b92d53f132eadae076dcf3c4e125fd2a9bc969976",
    ("z-naked-zeros", False): "1d9d3ab414e059e8b301c1bddeb6425a837cc73803c28c77617053fef9440b19",
    ("z-naked-zeros", True): "1d9d3ab414e059e8b301c1bddeb6425a837cc73803c28c77617053fef9440b19",
    ("z-naked-far", False): "e92ba6ce622b9657db375f4d90e1591c21e38400928a6201125f64b0d329576c",
    ("z-naked-far", True): "e92ba6ce622b9657db375f4d90e1591c21e38400928a6201125f64b0d329576c",
    ("tau-negative-start", False): "cf02f573bdf74e493afab192a531e194c819ff7587d15bbccdb0d1daeb7e1f47",
    ("tau-negative-start", True): "cf02f573bdf74e493afab192a531e194c819ff7587d15bbccdb0d1daeb7e1f47",
    ("tau-near-horizon", False): "9517e2e02166132e6519453113464ec3bfe1a24031c9d5258d6c57f79d58ca4b",
    ("tau-near-horizon", True): "9517e2e02166132e6519453113464ec3bfe1a24031c9d5258d6c57f79d58ca4b",
    ("q-both-signs", False): "32bff3e83864db0165d5059f17f3d825489b1870821ee35ed76852972f8f86ad",
    ("q-both-signs", True): "32bff3e83864db0165d5059f17f3d825489b1870821ee35ed76852972f8f86ad",
    ("q-past-max", False): "5e31edf3b279cd872cbd912f8d6c1944b7ac6624487e477d916885fc3ef11a86",
    ("q-past-max", True): "5e31edf3b279cd872cbd912f8d6c1944b7ac6624487e477d916885fc3ef11a86",
}


@pytest.mark.parametrize("name,stationary_phase", sorted(SEEDED_DIGESTS))
def test_seeded_sweeps_keep_their_bytes(name, stationary_phase):
    rows = run_sweep(SEEDED_SPECS[name], stationary_phase)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == SEEDED_DIGESTS[name, stationary_phase]


@pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2])
def test_small_kappa_law(tau):
    # Theta = A q gamma^2 - kappa u(p) with kappa = A q^2 gamma and
    # u(p) = p / (sqrt(p^2 + 1) + 1), so 1 - K = kappa^2 Var_w(u) + O(kappa^4);
    # at preset 3's orbit Var_w(u) = 0.0675842 and kappa ~ 6e-5 ... 6e-3
    spec = figure_preset(3)
    q, beta = spec.fixed.q, spec.fixed.beta
    weight = lambda p: math.exp(-((p - q) / beta) ** 2) / (math.sqrt(math.pi) * beta)
    u = lambda p: p / (math.sqrt(p * p + 1.0) + 1.0)
    lo, hi = q - 12.0 * beta, q + 12.0 * beta
    mean = quad(lambda p: weight(p) * u(p), lo, hi, epsabs=0.0, epsrel=1e-13)[0]
    var = quad(lambda p: weight(p) * (u(p) - mean) ** 2, lo, hi,
               epsabs=0.0, epsrel=1e-13)[0]
    kappa = theta_amplitude(replace(spec.fixed, tau_ratio=tau)) * q * q * math.sqrt(q * q + 1.0)
    row = sweep_point(spec, tau)
    assert row.flags == ()
    assert abs((1.0 - row.concurrence) / (kappa * kappa * var) - 1.0) < 1e-5


def test_sweep_rows_build_no_orbit_params(monkeypatch):
    # the grid is checked by masks and its amplitude is one array
    # expression, not one validated OrbitParams per row
    spec = figure_preset(4)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return OrbitParams(*args, **kwargs)

    monkeypatch.setattr(experiments, "OrbitParams", counted)
    rows = run_sweep(spec)
    assert len(rows) == 400 and calls == []


def test_stacked_oracle_gives_the_bits_of_one_matrix_calls():
    # the brute-force tensor of all draws in one pass, contracted with the
    # four Bell states on the stack, and Wootters and the hygiene numbers
    # on stacked matrices, against the one-row, one-matrix calls
    rng = np.random.default_rng(20240808)
    params = [random_orbit_params(rng) for _ in range(100)]
    amplitude = np.array([theta_amplitude(p) for p in params])
    brute = batch_reduced_density_bruteforce(
        amplitude, momentum_factor, [p.q for p in params], [p.beta for p in params])
    closed, one_brute = [], []
    for p in params:
        theta_fn = lambda mom: theta_circular(p, mom)
        dist = MomentumDistribution(p.q, p.beta)
        moments = trig_moments(theta_fn, dist)
        closed.append([reduced_density_closed(chi, moments) for chi in BELL_STATES])
        one_brute.append([reduced_density_bruteforce(chi, theta_fn, dist)
                          for chi in BELL_STATES])
    closed = np.array(closed)
    assert brute.shape == closed.shape == (100, 4, 4, 4)
    assert np.array_equal(brute, np.array(one_brute))
    for stack in (closed, brute):
        singles = stack.reshape(-1, 4, 4)
        conc = wootters_concurrence(stack)
        assert conc.shape == (100, 4)
        assert np.array_equal(conc.ravel(), [wootters_concurrence(r) for r in singles])
        diag = density_matrix_diagnostics(stack)
        for name in ("hermiticity", "trace_error", "min_eigenvalue"):
            assert np.array_equal(getattr(diag, name).ravel(),
                                  [getattr(density_matrix_diagnostics(r), name)
                                   for r in singles]), name


def test_oracle_runs_one_quadrature_per_draw_and_one_for_the_tensor(monkeypatch):
    calls = []
    real = entanglement._adaptive_average

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(entanglement, "_adaptive_average", counted)
    oracle_equivalence_report(draws=100)
    assert len(calls) <= 101


def test_oracle_catches_a_wrong_closed_form(monkeypatch, capsys):
    # flipping the sign of the Y = 2CS cross terms of chi2 and chi3 (the
    # entries pairing {|01>, |10>} with {|00>, |11>}) must not survive the
    # batched comparison
    real = experiments.reduced_density_closed
    odd = np.array([0, 1, 1, 0])
    cross = odd[:, None] != odd[None, :]

    def wrong(bell, moments):
        rho = real(bell, moments)
        return np.where(cross, -rho, rho)

    monkeypatch.setattr(experiments, "reduced_density_closed", wrong)
    assert oracle_equivalence_report(draws=5)["max_entry_deviation"] > 1e-8
    assert main(["validate", "--draws", "5"]) == 1
    assert "FAIL  oracle equivalence" in capsys.readouterr().out
