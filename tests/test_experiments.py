import hashlib
import math
import random
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.integrate import quad

import gravent.entanglement as entanglement
import gravent.experiments as experiments
from gravent.cli import main
from gravent.entanglement import TOL, QuadConfig, _line_depth
from gravent.roots import MAX_COUNT
from gravent import (
    AssertionFailure,
    BELL_STATES,
    ChargedBlackHole,
    ConvergenceError,
    CHI2,
    CHI4,
    DomainError,
    GraventError,
    MomentumDistribution,
    OrbitParams,
    SweepRow,
    SweepSpec,
    TrigMoments,
    batch_reduced_density_bruteforce,
    batch_trig_moments,
    density_matrix_diagnostics,
    entanglement_of_formation,
    figure_preset,
    find_entanglement_minima,
    frame_comparison,
    lambda_radial,
    momentum_factor,
    oracle_equivalence_report,
    product_integral,
    radial_invariance_check,
    random_orbit_params,
    resolve_sweep,
    reduced_density_bruteforce,
    reduced_density_closed,
    run_sweep,
    theta_amplitude,
    theta_circular,
    trig_moments,
    wigner_rate,
    wootters_concurrence,
)
from gravent.experiments import _FAST_ROWS, _sweep_rows


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


# z <= 0 is domain and z = 0.5 sits on the near-degenerate zero of
# z^2 - z + xi2 (horizon); the very wide packets next to the angle's zero
# at z = 1 need up to 512 intervals, so a lower cap brings rows to it with
# acceptable residuals (reduced-tolerance) and with bad ones
# (no-convergence)
EVERY_FLAG_SPECS = tuple(SweepSpec("z", 0.0, 1.0, 401, OrbitParams(0.25 + 1e-12, 1.0, 0.6, beta, 5.0))
                         for beta in (80.0, 200.0))


@pytest.mark.parametrize("quad", [QuadConfig(), QuadConfig(256)], ids=["default", "256"])
@pytest.mark.parametrize("stationary_phase", [False, True])
def test_batched_sweep_equals_row_by_row(monkeypatch, quad, stationary_phase):
    # run_sweep's one batched quadrature gives every row bit for bit what
    # a one-point grid gives it alone; at the default cap every row outside
    # domain and horizon is computed, and the lower cap brings rows to it
    monkeypatch.setattr(entanglement, "DEFAULT_QUAD", quad)
    flags_seen = set()
    for spec in [figure_preset(n) for n in range(1, 7)] + list(EVERY_FLAG_SPECS):
        spec, _ = resolve_sweep(spec)
        rows = run_sweep(spec, stationary_phase)
        grid = np.linspace(spec.lo, spec.hi, spec.samples)
        assert rows == [_sweep_rows(spec, [float(x)], stationary_phase)[0] for x in grid]
        flags_seen.update(f for row in rows for f in row.flags)
    at_cap = {"no-convergence", "reduced-tolerance"}
    assert {"horizon", "domain"} <= flags_seen
    assert at_cap <= flags_seen if quad.max_nodes < 2048 else not at_cap & flags_seen


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


def test_sweep_point_flags(monkeypatch):
    spec = small_spec()
    row = _sweep_rows(spec, [0.5], False)[0]  # between the horizons
    assert row.flags == ("horizon",)
    assert math.isnan(row.E)
    row = _sweep_rows(spec, [0.5], True)[0]
    assert row.flags == ("horizon", "stationary-phase")
    assert row.E == 0.0 and row.C == 0.0 and row.S == 0.0
    row = _sweep_rows(spec, [-1.0], False)[0]
    assert row.flags == ("domain",)
    # the rapid oscillation near the outer horizon is damped on the line in
    # s = asinh p and computed, in a wide packet too
    for beta in (1.0, 50.0):
        wide = replace(spec, fixed=replace(spec.fixed, beta=beta))
        row = _sweep_rows(wide, [0.8 + 1e-6], False)[0]
        assert row.flags == () and 0.0 <= row.E < 1e-12
    # a shifted row of a very wide packet is computed; a cap of 128 intervals
    # leaves it unconverged (at z = 0.99 the row turns slowly enough for the
    # real line, where 128 intervals resolve it)
    assert _sweep_rows(EVERY_FLAG_SPECS[1], [0.98], False)[0].flags == ()
    monkeypatch.setattr(entanglement, "DEFAULT_QUAD", QuadConfig(128))
    row = _sweep_rows(EVERY_FLAG_SPECS[1], [0.98], False)[0]
    assert row.flags == ("no-convergence",)
    row = _sweep_rows(EVERY_FLAG_SPECS[1], [0.98], True)[0]
    assert row.flags == ("no-convergence", "stationary-phase")
    assert row.E == 0.0


def test_validates_fast_rows_run_on_shifted_lines():
    # validate's "fast sweep rows in s" check holds rows on a shifted line to
    # the oracle in x; a line rule that moved one to the real line would turn
    # it into a check of the real line
    for n, qs in _FAST_ROWS.items():
        spec = figure_preset(n)
        q = np.array(qs)
        amplitude = np.array([theta_amplitude(replace(spec.fixed, q=x)) for x in qs])
        depth = _line_depth(amplitude * q * q * np.sqrt(q * q + 1.0), q, spec.fixed.beta)
        assert (depth != 0.0).all(), (n, depth)


def test_sweep_row_is_an_immutable_record():
    row = SweepRow(0.5, 1.0, 0.0, 1.0, 1.0)
    assert repr(row) == "SweepRow(x=0.5, C=1.0, S=0.0, concurrence=1.0, E=1.0, flags=())"
    with pytest.raises(AttributeError):
        row.E = 0.0
    assert row == SweepRow(0.5, 1.0, 0.0, 1.0, 1.0, ()) and hash(row) == hash(SweepRow(*row))


def test_sweep_tail_is_one_array_pass(monkeypatch):
    # K and E are computed as arrays over the computed rows, E in one
    # entanglement_of_formation call per sweep, whatever the share of
    # refused rows; a RuntimeWarning fails the suite (pyproject.toml)
    calls = []

    def counted(conc):
        calls.append(np.shape(conc))
        return entanglement_of_formation(conc)

    monkeypatch.setattr(experiments, "entanglement_of_formation", counted)
    spec = figure_preset(5)
    for stationary_phase in (False, True):
        rows = run_sweep(SweepSpec("z", 1e200, 1e201, 7, spec.fixed), stationary_phase)
        assert [row.flags for row in rows] == [("domain",)] * 7
        assert all(math.isnan(v) for row in rows for v in row[1:5])
        row = _sweep_rows(spec, [0.0], stationary_phase)[0]
        assert row.flags == ("domain",) and math.isnan(row.E)
    rows = run_sweep(spec)
    # preset 5's z = 0 row is refused in place
    assert len(rows) == 400 and rows[0].x == 0.0 and rows[0].flags == ("domain",)
    assert all(row.flags == () for row in rows[1:])
    assert all(type(v) is float for row in rows for v in row[:5])
    assert _sweep_rows(spec, [rows[200].x], False)[0] == rows[200]
    assert calls == [(0,), (0,), (0,), (0,), (399,), (1,)]


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
        tau_x = tau * radial(row.x, xi2) / radial(1.6, xi2)
        tau_row = _sweep_rows(tau_spec, [tau_x], False)[0]
        if tau_row.flags:  # tau < 0: A < 0 between the angle's zeros
            continue
        assert abs(tau_row.concurrence - row.concurrence) <= 1e-12, row.x
        checked += 1
    assert checked == 54


def test_oracle_report_rejects_zero_draws():
    with pytest.raises(DomainError):
        oracle_equivalence_report(draws=0)


@pytest.mark.parametrize("call, message", [
    (lambda: product_integral(lambda tau: np.zeros((3, 3)), 0.0, 1.0, 2.5),
     "steps must be an integer, got 2.5"),
    (lambda: oracle_equivalence_report(1.5), "draws must be an integer, got 1.5"),
    (lambda: run_sweep(SweepSpec("q", 0.0, 1.0, 2.5, OrbitParams(0.16, 2.0, 0.6, 1.0, 5.0))),
     "samples must be an integer, got 2.5"),
], ids=["steps", "draws", "samples"])
def test_counts_must_be_integers(call, message):
    # each passed the table and then raised a bare TypeError from range or np.linspace
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda n: product_integral(lambda tau: np.zeros((3, 3)), 0.0, 1.0, n), "steps"),
    (lambda n: oracle_equivalence_report(n), "draws"),
    (lambda n: SweepSpec("q", 0.0, 1.0, n, OrbitParams(0.16, 2.0, 0.6, 1.0, 5.0)), "samples"),
], ids=["steps", "draws", "samples"])
def test_counts_are_bounded_above(call, name):
    # past the bound, arrays of the count's length ran out of memory
    with pytest.raises(DomainError, match=f"^{name} must be <= {MAX_COUNT}, got {MAX_COUNT + 1}$"):
        call(MAX_COUNT + 1)


def test_sweep_spec_calls_an_end_that_is_not_a_number_a_domain_error():
    # hi - lo was formed before any rule ran, and raised a bare TypeError
    with pytest.raises(DomainError, match=r"^lo must be a number, got '0'$"):
        SweepSpec("q", "0", 1.0, 3, OrbitParams(0.16, 2.0, 0.6, 1.0, 5.0))


def test_counts_take_what_stands_for_an_integer():
    spec = SweepSpec("q", 0.0, 1.0, np.int64(3), OrbitParams(0.16, 2.0, 0.6, 1.0, 5.0))
    assert [row.x for row in run_sweep(spec)] == [0.0, 0.5, 1.0]


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


def _grid_dips(spec):
    """(left, mid, right) of every strict dip of E among clean grid rows."""
    rows = run_sweep(spec)
    clean = [math.isfinite(r.E) and set(r.flags) <= {"reduced-tolerance"} for r in rows]
    return [rows[i - 1:i + 2] for i in range(1, len(rows) - 1)
            if clean[i - 1] and clean[i] and clean[i + 1]
            and rows[i].E < min(rows[i - 1].E, rows[i + 1].E) - 1e-8]


def _assert_refined(spec, minima, dips):
    # each minimum is a computed row inside its dip's bracket, no higher than the dip
    assert len(minima) == len(dips)
    for (z, e), (left, mid, right) in zip(minima, dips):
        assert left.x < z < right.x
        assert e == _sweep_rows(spec, [z], False)[0].E
        assert e <= mid.E


def _quartic_roots(xi2, lo, hi):
    """Real roots in (lo, hi) of R'(z) = 0, R the radial factor of Theta."""
    roots = np.roots([4.0, -14.0, 24.0 * xi2 + 9.0, -26.0 * xi2, 16.0 * xi2 * xi2])
    return sorted(r.real for r in roots if abs(r.imag) < 1e-9 and lo < r.real < hi)


def test_the_quartic_has_the_uncharged_root():
    assert _quartic_roots(0.0, 1.2, 6.0) == pytest.approx([(7.0 + math.sqrt(13.0)) / 4.0])


@pytest.mark.parametrize("spec", [
    figure_preset(4), figure_preset(5), figure_preset(6),
    SweepSpec("z", 1.2, 6.0, 400, OrbitParams(0.0, 2.0, 0.6, 1.0, 5.0)),
], ids=["figure4", "figure5", "figure6", "uncharged"])
def test_minima_lie_on_the_roots_of_the_quartic(spec):
    # K depends on z only through kappa, which is R(z) times constants, and a
    # narrow packet's E falls as |kappa| grows: its minima are the roots of
    # R'(z) = 0 (none at xi2 = 0.5)
    spec, _ = resolve_sweep(spec)
    minima = find_entanglement_minima(spec)
    roots = _quartic_roots(spec.fixed.xi2, spec.lo, spec.hi)
    assert len(minima) == len(roots)
    for (z, _), root in zip(minima, roots):
        assert abs(z - root) < 1e-6
    _assert_refined(spec, minima, _grid_dips(spec))


def test_minima_of_a_wide_packet_are_refined_in_their_brackets():
    # at beta = 4 |phi(kappa)| dips away from every root of the quartic
    spec = SweepSpec("z", 1.2, 6.0, 400, OrbitParams(0.0, 2.0, 0.6, 4.0, 40.0))
    minima = find_entanglement_minima(spec)
    assert len(minima) == 15
    _assert_refined(spec, minima, _grid_dips(spec))


def test_radial_invariance_all_bells():
    reports = radial_invariance_check(BELL_STATES)
    assert [report.bell_tag for report in reports] == [chi.tag for chi in BELL_STATES]
    for report in reports:
        # the derived rate along the fall is exactly 0.0, and so is the angle: +0.0,
        # which `radial-check` prints as 0.000e+00
        assert str(report.rotation_angle) == "0.0"
        assert report.max_deviation == 0.0


def test_radial_invariance_integrates_the_path_once(monkeypatch):
    calls = []
    real = experiments.lambda_radial
    monkeypatch.setattr(experiments, "lambda_radial",
                        lambda *args: calls.append(args) or real(*args))
    assert len(radial_invariance_check(BELL_STATES)) == 4
    # one call builds the generators of all 256 step midpoints
    [(_, radii, _)] = calls
    assert radii.shape == (256,)


def test_radial_invariance_negative_control():
    spoiled = np.zeros((3, 3))
    spoiled[0, 2] = 0.15
    spoiled[2, 0] = -0.15
    with pytest.raises(AssertionFailure, match="^chi2: "):
        radial_invariance_check([CHI2], rate_fn=lambda tau: spoiled)


def test_radial_invariance_fails_for_a_momentum_across_the_fall():
    # the same path, the packet's momentum turned onto the 3-axis
    model = ChargedBlackHole(0.0)
    across = lambda tau: wigner_rate(lambda_radial(model, 6.0 - 0.4 * tau, 0.4),
                                     (0.0, 0.0, 0.6))
    # chi1 is invariant under the same rotation of both spins, chi2 is not
    with pytest.raises(AssertionFailure, match="^chi2: entry .* deviates by 1.768e-02"):
        radial_invariance_check(BELL_STATES, rate_fn=across)


def test_radial_invariance_respects_distribution():
    [report] = radial_invariance_check(
        [CHI4], dist=MomentumDistribution(q=-0.4, beta=2.0))
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


def test_frame_comparison_rejects_an_empty_grid():
    with pytest.raises(DomainError, match="the radius grid is empty"):
        frame_comparison([], q=1.0, p=0.0)


@pytest.mark.parametrize("grid, shape", [([[2.0, 3.0]], "(1, 2)"), (2.0, "()"),
                                         (np.zeros((0, 2)), "(0, 2)")])
def test_frame_comparison_rejects_a_grid_that_is_not_one_dimensional(grid, shape):
    # a nested list raised a bare TypeError from abs() on a row of the grid
    with pytest.raises(DomainError, match=re.escape(
            f"the radius grid must be one-dimensional, got shape {shape}")):
        frame_comparison(grid, q=1.0, p=0.0)


def test_frame_comparison_rejects_a_ragged_grid():
    # numpy's bare ValueError, from making an array of the nesting
    with pytest.raises(DomainError, match="^the radius grid must be one-dimensional, of numbers: "):
        frame_comparison([[2.0], [3.0, 4.0]], 0.6, 0.3)


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
    values = [_sweep_rows(figure_preset(4), [z], False)[0].E for z in (6.0, 50.0, 500.0)]
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
        "max_concurrence_vs_moments": 2.4424906541753444e-15,
        "max_cross_bell_spread": 3.6637359812630166e-15,
        "max_hermiticity": 1.1102230246251565e-16,
        "max_trace_error": 8.881784197001252e-16,
        "min_eigenvalue": -2.531426156809424e-16,
        "max_moment_norm": 0.9999999515432286,
    },
    (8, 123): {
        "draws": 8,
        "max_entry_deviation": 3.885780586188048e-16,
        "max_concurrence_vs_moments": 1.4432899320127035e-15,
        "max_cross_bell_spread": 1.4432899320127035e-15,
        "max_hermiticity": 5.551115123125783e-17,
        "max_trace_error": 6.661338147750939e-16,
        "min_eigenvalue": -3.67938846523719e-16,
        "max_moment_norm": 0.9996032987611962,
    },
}


@pytest.mark.parametrize("draws,seed", sorted(ORACLE_GOLDENS))
def test_oracle_report_keeps_its_bits(draws, seed):
    assert oracle_equivalence_report(draws, seed) == ORACLE_GOLDENS[draws, seed]


def _report_one_orbit_at_a_time(orbits) -> dict:
    """The oracle's report, from one-row and one-matrix calls per orbit."""
    closed, brute, norms = [], [], []
    for orbit in map(OrbitParams, *orbits):
        theta_fn = lambda p: theta_circular(orbit, p)
        dist = MomentumDistribution(orbit.q, orbit.beta)
        moments = trig_moments(theta_fn, dist)
        norms.append(moments.C ** 2 + moments.S ** 2)
        closed.append([reduced_density_closed(chi, moments) for chi in BELL_STATES])
        brute.append([reduced_density_bruteforce(chi, theta_fn, dist) for chi in BELL_STATES])
    conc = np.array([[wootters_concurrence(rho) for rho in draw] for draw in closed])
    diag = [density_matrix_diagnostics(rho) for draw in closed + brute for rho in draw]
    return {
        "draws": len(norms),
        "max_entry_deviation": float(np.abs(np.array(closed) - np.array(brute)).max()),
        "max_concurrence_vs_moments": float(np.abs(conc - np.array(norms)[:, None]).max()),
        "max_cross_bell_spread": float((conc.max(axis=1) - conc.min(axis=1)).max()),
        "max_hermiticity": max(d.hermiticity for d in diag),
        "max_trace_error": max(d.trace_error for d in diag),
        "min_eigenvalue": min(d.min_eigenvalue for d in diag),
        "max_moment_norm": max(norms),
    }


# seeds past 2^32 and 2^64 fill more than one 32-bit word of the stream's
# initial key
@pytest.mark.parametrize("draws,seed", [(8, 123), (5, 20240808), (3, 0),
                                        (2, 2**64 + 3), (2, 2**200 + 12345)])
def test_oracle_reports_the_orbits_a_stdlib_stream_of_its_seed_gives(draws, seed):
    orbits = random_orbit_params(random.Random(seed), draws)
    assert oracle_equivalence_report(draws, seed) == _report_one_orbit_at_a_time(orbits)


def test_oracle_draws_depend_on_every_word_of_the_seed():
    # seeds equal in their low 64 bits give different samples
    seeds = (3, 2**64 + 3, 2**128 + 3, 2**200 + 3)
    norms = {oracle_equivalence_report(2, seed)["max_moment_norm"] for seed in seeds}
    assert len(norms) == len(seeds)


@pytest.mark.parametrize("seed", [0, 7, 20240808, 2**32 - 1, 2**128])
def test_random_orbit_params_one_draw_at_a_time_gives_the_columns_of_size(seed):
    columns, singles = random.Random(seed), random.Random(seed)
    batch = random_orbit_params(columns, 50)
    one_by_one = [random_orbit_params(singles) for _ in range(50)]
    assert batch.shape == (5, 50)
    assert [float(x).hex() for x in batch.T.ravel()] == \
        [float(x).hex() for p in one_by_one for x in astuple(p)]
    assert columns.getstate() == singles.getstate()


@pytest.mark.parametrize("seed, message", [
    (None, "seed must be a number, got None"),
    (-1, "seed must be >= 0, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    ("7", "seed must be a number, got '7'"),
    ([1, 2], "seed must be a number, got [1, 2]"),
    (np.array([1, 2]), "seed must be an integer, got [1 2]"),
], ids=["none", "negative", "float", "text", "sequence", "array"])
def test_oracle_seed_is_a_non_negative_integer(seed, message):
    # None drew from the OS's entropy, so the report could not be reproduced;
    # the others raised numpy's bare ValueError or TypeError, or were taken
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        oracle_equivalence_report(2, seed)


def test_oracle_seed_takes_what_stands_for_an_integer():
    assert oracle_equivalence_report(2, np.int64(5)) == oracle_equivalence_report(2, 5)


# Sweeps off the presets, with their digests of repr(run_sweep(spec, sp)),
# taken once every row was averaged in s = asinh p, and again once a row's
# line was chosen by the fastest turn in its packet, each time after the rows
# were held to the x oracle (test_sweep_rows_match_the_x_oracle) and to the
# references of test_quadrature; the goldens in demos/out cover only the six
# presets.  Taken again once E was formed from the smaller eigenvalue
# K^2/(2 (1 + sqrt(1 - K^2))): only E moved, by at most 4.5e-15.  Taken
# again once a row ran on the real line wherever that line's 128-interval
# rule clears its turn (_line_depth): 72 rows moved, C and S by at most 2.8e-16,
# K and E by at most 6.7e-16 and 8.9e-16, and no flag.
SEEDED_SPECS = {
    # two horizons: the lower edge is clamped just above z+ = 0.8
    "z-two-horizons": SweepSpec("z", 0.3, 3.1, 71, OrbitParams(0.16, 2.0, 0.45, 0.8, 4.2)),
    # just naked: z <= 0 is domain, the near-zero of z^2 - z + xi2 is
    # horizon, and the wide packet once brought 51 rows to the cap in x
    "z-near-degenerate": SweepSpec("z", -0.4, 1.6, 81,
                                   OrbitParams(0.25 + 1e-11, 1.0, 0.7, 20.0, 3.5)),
    # naked with two angle zeros, negative momentum, wide packet
    "z-naked-zeros": SweepSpec("z", 0.0, 4.5, 61, OrbitParams(0.27, 2.0, -0.55, 2.5, 6.0)),
    # naked without zeros, out to the far field
    "z-naked-far": SweepSpec("z", 0.2, 40.0, 53, OrbitParams(0.45, 2.0, 1.4, 0.6, 8.0)),
    # tau < 0 is domain
    "tau-negative-start": SweepSpec("tau_ratio", -3.0, 25.0, 57,
                                    OrbitParams(0.2, 1.35, 0.8, 0.9, 0.0)),
    # close to the outer horizon the angle turns fast and most rows run in s
    "tau-near-horizon": SweepSpec("tau_ratio", 0.0, 12.0, 41,
                                  OrbitParams(0.16, 0.83, 0.5, 1.1, 0.0)),
    # through q = 0, both signs
    "q-both-signs": SweepSpec("q", -6.0, 9.0, 49, OrbitParams(0.24, 1.7, 0.0, 1.6, 3.0)),
    # |q| > 1e8 is domain
    "q-past-max": SweepSpec("q", -2.5e8, 2.5e8, 9, OrbitParams(0.1, 3.0, 0.0, 0.7, 2.0)),
}
SEEDED_DIGESTS = {
    ("z-two-horizons", False): "897e9505d81a13daec93b6ab2175eb63b595ce68b8ae8b2fa4e20b4904b7063b",
    ("z-two-horizons", True): "897e9505d81a13daec93b6ab2175eb63b595ce68b8ae8b2fa4e20b4904b7063b",
    ("z-near-degenerate", False): "368c9f03c3957de06af84aed2354d64b9d806918cf871635e875161d039f25e0",
    ("z-near-degenerate", True): "f46792f4973833f323657decd2f994aa91dbd0e696187c38f593f56e758727f0",
    ("z-naked-zeros", False): "729f3799e15777ffc9a0e828711f1908e6bf7acbc8712968131937cec48d0de1",
    ("z-naked-zeros", True): "729f3799e15777ffc9a0e828711f1908e6bf7acbc8712968131937cec48d0de1",
    ("z-naked-far", False): "8836157f83fe909ae5f345ced8336050a959b88218e1d1e34257540f6c1d3254",
    ("z-naked-far", True): "8836157f83fe909ae5f345ced8336050a959b88218e1d1e34257540f6c1d3254",
    ("tau-negative-start", False): "a6b8ad45566e16d5801766d54092f59fbecad64670af7b8a7954dca724d4cb93",
    ("tau-negative-start", True): "a6b8ad45566e16d5801766d54092f59fbecad64670af7b8a7954dca724d4cb93",
    ("tau-near-horizon", False): "0bb9409a714a648c7c63e2b47c450552b5214ea1f9efc6e77aefdcd8b91ce1ae",
    ("tau-near-horizon", True): "0bb9409a714a648c7c63e2b47c450552b5214ea1f9efc6e77aefdcd8b91ce1ae",
    ("q-both-signs", False): "d50f4ce32ca8c87282d40b057543d00019570d2b87e998955ed3c02463c9204a",
    ("q-both-signs", True): "d50f4ce32ca8c87282d40b057543d00019570d2b87e998955ed3c02463c9204a",
    ("q-past-max", False): "5e31edf3b279cd872cbd912f8d6c1944b7ac6624487e477d916885fc3ef11a86",
    ("q-past-max", True): "5e31edf3b279cd872cbd912f8d6c1944b7ac6624487e477d916885fc3ef11a86",
}


@pytest.mark.parametrize("name,stationary_phase", sorted(SEEDED_DIGESTS))
def test_seeded_sweeps_keep_their_bytes(name, stationary_phase):
    rows = run_sweep(SEEDED_SPECS[name], stationary_phase)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == SEEDED_DIGESTS[name, stationary_phase]


def x_oracle(spec, x):
    """The oracle's moments of the sweep row at x: the real line in x = (p - q)/beta."""
    params = replace(spec.fixed, **{spec.variable: x})
    amplitude, q = theta_amplitude(params), params.q
    return trig_moments(lambda p: amplitude * momentum_factor(q, p),
                        MomentumDistribution(q, params.beta))


def real_line_rows(spec, stationary_phase):
    """The rows of run_sweep(spec, sp) that sweeps once averaged in x, as x gives them.

    Those are the rows refused before the quadrature (domain, horizon),
    kept as run_sweep gives them, and the rows whose phase turns at
    omega = |kappa| beta u'(q) < 4 per unit of x = (p - q)/beta, kappa =
    A q^2 gamma, u'(q) = 1/(gamma (gamma + 1)), rebuilt from x_oracle.
    """
    out = []
    for row in run_sweep(spec, stationary_phase):
        if row.flags[:1] in (("domain",), ("horizon",)):
            out.append(row)
            continue
        params = replace(spec.fixed, **{spec.variable: row.x})
        amplitude, q = np.float64(theta_amplitude(params)), np.float64(params.q)
        gamma = np.sqrt(q * q + 1.0)
        omega = np.abs(amplitude * q * q * gamma) * params.beta / (gamma * (gamma + 1.0))
        if omega < 4.0:
            m = x_oracle(spec, row.x)
            conc = min(m.C * m.C + m.S * m.S, 1.0)
            flags = ("reduced-tolerance",) if m.residual >= TOL else ()
            out.append(SweepRow(row.x, m.C, m.S, conc, entanglement_of_formation(conc), flags))
    return out


# (row count, digest of repr(real_line_rows(spec, sp))) of the six presets
# and SEEDED_SPECS, as the sweeps computed them while the fast rows were
# still averaged on a line shifted in x.  Sweeps now average every row in
# s = asinh p; the oracle's rule in x keeps every bit of those rows' C and S.
# Their E was taken again once formed from the smaller eigenvalue.
REAL_LINE_DIGESTS = {
    ("preset-1", False): (23, "d655eb60424b56a4c4ec3f2b58adf751e29e5d47b14ef17db32b0bd14ba7ecf5"),
    ("preset-1", True): (23, "d655eb60424b56a4c4ec3f2b58adf751e29e5d47b14ef17db32b0bd14ba7ecf5"),
    ("preset-2", False): (11, "3eedbb25d521bb08ddd1945ce6a3864aeb7d8ffc5ad52aa53a4200dc24ac26eb"),
    ("preset-2", True): (11, "3eedbb25d521bb08ddd1945ce6a3864aeb7d8ffc5ad52aa53a4200dc24ac26eb"),
    ("preset-3", False): (210, "ae5edc78db19ad27534183195720f65045ae3707bcd39fdd66c7c313d2520dc3"),
    ("preset-3", True): (210, "ae5edc78db19ad27534183195720f65045ae3707bcd39fdd66c7c313d2520dc3"),
    ("preset-4", False): (389, "7f97c2c9bcb134d9d833af6ad28d9112c96abdf2ea1ffeac56179c4146bbcef3"),
    ("preset-4", True): (389, "7f97c2c9bcb134d9d833af6ad28d9112c96abdf2ea1ffeac56179c4146bbcef3"),
    ("preset-5", False): (367, "68ae18fd7cd07445a8430fa6da51b8f5678536904dbb20a3b9e830e9d788c2f0"),
    ("preset-5", True): (367, "68ae18fd7cd07445a8430fa6da51b8f5678536904dbb20a3b9e830e9d788c2f0"),
    ("preset-6", False): (337, "b65bb828d323c1602f6a3e8f66e406c9342b287b4dbb9402df2cb5b3be37c09c"),
    ("preset-6", True): (337, "b65bb828d323c1602f6a3e8f66e406c9342b287b4dbb9402df2cb5b3be37c09c"),
    ("z-two-horizons", False): (69, "fda277fd7935a87ad4085c894f1bf48b2aa80ff59b71bb33710515e85fe688fb"),
    ("z-two-horizons", True): (69, "fda277fd7935a87ad4085c894f1bf48b2aa80ff59b71bb33710515e85fe688fb"),
    ("z-near-degenerate", False): (21, "088f3215013c6d91ded18b0b39d07f128a0f1c196565f984ce4f6c42c8f589a6"),
    ("z-near-degenerate", True): (21, "4bcaae20dbba5bac4e3d653225707ad7e7f32eb926a96dfaf8b9af2ce10484c6"),
    ("z-naked-zeros", False): (54, "5e88f2a07ba82afec6c74fe5532987091d2160e19fd08a82c85ef1cad98022f6"),
    ("z-naked-zeros", True): (54, "5e88f2a07ba82afec6c74fe5532987091d2160e19fd08a82c85ef1cad98022f6"),
    ("z-naked-far", False): (47, "d05c3280f0de3292869eab4b048662a88ab97100d244557b12032510197a53d0"),
    ("z-naked-far", True): (47, "d05c3280f0de3292869eab4b048662a88ab97100d244557b12032510197a53d0"),
    ("tau-negative-start", False): (45, "e37cb5e5a77b97cadbebe6017ab8bb6c8feb4c7b65d8d8954f3462daed9290bb"),
    ("tau-negative-start", True): (45, "e37cb5e5a77b97cadbebe6017ab8bb6c8feb4c7b65d8d8954f3462daed9290bb"),
    ("tau-near-horizon", False): (7, "ad526bf4a14e2ca149faa535a656d6fc5c8caf7391e77964977a68697915e624"),
    ("tau-near-horizon", True): (7, "ad526bf4a14e2ca149faa535a656d6fc5c8caf7391e77964977a68697915e624"),
    ("q-both-signs", False): (8, "22028d1f1227384da0350ed10d0b07314325dec1bb66db5338e335857c29d302"),
    ("q-both-signs", True): (8, "22028d1f1227384da0350ed10d0b07314325dec1bb66db5338e335857c29d302"),
    ("q-past-max", False): (7, "9dd09f3b3e37d5effb613559d4674f768753bffafa9feea7ea8dec4eb9199ac6"),
    ("q-past-max", True): (7, "9dd09f3b3e37d5effb613559d4674f768753bffafa9feea7ea8dec4eb9199ac6"),
}


@pytest.mark.parametrize("name,stationary_phase", sorted(REAL_LINE_DIGESTS))
def test_real_line_rows_keep_their_bytes(name, stationary_phase):
    spec = (figure_preset(int(name[-1])) if name.startswith("preset-")
            else SEEDED_SPECS[name])
    rows = real_line_rows(spec, stationary_phase)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (len(rows), digest) == REAL_LINE_DIGESTS[name, stationary_phase]


SWEEP_SPECS = {f"preset-{n}": figure_preset(n) for n in range(1, 7)} | SEEDED_SPECS


@pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
def test_sweep_rows_match_the_x_oracle(name):
    # every computed row, averaged in s = asinh p, against the oracle's
    # rule in x wherever that converges; rows whose angle turns too fast
    # for it are held to Cauchy's theorem in test_quadrature
    spec = SWEEP_SPECS[name]
    checked = 0
    for row in run_sweep(spec):
        if row.flags:
            continue
        try:
            m = x_oracle(spec, row.x)
        except ConvergenceError:
            continue
        if m.residual < TOL:
            assert max(abs(row.C - m.C), abs(row.S - m.S)) <= 1e-12, (name, row.x)
            checked += 1
    assert checked >= (50 if name.startswith("preset-") else 1), checked


@pytest.mark.parametrize("beta", [2.0 ** -23, 2.0 ** -30], ids=["2^-23", "2^-30"])
def test_narrow_packet_with_a_large_amplitude(beta):
    # Theta = A q gamma - kappa (u(p) - u(q)) with A q gamma up to ~1e9: an
    # angle written with that constant inside keeps only ~1e-7 of absolute
    # precision.  Every row is computed, and K is held to the oracle's rule
    # in x with the constant removed and u(p) - u(q) written without
    # subtraction.  beta is a power of two, so the oracle's momenta
    # q + beta x are exact and its own rounding stays below 1e-12
    spec = SweepSpec("tau_ratio", 0.0, 4e8, 41, OrbitParams(0.265, 1.6, 1.0, beta, 0.0))
    q = spec.fixed.q
    gamma = math.sqrt(q * q + 1.0)

    def du(p):
        gamma_p = np.sqrt(p * p + 1.0)
        return ((p - q) * (1.0 + (p + q) / (p * gamma + q * gamma_p))
                / ((gamma_p + 1.0) * (gamma + 1.0)))

    rows = run_sweep(spec)
    assert all(row.flags == () for row in rows)
    for row in rows:
        kappa = theta_amplitude(replace(spec.fixed, tau_ratio=row.x)) * q * q * gamma
        m = trig_moments(lambda p: -kappa * du(p), MomentumDistribution(q, beta))
        assert abs(row.concurrence - (m.C * m.C + m.S * m.S)) <= 1e-12, row.x


@pytest.mark.parametrize("beta", [1e-150, 1e-20, 1e6, 1e8])
def test_packets_far_from_unit_width_are_computed(beta):
    # the line in s is written about asinh q: at beta = 1e-20 and at the
    # floor 1e-150 the packet lies below the rounding of q and every row
    # is its centre's (K = 1);
    # at beta = 1e6 and 1e8, with q up to beta, the line reaches e^t ~
    # e^{-20} and an end lies ~40 below asinh q, where e^{offset} - 1
    # rounds to -1
    spec = figure_preset(2)
    rows = run_sweep(replace(spec, hi=max(spec.hi, beta), samples=60,
                             fixed=replace(spec.fixed, beta=beta)))
    assert all(row.flags == () and 0.0 <= row.concurrence <= 1.0 for row in rows)
    if beta < 1.0:
        assert all(abs(row.concurrence - 1.0) <= 1e-15 for row in rows)


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
    row = _sweep_rows(spec, [tau], False)[0]
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
    # every draw's moments and brute-force tensor in one pass each, the
    # tensor contracted with the four Bell states on the stack, and Wootters
    # and the hygiene numbers on stacked matrices, against the one-row,
    # one-matrix calls
    rng = np.random.default_rng(20240808)
    params = [random_orbit_params(rng) for _ in range(100)]
    amplitude = np.array([theta_amplitude(p) for p in params])
    q, beta = [p.q for p in params], [p.beta for p in params]
    batched = batch_trig_moments(amplitude, momentum_factor, q, beta)
    brute = batch_reduced_density_bruteforce(amplitude, momentum_factor, q, beta)
    closed, one_brute = [], []
    for p, (c, s), nodes in zip(params, batched.values.tolist(), batched.nodes.tolist()):
        theta_fn = lambda mom: theta_circular(p, mom)
        dist = MomentumDistribution(p.q, p.beta)
        moments = trig_moments(theta_fn, dist)
        assert (c, s, nodes) == (moments.C, moments.S, moments.nodes)
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


@pytest.mark.parametrize("amplitude,beta", [((0.2, 5e5, 1.0, 0.3), (0.5, 0.5, 1.0, 0.5)),
                                           ((0.2, 1.0, 5e5), (0.5, 1.0, 0.5))])
def test_batched_moments_raise_the_first_failing_rows_error(amplitude, beta):
    # row 1 is too fast for the cap (ConvergenceError) or reaches the
    # non-finite angle past p = 4 (DomainError), and so does a later row:
    # the batch raises what row 1 raises alone
    factor = lambda q, p: np.where(p > 4.0, np.inf, p)
    with pytest.raises(GraventError) as alone:
        trig_moments(lambda p: amplitude[1] * factor(0.0, p),
                     MomentumDistribution(0.0, beta[1]))
    with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
        batch_trig_moments(amplitude, factor, 0.0, beta)


def test_oracle_runs_one_quadrature_for_the_moments_and_one_for_the_tensor(monkeypatch):
    calls = []
    real = entanglement._adaptive_average

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(entanglement, "_adaptive_average", counted)
    oracle_equivalence_report(draws=100)
    assert len(calls) == 2


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
