"""Seeded accuracy audit of the sweep quadrature against a dense reference.

Sweeps around presets 1-6, with their fixed orbit values perturbed by up
to 15%, are compared row by row with a reference written here: its own
angle and a dense trapezoid rule on the real line in x = (p - q)/beta.
A reference value counts only where its two step sizes agree.  The rows
averaged on a line in s = asinh p that such a reference cannot resolve
are held to Cauchy's theorem instead: their value may not depend on the
depth of the line.  The shifted rows a bound on the integrand's modulus
decides without the rule are held to the rule itself: it would drop every
node of theirs at every level.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import roots_hermite

import gravent.entanglement as entanglement
import gravent.experiments as experiments
from gravent import (
    OrbitParams,
    SweepSpec,
    figure_preset,
    run_sweep,
    theta_amplitude,
)
from gravent.entanglement import CONVERGED, TOL, _characteristic, _line_depth

HALF_WIDTH = 7.0
REFERENCE_AGREEMENT = 1e-12
MOMENT_TOL = 1e-9


def theta_reference(xi2, z, q, tau_ratio, p):
    """2 pi tau/tau_s (2z^2 - 3z + 4xi2) / (2z^2 sqrt(z^2 - z + xi2)) M(q, p)."""
    radial = (2 * z * z - 3 * z + 4 * xi2) / (2 * z * z * math.sqrt(z * z - z + xi2))
    gamma2 = 1.0 + q * q
    m = q * gamma2 - q * q * math.sqrt(gamma2) * p / (1.0 + np.sqrt(1.0 + p * p))
    return 2.0 * math.pi * tau_ratio * radial * m


def moments_reference(params: dict, step: float) -> tuple[float, float]:
    """(C, S) by the trapezoid rule in x = (p - q)/beta on [-7, 7]."""
    x = np.linspace(-HALF_WIDTH, HALF_WIDTH, int(round(2 * HALF_WIDTH / step)) + 1)
    w = np.exp(-x * x)
    w[[0, -1]] *= 0.5
    theta = theta_reference(params["xi2"], params["z"], params["q"], params["tau_ratio"],
                            params["q"] + params["beta"] * x)
    return float(w @ np.cos(theta) / w.sum()), float(w @ np.sin(theta) / w.sum())


def perturbed_sweeps(seed: int, draws: int, samples: int):
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        spec = figure_preset(n)
        for _ in range(draws):
            fixed = {key: getattr(spec.fixed, key) * rng.uniform(0.85, 1.15)
                     for key in ("xi2", "z", "q", "beta", "tau_ratio")
                     if key != spec.variable}
            yield replace(spec, samples=samples, fixed=replace(spec.fixed, **fixed))


def test_sweep_rows_match_a_dense_real_line_trapezoid():
    checked = 0
    for spec in perturbed_sweeps(seed=2024, draws=2, samples=32):
        for row in run_sweep(spec):
            if row.flags:
                continue
            params = {key: getattr(spec.fixed, key)
                      for key in ("xi2", "z", "q", "beta", "tau_ratio")}
            params[spec.variable] = row.x
            c1, s1 = moments_reference(params, 1.0 / 1024)
            c2, s2 = moments_reference(params, 1.0 / 2048)
            if max(abs(c1 - c2), abs(s1 - s2)) > REFERENCE_AGREEMENT:
                continue
            error = max(abs(row.C - c2), abs(row.S - s2))
            assert error <= MOMENT_TOL, (spec.variable, row.x, spec.fixed, error)
            checked += 1
    assert checked >= 300, checked


@functools.cache
def hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_hermite(n)
    return x, w / math.sqrt(math.pi)


def gauss_hermite_flagged(params: dict) -> bool:
    """Do the 1024- and 2048-node Gauss-Hermite rules differ by over 1e-10?

    That rule computed the sweeps before the trapezoid rule did, and
    flagged such rows no-convergence (above 1e-6) or reduced-tolerance.
    """
    estimates = []
    for n in (1024, 2048):
        x, w = hermite_rule(n)
        theta = theta_reference(params["xi2"], params["z"], params["q"], params["tau_ratio"],
                                params["q"] + params["beta"] * x)
        estimates.append(np.array([w @ np.cos(theta), w @ np.sin(theta)]))
    return np.abs(estimates[1] - estimates[0]).max() > 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_formerly_flagged_preset_rows_match_a_fine_reference(n):
    # the rows Gauss-Hermite flagged are the fast ones averaged in s;
    # steps of 1/1024 cannot resolve many of them, so a seeded
    # sample is held to steps of 1/16384 and 1/32768
    spec = figure_preset(n)
    refused = []
    for row in run_sweep(spec):
        params = {key: getattr(spec.fixed, key)
                  for key in ("xi2", "z", "q", "beta", "tau_ratio")}
        params[spec.variable] = row.x
        if not row.flags and gauss_hermite_flagged(params):
            refused.append((row, params))
    assert len(refused) >= 20, len(refused)
    rng = np.random.default_rng(n)
    for i in rng.choice(len(refused), size=6, replace=False):
        row, params = refused[i]
        coarse = moments_reference(params, 1.0 / 16384)
        fine = moments_reference(params, 1.0 / 32768)
        assert max(abs(a - b) for a, b in zip(coarse, fine)) <= REFERENCE_AGREEMENT
        error = max(abs(row.C - fine[0]), abs(row.S - fine[1]))
        assert error <= 1e-10, (n, row.x, error)


def test_wide_packet_tail_rows_match_a_finer_reference():
    # preset 2's wide packet at q ~ 10.5-13, rows the steps above do not
    # resolve: the line in s must damp the packet's right tail, or its
    # aliased oscillation passes the two-level check (on the former line
    # in x, a depth cap of 0.5/beta left these rows off by up to 3e-9)
    spec = figure_preset(2)
    for beta in (4.0, 3.8):
        sweep = replace(spec, lo=10.5, hi=13.0, samples=6,
                        fixed=replace(spec.fixed, beta=beta))
        for row in run_sweep(sweep):
            params = {key: getattr(sweep.fixed, key)
                      for key in ("xi2", "z", "q", "beta", "tau_ratio")}
            params["q"] = row.x
            coarse = moments_reference(params, 1.0 / 16384)
            fine = moments_reference(params, 1.0 / 32768)
            assert max(abs(a - b) for a, b in zip(coarse, fine)) <= REFERENCE_AGREEMENT
            assert row.flags == ()
            assert max(abs(row.C - fine[0]), abs(row.S - fine[1])) <= 1e-10, (beta, row.x)


def shifted_rows(spec):
    """The computed rows of a sweep that run_sweep averages on a line in s.

    Returns the rows and, per row, its kappa, constant phase, centre q and
    depth: C + iS = e^{i phase} phi(kappa).
    """
    rows = [row for row in run_sweep(spec) if not row.flags]
    params = [replace(spec.fixed, **{spec.variable: row.x}) for row in rows]
    amplitude = np.array([theta_amplitude(p) for p in params])
    q = np.array([p.q for p in params])
    gamma = np.sqrt(q * q + 1.0)
    kappa, phase = amplitude * q * q * gamma, amplitude * q * gamma  # as _sweep_rows forms them
    depth = _line_depth(kappa, q, spec.fixed.beta)
    shifted = np.flatnonzero(depth != 0.0)
    return ([rows[i] for i in shifted],) + tuple(v[shifted] for v in (kappa, phase, q, depth))


def half_depth_moments(spec):
    """Each shifted row's (C, S) at depth delta, as printed, and at delta/2.

    Also returns the statuses at delta/2.
    """
    rows, kappa, phase, q, depth = shifted_rows(spec)
    half = _characteristic(kappa, q, spec.fixed.beta, 0.5 * depth)
    re, im = half.values.reshape(-1, 2).T
    c, s = np.cos(phase), np.sin(phase)
    printed = np.array([(row.C, row.S) for row in rows]).reshape(-1, 2)
    return printed, np.stack([c * re - s * im, s * re + c * im], axis=1), half.status


# Sweeps with shifted rows: presets 1, 2 and 4, and preset 3's orbit out to
# tau = 120, since every row of preset 3 itself runs on the real line.
DEPTH_SPECS = {"preset-1": figure_preset(1), "preset-2": figure_preset(2),
               "tau-120": replace(figure_preset(3), hi=120.0), "preset-4": figure_preset(4)}


@pytest.mark.parametrize("name,count", [("preset-1", 370), ("preset-2", 383), ("tau-120", 251),
                                        ("preset-4", 3)])
def test_shifted_rows_do_not_depend_on_the_depth(name, count):
    # the integrand e^{-i kappa tanh(s/2)} e^{-(sinh s - q)^2/beta^2} cosh s is
    # analytic between the two lines and the real axis, so by Cauchy's
    # theorem both lines give the printed row
    printed, half, status = half_depth_moments(DEPTH_SPECS[name])
    assert len(printed) == count > 0
    assert (status == CONVERGED).all()
    assert np.abs(printed - half).max() <= 1e-10


def cleared_rows(seed=33, size=600):
    """(amplitude, q, beta) of rows that turn at omega = |kappa| beta/2 from 4 to 14.4.

    beta 1e-2..1e8, |q| 1e-3..1e2: rows that a shifted line took below
    the real line's 128-interval bound, omega < pi 128/28 ~ 14.36, and a
    few just past it.
    """
    rng = np.random.default_rng(seed)
    beta = 10.0 ** rng.uniform(-2.0, 8.0, size)
    q = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 2.0, size)
    omega = rng.uniform(4.0, 14.4, size)
    kappa = rng.choice([-1.0, 1.0], size) * 2.0 * omega / beta
    return kappa / (q * q * np.sqrt(q * q + 1.0)), q, beta


def real_line_reference(kappa, q, beta, n=16384):
    """Each row's phi by the n-interval rule on its real line in s."""
    line_of = entanglement._lines(kappa, q, beta, np.zeros_like(kappa), False)[0]
    t = ((2.0 * HALF_WIDTH / n) * np.arange(1, n) - HALF_WIDTH)[None]
    out = np.empty((len(kappa), 2))
    for i, (k, line) in enumerate(zip(kappa, line_of)):
        du, _, _, w_log, jac, _ = entanglement._line_table(t, *line[:, None], False)
        w = np.exp(w_log) * jac
        out[i] = (w * np.cos(k * du)).sum() / w.sum(), -(w * np.sin(k * du)).sum() / w.sum()
    return out


def test_rows_the_real_line_clears_keep_their_status_and_accuracy_there():
    amplitude, q, beta = cleared_rows()
    kappa = amplitude * q * q * np.sqrt(q * q + 1.0)  # as _sweep_rows forms it
    depth = _line_depth(kappa, q, beta)
    # the former rule: the real line below omega = 4, otherwise the depth
    # _line_depth gives a row too fast for the real line, which q and beta fix
    deep = _line_depth(np.sign(kappa) * math.inf, q, beta)
    old = np.where(0.5 * np.abs(kappa) * beta < 4.0, 0.0, deep)
    moved = (depth == 0.0) & (old != 0.0)
    assert moved.sum() > 0.9 * q.size
    assert (depth[~moved] == old[~moved]).all()  # no row leaves the real line
    for certify in (False, True):
        before, after = (_characteristic(kappa, q, beta, d, certify) for d in (old, depth))
        assert after.status.tolist() == before.status.tolist()
    error = np.abs(after.values[moved]
                   - real_line_reference(kappa[moved], q[moved], beta[moved])).max(axis=1)
    assert error.max() <= TOL
    assert error[beta[moved] <= 10.0].max() <= 1e-14


def test_depth_independence_fails_with_the_real_lines_jacobian(monkeypatch):
    # negative control: on the line s = t + i d the Jacobian dp/ds is
    # cosh s = cosh t cos d + i sinh t sin d; taking cosh t, its value on
    # the real line, in its place leaves an integrand that is not analytic,
    # whose average moves with the depth.  (Leaving the Jacobian out
    # altogether would not do: the integrand stays analytic, Cauchy's
    # theorem holds for it too, and the two depths agree.)
    real = entanglement._line_table

    def real_lines_jacobian(t, centre, half, twice_cos_d, *rest):
        *table, jac_re, jac_im = real(t, centre, half, twice_cos_d, *rest)
        return (*table, 2.0 * jac_re / twice_cos_d, 0.0 * jac_im)

    monkeypatch.setattr(entanglement, "_line_table", real_lines_jacobian)
    printed, half, status = half_depth_moments(figure_preset(2))
    both = status == CONVERGED
    assert both.sum() >= 100
    assert np.abs(printed[both] - half[both]).max() > 1e-3


# The reference's steps for the wide packets: x = (p - q)/beta resolves
# u(p)'s turn at p = 0, on the scale 1/beta, only at steps this fine.
WIDE_STEPS = (1.0 / 32768, 1.0 / 65536)


def wide_packet(kind, beta):
    """Figure 2's q-sweep, or a z-sweep next to the angle's zero at z = 1, at width beta."""
    if kind == "q":
        spec = figure_preset(2)
        return replace(spec, fixed=replace(spec.fixed, beta=beta))
    return SweepSpec("z", 0.0, 1.0, 401, OrbitParams(0.25 + 1e-12, 1.0, 0.6, beta, 5.0))


@pytest.mark.parametrize("kind,beta", [("q", 16.0), ("q", 30.0), ("q", 60.0), ("q", 200.0),
                                       ("z", 80.0), ("z", 200.0)],
                         ids=["16.0", "30.0", "60.0", "200.0", "z-80.0", "z-200.0"])
def test_wide_packet_rows_are_computed(kind, beta):
    # figure 2's orbit with a wide packet: before the fast rows were
    # averaged in s, beta = 16 left 12 rows at reduced tolerance, beta = 30
    # refused 375 and beta = 60 refused 395; before the slow rows were,
    # beta = 60 left two rows next to q = 0 at reduced tolerance and the
    # z-sweeps next to the angle's zero at z = 1 left rows at reduced
    # tolerance (beta = 80) or refused them (beta = 200), on the real line
    # in x, where u(p) turns on the scale 1/beta.  Now every row outside
    # domain and horizon is computed, and a seeded sample of the rows is
    # held to the reference wherever its two steps agree.
    spec = wide_packet(kind, beta)
    rows = run_sweep(spec)
    refused = {("domain",), ("horizon",)}
    assert all(row.flags in refused or (row.flags == () and math.isfinite(row.E))
               for row in rows)
    assert sum(row.flags in refused for row in rows) == (0 if kind == "q" else 2)
    checked = 0
    for i in np.random.default_rng(int(beta)).permutation(len(rows))[:16]:
        if rows[i].flags:
            continue
        params = {key: getattr(spec.fixed, key) for key in ("xi2", "z", "q", "beta", "tau_ratio")}
        params[spec.variable] = rows[i].x
        coarse, fine = (moments_reference(params, step) for step in WIDE_STEPS)
        if max(abs(a - b) for a, b in zip(coarse, fine)) > REFERENCE_AGREEMENT:
            continue
        error = max(abs(rows[i].C - fine[0]), abs(rows[i].S - fine[1]))
        assert error <= 1e-10, (beta, rows[i].x, error)
        checked += 1
    assert checked >= 4, checked


def packets_turning_fast_at_zero(seed=17, count=200, samples=8):
    """tau-sweeps whose angle turns 3-4 per unit of x at the packet's centre.

    u'(p) = 1/(gamma_p (gamma_p + 1)) is largest, 1/2, at p = 0, so where
    the packet reaches p ~ 0 (|q| < 3 beta, most of these) the angle turns
    there hundreds of times faster than at the centre q.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        xi2 = float(rng.choice([0.16, 0.265, 0.5]))
        z = float(rng.uniform(5.0, 100.0))
        q = float(rng.uniform(80.0, 320.0) * rng.choice([-1.0, 1.0]))
        beta = float(rng.uniform(20.0, 400.0))
        radial = (2 * z * z - 3 * z + 4 * xi2) / (2 * z * z * math.sqrt(z * z - z + xi2))
        # the turn at the centre, 2 pi tau R(z) q^2 gamma beta / (gamma (gamma + 1)), per tau
        per_tau = 2.0 * math.pi * radial * q * q * beta / (math.hypot(q, 1.0) + 1.0)
        yield SweepSpec("tau_ratio", 3.0 / per_tau, 4.0 / per_tau, samples,
                        OrbitParams(xi2, z, q, beta, 0.0))


@functools.cache
def fast_at_zero_rows():
    return [(spec, row) for spec in packets_turning_fast_at_zero() for row in run_sweep(spec)]


def test_packets_turning_fast_at_zero_compute_every_row():
    # chosen by the turn at the centre alone, these rows stayed on the real
    # line, where 652 of the 1,600 were refused or flagged reduced-tolerance;
    # the turn anywhere in the packet puts them on shifted lines
    rows = [row for _, row in fast_at_zero_rows()]
    assert len(rows) == 1600
    assert all(row.flags == () and math.isfinite(row.E) for row in rows)


def test_packets_turning_fast_at_zero_match_a_fine_reference():
    reaching = [(spec, row) for spec, row in fast_at_zero_rows()
                if abs(spec.fixed.q) < 3.0 * spec.fixed.beta]
    assert len(reaching) >= 1000
    for i in np.random.default_rng(0).choice(len(reaching), size=6, replace=False):
        spec, row = reaching[i]
        params = {key: getattr(spec.fixed, key) for key in ("xi2", "z", "q", "beta")}
        params["tau_ratio"] = row.x
        coarse, fine = (moments_reference(params, step) for step in WIDE_STEPS)
        assert max(abs(a - b) for a, b in zip(coarse, fine)) <= REFERENCE_AGREEMENT
        error = max(abs(row.C - fine[0]), abs(row.S - fine[1]))
        assert error <= 1e-10, (spec.fixed, row.x, error)


def drawn_shifted_rows(seed, count):
    """Seeded rows on shifted lines: kappa, q, beta and depth, the depth from _line_depth.

    beta runs from 1e-2 to 1e3, |q| up to 1e3 and |kappa| over ten decades,
    each log-uniform, with both signs of q and kappa.
    """
    rng = np.random.default_rng(seed)
    beta = 10.0 ** rng.uniform(-2.0, 3.0, count)
    q = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-2.0, 3.0, count)
    kappa = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-3.0, 7.0, count)
    amplitude = kappa / (q * q * np.sqrt(q * q + 1.0))
    kappa = amplitude * q * q * np.sqrt(q * q + 1.0)  # as _sweep_rows forms it
    depth = _line_depth(kappa, q, beta)
    shifted = depth != 0.0
    return kappa[shifted], q[shifted], beta[shifted], depth[shifted]


def test_decided_rows_drop_every_node_of_the_finest_rule():
    # the modulus bound decides a shifted row only if the rule would drop
    # every node of it at every level up to the cap: at all 2,047 nodes of
    # the 2,048-interval rule, none may be live.  Leaving the weight's peak
    # out of the bound decides six of these rows with a live node
    kappa, q, beta, depth = drawn_shifted_rows(seed=22, count=20000)
    line_of, row_of, decided, _ = entanglement._lines(kappa, q, beta, depth)
    assert 0.2 * kappa.size <= decided.sum() <= 0.8 * kappa.size, (decided.sum(), kappa.size)
    out = _characteristic(kappa[decided], q[decided], beta[decided], depth[decided])
    assert (out.nodes == 0).all() and (out.status == CONVERGED).all()
    assert (out.residual == 0.0).all() and (out.values == 0.0).all()
    line_of, row_of = line_of[decided], row_of[decided]
    cap = entanglement.DEFAULT_QUAD.max_nodes
    t = (2.0 * HALF_WIDTH / cap) * np.arange(1, cap)[None] - HALF_WIDTH
    for start in range(0, decided.sum(), 256):
        rows = slice(start, start + 256)
        table = entanglement._line_table(t, *line_of[rows].T[..., None])
        _, _, live = entanglement._shifted_log(table, *row_of[rows].T[..., None])
        assert not live.any(), np.flatnonzero(live.any(axis=1))[:5] + start


@pytest.mark.parametrize("n,decided,evaluated", [(1, 241, 14305), (2, 204, 25660)])
def test_decided_rows_never_reach_the_line_table(monkeypatch, n, decided, evaluated):
    # presets 1-2 passed 34,672 and 44,848 rows x nodes to _line_table when
    # every shifted row went through the rule, 19,489 and 31,996 before the
    # strip bound stopped rows, and preset 1 passed 14,433 before the real
    # line took the rows its 128-interval rule clears; a decided row passes
    # none, and every other row exactly the nodes of its levels, one fewer
    # than its final interval count
    real_table, real_characteristic = entanglement._line_table, experiments.batch_characteristic
    sizes, averages = [], []

    def table(t, *line):
        out = real_table(t, *line)
        sizes.append(out[0].size)
        return out

    def characteristic(*args):
        averages.append(real_characteristic(*args))
        return averages[-1]

    monkeypatch.setattr(entanglement, "_line_table", table)
    monkeypatch.setattr(experiments, "batch_characteristic", characteristic)
    run_sweep(figure_preset(n))
    (out,) = averages
    zero = out.nodes == 0
    assert zero.sum() == decided
    assert sum(sizes) == evaluated == (out.nodes[~zero] - 1).sum()
    assert (out.status[zero] == CONVERGED).all() and (out.residual[zero] == 0.0).all()
    assert out.values[zero].tobytes() == np.zeros((decided, 2)).tobytes()
