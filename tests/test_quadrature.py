"""Seeded accuracy audit of the sweep quadrature against a dense reference.

Sweeps around presets 1-6, with their fixed orbit values perturbed by up
to 15%, are compared row by row with a reference written here: its own
angle and a dense trapezoid rule on the real line, with no contour
shift.  A reference value counts only where its two step sizes agree.
The shifted rows such a reference cannot resolve are held to Cauchy's
theorem instead: their value may not depend on the depth of the line.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import roots_hermite

import gravent.entanglement as entanglement
from gravent import (
    batch_trig_moments,
    figure_preset,
    momentum_factor,
    run_sweep,
    theta_amplitude,
)
from gravent.entanglement import CONVERGED
from gravent.experiments import _contour_shift

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
    # the rows Gauss-Hermite flagged are the fast ones the shifted line
    # serves; steps of 1/1024 cannot resolve many of them, so a seeded
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
    # resolve: the shifted line must damp the packet's right tail, or its
    # aliased oscillation passes the two-level check (a depth cap of
    # 0.5/beta left these rows off by up to 3e-9)
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
    """The computed rows of a sweep that run_sweep integrates on a shifted line.

    Returns the rows and, per row, its amplitude, centre q and depth.
    """
    rows = [row for row in run_sweep(spec) if not row.flags]
    params = [replace(spec.fixed, **{spec.variable: row.x}) for row in rows]
    amplitude = np.array([theta_amplitude(p) for p in params])
    q = np.array([p.q for p in params])
    depth = _contour_shift(amplitude, q, spec.fixed.beta)
    shifted = np.flatnonzero(depth != 0.0)
    return [rows[i] for i in shifted], amplitude[shifted], q[shifted], depth[shifted]


def half_depth_moments(spec):
    """Each shifted row's (C, S) at depth delta, as printed, and at delta/2."""
    rows, amplitude, q, depth = shifted_rows(spec)
    half = batch_trig_moments(amplitude, momentum_factor, q, spec.fixed.beta, 0.5 * depth)
    printed = np.array([(row.C, row.S) for row in rows]).reshape(-1, 2)
    return printed, half


@pytest.mark.parametrize("n,count", [(1, 377), (2, 389), (4, 11)])
def test_shifted_rows_do_not_depend_on_the_depth(n, count):
    # e^{-x^2} e^{i Theta} is analytic between the two lines and the real
    # axis, so by Cauchy's theorem both lines give the printed row
    printed, half = half_depth_moments(figure_preset(n))
    assert len(printed) == count
    assert (half.status == CONVERGED).all()
    assert np.abs(printed - half.values).max() <= 1e-10


def test_depth_independence_fails_without_the_gaussian_correction(monkeypatch):
    # negative control: on a shifted line x = t - i y the weight is
    # e^{-x^2}, not e^{-t^2}; averaging e^{i Theta} against e^{-t^2} alone
    # gives a value that moves with the depth
    real = entanglement._adaptive_average

    def uncorrected(rows_fn, size, shift=None):
        def rows(index, x):
            _, theta = rows_fn(index, x)
            if np.iscomplexobj(x):
                theta = theta + x.imag * (x + x.real)  # undo e^{t^2 - x^2}
            return entanglement._cis(theta), theta
        return real(rows, size, shift)

    monkeypatch.setattr(entanglement, "_adaptive_average", uncorrected)
    printed, half = half_depth_moments(figure_preset(2))
    both = half.status == CONVERGED
    assert both.sum() >= 100
    assert np.abs(printed[both] - half.values[both]).max() > 1e-3
