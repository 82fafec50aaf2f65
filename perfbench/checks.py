"""Correctness gate for the warm sweep workloads (runs outside timing).

The reference here is independent of the library: its own closed form
for the angle Theta(p) and a dense trapezoid rule for the Gaussian
moments C = <cos Theta>, S = <sin Theta>.  The trapezoid rule converges
exponentially for this smooth, Gaussian-decaying integrand, and each
reference value must agree with itself at half the step before it is
used; a row where it does not is counted as unchecked, not passed.

Rows flagged ``no-convergence`` are the program's refusals.  A refusal
counts as a failed operation when the rule the program followed when the
benchmark was written (Gauss-Hermite node doubling up to a 2048-node
cap, giving up when the last two levels differ by more than 1e-6)
resolves the row; the benchmark evaluates that rule itself, with its own
Theta.  So a change that gives up on rows the program used to compute
shows as failures, and one that only gives up on them faster does not.
"""

from __future__ import annotations

import math
import random

import numpy as np

from gravent import figure_preset

from cli_checks import row_errors
from inputs import PRESET_FIXED

MOMENT_TOL = 1e-8        # |library - reference| allowed on C and S
SELF_TOL = 1e-11         # reference at h versus h/2
HALF_WIDTH = 7.0         # e^{-49} ~ 5e-22: the weight is gone beyond it
STEP = 1.0 / 128.0
SAMPLE_PER_SWEEP = 12
MAX_MESSAGES = 10
CAP_NODES = 2048         # the node cap of the rule refusals are held to
CAP_RESIDUAL = 1e-6      # ... and the residual at which it gives up
# A refusal counts as failed only when the rule's residual is clearly
# below its limit, so rounding cannot tip a row that sits on the limit.
CAP_MARGIN = 0.99


def theta_reference(xi2, z, q, tau_ratio, p):
    """Theta(p) = tau/tau_s * 2 pi * R(z) * M(q, p), written out afresh.

    R(z) = (2 z^2 - 3 z + 4 xi2) / (2 z^2 sqrt(z^2 - z + xi2)) and
    M(q, p) = q gamma^2 - q^2 gamma p / (1 + sqrt(1 + p^2)), gamma^2 = 1 + q^2.
    """
    radial = (2.0 * z * z - 3.0 * z + 4.0 * xi2) / (
        2.0 * z * z * math.sqrt(z * z - z + xi2))
    gamma = math.sqrt(1.0 + q * q)
    m = q * gamma * gamma - q * q * gamma * p / (1.0 + np.sqrt(1.0 + p * p))
    return 2.0 * math.pi * tau_ratio * radial * m


def moments_reference(xi2, z, q, beta, tau_ratio, step):
    """(C, S) by the trapezoid rule in x = (p - q)/beta on [-7, 7]."""
    n = int(round(2.0 * HALF_WIDTH / step))
    x = np.linspace(-HALF_WIDTH, HALF_WIDTH, n + 1)
    weight = np.exp(-x * x) * (step / math.sqrt(math.pi))
    weight[[0, -1]] *= 0.5
    theta = theta_reference(xi2, z, q, tau_ratio, q + beta * x)
    return float(weight @ np.cos(theta)), float(weight @ np.sin(theta))


_GAUSS_HERMITE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights of the n-point Gauss-Hermite rule."""
    if n not in _GAUSS_HERMITE:
        from scipy.special import roots_hermite
        x, w = roots_hermite(n)
        _GAUSS_HERMITE[n] = (x, w / math.sqrt(math.pi))
    return _GAUSS_HERMITE[n]


def cap_residual(xi2, z, q, beta, tau_ratio) -> float:
    """max(|dC|, |dS|) between the CAP_NODES and CAP_NODES/2 point rules."""
    estimates = []
    for n in (CAP_NODES // 2, CAP_NODES):
        x, w = _gauss_hermite(n)
        theta = theta_reference(xi2, z, q, tau_ratio, q + beta * x)
        estimates.append(np.array([w @ np.cos(theta), w @ np.sin(theta)]))
    return float(np.abs(estimates[1] - estimates[0]).max())


def _as_record(row) -> dict:
    return {"C": row.C, "S": row.S, "concurrence": row.concurrence, "E": row.E,
            "flags": list(row.flags)}


def _row_params(spec, x: float) -> dict:
    params = {k: getattr(spec.fixed, k) for k in ("xi2", "z", "q", "beta", "tau_ratio")}
    params[spec.variable] = x
    return params


def check_sweeps(specs, first, last, seed: int) -> dict:
    """Gate every row of the last round and a seeded sample against the reference.

    Also counts the last round's refusals that the cap rule resolves
    (`refused_resolvable`); the caller reports them as failed rows.
    """
    messages: list[str] = []
    report = {"rows": 0, "no_convergence": 0, "refused_resolvable": 0,
              "min_refused_residual": None, "breaches": 0, "reference_checked": 0,
              "reference_unchecked": 0, "max_dC": 0.0, "max_dS": 0.0}

    def fail(msg: str) -> None:
        report["breaches"] += 1
        if len(messages) < MAX_MESSAGES:
            messages.append(msg)

    for n, base in PRESET_FIXED.items():
        fixed = figure_preset(n).fixed
        if any(getattr(fixed, k) != v for k, v in base.items()):
            fail(f"benchmark preset {n} differs from gravent.figure_preset({n})")

    rng = random.Random(f"check:{seed}")
    for spec, rows, again in zip(specs, last, first):
        report["rows"] += len(rows)
        if [repr(r) for r in rows] != [repr(r) for r in again]:
            fail(f"{spec.variable}-sweep rows differ between rounds")
        for row in rows:
            for err in row_errors(_as_record(row), stationary=True):
                fail(f"{spec.variable}={row.x!r}: {err}")
            if "no-convergence" in row.flags:
                p = _row_params(spec, row.x)
                residual = cap_residual(p["xi2"], p["z"], p["q"], p["beta"],
                                        p["tau_ratio"])
                report["no_convergence"] += 1
                lowest = report["min_refused_residual"]
                report["min_refused_residual"] = (
                    residual if lowest is None else min(lowest, residual))
                if residual < CAP_MARGIN * CAP_RESIDUAL:
                    report["refused_resolvable"] += 1
        computed = [r for r in rows if not r.flags]
        for row in rng.sample(computed, min(SAMPLE_PER_SWEEP, len(computed))):
            p = _row_params(spec, row.x)
            args = (p["xi2"], p["z"], p["q"], p["beta"], p["tau_ratio"])
            c1, s1 = moments_reference(*args, STEP)
            c2, s2 = moments_reference(*args, STEP / 2.0)
            if max(abs(c1 - c2), abs(s1 - s2)) > SELF_TOL:
                report["reference_unchecked"] += 1
                continue
            report["reference_checked"] += 1
            dc, ds = abs(row.C - c2), abs(row.S - s2)
            report["max_dC"] = max(report["max_dC"], dc)
            report["max_dS"] = max(report["max_dS"], ds)
            if max(dc, ds) > MOMENT_TOL:
                fail(f"{spec.variable}={row.x!r}: |dC|={dc:.2e}, |dS|={ds:.2e} "
                     f"against the trapezoid reference")
    if report["reference_checked"] == 0:
        fail("no row could be checked against the reference")
    report["ok"] = not messages
    report["failures"] = messages
    return report
