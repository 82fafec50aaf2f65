"""The measured part of the warm sweep worker (see worker.py).

Runs whole rounds of run_sweep calls until the time is up, untraced with
the speed reference timed between sweeps, or alternating untraced and
traced rounds, and then gates the rows (checks.py).
"""

from __future__ import annotations

import time

import gravent.experiments as experiments

import checks
import layers
import speed
from spans import Tracer


def timed_round(specs, op_ms: list, rows_out: list,
                ref_ms: list | None = None) -> int:
    """Run every sweep once; return the rows completed.

    Exceptions propagate.  With `ref_ms`, the speed reference is timed
    before each sweep.
    """
    rows = 0
    for i, spec in enumerate(specs):
        if ref_ms is not None:
            speed.sample(ref_ms)
        t = time.perf_counter()
        result = experiments.run_sweep(spec, True)
        dt = time.perf_counter() - t
        op_ms.append(dt * 1e3)
        rows += len(result)
        rows_out[i] = result
    return rows


def run(cfg: dict, specs: list) -> dict:
    """Measure whole rounds of `specs` for cfg["seconds"]; check the rows."""
    # One untimed, traced round: its node counts give the at-cap share and
    # its rows are compared with the last round's for determinism.
    first: list = [None] * len(specs)
    probe = Tracer()
    layers.install(probe)
    try:
        rows = timed_round(specs, [], first)
    finally:
        probe.uninstall()
    at_cap = probe.counts.get("entanglement.trig_moments.at_cap", 0.0)
    out = {"at_cap_frac": at_cap / rows}

    seconds = float(cfg["seconds"])
    last: list = [None] * len(specs)
    if cfg["trace"]:
        out.update(traced_loop(specs, seconds, last))
    else:
        op_ms: list[float] = []
        ref_ms: list[float] = []
        rows = rounds = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(op_ms) < cfg["min_ops"]:
            rows += timed_round(specs, op_ms, last, ref_ms)
            rounds += 1
        speed.sample(ref_ms)  # so every sweep has a kernel timing after it too
        out.update(rows=rows, rounds=rounds, op_ms=op_ms, ref_ms=ref_ms)
    out["check"] = checks.check_sweeps(specs, first, last, cfg["seed"])
    return out


def traced_loop(specs, seconds: float, last: list) -> dict:
    """Alternate untraced and traced rounds; report both rates and spans.

    Alternating keeps both halves under the same machine conditions, so
    their difference is the tracing overhead.
    """
    tracer = Tracer()
    plain_rows = plain_s = traced_rows = traced_s = 0.0
    rounds = 0
    traced_ops: list[float] = []
    start = time.perf_counter()
    while rounds < 2 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        plain_rows += timed_round(specs, [], last)
        plain_s += time.perf_counter() - t
        layers.install(tracer)
        try:
            t = time.perf_counter()
            traced_rows += timed_round(specs, traced_ops, last)
            traced_s += time.perf_counter() - t
        finally:
            tracer.uninstall()
        rounds += 1
    summary = tracer.summary()
    sweep_self = sum(v["self_s"] for v in summary["spans"].values())
    return {
        "rounds": rounds,
        "rows": int(plain_rows + traced_rows),
        "ops_traced": len(traced_ops),
        "rows_per_s_untraced": plain_rows / plain_s,
        "rows_per_s_traced": traced_rows / traced_s,
        "coverage": sweep_self / (sum(traced_ops) / 1e3),
        "trace": summary,
    }
