"""Warm sweep worker: one fresh interpreter per benchmark run.

Usage (run by run.py, with src/ on PYTHONPATH):

    python perfbench/worker.py '<json config>'

The config names the workload, seed, seconds, trace flag, the round of
sweeps to run and whether to stop after set-up.  The worker imports
gravent and gravent.cli, warms the lazy caches, prints ``READY`` (the
parent times set-up up to that line), runs whole rounds of run_sweep
calls until the time is up (sweep_loop.py), checks the outputs and
prints one JSON line.  Before ``READY`` it imports nothing but the
program and the standard library; the benchmark's own modules are
imported after it, so set-up time is the program's alone.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import gravent
import gravent.cli  # noqa: F401  (set-up includes the CLI module)
import gravent.experiments as experiments
from gravent.entanglement import MomentumDistribution, trig_moments
from gravent.errors import ConvergenceError


def build_spec(item: dict):
    spec = gravent.figure_preset(item["preset"])
    if item["fixed"]:
        spec = replace(spec, fixed=replace(spec.fixed, **item["fixed"]))
    return spec


def warm_up(specs) -> None:
    """Fill the lazy caches a user's first sweep would pay for.

    A rapidly oscillating angle drives the quadrature through every node
    count up to the cap, which builds all Hermite tables; a short run of
    each sweep then touches every code path once.
    """
    try:
        trig_moments(lambda p: 1e4 * p, MomentumDistribution(0.0, 1.0))
    except ConvergenceError:
        pass
    for spec in specs:
        experiments.run_sweep(replace(spec, samples=8), True)


def main() -> int:
    cfg = json.loads(sys.argv[1])
    specs = [build_spec(item) for item in cfg["round"]]
    warm_up(specs)
    print("READY", flush=True)
    if cfg.get("setup_only"):
        return 0
    import sweep_loop
    print(json.dumps(sweep_loop.run(cfg, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
