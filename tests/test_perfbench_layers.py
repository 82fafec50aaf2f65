"""The benchmark's tracing hooks still find every name they wrap.

perfbench/layers.py wraps library functions by module attribute, and a
missing attribute aborts a benchmark run; this test installs the hooks
on a fresh tracer around one short sweep.  It only imports and runs
perfbench/.
"""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import gravent.cli as cli
import gravent.experiments as experiments
from gravent import figure_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_install_around_a_sweep():
    spans, layers = _load("spans"), _load("layers")
    originals = (experiments.run_sweep, cli.run_sweep, cli.main)
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        rows = experiments.run_sweep(replace(figure_preset(4), samples=8), True)
    finally:
        tracer.uninstall()
    assert (experiments.run_sweep, cli.run_sweep, cli.main) == originals
    assert len(rows) == 8
    summary = tracer.summary()
    assert summary["spans"]["experiments.run_sweep"]["calls"] == 1
    assert sum(v for k, v in summary["counts"].items()
               if k.startswith("experiments.rows.")) == 8


def test_layers_install_around_validate(capsys):
    # the traced `validate` run reads entanglement.DEFAULT_QUAD.max_nodes in
    # the trig_moments hook and wraps cli.oracle_equivalence_report,
    # cli.theta_zeros and cli.product_integral
    spans, layers = _load("spans"), _load("layers")
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        code = cli.main(["validate", "--draws", "1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    summary = tracer.summary()
    assert summary["spans"]["experiments.oracle_equivalence_report"]["calls"] == 1
    # validate's 8 fast sweep rows: one trig_moments call each, whose
    # after-hook compared its node count with the cap; the draw's moments
    # come from batch_trig_moments, which the hook does not see
    assert summary["spans"]["entanglement.trig_moments"]["calls"] == 8
    assert len(summary["samples"]["entanglement.trig_moments.nodes_final"]) == 8


def test_traced_cli_wrappers_reach_the_command():
    # perfbench/traced_cli.py wraps gravent.cli's names in a fresh interpreter
    # before main runs; a command must call the wrappers, not the functions
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(PERFBENCH / "traced_cli.py"), "figure", "4",
                           "--samples", "8", "--format", "svg"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stdout.rstrip().endswith("</svg>")
    trace = [line for line in done.stderr.splitlines() if line.startswith("PERFBENCH-TRACE ")]
    assert len(trace) == 1
    spans = json.loads(trace[0].split(" ", 1)[1])["spans"]
    assert spans["experiments.run_sweep"]["calls"] == 1
    assert spans["output.emit_svg"]["calls"] == 1
