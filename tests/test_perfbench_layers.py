"""The benchmark's tracing hooks still find every name they wrap.

perfbench/layers.py wraps library functions by module attribute, and a
missing attribute aborts a benchmark run; this test installs the hooks
on a fresh tracer around one short sweep.  It only imports perfbench/.
"""

import importlib.util
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
    # one draw and validate's 8 fast sweep rows: one trig_moments call each,
    # whose after-hook compared its node count with the cap
    assert summary["spans"]["entanglement.trig_moments"]["calls"] == 9
    assert len(summary["samples"]["entanglement.trig_moments.nodes_final"]) == 9
