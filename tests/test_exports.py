"""The package's public names: the same surface, resolved on first use."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gravent

# Every public name of gravent, by the module that defines it.
EXPORTS = {
    "errors": ["AssertionFailure", "ConvergenceError", "DomainError", "EmptyDataError",
               "GraventError", "HorizonError", "NumericalError"],
    "roots": ["horizons", "outer_horizon", "theta_zeros"],
    "spacetime": ["ChargedBlackHole", "ETA", "KruskalPoint", "Tetrad",
                  "frame_transform_matrix", "kruskal_map", "kruskal_radius", "metric_matrix",
                  "metric_potentials", "tetrad_static"],
    "wigner": ["CircularOrbitState", "OrbitParams", "circular_orbit_state", "kruskal_rate",
               "lambda_circular", "lambda_radial", "momentum_factor", "product_integral",
               "rotation_matrix", "spin_rep", "theta_amplitude", "theta_circular",
               "wigner_rate", "wigner_rate_matrix", "wigner_rate_w13"],
    "entanglement": ["BELL_STATES", "BellState", "CHI1", "CHI2", "CHI3", "CHI4",
                     "MomentumDistribution", "TrigMoments", "batch_characteristic",
                     "batch_reduced_density_bruteforce", "batch_trig_moments", "bell_state",
                     "binary_entropy", "density_matrix_diagnostics", "entanglement_of_formation",
                     "reduced_density_bruteforce", "reduced_density_closed", "spin_flip",
                     "trig_moments", "wootters_concurrence"],
    "experiments": ["FrameRateRow", "RadialInvarianceReport", "SweepRow", "SweepSpec",
                    "figure_preset", "find_entanglement_minima", "frame_comparison",
                    "oracle_equivalence_report", "radial_invariance_check",
                    "random_orbit_params", "resolve_sweep", "run_sweep", "validation_checks"],
    "output": ["emit_csv", "emit_json", "emit_svg"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_every_export_once():
    assert len(NAMES) == 71
    assert sorted(gravent.__all__) == sorted(NAMES)


def test_each_name_is_its_defining_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"gravent.{module}")
        for name in names:
            assert getattr(gravent, name) is getattr(home, name), name
    assert set(NAMES) <= set(dir(gravent))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gravent import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gravent.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from gravent import no_such_name  # noqa: F401


def test_version_is_unchanged():
    assert gravent.__version__ == "0.1.0"


def test_a_fresh_import_reaches_submodules_as_attributes():
    # `import gravent` once imported every submodule; it still reaches them
    src = str(Path(gravent.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import gravent; print(gravent.output.emit_csv is gravent.emit_csv)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def _references(tree: ast.AST) -> set[str]:
    """The names a module reads, as a name or an attribute, outside the def of that name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_exported_function_is_run_by_the_package_or_a_demo():
    # an exported function that no command, check or demo calls is kept
    # alive by its own tests alone; an import does not count as a use
    package = Path(gravent.__file__).parent
    paths = [*package.glob("*.py"), *(package.parents[1] / "demos").glob("*.py")]
    used = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8")))
                         for path in paths))
    exported = {name for module, names in EXPORTS.items() for name in names
                if inspect.isfunction(getattr(importlib.import_module(f"gravent.{module}"), name))}
    assert sorted(exported - used) == []
