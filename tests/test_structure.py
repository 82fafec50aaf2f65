"""Where the package keeps its rules, checked on the source's syntax trees.

Whether a circular orbit of radius z exists is decided in one function,
roots.no_orbit.  The metric's own horizon test (metric_potentials) is
the one other reader of HORIZON_TOL, because the metric is real below
the inner horizon, where no orbit exists.  Whether a sweep row runs on
the real line is decided by the bound that clears its nodes of the alias
test, entanglement._cleared.
"""

import ast
from pathlib import Path

import gravent

PACKAGE = Path(gravent.__file__).parent


def _reads(module: str, names: set[str]) -> set[tuple[str, str]]:
    """(module, innermost def) of every load of one of names, as a name or an attribute."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load):
            found.add((module, where))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), "<module>")
    return found


def _modules() -> list[str]:
    return sorted(path.stem for path in PACKAGE.glob("*.py"))


def test_horizon_tol_is_read_by_the_orbit_rule_and_the_metric_only():
    readers = set().union(*(_reads(module, {"HORIZON_TOL"}) for module in _modules()))
    assert readers == {("roots", "no_orbit"), ("spacetime", "metric_potentials")}


def test_a_rows_line_is_chosen_by_the_real_lines_alias_bound():
    # _s_line puts a row on the real line where entanglement._cleared clears
    # its turn at 128 intervals, the bound that also spares the row's nodes
    # the alias test; a threshold of experiments' own would be a second rule
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    s_line = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_s_line")
    assert _reads("experiments", {"_cleared"}) == {("experiments", "_s_line")}
    assert not any(isinstance(node, ast.Compare) for node in ast.walk(s_line))
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    assert not {name for name in constants if "TURN" in name}


def test_wigner_and_spacetime_take_no_horizon_radius():
    # a radius compared with a horizon would be a second orbit rule
    for module in ("wigner", "spacetime"):
        assert _reads(module, {"outer_horizon", "horizons"}) == set(), module
