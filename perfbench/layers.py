"""Where the benchmark traces gravent, and what it counts there.

Each public function is wrapped at every module attribute through which
the library or the CLI calls it, so spans nest the way the calls do:
run_sweep > trig_moments > theta_circular, and cli.main above them in a
command.  The hooks count work at the same boundaries (momenta
evaluated, final node counts, rows by flag, bytes emitted).
"""

from __future__ import annotations

import gravent.cli as cli
import gravent.entanglement as entanglement
import gravent.experiments as experiments
from gravent.errors import ConvergenceError


def row_kind(flags: tuple[str, ...]) -> str:
    """The experiments.rows.* bucket of one sweep row."""
    for flag, kind in (("domain", "domain"), ("horizon", "horizon"),
                       ("no-convergence", "no_convergence"),
                       ("reduced-tolerance", "reduced_tolerance")):
        if flag in flags:
            return kind
    return "computed"


def _trig_moments_hooks(tracer):
    sizes: list[list[int]] = []

    def before(args, kwargs):
        theta_fn = args[0]
        seen: list[int] = []
        sizes.append(seen)

        def counted(p):
            seen.append(int(p.size))
            return theta_fn(p)

        return (counted,) + args[1:], kwargs

    def after(args, kwargs, result, exc):
        seen = sizes.pop()
        quad = args[2] if len(args) > 2 else kwargs.get("quad", entanglement.DEFAULT_QUAD)
        key = "entanglement.trig_moments."
        tracer.add(key + "momenta", sum(seen))
        if isinstance(exc, ConvergenceError):
            tracer.add(key + "failed")
            tracer.add(key + "at_cap")
        elif result is not None:
            tracer.add(key + "useful_momenta", seen[-1])
            tracer.samples[key + "nodes_final"].append(result.nodes)
            tracer.note_max(key + "residual_max", result.residual)
            if result.nodes >= quad.max_nodes:
                tracer.add(key + "at_cap")

    return before, after


def _theta_after(tracer):
    def after(args, kwargs, result, exc):
        if result is not None:
            tracer.add("wigner.theta_circular.points", float(getattr(result, "size", 1)))
    return after


def _run_sweep_after(tracer):
    def after(args, kwargs, result, exc):
        for row in result or ():
            tracer.add("experiments.rows." + row_kind(row.flags))
    return after


def _product_integral_before(tracer):
    def before(args, kwargs):
        steps = args[3] if len(args) > 3 else kwargs["steps"]
        tracer.add("wigner.product_integral.steps", steps)
        return args, kwargs
    return before


def _emit_after(tracer, name):
    def after(args, kwargs, result, exc):
        if result is not None:
            tracer.add(f"output.{name}.bytes", len(result.encode("utf-8")))
    return after


def install(tracer) -> None:
    """Wrap every traced layer function; ``tracer.uninstall`` undoes it."""
    before, after = _trig_moments_hooks(tracer)
    tracer.wrap(experiments, "trig_moments", "entanglement.trig_moments", before, after)
    tracer.wrap(experiments, "theta_circular", "wigner.theta_circular",
                after=_theta_after(tracer))
    for name in ("reduced_density_closed", "wootters_concurrence",
                 "entanglement_of_formation", "reduced_density_bruteforce"):
        tracer.wrap(experiments, name, f"entanglement.{name}")
    for module in (experiments, cli):
        tracer.wrap(module, "run_sweep", "experiments.run_sweep",
                    after=_run_sweep_after(tracer))
        tracer.wrap(module, "product_integral", "wigner.product_integral",
                    before=_product_integral_before(tracer))
    tracer.wrap(cli, "oracle_equivalence_report", "experiments.oracle_equivalence_report")
    tracer.wrap(cli, "theta_zeros", "wigner.theta_zeros")
    for name in ("emit_csv", "emit_json", "emit_svg"):
        tracer.wrap(cli, name, f"output.{name}", after=_emit_after(tracer, name))
    tracer.wrap(cli, "main", "cli.main")
