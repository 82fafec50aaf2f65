"""Command-line front end.

Subcommands: figure, sweep, zeros, horizons, minima, radial-check,
frame-compare, validate.  `figure N` is a preset sweep: figure_preset(N)
with its flags laid on top, as `sweep` lays its flags on --config.
`minima --figure N` takes the sweep flags on top of preset N the same way.
A --config file holds exactly the keys of its command's flags, so every
setting changes what the command prints: a sweep takes no value for its
swept variable, `minima` takes no --stationary-phase or format, and
--bell exists only on radial-check, since all four Bell inputs share a
sweep's concurrence.  Sweep-style
commands emit CSV (default), JSON or SVG with the resolved configuration
embedded, so identical invocations produce byte-identical files.
Unreadable or malformed input exits 2, input outside the domain exits 1.
`horizons` and `zeros` run on gravent.roots and the standard library;
every other command loads the numpy pipeline before it runs.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import importlib
import sys

from . import __version__
from .errors import DomainError, GraventError
from .roots import BELL_TAGS, SWEEP_VARIABLES, check_domain, horizons, theta_zeros

# The names the pipeline commands call, by module.  `horizons` and `zeros`
# need none of them, so they are bound here only when first needed
# (_load_pipeline), and those two commands never import numpy.
_PIPELINE = {
    "entanglement": ("BELL_STATES", "bell_state"),
    "experiments": ("SweepSpec", "figure_preset", "find_entanglement_minima",
                    "frame_comparison", "oracle_equivalence_report",
                    "radial_invariance_check", "resolve_sweep", "run_sweep",
                    "validation_checks"),
    "output": ("emit_csv", "emit_json", "emit_svg"),
    # product_integral is not called here; perfbench/layers.py traces it at this module
    "wigner": ("OrbitParams", "product_integral"),
}
# the commands that run on roots and the standard library alone
_LIGHT_COMMANDS = ("horizons", "zeros")
# every command, in the order `gravent -h` lists them
_COMMANDS = ("figure", "sweep", "zeros", "horizons", "minima", "radial-check", "frame-compare",
             "validate")
# atexit.register(gc.freeze) on the first call only: see main
_freeze_at_exit = functools.cache(lambda: atexit.register(gc.freeze))


def _load_pipeline() -> None:
    """Bind the pipeline's names in this module, keeping any already set.

    A name set on this module before the first load (a wrapper put on
    cli.run_sweep, say) stays the one the commands call.  A name is bound
    as its module defines it: a wrapper put on that module's attribute in
    the meantime is left out, as when this module imported the pipeline
    up front, so a call through cli does not pass two wrappers.  Loading
    again binds nothing new.
    """
    import inspect  # loaded with numpy anyway; `horizons` and `zeros` need none of it

    names = globals()
    for module, attrs in _PIPELINE.items():
        loaded = importlib.import_module(f"{__package__}.{module}")
        for attr in attrs:
            names.setdefault(attr, inspect.unwrap(
                getattr(loaded, attr), stop=lambda f: f.__module__ == loaded.__name__))


def __getattr__(name: str):
    if any(name in attrs for attrs in _PIPELINE.values()):
        _load_pipeline()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# valid for every xi2 (z+ <= 1), so the swept variable's default is its
# placeholder in the fixed orbit, which each row overwrites
_FIXED_DEFAULTS = {"xi2": 0.0, "z": 2.0, "q": 0.6, "beta": 1.0, "tau_ratio": 5.0}
_FORMATS = ("csv", "json", "svg")
# parsed dests that are not config keys
_NOT_CONFIG = {"command", "fn", "config", "figure"}
# the non-numeric config values and what each must be
_VALUE_CHECKS = {
    "stationary_phase": (lambda v: isinstance(v, bool), "true or false"),
    "format": (lambda v: v in _FORMATS, f"one of {_FORMATS}"),
    "output": (lambda v: isinstance(v, str), "a string"),
}


class _UsageError(Exception):
    pass


def _spec_dict(spec: SweepSpec) -> dict:
    """A spec's range and fixed orbit values, as flat keys."""
    flat = {"variable": spec.variable, "lo": spec.lo, "hi": spec.hi,
            "samples": spec.samples}
    for key in _FIXED_DEFAULTS:
        if key != spec.variable:
            flat[key] = getattr(spec.fixed, key)
    return flat


def preset_config(n: int) -> dict:
    """The flat key/value form of figure_preset(n), suitable for --config."""
    _load_pipeline()
    return _spec_dict(figure_preset(n))


def _number(cfg: dict, key: str) -> float:
    value = cfg[key]
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise _UsageError(f"{key} must be a number, got {value!r}")


def _spec_from_config(cfg: dict) -> SweepSpec:
    variable = cfg.get("variable")
    check_domain({"variable": variable})  # before cfg.get(variable), which a list would crash
    if cfg.get("lo") is None or cfg.get("hi") is None:
        raise DomainError("a sweep needs 'lo' and 'hi'")
    if cfg.get(variable) is not None:
        raise _UsageError(f"{variable} is the swept variable: give its range "
                          f"as lo and hi, not {variable}")
    lo, hi = _number(cfg, "lo"), _number(cfg, "hi")
    fixed = {key: default if cfg.get(key) is None else _number(cfg, key)
             for key, default in _FIXED_DEFAULTS.items()}
    samples = cfg.get("samples")
    samples = 400 if samples is None else samples
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise _UsageError(f"samples must be an integer, got {samples!r}")
    return SweepSpec(variable, lo, hi, samples, OrbitParams(**fixed))


def _sweep_spec(args) -> tuple[SweepSpec, dict]:
    """The spec of `figure`, `sweep` and `minima`, and the settings it came from.

    Starts from preset_config(N) when a figure number is given and from
    --config otherwise, then lays every flag that was given on top.  The
    settings are the command's flags: a config may hold no other key.
    """
    keys = vars(args).keys() - _NOT_CONFIG
    figure = getattr(args, "figure", None)
    config = getattr(args, "config", None)
    if figure is not None and config is not None:
        raise _UsageError("give a figure number or --config, not both")
    cfg = preset_config(figure) if figure is not None else _load_config(config, keys)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    for key, (valid, expected) in _VALUE_CHECKS.items():
        if cfg.get(key) is not None and not valid(cfg[key]):
            raise _UsageError(f"{key} must be {expected}, got {cfg[key]!r}")
    return _spec_from_config(cfg), cfg


def _sweep_meta(spec: SweepSpec, notes: tuple[str, ...]) -> dict:
    return {"package": f"gravent {__version__}", **_spec_dict(spec), "notes": list(notes)}


def _render(fmt: str, columns, records, meta: dict, series: dict, axes, title: str) -> str:
    """The records as CSV or JSON under columns, or the series plotted as SVG."""
    if fmt == "csv":
        return emit_csv(columns, records, meta)
    if fmt == "json":
        return emit_json(columns, records, meta)
    return emit_svg(series, axes=axes, title=title, meta=meta)


def render_sweep(spec: SweepSpec, stationary_phase: bool, fmt: str) -> str:
    _load_pipeline()
    resolved, notes = resolve_sweep(spec)
    rows = run_sweep(resolved, stationary_phase)
    meta = {**_sweep_meta(resolved, notes), "stationary_phase": stationary_phase}
    return _render(fmt, [resolved.variable, "C", "S", "concurrence", "E", "flags"], rows,
                   meta, {"E": [(r.x, r.E) for r in rows]}, (resolved.variable, "E"),
                   f"E vs {resolved.variable}")


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {output}: {exc.strerror or exc}") from None


def _load_config(path: str | None, keys: set[str]) -> dict:
    if path is None:
        return {}
    import json  # only a config is read as JSON; `horizons` and `zeros` need none of it

    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise _UsageError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise _UsageError(f"config {path} must hold a JSON object, "
                          f"got {type(cfg).__name__}")
    unknown = cfg.keys() - keys
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _cmd_sweep(args) -> int:
    spec, cfg = _sweep_spec(args)
    text = render_sweep(spec, bool(cfg.get("stationary_phase")), cfg.get("format") or "csv")
    _write(text, cfg.get("output"))
    return 0


def _print_roots(roots: list[float], empty: str) -> int:
    if not roots:
        print(empty)
    for z in roots:
        print(f"{z:.10g}")
    return 0


def _cmd_minima(args) -> int:
    spec, cfg = _sweep_spec(args)
    minima = find_entanglement_minima(spec)
    meta = {**_sweep_meta(*resolve_sweep(spec)), "feature": "entanglement minima"}
    _write(emit_csv(["z", "E"], [(z, e) for z, e in minima], meta), cfg.get("output"))
    return 0


def _cmd_radial_check(args) -> int:
    states = BELL_STATES if args.bell in (None, "all") else (bell_state(args.bell),)
    for report in radial_invariance_check(states):
        print(f"{report.bell_tag}: PASS  (rotation angle {report.rotation_angle:.3e}, "
              f"max deviation {report.max_deviation:.3e})")
    return 0


def _cmd_frame_compare(args) -> int:
    check_domain({"count": args.samples, "lo": args.r_lo, "hi": args.r_hi,
                  "span": args.r_hi - args.r_lo},
                 {"count": "samples", "lo": "r_lo", "hi": "r_hi", "span": "r_hi - r_lo"})
    import numpy as np

    rows = frame_comparison(np.linspace(args.r_lo, args.r_hi, args.samples), args.q, args.p)
    meta = {
        "package": f"gravent {__version__}",
        "r_lo": args.r_lo, "r_hi": args.r_hi, "samples": args.samples,
        "q": args.q, "p": args.p,
    }
    text = _render(args.format, ["r", "static_rate", "kruskal_rate", "flags"], rows, meta,
                   {"static": [(r.r, r.static_rate) for r in rows],
                    "kruskal": [(r.r, r.kruskal_rate) for r in rows]},
                   ("r", "rotation rate"), "frame comparison")
    _write(text, args.output)
    return 0


def _cmd_validate(args) -> int:
    checks = validation_checks(oracle_equivalence_report(draws=args.draws))
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    failures = sum(not passed for _, passed, _ in checks)
    print(f"{'ALL CHECKS PASSED' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return 0 if failures == 0 else 1


def _add_sweep_flags(sub) -> None:
    sub.add_argument("--variable", choices=SWEEP_VARIABLES)
    sub.add_argument("--lo", type=float)
    sub.add_argument("--hi", type=float)
    sub.add_argument("--samples", type=int)
    for key in _FIXED_DEFAULTS:
        sub.add_argument("--" + key.replace("_", "-"), type=float)
    sub.add_argument("--config", help="JSON file with the same keys as the flags")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand's parser, or only `command`'s where it names one, under a
    usage that lists them all, so the help and usage errors are the same."""
    parser = argparse.ArgumentParser(
        prog="gravent",
        description="Spin entanglement of orbiting two-particle wave packets "
                    "around charged black holes.",
    )
    one = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(_COMMANDS) if one else None)

    def add(name, text):  # None for a subcommand not asked for
        return sub.add_parser(name, help=text) if name == command or not one else None

    if p := add("figure", "run one of the six built-in sweeps"):
        p.add_argument("figure", metavar="n", type=int, choices=range(1, 7))
        p.add_argument("--samples", type=int)
        p.add_argument("--format", choices=_FORMATS, default="csv")
        p.add_argument("-o", "--output")
        p.add_argument("--stationary-phase", dest="stationary_phase", action="store_true")
        p.set_defaults(fn=_cmd_sweep)

    if p := add("sweep", "run a custom parameter sweep"):
        _add_sweep_flags(p)
        # default None, not False, so that an absent flag leaves the config's value
        p.add_argument("--stationary-phase", dest="stationary_phase",
                       action="store_true", default=None,
                       help="report E=0 for rows whose moments oscillate too "
                            "fast to converge (horizon limit convention)")
        p.add_argument("--format", choices=_FORMATS)
        p.add_argument("-o", "--output")
        p.set_defaults(fn=_cmd_sweep)

    if p := add("zeros", "orbit radii where the rotation angle vanishes"):
        p.add_argument("--xi2", type=float, required=True)
        p.set_defaults(fn=lambda args: _print_roots(theta_zeros(args.xi2), "no zeros"))

    if p := add("horizons", "event horizon radii for a given charge"):
        p.add_argument("--xi2", type=float, required=True)
        p.set_defaults(fn=lambda args: _print_roots(horizons(args.xi2),
                                                    "no horizons (naked singularity)"))

    if p := add("minima", "locate entanglement minima of a z-sweep"):
        p.add_argument("--figure", type=int, choices=range(1, 7))
        _add_sweep_flags(p)
        p.add_argument("-o", "--output")
        p.set_defaults(fn=_cmd_minima)

    if p := add("radial-check", "verify radial free fall leaves Bell states intact"):
        p.add_argument("--bell", choices=list(BELL_TAGS) + ["all"], default="all")
        p.set_defaults(fn=_cmd_radial_check)

    if p := add("frame-compare", "static versus falling-frame rotation rates"):
        p.add_argument("--r-lo", dest="r_lo", type=float, default=1.01)
        p.add_argument("--r-hi", dest="r_hi", type=float, default=10.0)
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--q", type=float, default=1.0)
        p.add_argument("--p", type=float, default=0.0)
        p.add_argument("--format", choices=_FORMATS, default="csv")
        p.add_argument("-o", "--output")
        p.set_defaults(fn=_cmd_frame_compare)

    if p := add("validate", "run the oracle-equivalence and invariant suites"):
        p.add_argument("--draws", type=int, default=100)
        p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    # Finalization's full collections walk every tracked object, some 20k once
    # numpy is loaded (about 15 ms); frozen at exit, they are left to refcounting
    # alone.  Registered first, so a usage error exits frozen too, and not on
    # import, so that a caller that only imports this module keeps its collector.
    _freeze_at_exit()
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command not in _LIGHT_COMMANDS:
            _load_pipeline()
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GraventError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
