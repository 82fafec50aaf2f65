"""Command-line front end.

Subcommands: figure, sweep, zeros, horizons, minima, radial-check,
frame-compare, validate.  `figure N` is a preset sweep: figure_preset(N)
with its flags laid on top, as `sweep` lays its flags on --config.
`minima --figure N` takes the sweep flags on top of preset N the same way.
A --config file holds exactly the keys of its command's flags, so every
setting changes what the command prints: `minima` takes no
--stationary-phase or format, and --bell exists only on radial-check,
since all four Bell inputs share a sweep's concurrence.  Sweep-style
commands emit CSV (default), JSON or SVG with the resolved configuration
embedded, so identical invocations produce byte-identical files.
Unreadable or malformed input exits 2, input outside the domain exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .entanglement import BELL_STATES, bell_state
from .errors import DomainError, GraventError
from .experiments import (
    SWEEP_VARIABLES,
    SweepSpec,
    figure_preset,
    find_entanglement_minima,
    frame_comparison,
    oracle_equivalence_report,
    radial_invariance_check,
    resolve_sweep,
    run_sweep,
)
from .output import emit_csv, emit_json, emit_svg
from .spacetime import (
    ChargedBlackHole,
    ETA,
    frame_transform_matrix,
    horizons,
    kruskal_map,
)
from .wigner import (
    OrbitParams,
    product_integral,
    rotation_matrix,
    spin_rep,
    theta_zeros,
    wigner_rate_matrix,
)

_FIXED_DEFAULTS = {"xi2": 0.0, "z": 2.0, "q": 0.6, "beta": 1.0, "tau_ratio": 5.0}
_PLACEHOLDERS = {"q": 0.0, "tau_ratio": 0.0}
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
    if variable not in SWEEP_VARIABLES:
        raise DomainError(f"a sweep needs 'variable', one of {SWEEP_VARIABLES}, "
                          f"got {variable!r}")
    if cfg.get("lo") is None or cfg.get("hi") is None:
        raise DomainError("a sweep needs 'lo' and 'hi'")
    lo, hi = _number(cfg, "lo"), _number(cfg, "hi")
    fixed_kwargs = {}
    for key, default in _FIXED_DEFAULTS.items():
        if key != variable:
            fixed_kwargs[key] = default if cfg.get(key) is None else _number(cfg, key)
    # any valid value (for z, the range's upper end); overwritten per row
    fixed_kwargs[variable] = _PLACEHOLDERS.get(variable, hi)
    samples = cfg.get("samples")
    samples = 400 if samples is None else samples
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise _UsageError(f"samples must be an integer, got {samples!r}")
    return SweepSpec(variable, lo, hi, samples, OrbitParams(**fixed_kwargs))


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


def render_sweep(spec: SweepSpec, stationary_phase: bool, fmt: str) -> str:
    resolved, notes = resolve_sweep(spec)
    rows = run_sweep(resolved, stationary_phase)
    meta = {**_sweep_meta(resolved, notes), "stationary_phase": stationary_phase}
    columns = [resolved.variable, "C", "S", "concurrence", "E", "flags"]
    records = [(r.x, r.C, r.S, r.concurrence, r.E, r.flags) for r in rows]
    if fmt == "csv":
        return emit_csv(columns, records, meta)
    if fmt == "json":
        return emit_json(columns, records, meta)
    return emit_svg({"E": [(r.x, r.E) for r in rows]},
                    axes=(resolved.variable, "E"),
                    title=f"E vs {resolved.variable}", meta=meta)


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


def _cmd_zeros(args) -> int:
    roots = theta_zeros(args.xi2)
    if not roots:
        print("no zeros")
    for z in roots:
        print(f"{z:.10g}")
    return 0


def _cmd_horizons(args) -> int:
    roots = horizons(args.xi2)
    if not roots:
        print("no horizons (naked singularity)")
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
    for chi in states:
        report = radial_invariance_check(chi)
        print(f"{chi.tag}: PASS  (rotation angle {report.rotation_angle:.3e}, "
              f"max deviation {report.max_deviation:.3e})")
    return 0


def _cmd_frame_compare(args) -> int:
    if args.samples < 1:
        raise DomainError(f"samples must be >= 1, got {args.samples}")
    with np.errstate(invalid="ignore"):  # frame_comparison rejects non-finite ends
        grid = np.linspace(args.r_lo, args.r_hi, args.samples)
    rows = frame_comparison(grid, args.q, args.p)
    meta = {
        "package": f"gravent {__version__}",
        "r_lo": args.r_lo, "r_hi": args.r_hi, "samples": args.samples,
        "q": args.q, "p": args.p,
    }
    columns = ["r", "static_rate", "kruskal_rate", "flags"]
    records = [(r.r, r.static_rate, r.kruskal_rate, r.flags) for r in rows]
    if args.format == "csv":
        text = emit_csv(columns, records, meta)
    elif args.format == "json":
        text = emit_json(columns, records, meta)
    else:
        text = emit_svg(
            {"static": [(r.r, r.static_rate) for r in rows],
             "kruskal": [(r.r, r.kruskal_rate) for r in rows]},
            axes=("r", "rotation rate"), title="frame comparison", meta=meta)
    _write(text, args.output)
    return 0


def _cmd_validate(args) -> int:
    failures = 0

    def check(name: str, passed: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
        failures += 0 if passed else 1

    report = oracle_equivalence_report(draws=args.draws)
    check("oracle equivalence (closed vs brute force)",
          report["max_entry_deviation"] < 1e-8,
          f"max entry deviation {report['max_entry_deviation']:.3e}")
    check("concurrence equals C^2+S^2",
          report["max_concurrence_vs_moments"] < 1e-8,
          f"max |conc - (C^2+S^2)| {report['max_concurrence_vs_moments']:.3e}")
    check("concurrence identical across Bell states",
          report["max_cross_bell_spread"] < 1e-10,
          f"max spread {report['max_cross_bell_spread']:.3e}")
    check("density matrices Hermitian, unit trace, PSD",
          report["max_hermiticity"] < 1e-12
          and report["max_trace_error"] < 1e-10
          and report["min_eigenvalue"] > -1e-10,
          f"herm {report['max_hermiticity']:.1e}, trace {report['max_trace_error']:.1e}, "
          f"min eig {report['min_eigenvalue']:.1e}")
    check("moment bound C^2+S^2 <= 1",
          report["max_moment_norm"] <= 1.0,
          f"max C^2+S^2 = {report['max_moment_norm']:.12f}")

    rng = np.random.default_rng(7)
    dev = 0.0
    for _ in range(50):
        a, b = rng.uniform(-6, 6, 2)
        dev = max(dev, float(np.abs(spin_rep(a) @ spin_rep(b) - spin_rep(a + b)).max()))
    check("spin_rep homomorphism", dev < 1e-12, f"max deviation {dev:.3e}")

    model = ChargedBlackHole(0.16)
    rate = wigner_rate_matrix(model, 1.6, 0.6, 0.3)
    accum = product_integral(lambda tau: rate, 0.0, 2.0, 10_000)
    exact = rotation_matrix(rate[0, 2] * 2.0)
    dev = float(np.abs(accum - exact).max())
    check("product integral vs closed-form rotation", dev < 1e-8,
          f"max deviation {dev:.3e}")

    try:
        dev = max(radial_invariance_check(chi).max_deviation for chi in BELL_STATES)
        check("radial-geodesic invariance (all Bell states)", True,
              f"max deviation {dev:.3e}")
    except GraventError as exc:
        check("radial-geodesic invariance (all Bell states)", False, str(exc))

    dev = 0.0
    for r in np.linspace(1.05, 10.0, 10):
        for t in (-3.0, 0.0, 2.0, 5.0):
            tmat = frame_transform_matrix(kruskal_map(float(r), t))
            dev = max(dev, float(np.abs(tmat @ ETA @ tmat.T - ETA).max()))
    check("frame transform preserves the Minkowski metric", dev < 1e-10,
          f"max deviation {dev:.3e}")

    # roots exist exactly when the discriminant 9 - 32 xi2 is >= 0; the
    # larger one always lies outside the outer horizon
    xi2_grid = (0.0, 0.1, 0.16, 0.25, 0.265, 0.28, 9.0 / 32.0, 0.3, 0.5)
    residual, miscounted = 0.0, []
    for xi2 in xi2_grid:
        roots = theta_zeros(xi2)
        residual = max([residual] + [abs(2 * z * z - 3 * z + 4 * xi2) for z in roots])
        if bool(roots) != (9.0 - 32.0 * xi2 >= 0.0):
            miscounted.append(xi2)
    check("angle zeros are roots of 2z^2 - 3z + 4xi2",
          residual < 1e-14 and not miscounted,
          f"max residual {residual:.3e} over {len(xi2_grid)} xi2 values, root count "
          + (f"wrong at xi2 = {miscounted}" if miscounted else "matches 9 - 32xi2"))

    print(f"{'ALL CHECKS PASSED' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return 0 if failures == 0 else 1


def _add_sweep_flags(sub) -> None:
    sub.add_argument("--variable", choices=SWEEP_VARIABLES)
    sub.add_argument("--lo", type=float)
    sub.add_argument("--hi", type=float)
    sub.add_argument("--samples", type=int)
    sub.add_argument("--xi2", type=float)
    sub.add_argument("--z", type=float)
    sub.add_argument("--q", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--tau-ratio", dest="tau_ratio", type=float)
    sub.add_argument("--config", help="JSON file with the same keys as the flags")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravent",
        description="Spin entanglement of orbiting two-particle wave packets "
                    "around charged black holes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure", help="run one of the six built-in sweeps")
    p.add_argument("figure", metavar="n", type=int, choices=range(1, 7))
    p.add_argument("--samples", type=int)
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument("-o", "--output")
    p.add_argument("--stationary-phase", dest="stationary_phase",
                   action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("sweep", help="run a custom parameter sweep")
    _add_sweep_flags(p)
    # default None, not False, so that an absent flag leaves the config's value
    p.add_argument("--stationary-phase", dest="stationary_phase",
                   action="store_true", default=None,
                   help="report E=0 for rows whose moments oscillate too "
                        "fast to converge (horizon limit convention)")
    p.add_argument("--format", choices=_FORMATS)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("zeros", help="orbit radii where the rotation angle vanishes")
    p.add_argument("--xi2", type=float, required=True)
    p.set_defaults(fn=_cmd_zeros)

    p = sub.add_parser("horizons", help="event horizon radii for a given charge")
    p.add_argument("--xi2", type=float, required=True)
    p.set_defaults(fn=_cmd_horizons)

    p = sub.add_parser("minima", help="locate entanglement minima of a z-sweep")
    p.add_argument("--figure", type=int, choices=range(1, 7))
    _add_sweep_flags(p)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_minima)

    p = sub.add_parser("radial-check",
                       help="verify radial free fall leaves Bell states intact")
    p.add_argument("--bell", choices=[chi.tag for chi in BELL_STATES] + ["all"],
                   default="all")
    p.set_defaults(fn=_cmd_radial_check)

    p = sub.add_parser("frame-compare",
                       help="static versus falling-frame rotation rates")
    p.add_argument("--r-lo", dest="r_lo", type=float, default=1.01)
    p.add_argument("--r-hi", dest="r_hi", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_frame_compare)

    p = sub.add_parser("validate",
                       help="run the oracle-equivalence and invariant suites")
    p.add_argument("--draws", type=int, default=100)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GraventError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
