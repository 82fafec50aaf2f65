"""Correctness checks on the output of one ``gravent`` command.

Standard library only, so the parent process never imports the program.
Outputs must parse, sweep-style outputs must hold exactly ``samples``
rows that satisfy the row invariants (``row_errors``, which the sweep
gate shares), an SVG plot must hold one point per finite-E row of the
same sweep in CSV (``svg_matches_rows``), ``horizons`` and ``zeros``
must match the roots of their quadratics, ``minima`` must find the
preset's known minima, and ``validate`` must end with ``ALL CHECKS
PASSED``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

ROOT_TOL = 1e-9          # relative; the CLI prints roots with %.10g
CONCURRENCE_TOL = 1e-8   # concurrence against C^2 + S^2
ENTROPY_TOL = 1e-9       # E against the entanglement of formation of K
KNOWN_FLAGS = {"domain", "horizon", "no-convergence", "reduced-tolerance",
               "stationary-phase"}
PRESET_SAMPLES = 400
PRESET_Z_RANGE = {4: (0.8, 6.0), 5: (0.0, 6.0), 6: (0.0, 6.0)}
# The minima of E that `gravent minima --figure N` reports at the commit
# the benchmark was written against; each must still be found within
# MINIMA_Z_TOL (about three grid steps).  Figure 6 has none.
PRESET_MINIMA = {4: (2.2864,), 5: (0.6633, 1.9395), 6: ()}
MINIMA_Z_TOL = 0.05
SVG_NS = "{http://www.w3.org/2000/svg}"


def _roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a z^2 + b z + c, ascending (one for a double root)."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-b / (2.0 * a)]
    d = math.sqrt(disc)
    return sorted([(-b - d) / (2.0 * a), (-b + d) / (2.0 * a)])


def expected_horizons(xi2: float) -> list[float]:
    return _roots(1.0, -1.0, xi2)


def expected_zeros(xi2: float) -> list[float]:
    horizons = expected_horizons(xi2)
    floor = horizons[-1] if horizons else 0.0
    return [z for z in _roots(2.0, -3.0, 4.0 * xi2) if z > floor]


def _check_roots(stdout: str, expected: list[float], empty: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not expected:
        return [] if lines == [empty] else [f"expected {empty!r}, got {lines}"]
    try:
        got = [float(line) for line in lines]
    except ValueError:
        return [f"unparsable roots {lines}"]
    if len(got) != len(expected) or any(
            abs(g - e) > ROOT_TOL * max(1.0, abs(e)) for g, e in zip(got, expected)):
        return [f"roots {got} != expected {expected}"]
    return []


def entanglement_reference(k: float) -> float:
    """E = h((1 + sqrt(1 - K^2)) / 2) with the binary entropy h."""
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - k * k)))
    return sum(-v * math.log2(v) for v in (x, 1.0 - x) if v > 0.0)


def row_errors(row: dict, stationary: bool) -> list[str]:
    """Invariants of one sweep record: C, S, concurrence, E and a flag list.

    With `stationary`, rows the quadrature could not resolve carry the
    stationary-phase flag and zero values; without it they are NaN.
    """
    flags = row["flags"]
    values = tuple(row[key] for key in ("C", "S", "concurrence", "E"))
    c, s, k, e = values
    if not set(flags) <= KNOWN_FLAGS:
        return [f"unknown flags {flags}"]
    if "domain" in flags:
        return [] if all(math.isnan(v) for v in values) else ["domain row has values"]
    imputed = "no-convergence" in flags or "horizon" in flags
    if ("stationary-phase" in flags) != (imputed and stationary):
        return [f"flags {flags} do not match the stationary-phase option"]
    if imputed:
        ok = all(v == 0.0 if stationary else math.isnan(v) for v in values)
        return [] if ok else [f"imputed row values {values}"]
    if not all(math.isfinite(v) for v in values):
        return ["computed row is not finite"]
    if abs(k - (c * c + s * s)) > CONCURRENCE_TOL:
        return [f"concurrence {k!r} != C^2+S^2 {c * c + s * s!r}"]
    if not 0.0 <= e <= 1.0:
        return [f"E={e!r} outside [0, 1]"]
    if abs(e - entanglement_reference(min(k, 1.0))) > ENTROPY_TOL:
        return [f"E={e!r} does not match the concurrence {k!r}"]
    return []


def _parse_csv(stdout: str) -> tuple[list[str], list[list[str]]]:
    body = "".join(line for line in io.StringIO(stdout) if not line.startswith("#"))
    table = list(csv.reader(io.StringIO(body)))
    return table[0], table[1:]


def _sweep_rows(fmt: str, stdout: str) -> list[dict]:
    if fmt == "json":
        rows = json.loads(stdout)["rows"]
        return [{k: (math.nan if v is None else v) if k != "flags" else v
                 for k, v in row.items()} for row in rows]
    header, records = _parse_csv(stdout)
    if header[1:] != ["C", "S", "concurrence", "E", "flags"]:
        raise ValueError(f"unexpected header {header}")
    return [{"C": float(r[1]), "S": float(r[2]), "concurrence": float(r[3]),
             "E": float(r[4]), "flags": r[5].split(";") if r[5] else []}
            for r in records]


def _check_sweep_output(fmt: str, stdout: str, samples: int,
                        stationary: bool) -> list[str]:
    if fmt == "svg":
        meta = json.loads(ET.fromstring(stdout).find(SVG_NS + "desc").text)
        if meta["samples"] != samples:
            return [f"svg made for {meta['samples']} samples, not {samples}"]
        return []  # the points are checked by svg_matches_rows
    rows = _sweep_rows(fmt, stdout)
    if len(rows) != samples:
        return [f"{len(rows)} rows for {samples} samples"]
    return [err for row in rows for err in row_errors(row, stationary)]


def svg_matches_rows(svg: str, csv_text: str) -> list[str]:
    """Errors unless the SVG plot of a sweep draws its CSV rows.

    The plot holds one polyline per contiguous run of rows with finite E,
    with one point per row.
    """
    try:
        runs, current = [], 0
        for row in _sweep_rows("csv", csv_text):
            if math.isfinite(row["E"]):
                current += 1
            elif current:
                runs, current = runs + [current], 0
        runs += [current] if current else []
        got = [len(line.get("points").split())
               for line in ET.fromstring(svg).iter(SVG_NS + "polyline")]
    except (ValueError, IndexError, AttributeError, ET.ParseError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
    if got != runs:
        return [f"svg polylines hold {got} points; the finite-E rows run {runs}"]
    return []


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_command(argv: list[str], stdout: str) -> list[str]:
    """Error messages for the output of ``gravent <argv>``; empty when correct."""
    kind = argv[0]
    try:
        if kind == "horizons":
            return _check_roots(stdout, expected_horizons(float(argv[2])),
                                "no horizons (naked singularity)")
        if kind == "zeros":
            return _check_roots(stdout, expected_zeros(float(argv[2])), "no zeros")
        if kind in ("figure", "sweep"):
            samples = int(_option(argv, "--samples", PRESET_SAMPLES))
            return _check_sweep_output(_option(argv, "--format", "csv"), stdout,
                                       samples, "--stationary-phase" in argv)
        if kind == "minima":
            lo, hi = PRESET_Z_RANGE[int(argv[2])]
            header, records = _parse_csv(stdout)
            bad = [r for r in records
                   if not (lo < float(r[0]) < hi and 0.0 <= float(r[1]) <= 1.0)]
            if header != ["z", "E"] or bad:
                return [f"minima output {header} has bad rows {bad}"]
            found = [float(r[0]) for r in records]
            lost = [z for z in PRESET_MINIMA[int(argv[2])]
                    if not any(abs(f - z) <= MINIMA_Z_TOL for f in found)]
            return [f"minima near z={lost} not found in {found}"] if lost else []
        if kind == "validate":
            lines = stdout.rstrip("\n").splitlines()
            return [] if lines and lines[-1] == "ALL CHECKS PASSED" else [
                f"validate ended with {lines[-1:]}"]
    except (ValueError, KeyError, IndexError, AttributeError, ET.ParseError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
    return [f"no check for command {kind!r}"]
