"""Deterministic CSV, JSON and SVG emitters for sweep-style records.

Every emitter embeds the resolved run configuration so an output file is
enough to reproduce the computation exactly.  Formatting is fully
deterministic (repr for floats, no timestamps), so identical runs yield
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import EmptyDataError


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    if isinstance(value, tuple):
        return ";".join(value)
    return str(value)


def emit_csv(columns: list[str], records: list[tuple], meta: dict) -> str:
    """Comment block of metadata, then an RFC-4180-style table."""
    buf = io.StringIO()
    buf.write("# gravent output\n")
    for key in sorted(meta):
        buf.write(f"# {key} = {meta[key]!r}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_cell(v) for v in rec])
    return buf.getvalue()


def _jsonable(value):
    if isinstance(value, float):
        return None if not math.isfinite(value) else float(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def emit_json(columns: list[str], records: list[tuple], meta: dict) -> str:
    """{"meta": ..., "rows": [...]} with NaN rendered as null."""
    rows = [{c: _jsonable(v) for c, v in zip(columns, rec)} for rec in records]
    return json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"


def _escape(text: str) -> str:
    """XML character data: & first, so the other two entities stay intact."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56


def _runs(points):
    """Split a point list into contiguous finite runs (gaps at NaN)."""
    run, out = [], []
    for x, y in points:
        if math.isfinite(x) and math.isfinite(y):
            run.append((x, y))
        elif run:
            out.append(run)
            run = []
    if run:
        out.append(run)
    return out


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def emit_svg(series: dict[str, list[tuple[float, float]]],
             axes: tuple[str, str],
             title: str = "",
             meta: dict | None = None) -> str:
    """Standalone SVG 1.1 line plot, one polyline per contiguous run.

    `series` maps a label to (x, y) points in grid order; NaN values open
    a gap in the corresponding polyline.  Needs at least two rows.
    """
    npoints = max((len(pts) for pts in series.values()), default=0)
    if npoints < 2:
        raise EmptyDataError("need at least 2 rows to plot")
    runs_by_label = {label: _runs(pts) for label, pts in series.items()}
    finite = [pt for runs in runs_by_label.values() for run in runs for pt in run]
    if not finite:
        raise EmptyDataError("no finite data points to plot")

    xs = [p[0] for p in finite]
    ys = [p[1] for p in finite]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _ML - _MR)

    def py(y: float) -> float:
        return _HEIGHT - _MB - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<desc>{_escape(json.dumps(meta or {}, sort_keys=True))}</desc>",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    axis_style = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{_ML}" y1="{_HEIGHT - _MB}" x2="{_WIDTH - _MR}" '
                 f'y2="{_HEIGHT - _MB}" {axis_style}/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" '
                 f'y2="{_HEIGHT - _MB}" {axis_style}/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_HEIGHT - _MB}" x2="{x:.2f}" '
                     f'y2="{_HEIGHT - _MB + 5}" {axis_style}/>')
        parts.append(f'<text x="{x:.2f}" y="{_HEIGHT - _MB + 20}" '
                     f'font-size="12" text-anchor="middle">{t:.4g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" {axis_style}/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{t:.4g}</text>')
    parts.append(f'<text x="{(_ML + _WIDTH - _MR) / 2:.1f}" y="{_HEIGHT - 12}" '
                 f'font-size="14" text-anchor="middle">{_escape(axes[0])}</text>')
    parts.append(f'<text x="18" y="{(_MT + _HEIGHT - _MB) / 2:.1f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{(_MT + _HEIGHT - _MB) / 2:.1f})">{_escape(axes[1])}</text>')
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="24" font-size="16" '
                     f'text-anchor="middle">{_escape(title)}</text>')

    for idx, (label, runs) in enumerate(runs_by_label.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        for run in runs:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in run)
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{pts}"/>')
        if len(series) > 1:
            y_leg = _MT + 16 * idx
            parts.append(f'<line x1="{_WIDTH - _MR - 120}" y1="{y_leg}" '
                         f'x2="{_WIDTH - _MR - 96}" y2="{y_leg}" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{_WIDTH - _MR - 90}" y="{y_leg + 4}" '
                         f'font-size="12">{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
