"""Tiny SVG line plots, with numpy as the only dependency. Output is a pure function of the data."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56  # margins
#: px and py as one (x, y) row: scale (pw, -ph), then shift by the plot area's lower-left corner
_SCALE = np.array([_W - _ML - _MR, -(_H - _MT - _MB)], dtype=np.float64)
_ORIGIN = np.array([_ML, _H - _MB], dtype=np.float64)


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = (hi - lo) / (count - 1)
    return [lo + i * span for i in range(count)]


def _escape(text) -> str:
    """``str(text)`` as XML character data: what ``xml.sax.saxutils.escape`` gives, without
    importing it (it imports ``urllib.request``, and with it ``http.client`` and ``ssl``)."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def line_plot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render labeled (xs, ys) series as an SVG document string.

    The title, axis labels and series labels are escaped as XML text. A
    series holding a NaN or an infinite value raises ValueError naming it,
    and so do values whose range is wider than the largest float.
    """
    if not series:
        raise ValueError("need at least one series")
    ends = []
    for label, xs, ys in series:
        if len(xs) != len(ys) or len(xs) == 0:
            raise ValueError(f"series {label!r}: xs and ys must be non-empty and equal length")
        ends.append((ends[-1] if ends else 0) + len(xs))
    pts = np.empty((ends[-1], 2))  # every (x, y), series after series
    for (_, xs, ys), start, end in zip(series, [0, *ends], ends):
        pts[start:end, 0], pts[start:end, 1] = xs, ys
    # a bound's sign of zero never shows: the first tick is lo + 0.0, and a pixel adds a margin
    lo = pts.min(axis=0)
    (x_lo, y_lo), (x_hi, y_hi) = lo.tolist(), pts.max(axis=0).tolist()
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi))):  # min and max pass a nan on
        for (label, _, _), start, end in zip(series, [0, *ends], ends):
            if not np.isfinite(pts[start:end]).all():
                raise ValueError(f"series {label!r}: values must be finite")
    if math.isinf(x_hi - x_lo) or math.isinf(y_hi - y_lo):
        raise ValueError(f"values from ({x_lo!r}, {y_lo!r}) to ({x_hi!r}, {y_hi!r}) "
                         "span more than the float range")
    # a flat range widens by 1, or by one ulp where 1 is below the spacing of floats
    if x_hi == x_lo:
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    if y_hi == y_lo:
        y_hi = max(y_lo + 1.0, math.nextafter(y_lo, math.inf))
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>')
    # axes
    out.append(
        f'<path d="M {_ML} {_MT} V {_MT + ph} H {_ML + pw}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        out.append(f'<line x1="{px(tx):.2f}" y1="{_MT + ph}" x2="{px(tx):.2f}" y2="{_MT + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px(tx):.2f}" y="{_MT + ph + 20}" text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        out.append(f'<line x1="{_ML - 5}" y1="{py(ty):.2f}" x2="{_ML}" y2="{py(ty):.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py(ty) + 4:.2f}" text-anchor="end">{_fmt(ty)}</text>')
    if xlabel:
        out.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        out.append(
            f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {_MT + ph / 2:.1f})">{_escape(ylabel)}</text>'
        )
    # data: px and py of every point with their roundings, in place (q * -ph + (_MT + ph)
    # is the float (_MT + ph) - q * ph), then one %.2f format per series
    pts -= lo
    pts /= np.array([x_hi - x_lo, y_hi - y_lo])
    pts *= _SCALE
    pts += _ORIGIN
    flat = pts.ravel().tolist()
    for k, (start, end) in enumerate(zip([0, *ends], ends)):
        color = _COLORS[k % len(_COLORS)]
        points = ("%.2f,%.2f " * (end - start))[:-1] % tuple(flat[2 * start:2 * end])
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>')
    # legend
    lx, ly = _ML + 12, _MT + 10
    for k, (label, _, _) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        out.append(f'<line x1="{lx}" y1="{ly + 16 * k}" x2="{lx + 22}" y2="{ly + 16 * k}" stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 16 * k + 4}">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
