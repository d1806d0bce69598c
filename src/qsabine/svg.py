"""Minimal deterministic SVG plot writer.

Fixed-geometry stacked panels with linear or log axes, five ticks per
axis, and scatter / polyline / horizontal-rule series.  The output is a
self-contained document whose only run-dependent content is a single
timestamp comment, so repeated renders of the same data are comparable
byte for byte once that comment is stripped.
"""
from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Sequence

__all__ = ["Panel", "render", "MAX_BYTES"]

MAX_BYTES = 2_000_000

_WIDTH = 720.0
_PANEL_HEIGHT = 340.0
_MARGIN_L = 74.0
_MARGIN_R = 18.0
_MARGIN_T = 20.0
_MARGIN_B = 52.0
_TICKS = 5
_POINT_COLOR = "#2b6cb0"
_POINT_RADIUS = 2.2
_LINE_COLOR = "#c53030"
_LINE_WIDTH = 1.4


@dataclasses.dataclass
class _Series:
    kind: str
    xs: tuple
    ys: tuple
    dash: Optional[str] = None


class Panel:
    """One axes rectangle with its data series.

    ``x_scale``/``y_scale`` are "linear" or "log"; log axes require every
    plotted value on that axis to be positive and reject the series
    otherwise, naming the axis.
    """

    def __init__(self, x_label: str, y_label: str,
                 x_scale: str = "linear", y_scale: str = "linear"):
        for scale in (x_scale, y_scale):
            if scale not in ("linear", "log"):
                raise ValueError(f"unknown axis scale {scale!r}")
        self.x_label = str(x_label)
        self.y_label = str(y_label)
        self.x_scale = x_scale
        self.y_scale = y_scale
        self.series: list[_Series] = []

    def _check(self, xs, ys):
        xs = tuple(float(x) for x in xs)
        ys = tuple(float(y) for y in ys)
        if len(xs) != len(ys):
            raise ValueError("x and y lengths differ")
        for name, scale, vals in (("x", self.x_scale, xs), ("y", self.y_scale, ys)):
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"non-finite value on the {name} axis")
            if scale == "log" and any(v <= 0.0 for v in vals):
                raise ValueError(f"log {name} axis requires positive values")
        return xs, ys

    def scatter(self, xs, ys):
        xs, ys = self._check(xs, ys)
        self.series.append(_Series("scatter", xs, ys))

    def line(self, xs, ys, dash: Optional[str] = None):
        """Polyline; ``dash`` is an SVG stroke-dasharray such as "5,4"."""
        xs, ys = self._check(xs, ys)
        if len(xs) < 2:
            raise ValueError("a polyline needs at least two points")
        self.series.append(_Series("line", xs, ys, dash))

    def hline(self, y: float):
        _, ys = self._check((1.0,), (y,))
        self.series.append(_Series("hline", (), ys))

    def _extent(self, axis: str):
        vals = []
        for s in self.series:
            vals.extend(s.xs if axis == "x" else s.ys)
        if not vals:
            raise ValueError("nothing to draw: panel has no data")
        lo, hi = min(vals), max(vals)
        scale = self.x_scale if axis == "x" else self.y_scale
        if scale == "log":
            # values an ulp apart can share a logarithm: no axis width
            if math.log10(lo) == math.log10(hi):
                lo, hi = lo / 2.0, hi * 2.0
            pad = (hi / lo) ** 0.05
            return lo / pad, hi * pad
        if lo == hi:
            # a half-width that survives rounding at any magnitude
            half = max(0.5, abs(lo) * 1e-9)
            lo, hi = lo - half, hi + half
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad


def _ticks(lo: float, hi: float, scale: str):
    if scale == "log":
        la, lb = math.log10(lo), math.log10(hi)
        return [10.0 ** (la + (lb - la) * i / (_TICKS - 1)) for i in range(_TICKS)]
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def _fmt(v: float) -> str:
    s = f"{v:.3g}"
    return "0" if s == "-0" else s


def _axis(lo: float, hi: float, scale: str, a: float, b: float):
    """The map of an axis's [lo, hi] on ``scale`` onto pixels [a, b]."""
    warp = math.log10 if scale == "log" else float
    lo, hi = warp(lo), warp(hi)
    return lambda v: a + (warp(v) - lo) / (hi - lo) * (b - a)


def render(panels: Sequence[Panel]) -> str:
    """Lay the panels out in one column and return the SVG text."""
    panels = list(panels)
    if not panels:
        raise ValueError("nothing to draw: no panels")
    height = _PANEL_HEIGHT * len(panels)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" '
        f'height="{height:g}" viewBox="0 0 {_WIDTH:g} {height:g}">'
    ]
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out.append(f"<!-- generated {stamp} -->")
    out.append('<rect width="100%" height="100%" fill="white"/>')

    for idx, panel in enumerate(panels):
        top = idx * _PANEL_HEIGHT
        px0, px1 = _MARGIN_L, _WIDTH - _MARGIN_R
        py0, py1 = top + _MARGIN_T, top + _PANEL_HEIGHT - _MARGIN_B
        x_lo, x_hi = panel._extent("x")
        y_lo, y_hi = panel._extent("y")
        tx = _axis(x_lo, x_hi, panel.x_scale, px0, px1)
        ty = _axis(y_lo, y_hi, panel.y_scale, py1, py0)

        out.append(f'<rect x="{px0:.2f}" y="{py0:.2f}" width="{px1 - px0:.2f}" '
                   f'height="{py1 - py0:.2f}" fill="none" stroke="#444" stroke-width="1"/>')
        for v in _ticks(x_lo, x_hi, panel.x_scale):
            x = tx(v)
            out.append(f'<line x1="{x:.2f}" y1="{py1:.2f}" x2="{x:.2f}" '
                       f'y2="{py1 + 5:.2f}" stroke="#444" stroke-width="1"/>')
            out.append(f'<text x="{x:.2f}" y="{py1 + 18:.2f}" font-family="monospace" '
                       f'font-size="11" text-anchor="middle">{_fmt(v)}</text>')
        for v in _ticks(y_lo, y_hi, panel.y_scale):
            y = ty(v)
            out.append(f'<line x1="{px0 - 5:.2f}" y1="{y:.2f}" x2="{px0:.2f}" '
                       f'y2="{y:.2f}" stroke="#444" stroke-width="1"/>')
            out.append(f'<text x="{px0 - 8:.2f}" y="{y + 4:.2f}" font-family="monospace" '
                       f'font-size="11" text-anchor="end">{_fmt(v)}</text>')
        mid_x = (px0 + px1) / 2.0
        out.append(f'<text x="{mid_x:.2f}" y="{py1 + 38:.2f}" font-family="monospace" '
                   f'font-size="12" text-anchor="middle">{panel.x_label}</text>')
        mid_y = (py0 + py1) / 2.0
        out.append(f'<text x="16" y="{mid_y:.2f}" font-family="monospace" '
                   f'font-size="12" text-anchor="middle" '
                   f'transform="rotate(-90 16 {mid_y:.2f})">{panel.y_label}</text>')

        for s in panel.series:
            if s.kind == "scatter":
                for x, y in zip(s.xs, s.ys):
                    out.append(f'<circle cx="{tx(x):.2f}" cy="{ty(y):.2f}" '
                               f'r="{_POINT_RADIUS:g}" fill="none" stroke="{_POINT_COLOR}" '
                               f'stroke-width="1"/>')
            elif s.kind == "line":
                pts = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in zip(s.xs, s.ys))
                dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
                out.append(f'<polyline points="{pts}" fill="none" stroke="{_LINE_COLOR}" '
                           f'stroke-width="{_LINE_WIDTH:g}"{dash}/>')
            else:
                y = ty(s.ys[0])
                out.append(f'<line x1="{px0:.2f}" y1="{y:.2f}" x2="{px1:.2f}" '
                           f'y2="{y:.2f}" stroke="{_LINE_COLOR}" '
                           f'stroke-width="{_LINE_WIDTH:g}"/>')

    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if len(text.encode()) > MAX_BYTES:
        raise ValueError(f"rendered SVG exceeds {MAX_BYTES} bytes")
    return text
