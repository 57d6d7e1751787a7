"""Minimal static SVG plotting: bar and line charts, no dependencies.

Every chart is one fixed-size panel, ``WIDTH`` by ``HEIGHT`` pixels with
fixed margins, assembled from strings as a complete SVG document;
``panel_grid`` tiles such panels into a rows-by-columns figure.  Only
the primitives the experiment reports need are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ("#4878cf", "#ee854a", "#6acc65", "#d65f5f", "#956cb4")

_FONT = 'font-family="Helvetica,Arial,sans-serif"'
_OPEN = '<svg xmlns="http://www.w3.org/2000/svg" '

WIDTH, HEIGHT = 420, 300
_LEFT, _BOTTOM, _TOP, _RIGHT = 58, 42, 28, 14  # plot-area margins


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round-numbered ticks spanning [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 4
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-15 else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_exp, hi_exp + 1)]


def _axis_ticks(lo: float, hi: float, log: bool) -> list[float]:
    """The ticks of one axis that fall within [lo, hi]."""
    ticks = _log_ticks(lo, hi) if log else _ticks(lo, hi)
    return [t for t in ticks if lo <= t <= hi]


def _frac(v: float, lo: float, hi: float, log: bool) -> float:
    """Where v lies from lo (0) to hi (1), log-scaled if ``log``; 0.5 if hi <= lo."""
    if log:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    return (v - lo) / (hi - lo) if hi > lo else 0.5


@dataclass
class _Axes:
    """Maps data coordinates onto the panel's plot area and draws the frame."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    log_x: bool = False
    log_y: bool = False

    def x_px(self, x: float) -> float:
        return _LEFT + _frac(x, self.x_lo, self.x_hi, self.log_x) * (WIDTH - _LEFT - _RIGHT)

    def y_px(self, y: float) -> float:
        return HEIGHT - _BOTTOM - _frac(y, self.y_lo, self.y_hi, self.log_y) * (HEIGHT - _TOP - _BOTTOM)

    def frame(self, title: str, xlabel: str, ylabel: str) -> list[str]:
        x0, y0 = _LEFT, HEIGHT - _BOTTOM
        x1, y1 = WIDTH - _RIGHT, _TOP
        parts = [
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
            f'<text x="{(x0 + x1) / 2:.1f}" y="16" text-anchor="middle" {_FONT} font-size="12">{title}</text>',
            f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 6}" text-anchor="middle" {_FONT} font-size="11">{xlabel}</text>',
            f'<text x="14" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" {_FONT} font-size="11" transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{ylabel}</text>',
        ]
        for t in _axis_ticks(self.x_lo, self.x_hi, self.log_x):
            px = self.x_px(t)
            parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 4}" stroke="black"/>')
            parts.append(
                f'<text x="{px:.1f}" y="{y0 + 16}" text-anchor="middle" {_FONT} font-size="10">{t:g}</text>'
            )
        for t in _axis_ticks(self.y_lo, self.y_hi, self.log_y):
            py = self.y_px(t)
            parts.append(f'<line x1="{x0 - 4}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
            parts.append(
                f'<text x="{x0 - 6}" y="{py + 3:.1f}" text-anchor="end" {_FONT} font-size="10">{t:g}</text>'
            )
        return parts


def _document(width: int, height: int, parts: list[str]) -> str:
    body = "\n".join(parts)
    return (
        f'{_OPEN}width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )


def bar_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    x_range: tuple[float, float] | None = None,
    overlay: list[tuple[float, float]] | None = None,
    overlay_label: str = "",
) -> str:
    """Grouped vertical bars per series, with an optional marker overlay
    (used for exact distributions on top of empirical counts).  The bars
    at one x fill 70% of the smallest gap between distinct x values."""
    xs = [x for _, pts in series for x, _ in pts]
    tops = [y for _, pts in series for _, y in pts]
    if overlay:
        tops += [y for _, y in overlay]
    x_lo, x_hi = x_range if x_range else (min(xs), max(xs))
    pad = 0.05 * (x_hi - x_lo or 1.0)
    axes = _Axes(x_lo - pad, x_hi + pad, 0.0, max(tops) * 1.12 or 1.0)
    parts = axes.frame(title, xlabel, ylabel)

    distinct = sorted(set(xs))
    gap = min(
        (b - a for a, b in zip(distinct, distinct[1:])),
        default=(x_hi - x_lo) or 1.0,
    )
    bar_half_width = 0.35 * gap
    n_series = len(series)
    slot = 2.0 * bar_half_width / n_series
    y0 = axes.y_px(0.0)
    for s, (label, pts) in enumerate(series):
        color = PALETTE[s % len(PALETTE)]
        for x, top in pts:
            left = axes.x_px(x - bar_half_width + s * slot)
            right = axes.x_px(x - bar_half_width + (s + 1) * slot)
            py = axes.y_px(top)
            parts.append(
                f'<rect x="{left:.1f}" y="{py:.1f}" width="{max(right - left, 1.0):.1f}" '
                f'height="{max(y0 - py, 0.0):.1f}" fill="{color}" fill-opacity="0.85"/>'
            )
        if label:
            parts.append(
                f'<rect x="{WIDTH - 120}" y="{34 + 14 * s}" width="10" height="10" fill="{color}"/>'
                f'<text x="{WIDTH - 106}" y="{43 + 14 * s}" {_FONT} font-size="10">{label}</text>'
            )
    if overlay:
        for x, y in overlay:
            parts.append(
                f'<circle cx="{axes.x_px(x):.1f}" cy="{axes.y_px(y):.1f}" r="3" '
                f'fill="none" stroke="black" stroke-width="1.2"/>'
            )
        if overlay_label:
            s = len(series)
            parts.append(
                f'<circle cx="{WIDTH - 115}" cy="{38 + 14 * s}" r="3" fill="none" stroke="black"/>'
                f'<text x="{WIDTH - 106}" y="{42 + 14 * s}" {_FONT} font-size="10">{overlay_label}</text>'
            )
    return _document(WIDTH, HEIGHT, parts)


def line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Polyline per series with small point markers."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if log_y:
        ys = [y for y in ys if y > 0] or [1.0]
    if log_x:
        xs = [x for x in xs if x > 0] or [1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if not log_x:
        pad = 0.05 * (x_hi - x_lo or 1.0)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if not log_y:
        pad = 0.08 * (y_hi - y_lo or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    axes = _Axes(x_lo, x_hi, y_lo, y_hi, log_x=log_x, log_y=log_y)
    parts = axes.frame(title, xlabel, ylabel)
    for s, (label, pts) in enumerate(series):
        color = PALETTE[s % len(PALETTE)]
        drawable = [
            (x, y)
            for x, y in pts
            if (not log_x or x > 0) and (not log_y or y > 0)
        ]
        coords = " ".join(f"{axes.x_px(x):.1f},{axes.y_px(y):.1f}" for x, y in drawable)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for x, y in drawable:
            parts.append(
                f'<circle cx="{axes.x_px(x):.1f}" cy="{axes.y_px(y):.1f}" r="2.4" fill="{color}"/>'
            )
        if label:
            parts.append(
                f'<line x1="{WIDTH - 130}" y1="{38 + 14 * s}" x2="{WIDTH - 114}" y2="{38 + 14 * s}" stroke="{color}" stroke-width="2"/>'
                f'<text x="{WIDTH - 108}" y="{42 + 14 * s}" {_FONT} font-size="10">{label}</text>'
            )
    return _document(WIDTH, HEIGHT, parts)


def panel_grid(panels: list[list[str]]) -> str:
    """Tile chart panels into a rows-by-columns figure; short rows end early."""
    rows = len(panels)
    cols = max(len(row) for row in panels)
    parts = [
        f'<svg x="{c * WIDTH}" y="{r * HEIGHT}" ' + doc.removeprefix(_OPEN)
        for r, row in enumerate(panels)
        for c, doc in enumerate(row)
    ]
    return _document(cols * WIDTH, rows * HEIGHT, parts)
