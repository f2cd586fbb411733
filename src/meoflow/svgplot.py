"""Hand-rolled SVG charts: no plotting dependency, byte-deterministic output.

Coordinates are formatted with fixed precision so identical inputs always
produce identical files.
"""
from __future__ import annotations

import numpy as np

from .channel import RAIN_CLASS_RATES_MM_H, RainModelParams, rain_attenuation_db
from .engine import HISTOGRAM_BIN_WIDTH_BPS, histogram_edges

WIDTH = 720
HEIGHT = 340
MARGIN_LEFT = 62
MARGIN_RIGHT = 16
MARGIN_TOP = 30
MARGIN_BOTTOM = 42

BASELINE_COLOR = "#888888"
TREATMENT_COLOR = "#1f77b4"
SHADE_COLOR = "#9ecae1"
CURVE_COLORS = ("#d62728", "#ff7f0e", "#2ca02c")


class _Frame:
    """Maps data coordinates into the plot rectangle: a float, or an array by the same operations per element."""

    def __init__(self, x0, x1, y0, y1):
        if x1 <= x0:
            x1 = x0 + 1.0
        if y1 <= y0:
            y1 = y0 + 1.0
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1

    def x(self, v):
        span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        return MARGIN_LEFT + (v - self.x0) / (self.x1 - self.x0) * span

    def y(self, v):
        span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        return HEIGHT - MARGIN_BOTTOM - (v - self.y0) / (self.y1 - self.y0) * span


def _fmt(v):
    return f"{v:.2f}"


def _tick_label(v):
    return f"{v:g}"


def _escape(text):
    """`text` as SVG character data: a station id may hold `&`, `<` or `>`."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes(frame, title, x_label, y_label):
    title, x_label, y_label = map(_escape, (title, x_label, y_label))
    parts = []
    left, right = frame.x(frame.x0), frame.x(frame.x1)
    top, bottom = frame.y(frame.y1), frame.y(frame.y0)
    parts.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(right - left)}" '
        f'height="{_fmt(bottom - top)}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    for v in np.linspace(frame.x0, frame.x1, 5):
        px = frame.x(v)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(bottom)}" x2="{_fmt(px)}" y2="{_fmt(bottom + 4)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(bottom + 16)}" font-size="10" text-anchor="middle">{_tick_label(round(v, 3))}</text>'
        )
    for v in np.linspace(frame.y0, frame.y1, 5):
        py = frame.y(v)
        parts.append(
            f'<line x1="{_fmt(left - 4)}" y1="{_fmt(py)}" x2="{_fmt(left)}" y2="{_fmt(py)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(left - 7)}" y="{_fmt(py + 3)}" font-size="10" text-anchor="end">{_tick_label(round(v, 3))}</text>'
        )
    parts.append(
        f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(HEIGHT - 8)}" font-size="11" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt((top + bottom) / 2)}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt((top + bottom) / 2)})">{y_label}</text>'
    )
    parts.append(
        f'<text x="{_fmt((left + right) / 2)}" y="18" font-size="13" text-anchor="middle">{title}</text>'
    )
    return parts


def _polyline(frame, xs, ys, color, dashed=False):
    xs, ys = frame.x(np.asarray(xs, dtype=float)).tolist(), frame.y(np.asarray(ys, dtype=float)).tolist()
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="5,3"' if dashed else ""
    return f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'


def _legend(entries):
    x = WIDTH - MARGIN_RIGHT - 150
    y = MARGIN_TOP + 8
    parts = []
    for i, (label, color) in enumerate(entries):
        yy = y + 14 * i
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(yy)}" x2="{_fmt(x + 18)}" y2="{_fmt(yy)}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_fmt(x + 23)}" y="{_fmt(yy + 3)}" font-size="10">{_escape(label)}</text>')
    return parts


def _document(parts):
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
    )


def timeseries_svg(times_s, series_mbps, title, baseline_mbps=None, rain_windows=()):
    """One satellite's rate over the horizon, optional no-ISL arm and shaded
    rain windows.  rain_windows entries are (start_hour, end_hour, label)."""
    hours = np.asarray(times_s, dtype=float) / 3600.0
    series = np.asarray(series_mbps, dtype=float)
    top = series.max() if series.size else 1.0
    if baseline_mbps is not None:
        base = np.asarray(baseline_mbps, dtype=float)
        top = max(top, base.max() if base.size else 0.0)
    frame = _Frame(float(hours.min()), float(hours.max()), 0.0, float(top) * 1.05)
    parts = []
    for start_h, end_h, label in rain_windows:
        x0, x1 = frame.x(start_h), frame.x(end_h)
        y0, y1 = frame.y(frame.y1), frame.y(frame.y0)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="{SHADE_COLOR}" fill-opacity="0.35">'
            f"<title>{_escape(label)}</title></rect>"
        )
    parts.extend(_axes(frame, title, "time [h]", "rate [Mbit/s]"))
    entries = []
    if baseline_mbps is not None:
        parts.append(_polyline(frame, hours, base, BASELINE_COLOR, dashed=True))
        entries.append(("without ISL", BASELINE_COLOR))
    parts.append(_polyline(frame, hours, series, TREATMENT_COLOR))
    entries.insert(0, ("with ISL" if baseline_mbps is not None else "rate", TREATMENT_COLOR))
    parts.extend(_legend(entries))
    return _document(parts)


def histogram_svg(series_mbps, title, baseline_mbps=None):
    """Rate histogram with mean (solid) and mean±std (dashed) markers."""
    series = np.asarray(series_mbps, dtype=float)
    arms = [(series, TREATMENT_COLOR, 0.65)]
    if baseline_mbps is not None:
        arms.insert(0, (np.asarray(baseline_mbps, dtype=float), BASELINE_COLOR, 0.45))
    top_rate = max((float(a.max()) for a, _, _ in arms if a.size), default=1.0)
    edges = histogram_edges(top_rate, HISTOGRAM_BIN_WIDTH_BPS / 1e6, "Mbit/s")
    counts = [np.histogram(a, bins=edges)[0] for a, _, _ in arms]
    top_count = max((float(c.max()) for c in counts if c.size), default=1.0)
    frame = _Frame(0.0, float(edges[-1]), 0.0, max(top_count, 1.0) * 1.1)
    parts = _axes(frame, title, "rate [Mbit/s]", "slots")
    for (arm, color, opacity), cnt in zip(arms, counts):
        bars = np.flatnonzero(cnt)  # mapped in one numpy pass, as _polyline maps its points
        x0, x1, y0 = frame.x(edges[bars]), frame.x(edges[bars + 1]), frame.y(cnt[bars].astype(float))
        for x, y, width, height in zip(*(v.tolist() for v in (x0, y0, x1 - x0, frame.y(0.0) - y0))):
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(width)}" '
                f'height="{_fmt(height)}" fill="{color}" fill-opacity="{opacity}"/>'
            )
        if arm.size == 0:
            continue
        mean, std = float(arm.mean()), float(arm.std())
        dashed = [m for m in (mean - std, mean + std) if frame.x0 <= m <= frame.x1]
        for m, style in [(mean, 'stroke-width="2"'), *((m, 'stroke-width="1" stroke-dasharray="4,3"') for m in dashed)]:
            px = frame.x(m)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(frame.y(frame.y1))}" x2="{_fmt(px)}" '
                f'y2="{_fmt(frame.y(0.0))}" stroke="{color}" {style}/>'
            )
    entries = [("with ISL" if baseline_mbps is not None else "rate", TREATMENT_COLOR)]
    if baseline_mbps is not None:
        entries.append(("without ISL", BASELINE_COLOR))
    parts.extend(_legend(entries))
    return _document(parts)


def rain_curves_svg(rain_model: RainModelParams):
    """Attenuation against elevation for the rain classes, 5 to 90 deg, at sea level."""
    elevations = np.arange(5.0, 90.5, 1.0)
    curves = {
        name: [rain_attenuation_db(float(e), rate, rain_model) for e in elevations]
        for name, rate in RAIN_CLASS_RATES_MM_H.items()
    }
    top = max(max(v) for v in curves.values())
    frame = _Frame(5.0, 90.0, 0.0, top * 1.05)
    parts = _axes(frame, "Rain attenuation vs elevation", "elevation [deg]", "attenuation [dB]")
    entries = []
    for (name, values), color in zip(sorted(curves.items()), CURVE_COLORS):
        parts.append(_polyline(frame, elevations, values, color))
        entries.append((name, color))
    parts.extend(_legend(entries))
    return _document(parts)
