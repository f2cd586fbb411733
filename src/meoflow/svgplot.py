"""Hand-rolled SVG charts: no plotting dependency, byte-deterministic output.

`_tag` writes every element: its attributes in the order given, `_` in a
name written as `-`, floats with fixed precision through `_fmt`, and ints
and strings verbatim, so identical inputs always produce identical files.
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


def _tag(name, body=None, **attrs):
    """One SVG element, written as the module docstring says; self-closed when it has no body."""
    head = "".join(f' {key.replace("_", "-")}="{_fmt(v) if isinstance(v, float) else v}"' for key, v in attrs.items())
    return f"<{name}{head}/>" if body is None else f"<{name}{head}>{body}</{name}>"


def _tick_label(v):
    return f"{v:g}"


def _escape(text):
    """`text` as SVG character data: a station id may hold `&`, `<` or `>`."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes(frame, title, x_label, y_label):
    title, x_label, y_label = map(_escape, (title, x_label, y_label))
    left, right = frame.x(frame.x0), frame.x(frame.x1)
    top, bottom = frame.y(frame.y1), frame.y(frame.y0)
    parts = [_tag("rect", x=left, y=top, width=right - left, height=bottom - top, fill="none", stroke="#333", stroke_width=1)]
    for v in np.linspace(frame.x0, frame.x1, 5):
        px = frame.x(v)
        parts.append(_tag("line", x1=px, y1=bottom, x2=px, y2=bottom + 4, stroke="#333"))
        parts.append(_tag("text", _tick_label(round(v, 3)), x=px, y=bottom + 16, font_size=10, text_anchor="middle"))
    for v in np.linspace(frame.y0, frame.y1, 5):
        py = frame.y(v)
        parts.append(_tag("line", x1=left - 4, y1=py, x2=left, y2=py, stroke="#333"))
        parts.append(_tag("text", _tick_label(round(v, 3)), x=left - 7, y=py + 3, font_size=10, text_anchor="end"))
    middle = (top + bottom) / 2
    parts.append(_tag("text", x_label, x=(left + right) / 2, y=HEIGHT - 8.0, font_size=11, text_anchor="middle"))
    parts.append(_tag("text", y_label, x=14, y=middle, font_size=11, text_anchor="middle", transform=f"rotate(-90 14 {_fmt(middle)})"))
    parts.append(_tag("text", title, x=(left + right) / 2, y=18, font_size=13, text_anchor="middle"))
    return parts


def _polyline(frame, xs, ys, color, dashed=False):
    xs, ys = frame.x(np.asarray(xs, dtype=float)).tolist(), frame.y(np.asarray(ys, dtype=float)).tolist()
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    dash = {"stroke_dasharray": "5,3"} if dashed else {}
    return _tag("polyline", points=points, fill="none", stroke=color, stroke_width="1.5", **dash)


def _legend(entries):
    x, y = WIDTH - MARGIN_RIGHT - 150.0, MARGIN_TOP + 8.0
    parts = []
    for i, (label, color) in enumerate(entries):
        yy = y + 14 * i
        parts.append(_tag("line", x1=x, y1=yy, x2=x + 18, y2=yy, stroke=color, stroke_width=2))
        parts.append(_tag("text", _escape(label), x=x + 23, y=yy + 3, font_size=10))
    return parts


def _arms_legend(arms):
    """The legend of a chart of `arms`: the ISL arm alone, or with the no-ISL arm."""
    return _legend([("rate", TREATMENT_COLOR)] if len(arms) == 1 else [("with ISL", TREATMENT_COLOR), ("without ISL", BASELINE_COLOR)])


def _document(parts):
    attrs = {"xmlns": "http://www.w3.org/2000/svg", "width": WIDTH, "height": HEIGHT, "viewBox": f"0 0 {WIDTH} {HEIGHT}"}
    return _tag("svg", "\n".join(["", *parts, ""]), **attrs) + "\n"


def timeseries_svg(times_s, arms_mbps, title, rain_windows=()):
    """One satellite's rate in each arm (the ISL arm, then an optional dashed no-ISL arm) over the
    horizon, with shaded rain windows.  rain_windows entries are (start_hour, end_hour, label);
    each is clipped to the axes, and one wholly outside them is not drawn."""
    hours = np.asarray(times_s, dtype=float) / 3600.0
    arms = [np.asarray(a, dtype=float) for a in arms_mbps]
    top = max((float(a.max()) for a in arms if a.size), default=1.0)
    frame = _Frame(float(hours.min()), float(hours.max()), 0.0, top * 1.05)
    parts, y0, y1 = [], frame.y(frame.y1), frame.y(frame.y0)
    for start_h, end_h, label in rain_windows:
        if start_h <= frame.x1 and end_h >= frame.x0:
            x0, x1 = frame.x(max(start_h, frame.x0)), frame.x(min(end_h, frame.x1))
            tooltip = _tag("title", _escape(label))
            parts.append(_tag("rect", tooltip, x=x0, y=y0, width=x1 - x0, height=y1 - y0, fill=SHADE_COLOR, fill_opacity="0.35"))
    parts.extend(_axes(frame, title, "time [h]", "rate [Mbit/s]"))
    for arm, color, dashed in list(zip(arms, (TREATMENT_COLOR, BASELINE_COLOR), (False, True)))[::-1]:
        parts.append(_polyline(frame, hours, arm, color, dashed))
    parts.extend(_arms_legend(arms))
    return _document(parts)


def histogram_svg(arms_mbps, title):
    """Rate histogram of each arm (ISL, then optional no-ISL) with mean (solid) and mean±std (dashed) markers."""
    styles = zip((TREATMENT_COLOR, BASELINE_COLOR), ("0.65", "0.45"))
    arms = [(np.asarray(a, dtype=float), color, opacity) for a, (color, opacity) in zip(arms_mbps, styles)][::-1]
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
            parts.append(_tag("rect", x=x, y=y, width=width, height=height, fill=color, fill_opacity=opacity))
        if arm.size == 0:
            continue
        mean, std = float(arm.mean()), float(arm.std())
        dashed = [m for m in (mean - std, mean + std) if frame.x0 <= m <= frame.x1]
        for m, style in [(mean, {"stroke_width": 2}), *((m, {"stroke_width": 1, "stroke_dasharray": "4,3"}) for m in dashed)]:
            px = frame.x(m)
            parts.append(_tag("line", x1=px, y1=frame.y(frame.y1), x2=px, y2=frame.y(0.0), stroke=color, **style))
    parts.extend(_arms_legend(arms))
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
