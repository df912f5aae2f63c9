"""Minimal self-contained SVG line charts (no plotting dependency).

Deterministic output: the same series always render to the same bytes.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

__all__ = ["line_chart"]


def escape(text: str) -> str:  # xml.sax.saxutils's, whose import loads urllib.request
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)
_DASHES = ("", "6,3", "2,2", "8,3,2,3")
_WIDTH, _HEIGHT = 760, 500


def _nice_ticks(lo: float, hi: float) -> dict[str, float]:
    """Round-valued ticks inside ``[lo, hi]`` by their labels, at most six; only ``lo`` when
    a fifth of the span underflows (or ``hi <= lo``)."""
    raw = (hi - lo) / 5
    if raw >= sys.float_info.min:
        mag = 10.0 ** math.floor(math.log10(raw))
        step = next(mult * mag for mult in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= mult * mag)
        first = math.ceil(lo / step)  # by index: a step under half an ulp of lo never moves a sum
        last = min(math.floor(hi / step + 1e-9), first + 5)  # hi - lo <= 5 step, up to rounding
        # k * step may round past an end: clamped, it labels that end
        ticks = [min(max(k * step, lo), hi) for k in range(first, last + 1)]
    else:
        ticks = [lo]
    return {f"{v:.6g}": v for v in ticks}


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    xlabel: str,
    ylabel: str,
    title: str,
) -> str:
    """Render labelled (x, y) series to an SVG document string.

    The vertical axis is logarithmic with decade ticks; points that are
    non-finite or non-positive are dropped from their polyline.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y) and y > 0.0
        ]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        raise DomainError("no plottable points in any series")

    all_x = [x for _, pts in cleaned for x, _ in pts]
    all_y = [y for _, pts in cleaned for _, y in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo = math.floor(math.log10(min(all_y)))
    y_hi = math.ceil(math.log10(max(all_y)))
    if y_hi == y_lo:
        y_hi += 1

    ml, mr, mt, mb = 86, 24, 42, 58
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        t = (math.log10(y) - y_lo) / (y_hi - y_lo)
        return mt + (1.0 - t) * ph

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="15">{escape(title)}</text>',
    ]

    # gridlines and ticks
    for e in range(y_lo, y_hi + 1):
        yy = py(10.0**e)
        out.append(
            f'<line x1="{ml}" y1="{yy:.2f}" x2="{ml + pw}" y2="{yy:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{yy + 4:.2f}" text-anchor="end">1e{e:d}</text>'
        )
    for label, v in _nice_ticks(x_lo, x_hi).items():
        xx = px(v)
        out.append(
            f'<line x1="{xx:.2f}" y1="{mt}" x2="{xx:.2f}" y2="{mt + ph}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{mt + ph + 18}" text-anchor="middle">{label}</text>'
        )

    # axes
    out.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
        f'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle">{escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{escape(ylabel)}</text>'
    )

    # series
    for idx, (label, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        dash = _DASHES[(idx // len(_PALETTE)) % len(_DASHES)]
        attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8"{attr} points="{coords}"/>'
        )
        for x, y in pts:
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.4" fill="{color}"/>'
            )

    # legend
    lx, ly = ml + pw - 188, mt + 10
    out.append(
        f'<rect x="{lx - 8}" y="{ly - 14}" width="196" height="{18 * len(cleaned) + 10}" '
        f'fill="white" stroke="#999999"/>'
    )
    for idx, (label, _) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        yy = ly + 18 * idx
        out.append(
            f'<line x1="{lx}" y1="{yy:.2f}" x2="{lx + 22}" y2="{yy:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{yy + 4:.2f}">{escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
