"""Minimal standalone SVG line-chart emitter (no plotting dependency)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_WIDTH, _HEIGHT = 720, 360
_MARGIN = 50


def write_line_chart(path, series, title="", ylabel=""):
    """Write named 1-D series (dict name -> values, shared x = sample index)
    as a simple SVG chart with a legend."""
    arrays = {name: np.asarray(vals, dtype=float) for name, vals in series.items()}
    if not arrays:
        raise ValueError("no series to plot")
    ymin = min(a.min() for a in arrays.values())
    ymax = max(a.max() for a in arrays.values())
    if ymax == ymin:
        ymax = ymin + 1.0
    xmax = max(len(a) for a in arrays.values()) - 1
    xmax = max(xmax, 1)

    inner_w = _WIDTH - 2 * _MARGIN
    inner_h = _HEIGHT - 2 * _MARGIN

    def px(i):
        return _MARGIN + inner_w * i / xmax

    def py(v):
        return _HEIGHT - _MARGIN - inner_h * (v - ymin) / (ymax - ymin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#888"/>',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
        f'<text x="{_MARGIN - 8}" y="{py(ymax) + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{ymax:.3g}</text>',
        f'<text x="{_MARGIN - 8}" y="{py(ymin) + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{ymin:.3g}</text>',
        f'<text x="15" y="{_HEIGHT / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11" transform="rotate(-90 15 {_HEIGHT / 2})">{ylabel}</text>',
    ]
    for idx, (name, vals) in enumerate(arrays.items()):
        color = _COLORS[idx % len(_COLORS)]
        points = " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in enumerate(vals))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 5}" y="{_MARGIN + 14 + 14 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
