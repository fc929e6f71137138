"""Tiny dependency-free SVG line charts for training curves."""

from __future__ import annotations

import math

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def line_chart(series: dict[str, tuple[list, list]], title: str,
               x_label: str, y_label: str, width: int = 640,
               height: int = 400) -> str:
    """Render named (xs, ys) series as an SVG string.  A point with a
    non-finite coordinate (a curve logs NaN metrics when it has no
    validation row) is left out of the axes and of its series' line."""
    pad_l, pad_r, pad_t, pad_b = 60, 20, 40, 45
    series = {name: [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
              for name, (xs, ys) in series.items()}
    all_x = [x for finite in series.values() for x, _ in finite]
    all_y = [y for finite in series.values() for _, y in finite]
    if not all_x:
        all_x, all_y = [0, 1], [0, 1]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" '
        f'y2="{height - pad_b}" stroke="black"/>',
        f'<line x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" y2="{height - pad_b}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 8}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2})">{y_label}</text>',
        f'<text x="{pad_l - 6}" y="{height - pad_b + 4}" text-anchor="end">{y_lo:.3g}</text>',
        f'<text x="{pad_l - 6}" y="{pad_t + 4}" text-anchor="end">{y_hi:.3g}</text>',
        f'<text x="{pad_l}" y="{height - pad_b + 16}" text-anchor="middle">{x_lo:.3g}</text>',
        f'<text x="{width - pad_r}" y="{height - pad_b + 16}" text-anchor="middle">{x_hi:.3g}</text>',
    ]
    for k, (name, finite) in enumerate(sorted(series.items(), key=lambda kv: kv[0])):
        if not finite:
            continue
        color = PALETTE[k % len(PALETTE)]
        xs, ys = zip(*finite)
        px = _scale(xs, x_lo, x_hi, pad_l, width - pad_r)
        py = _scale(ys, y_lo, y_hi, height - pad_b, pad_t)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        label = name.replace("&", "&amp;").replace("<", "&lt;")    # names can be paths
        parts.append(f'<text x="{width - pad_r - 4}" y="{pad_t + 14 + 14 * k}" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
