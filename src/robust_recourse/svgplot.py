"""Minimal SVG line charts with no plotting dependency.

Output is a plain polyline chart: axes with five ticks per side, one colored
polyline plus point markers per series, and a legend. Files are a pure
function of the inputs, so reruns produce identical bytes and the plots
diff cleanly in version control.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

PALETTE = ("#1b6ca8", "#d1495b", "#66a182", "#edae49", "#5f4b8b", "#414141")

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 55


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _span(values: list) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("chart values must be finite")
    if hi - lo < 1e-12:
        pad = max(abs(hi), 1.0) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def line_chart(path: str, series: list, title: str, x_label: str, y_label: str) -> None:
    """Write a polyline chart; ``series`` is a list of (name, xs, ys) triples."""
    if not series:
        raise ValueError("need at least one series")
    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    if not all_x:
        raise ValueError("series contain no points")
    x_lo, x_hi = _span(all_x)
    y_lo, y_hi = _span(all_y)

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y: float) -> float:
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]

    ax_b, ax_l = HEIGHT - MARGIN_B, MARGIN_L
    parts.append(
        f'<line x1="{ax_l}" y1="{ax_b}" x2="{WIDTH - MARGIN_R}" y2="{ax_b}" stroke="black"/>'
    )
    parts.append(f'<line x1="{ax_l}" y1="{MARGIN_T}" x2="{ax_l}" y2="{ax_b}" stroke="black"/>')
    for i in range(5):
        frac = i / 4
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp, yp = px(xv), py(yv)
        parts.append(f'<line x1="{xp:.2f}" y1="{ax_b}" x2="{xp:.2f}" y2="{ax_b + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{xp:.2f}" y="{ax_b + 18}" text-anchor="middle">{_fmt(xv)}</text>'
        )
        parts.append(f'<line x1="{ax_l - 5}" y1="{yp:.2f}" x2="{ax_l}" y2="{yp:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ax_l - 8}" y="{yp + 4:.2f}" text-anchor="end">{_fmt(yv)}</text>'
        )
    parts += [
        f'<text x="{(ax_l + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 12}" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="18" y="{(MARGIN_T + ax_b) // 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(MARGIN_T + ax_b) // 2})">{y_label}</text>',
    ]

    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{px(float(x)):.2f}" cy="{py(float(y)):.2f}" r="3" fill="{color}"/>'
            )
        ly = MARGIN_T + 16 * idx
        lx = WIDTH - MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 24}" y="{ly + 4}">{name}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
