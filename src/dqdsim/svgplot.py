"""Self-contained SVG line plots; no plotting dependency.

CSV stays the canonical output format; these plots are a convenience for
eyeballing sweep results.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """The round multiples k * step in [lo, hi], about n + 1 of them; just
    lo when the range is within 1e-9 of its size, as when it spans a few
    ulps, since no 6-digit label tells such ticks apart."""
    if not hi - lo > 1e-9 * max(abs(lo), abs(hi)):
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag)
               if s >= raw)
    return [round(k * step, 12) for k in range(
        math.ceil(lo / step), math.floor(hi / step + 1e-12) + 1)]


def write_line_plot(path, series, title: str = "", xlabel: str = "",
                    ylabel: str = "") -> None:
    """Write one SVG with a polyline per (name, xs, ys) series."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
    ]
    axis_style = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
                 f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" {axis_style}/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" '
                 f'x2="{MARGIN_L}" y2="{HEIGHT - MARGIN_B}" {axis_style}/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{x:.1f}" y2="{HEIGHT - MARGIN_B + 5}" {axis_style}/>')
        parts.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="11">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" '
                     f'x2="{MARGIN_L}" y2="{y:.1f}" {axis_style}/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{t:g}</text>')
    parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" '
                 f'y="{HEIGHT - 12}" text-anchor="middle" font-size="13">'
                 f'{xlabel}</text>')
    parts.append(f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" '
                 f'text-anchor="middle" font-size="13" transform="rotate(-90 '
                 f'16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">{ylabel}</text>')
    for i, (name, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - MARGIN_R - 6}" '
                     f'y="{MARGIN_T + 16 + 16 * i}" text-anchor="end" '
                     f'font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
