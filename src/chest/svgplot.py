"""Small deterministic SVG line charts (no plotting dependencies).

Charts are plain polylines in a fixed 720x480 viewport.  Output depends only
on the data passed in, so rendered files are stable across runs and safe to
diff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50


@dataclass(frozen=True)
class LineSeries:
    label: str
    x: np.ndarray
    y: np.ndarray
    dashed: bool = False

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 1:
            raise ValueError("series needs matching 1-D x and y")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _limits(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError("no finite data to plot")
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    raw = span / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.1e}"
    return f"{value:g}"


def render_line_chart(series: list[LineSeries], path: str | Path, *,
                      title: str, xlabel: str, ylabel: str) -> None:
    """Render the series to an SVG file."""
    if not series:
        raise ValueError("nothing to plot")
    all_x = np.concatenate([s.x for s in series])
    all_y = np.concatenate([s.y for s in series])
    x_lo, x_hi = _limits(all_x)
    y_lo, y_hi = _limits(all_y)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" font-family="sans-serif" font-size="12">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
             f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
             f'height="{plot_h}" fill="none" stroke="#333"/>']
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" '
                     f'y2="{MARGIN_T + plot_h + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle">{_fmt_tick(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{py:.1f}" x2="{MARGIN_L}" '
                     f'y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{_fmt_tick(t)}</text>')
        parts.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" '
                     f'x2="{MARGIN_L + plot_w}" y2="{py:.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        keep = np.isfinite(s.x) & np.isfinite(s.y)
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                       for x, y in zip(s.x[keep], s.y[keep]))
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"{dash}/>')
        ly = MARGIN_T + 16 + 18 * i
        lx = MARGIN_L + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.8"{dash}/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}">{s.label}</text>')
    parts.append(f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
                 f'font-size="15">{title}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{MARGIN_T + plot_h / 2:.0f})">{ylabel}</text>')
    parts.append("</svg>")
    try:
        Path(path).write_text("\n".join(parts) + "\n")
    except OSError as exc:
        raise RuntimeError(f"failed to write {path}: {exc}") from exc
