"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the plots are pure functions of the CSV tables
they visualize, every coordinate is formatted with fixed precision, and
no plotting dependency means the bytes never drift between builds.
"""

import math

__all__ = ["line_plot"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 74
_MARGIN_R = 180
_MARGIN_T = 46
_MARGIN_B = 56


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _linear_ticks(lo: float, hi: float):
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _log_ticks(lo: float, hi: float):
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    ticks = [10.0**e for e in range(first, last + 1)]
    return ticks if ticks else [lo, hi]


def line_plot(
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    hlines=(),
) -> str:
    """Render labeled (x, y) series as an SVG document string.

    The x axis is logarithmic, so every x must be positive.

    Parameters
    ----------
    series : sequence of (label, xs, ys)
    hlines : sequence of (label, y)
        Dashed horizontal reference lines.
    """
    series = [
        (str(lab), [float(x) for x in xs], [float(y) for y in ys])
        for lab, xs, ys in series
    ]
    hlines = [(str(lab), float(y)) for lab, y in hlines]

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    ys_all += [y for _, y in hlines]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    if min(xs_all) <= 0:
        raise ValueError("log x axis needs positive x values")

    x_lo, x_hi = min(map(math.log10, xs_all)), max(map(math.log10, xs_all))
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    y_pad = 0.06 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (math.log10(x) - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        '<g font-family="sans-serif" font-size="12" fill="#222">',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-size="15">{_escape(title)}</text>'
        )

    # frame
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444"/>'
    )

    # x ticks
    for t in _log_ticks(min(xs_all), max(xs_all)):
        gx = px(t)
        out.append(
            f'<line x1="{_fmt(gx)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(gx)}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_fmt(gx)}" y="{_MARGIN_T + plot_h + 20}" '
            f'text-anchor="middle">{_tick_label(t)}</text>'
        )
    # y ticks
    for t in _linear_ticks(y_lo, y_hi):
        gy = py(t)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(gy)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(gy)}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 9}" y="{_fmt(gy + 4)}" '
            f'text-anchor="end">{_tick_label(t)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle">{_escape(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="20" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.0f})">'
            f"{_escape(ylabel)}</text>"
        )

    legend_y = _MARGIN_T + 8
    for _lab, y in hlines:
        gy = py(y)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(gy)}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{_fmt(gy)}" stroke="#777" stroke-dasharray="6 4"/>'
        )
    for idx, (lab, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(
            f"{_fmt(px(x))},{_fmt(py(y))}"
            for x, y in zip(xs, ys)
            if math.isfinite(y)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                out.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.6" '
                    f'fill="{color}"/>'
                )
        lx = _MARGIN_L + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}">{_escape(lab)}</text>'
        )
        legend_y += 18
    for lab, y in hlines:
        lx = _MARGIN_L + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="#777" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}">{_escape(lab)}</text>'
        )
        legend_y += 18

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
