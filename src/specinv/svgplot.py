"""Self-contained SVG line charts; no plotting dependencies, byte-stable output."""

from __future__ import annotations

from typing import Sequence

COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]

_WIDTH = 960
_HEIGHT = 600
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 210
_MARGIN_TOP = 60
_MARGIN_BOTTOM = 80


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.2e}"
    return f"{value:.3g}"


def _line(x1, y1, x2, y2, stroke: str, width, extra: str = "") -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra}/>')


def _text(x, y, text: str, size: int, anchor: str = "", tail: str = "") -> str:
    """A Helvetica label; ``tail`` holds attributes after font-family, each space-led."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
            f'font-family="Helvetica"{tail}>{_escape(text)}</text>')


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
    vlines: Sequence[tuple[str, float]] = (),
) -> str:
    """Render labelled (x, y) polylines plus optional vertical marker lines."""
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    xs_all.extend(float(x) for _, x in vlines)
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max <= x_min:
        x_min, x_max = x_min - 1.0, x_max + 1.0
    if y_max <= y_min:
        y_min, y_max = y_min - 1.0, y_max + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    left, right = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    top, bottom = _MARGIN_TOP, _HEIGHT - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * (right - left)

    def py(y: float) -> float:
        return bottom - (y - y_min) / (y_max - y_min) * (bottom - top)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        _text(f"{_WIDTH / 2:.1f}", 34, title, 20, "middle"),
    ]
    n_ticks = 5
    for i in range(n_ticks + 1):
        yv = y_min + (y_max - y_min) * i / n_ticks
        y = py(yv)
        out += [_line(left, f"{y:.2f}", right, f"{y:.2f}", "#dddddd", 1),
                _text(left - 8, f"{y + 4:.2f}", _tick(yv), 12, "end")]
        xv = x_min + (x_max - x_min) * i / n_ticks
        x = f"{px(xv):.2f}"
        out += [_line(x, bottom, x, bottom + 5, "#000000", 1),
                _text(x, bottom + 22, _tick(xv), 12, "middle")]
    out += [_line(left, bottom, right, bottom, "#000000", 2),
            _line(left, top, left, bottom, "#000000", 2)]

    for i, (label, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>')
        ly = top + 16 + i * 22
        out += [_line(right + 16, ly, right + 38, ly, color, 2),
                _text(right + 44, ly + 4, label, 13)]

    for j, (label, xv) in enumerate(vlines):
        x = px(float(xv))
        out.append(_line(f"{x:.2f}", top, f"{x:.2f}", bottom, "#444444", 1.5,
                         ' stroke-dasharray="6,4"'))
        if label:  # offset from the unrounded x
            out.append(_text(f"{x + 4:.2f}", top + 14 + 14 * j, label, 12,
                             tail=' fill="#444444"'))

    out.append(_text(f"{(left + right) / 2:.1f}", _HEIGHT - 28, x_label, 14, "middle"))
    mid_y = f"{(top + bottom) / 2:.1f}"
    out.append(_text(24, mid_y, y_label, 14, "middle", f' transform="rotate(-90 24 {mid_y})"'))
    out.append("</svg>")
    return "\n".join(out) + "\n"

