"""Small hand-rolled SVG charts for the audit report.

Byte-stable on purpose: fixed layout, fixed palette, fixed decimal formatting,
no timestamps, so re-running an audit produces identical files.
"""

from __future__ import annotations

from typing import Mapping, Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 760, 320
_ML, _MR, _MT, _MB = 58, 16, 34, 58


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _frame(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _y_scale(values: Sequence[float]) -> tuple[float, float]:
    lo = min(values)
    hi = max(values)
    if lo > 0:
        lo = 0.0
    if hi < 0:
        hi = 0.0
    if hi == lo:
        hi = lo + 1.0
    pad = (hi - lo) * 0.06
    return lo - (pad if lo < 0 else 0.0), hi + pad


def _axes(y_lo: float, y_hi: float) -> tuple[list[str], float]:
    plot_h = _H - _MT - _MB
    scale = plot_h / (y_hi - y_lo)
    parts = [
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="#333"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="#333"/>',
    ]
    for k in range(5):
        value = y_lo + (y_hi - y_lo) * k / 4
        y = _H - _MB - (value - y_lo) * scale
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_W - _MR}" y2="{_fmt(y)}" '
            f'stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{_ML - 7}" y="{_fmt(y + 3)}" text-anchor="end">{value:.4g}</text>'
        )
    return parts, scale


def _y_label(text: str) -> str:
    return (
        f'<text x="14" y="{_H / 2:.0f}" transform="rotate(-90 14 {_H / 2:.0f})" '
        f'text-anchor="middle">{_esc(text)}</text>'
    )


def _x_tick_labels(labels: Sequence[str], positions: Sequence[float]) -> list[str]:
    step = max(1, len(labels) // 10)
    out = []
    for i in range(0, len(labels), step):
        out.append(
            f'<text x="{_fmt(positions[i])}" y="{_H - _MB + 14}" text-anchor="middle" '
            f'font-size="9">{_esc(labels[i])}</text>'
        )
    return out


def line_chart(
    title: str,
    x_labels: Sequence[str],
    series: Mapping[str, Sequence[float | None]],
    y_label: str,
) -> str:
    """Multi-series line chart; None values break the line (missing months)."""
    flat = [v for values in series.values() for v in values if v is not None]
    if not flat or not x_labels:
        return _frame(title, ['<text x="60" y="60">no data</text>'])
    y_lo, y_hi = _y_scale(flat)
    body, scale = _axes(y_lo, y_hi)

    plot_w = _W - _ML - _MR
    n = len(x_labels)
    xs = [_ML + plot_w * (i + 0.5) / n for i in range(n)]
    body.extend(_x_tick_labels(x_labels, xs))
    body.append(_y_label(y_label))

    for k, (name, values) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        run: list[str] = []
        chunks: list[list[str]] = []
        for i, value in enumerate(values):
            if value is None:
                if run:
                    chunks.append(run)
                    run = []
                continue
            y = _H - _MB - (value - y_lo) * scale
            run.append(f"{_fmt(xs[i])},{_fmt(y)}")
        if run:
            chunks.append(run)
        for chunk in chunks:
            if len(chunk) == 1:
                x, y = chunk[0].split(",")
                body.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="{color}"/>')
            else:
                body.append(
                    f'<polyline points="{" ".join(chunk)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )
        body.append(
            f'<rect x="{_ML + 8 + 140 * k}" y="{_MT - 6}" width="10" height="10" fill="{color}"/>'
        )
        body.append(
            f'<text x="{_ML + 22 + 140 * k}" y="{_MT + 3}">{_esc(name)}</text>'
        )
    return _frame(title, body)


def bar_chart(title: str, labels: Sequence[str], values: Sequence[float], y_label: str) -> str:
    if not labels:
        return _frame(title, ['<text x="60" y="60">no data</text>'])
    y_lo, y_hi = _y_scale(list(values))
    body, scale = _axes(y_lo, y_hi)
    plot_w = _W - _ML - _MR
    n = len(labels)
    slot = plot_w / n
    zero_y = _H - _MB - (0.0 - y_lo) * scale
    xs = []
    for i, value in enumerate(values):
        x = _ML + slot * i + slot * 0.15
        top = _H - _MB - (value - y_lo) * scale
        y = min(top, zero_y)
        height = abs(top - zero_y)
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(slot * 0.7)}" '
            f'height="{_fmt(height)}" fill="{PALETTE[0]}"/>'
        )
        xs.append(x + slot * 0.35)
    body.extend(_x_tick_labels(labels, xs))
    body.append(_y_label(y_label))
    return _frame(title, body)


def stacked_bar_chart(
    title: str,
    labels: Sequence[str],
    series: Mapping[str, Sequence[float]],
    y_label: str,
) -> str:
    """Stacked non-negative bars, one stack per label."""
    if not labels:
        return _frame(title, ['<text x="60" y="60">no data</text>'])
    totals = [
        sum(series[name][i] for name in series) for i in range(len(labels))
    ]
    y_lo, y_hi = 0.0, max(totals + [1e-9]) * 1.06
    body, scale = _axes(y_lo, y_hi)
    plot_w = _W - _ML - _MR
    n = len(labels)
    slot = plot_w / n
    xs = []
    for i in range(n):
        x = _ML + slot * i + slot * 0.15
        base = _H - _MB
        for k, name in enumerate(series):
            value = series[name][i]
            height = value * scale
            base -= height
            body.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(base)}" width="{_fmt(slot * 0.7)}" '
                f'height="{_fmt(height)}" fill="{PALETTE[k % len(PALETTE)]}"/>'
            )
        xs.append(x + slot * 0.35)
    body.extend(_x_tick_labels(labels, xs))
    for k, name in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        body.append(
            f'<rect x="{_ML + 8 + 120 * k}" y="{_MT - 6}" width="10" height="10" fill="{color}"/>'
        )
        body.append(f'<text x="{_ML + 22 + 120 * k}" y="{_MT + 3}">{_esc(name)}</text>')
    body.append(_y_label(y_label))
    return _frame(title, body)
