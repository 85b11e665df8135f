"""Self-contained SVG waterfall charts (BER vs Eb/No, log y-axis).

No plotting library: the charts are a fixed contract (one polyline per
cyclic-prefix fraction, markers at the 1e-7 floor for zero-error cells)
and writing the dozen SVG elements directly keeps the output byte-stable.
Only finite Eb/No points are drawn: the noiseless +inf point has no place
on the axis, and stays in the records only.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Iterable

from .errors import IoError
from .metrics import BerRecord

#: Zero-error cells are drawn at this BER so the log axis stays total.
BER_FLOOR = 1e-7

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 520
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 160, 46, 56
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM
_DECADES = 7  # 1e0 .. 1e-7


def _x_px(ebno: float, lo: float, hi: float) -> float:
    span = hi - lo if hi > lo else 1.0
    return _LEFT + (ebno - lo) / span * _PLOT_W


def _y_px(ber: float) -> float:
    level = math.log10(max(ber, BER_FLOOR))  # 0 .. -7
    return _TOP + (-level) / _DECADES * _PLOT_H


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def render_chart(records: list[BerRecord], fft_size: int) -> str:
    """Render one chart (a single FFT size) as an SVG document string."""
    by_cp: dict[str, list[BerRecord]] = {}
    for record in records:
        by_cp.setdefault(record.cp_fraction, []).append(record)
    fractions = sorted(by_cp, key=Fraction, reverse=True)
    ebnos = sorted({r.ebno_db for r in records})
    lo, hi = ebnos[0], ebnos[-1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_LEFT + _PLOT_W / 2}" y="24" text-anchor="middle" font-size="15">'
        f"BER vs Eb/No, FFT size {fft_size}</text>",
    ]

    # horizontal decade gridlines + y tick labels
    for d in range(_DECADES + 1):
        y = _TOP + d / _DECADES * _PLOT_H
        parts.append(
            f'<line x1="{_LEFT}" y1="{y:.1f}" x2="{_LEFT + _PLOT_W}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        label = "1" if d == 0 else f"1e-{d}"
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end">{label}</text>'
        )

    # x ticks at the measured Eb/No points
    for e in ebnos:
        x = _x_px(e, lo, hi)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_TOP + _PLOT_H}" x2="{x:.1f}" '
            f'y2="{_TOP + _PLOT_H + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_TOP + _PLOT_H + 20}" text-anchor="middle">{_fmt(e)}</text>'
        )

    # axes
    parts.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_LEFT + _PLOT_W / 2}" y="{_HEIGHT - 12}" text-anchor="middle">'
        f"Eb/No (dB)</text>"
    )
    parts.append(
        f'<text x="18" y="{_TOP + _PLOT_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_TOP + _PLOT_H / 2})">BER</text>'
    )

    # one polyline (plus markers) per CP fraction
    for i, frac in enumerate(fractions):
        color = _PALETTE[i % len(_PALETTE)]
        series = sorted(by_cp[frac], key=lambda r: r.ebno_db)
        pts = [(_x_px(r.ebno_db, lo, hi), _y_px(r.ber), r.ber <= 0.0) for r in series]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y, _ in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y, floored in pts:
            if floored:
                # distinct marker: zero measured errors, drawn at the floor
                parts.append(
                    f'<path d="M {x:.2f} {y - 5:.2f} L {x + 5:.2f} {y + 4:.2f} '
                    f'L {x - 5:.2f} {y + 4:.2f} Z" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
            else:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')

    # legend
    lx = _LEFT + _PLOT_W + 16
    ly = _TOP + 8
    parts.append(
        f'<rect x="{lx - 8}" y="{ly - 14}" width="{_RIGHT - 24}" '
        f'height="{18 * (len(fractions) + 1) + 10}" fill="white" stroke="#999999"/>'
    )
    for i, frac in enumerate(fractions):
        color = _PALETTE[i % len(_PALETTE)]
        y = ly + 18 * i
        parts.append(
            f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 24}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{y}">CP {frac}</text>')
    y = ly + 18 * len(fractions)
    parts.append(
        f'<path d="M {lx + 12} {y - 9} L {lx + 17} {y} L {lx + 7} {y} Z" '
        f'fill="none" stroke="#555555" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{lx + 30}" y="{y}">0 errors (floor)</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(records: Iterable[BerRecord], out_dir: str) -> list[str]:
    """Write one BER-vs-Eb/No SVG per FFT size present in the records.

    Each record is a :class:`BerRecord`, as a sweep makes it; a records
    file read back gives ``BerRecord(**row)`` for each typed row.
    An FFT size with no finite Eb/No point gets no chart.  Returns the
    written paths.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to plot")
    by_fft: dict[int, list[BerRecord]] = {}
    for record in records:
        if math.isfinite(record.ebno_db):
            by_fft.setdefault(record.fft_size, []).append(record)
    paths = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for fft_size in sorted(by_fft):
            path = os.path.join(out_dir, f"ber_fft{fft_size}.svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_chart(by_fft[fft_size], fft_size))
            paths.append(path)
    except OSError as exc:
        raise IoError(f"failed to write plot under {out_dir}: {exc}") from exc
    return paths
