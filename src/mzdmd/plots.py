"""Self-contained SVG emission for method comparison plots.

The files are written directly (no plotting toolkit, no font metrics), with
fixed coordinate formatting, so repeated runs produce byte-identical output
that CI can diff.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 160, 28, 44

COLORS = {
    "measurement": "#9467bd",
    "dmd": "#1f77b4",
    "mz-dmd": "#d62728",
    "t-model": "#2ca02c",
    "projection": "#7f7f7f",
}
_FALLBACK_COLORS = ("#8c564b", "#e377c2", "#17becf", "#bcbd22")


def _series_color(name: str, index: int) -> str:
    return COLORS.get(name, _FALLBACK_COLORS[index % len(_FALLBACK_COLORS)])


def emit_plot(times, series: dict, path, ylabel: str = "y") -> None:
    """Write one SVG comparing the given series over a common time axis.

    ``series`` maps a method name to ``(values, variance_or_None)`` over the
    strictly increasing ``times``; a variance shades mean +- sqrt(variance).
    A non-finite value, or a negative or non-finite variance, raises
    ``ValueError`` naming its series, and a time span that is not finite or
    a value range whose span, padded by 5 %, overflows raises ``ValueError``
    too, before any file is written.
    """
    times = np.asarray(times, dtype=float).ravel()
    if times.size < 2 or not (times[1:] > times[:-1]).all():
        raise ValueError("need at least two strictly increasing time points to plot")
    t0, t1 = float(times[0]), float(times[-1])
    if not t1 - t0 < np.inf:  # Python floats overflow to inf without a warning
        raise ValueError("the time span is not finite")

    # each series once: name, color, values and band half-width sqrt(variance)
    curves = []
    lo, hi = np.inf, -np.inf
    for index, (name, (values, var)) in enumerate(series.items()):
        values = np.asarray(values, dtype=float).ravel()
        var = None if var is None else np.asarray(var, dtype=float).ravel()
        if values.size != times.size or var is not None and var.size != times.size:
            raise ValueError(f"series {name!r} needs one value and variance per time point")
        if not np.isfinite(values).all():
            raise ValueError(f"series {name!r} has a non-finite value")
        if var is not None and not ((var >= 0) & (var < np.inf)).all():
            raise ValueError(f"series {name!r} has a negative or non-finite variance")
        band = None if var is None else np.sqrt(var)
        curves.append((name, _series_color(name, index), values, band))
        lo, hi = min(lo, values.min()), max(hi, values.max())
        if band is not None:
            lo, hi = min(lo, (values - band).min()), max(hi, (values + band).max())
    lo, hi = float(lo), float(hi)  # Python floats overflow to inf without a warning
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not hi - lo < np.inf:
        raise ValueError("the padded value range is not finite")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(t):
        return MARGIN_L + (t - t0) / (t1 - t0) * plot_w

    def py(v):
        return MARGIN_T + (hi - v) / (hi - lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = t0 + frac * (t1 - t0)
        out.append(
            f'<text x="{px(tx):.2f}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{tx:.3g}</text>'
        )
        vy = lo + frac * (hi - lo)
        out.append(
            f'<text x="{MARGIN_L - 6}" y="{py(vy) + 4:.2f}" font-size="11" '
            f'font-family="monospace" text-anchor="end">{vy:.3g}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 8}" font-size="12" '
        f'font-family="monospace" text-anchor="middle">t</text>'
    )
    out.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" font-size="12" '
        f'font-family="monospace" text-anchor="middle">{ylabel}</text>'
    )

    xs = [f"{x:.2f}" for x in px(times).tolist()]  # the time axis, mapped and formatted once

    def points(xs, vs):
        return [f"{x},{y:.2f}" for x, y in zip(xs, py(vs).tolist())]

    # bands first so the lines draw on top of them, then the lines, then the legend
    bands, lines, legend = [], [], []
    legend_x = WIDTH - MARGIN_R + 12
    for index, (name, color, values, band) in enumerate(curves):
        if band is not None:
            outline = points(xs, values + band) + points(xs[::-1], (values - band)[::-1])
            bands.append(
                f'<path d="M {" L ".join(outline)} Z" fill="{color}" '
                f'fill-opacity="0.2" stroke="none"/>'
            )
        lines.append(
            f'<polyline points="{" ".join(points(xs, values))}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        y = MARGIN_T + 16 + 20 * index
        legend += [
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 24}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>',
            f'<text x="{legend_x + 30}" y="{y + 4}" font-size="12" '
            f'font-family="monospace">{name}</text>',
        ]
    out += bands + lines + legend
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
