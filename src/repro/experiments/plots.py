"""Terminal (ASCII) charts for experiment results.

The repository runs in offline environments without matplotlib, so
figures are rendered as Unicode scatter/line charts directly in the
terminal — enough to eyeball the shapes the paper's figures show
(who wins, where curves cross).

Usage::

    from repro.experiments import run_fig5
    from repro.experiments.plots import render_chart

    fig5a, _ = run_fig5(quick=True)
    print(render_chart(fig5a, log_x=True))
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult

#: Distinct glyphs assigned to series in order.
GLYPHS = "ox+*#@%&"


def _transform(value: float, log: bool) -> float:
    if log:
        if value <= 0:
            raise ValueError(f"log scale needs positive values, got {value}")
        return math.log10(value)
    return value


def render_chart(
    result: ExperimentResult,
    width: int = 64,
    height: int = 18,
    log_x: bool = True,
    log_y: bool = False,
) -> str:
    """Render every series of ``result`` into one character grid."""
    series = [s for s in result.series if s.points]
    if not series:
        return f"== {result.experiment_id}: {result.title} ==\n(no data)"
    xs = [_transform(p.x, log_x) for s in series for p in s.points]
    ys = [_transform(p.y, log_y) for s in series for p in s.points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, s in enumerate(series):
        glyph = GLYPHS[idx % len(GLYPHS)]
        for p in s.points:
            cx = int((_transform(p.x, log_x) - x_lo) / x_span * (width - 1))
            cy = int((_transform(p.y, log_y) - y_lo) / y_span * (height - 1))
            row = height - 1 - cy
            cell = grid[row][cx]
            # Collisions render as '?' so overlaps are visible.
            grid[row][cx] = glyph if cell in (" ", glyph) else "?"

    y_hi_real = max(p.y for s in series for p in s.points)
    y_lo_real = min(p.y for s in series for p in s.points)
    lines = [f"== {result.experiment_id}: {result.title} =="]
    lines.append(f"{y_hi_real:11.4g} ┐")
    for row in grid:
        lines.append(" " * 11 + " │" + "".join(row))
    lines.append(f"{y_lo_real:11.4g} ┘" + "─" * width)
    x_lo_real = min(p.x for s in series for p in s.points)
    x_hi_real = max(p.x for s in series for p in s.points)
    axis = f"{x_lo_real:g}"
    pad = max(1, width - len(axis) - len(f"{x_hi_real:g}"))
    lines.append(
        " " * 13 + axis + " " * pad + f"{x_hi_real:g}"
        + ("   (log x)" if log_x else "")
    )
    lines.append("   legend: " + "  ".join(
        f"{GLYPHS[i % len(GLYPHS)]}={s.label}" for i, s in enumerate(series)
    ))
    return "\n".join(lines)
