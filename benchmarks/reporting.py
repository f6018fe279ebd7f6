"""Plain-text tables, series and terminal line charts for the benchmark scripts.

Every benchmark regenerates one table or figure of the paper; these helpers
print them in a uniform, diff-friendly format so EXPERIMENTS.md can quote the
output directly.  The scripts run offline with no plotting stack, so the
Figure 10-13 curves are drawn as ASCII charts readable in a terminal or a
results file.
"""

from __future__ import annotations

from typing import Mapping, Sequence

_MARKERS = "ox+*#@%&"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[object], ys: Sequence[float]) -> str:
    """Render one figure series as ``name: x=y`` pairs."""
    points = "  ".join(f"{x}={y:.4g}" for x, y in zip(xs, ys))
    return f"{name}: {points}"


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    y_min: float | None = None,
    y_max: float | None = None,
    title: str = "",
) -> str:
    """Plot one or more equal-length numeric series as an ASCII chart.

    Each series gets a marker character; a legend maps markers back to
    names.  Values are linearly mapped into a ``height``-row grid; the x axis
    is the sample index (iteration number in the survey/training figures).
    """
    if not series:
        raise ValueError("no series to plot")
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError("all series must have the same length")
    (num_points,) = lengths
    if num_points == 0:
        raise ValueError("series are empty")

    all_values = [v for values in series.values() for v in values]
    low = min(all_values) if y_min is None else y_min
    high = max(all_values) if y_max is None else y_max
    if high <= low:
        high = low + 1.0
    span = high - low

    grid = [[" "] * width for _ in range(height)]
    for series_index, (_name, values) in enumerate(series.items()):
        marker = _MARKERS[series_index % len(_MARKERS)]
        for point_index, value in enumerate(values):
            x = (
                0
                if num_points == 1
                else round(point_index * (width - 1) / (num_points - 1))
            )
            clamped = min(max(value, low), high)
            y = round((clamped - low) / span * (height - 1))
            grid[height - 1 - y][x] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{high:8.3f} +" + "-" * width)
    for row in grid:
        lines.append(" " * 9 + "|" + "".join(row))
    lines.append(f"{low:8.3f} +" + "-" * width)
    lines.append(" " * 10 + f"0 .. {num_points - 1} (iteration)")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
