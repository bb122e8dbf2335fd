"""The paper's cost distributions, and ASCII rendering of its figures.

The paper's Figures 6 and 9 are log-log complementary CDFs: "for each I/O
cost, the fraction of insertions in the sequence that incurred higher than
this cost".  :func:`ccdf`, :func:`ccdf_at` and :func:`geometric_thresholds`
compute those series; the plots render them in the terminal so
`benchmarks/run_all.py` can show the *shape*, not just the sampled grid.
No plotting dependencies.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

#: Marker characters assigned to series, in order.
MARKERS = "ox*+#@%&"


def ccdf(costs: Sequence[int]) -> list[tuple[int, float]]:
    """Complementary CDF: ``(cost, fraction of operations costing > cost)``
    for every distinct cost, ascending — the series Figures 6 and 9 plot."""
    if not costs:
        return []
    total = len(costs)
    counts = Counter(costs)
    points: list[tuple[int, float]] = []
    above = total
    for cost in sorted(counts):
        above -= counts[cost]
        points.append((cost, above / total))
    return points


def ccdf_at(costs: Sequence[int], thresholds: Sequence[int]) -> list[tuple[int, float]]:
    """CCDF sampled at the given thresholds (for fixed-grid tables)."""
    total = len(costs)
    if total == 0:
        return [(threshold, 0.0) for threshold in thresholds]
    sorted_costs = sorted(costs)
    points = []
    for threshold in thresholds:
        # count of costs > threshold
        low, high = 0, total
        while low < high:
            mid = (low + high) // 2
            if sorted_costs[mid] <= threshold:
                low = mid + 1
            else:
                high = mid
        points.append((threshold, (total - low) / total))
    return points


def geometric_thresholds(limit: int, base: float = 2.0) -> list[int]:
    """1, 2, 4, ... — the log-scale x-grid of Figures 6/9.  The grid always
    reaches ``limit`` (the last threshold is >= it), so a CCDF sampled on it
    ends at zero."""
    thresholds = [1]
    value = 1.0
    while value < limit:
        value *= base
        thresholds.append(int(value))
    return thresholds


def _log_position(value: float, low: float, high: float, width: int) -> int:
    """Map ``value`` onto ``[0, width)`` logarithmically."""
    if value <= low:
        return 0
    if value >= high:
        return width - 1
    span = math.log(high) - math.log(low)
    return int((math.log(value) - math.log(low)) / span * (width - 1))


def ascii_ccdf_plot(
    series: Mapping[str, Sequence[tuple[int, float]]],
    width: int = 60,
    height: int = 16,
    title: str = "",
) -> str:
    """Render CCDF series (cost → fraction above) as a log-log ASCII plot.

    ``series`` maps a label to ``(cost, fraction)`` points (as produced by
    :func:`ccdf` or :func:`ccdf_at`).  Fractions of 0
    are clamped to the plot floor; both axes are logarithmic, matching the
    paper's Figures 6 and 9.
    """
    all_points = [point for points in series.values() for point in points]
    if not all_points:
        return "(no data)"
    max_cost = max(cost for cost, _ in all_points)
    min_cost = 1
    min_fraction = min(
        (fraction for _, fraction in all_points if fraction > 0), default=1e-4
    )
    min_fraction = max(min_fraction / 2, 1e-6)

    grid = [[" "] * width for _ in range(height)]
    for (label, points), marker in zip(series.items(), MARKERS):
        for cost, fraction in points:
            x = _log_position(max(cost, min_cost), min_cost, max(2, max_cost), width)
            clamped = max(fraction, min_fraction)
            y = _log_position(clamped, min_fraction, 1.0, height)
            row = height - 1 - y  # top row = fraction 1.0
            if grid[row][x] == " ":
                grid[row][x] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append("fraction of operations costing more than X I/Os (log-log)")
    lines.append("1.0 +" + "-" * width)
    for row in grid:
        lines.append("    |" + "".join(row))
    lines.append(f"{min_fraction:7.1e} +" + "-" * width)
    lines.append(f"     X: 1 .. {max_cost} I/Os")
    legend = "  ".join(
        f"{marker}={label}" for (label, _), marker in zip(series.items(), MARKERS)
    )
    lines.append("     " + legend)
    return "\n".join(lines)


def ascii_bar_chart(
    values: Mapping[str, float], width: int = 50, title: str = "", unit: str = ""
) -> str:
    """Render labeled values as horizontal bars (Figure 5/7/8 style)."""
    if not values:
        return "(no data)"
    top = max(values.values()) or 1.0
    label_width = max(len(label) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        bar = "#" * max(1, int(value / top * width)) if value > 0 else ""
        lines.append(f"{label.ljust(label_width)} |{bar} {value:.2f}{unit}")
    return "\n".join(lines)
