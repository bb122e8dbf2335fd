"""Cost metrics over per-operation I/O traces.

The paper reports (a) the average cost over a sequence — Figures 5, 7, 8 —
and (b) the *distribution* of individual costs as a complementary CDF
(Figures 6 and 9).  This module summarises a trace; the CCDF series the
figure benchmarks sample live beside their plots, in
``benchmarks/plotting.py``.
"""

from __future__ import annotations

import math
from typing import Sequence


def amortized_cost(costs: Sequence[int]) -> float:
    """Average I/Os per operation over the sequence."""
    return sum(costs) / len(costs) if costs else 0.0


def percentile(costs: Sequence[int], fraction: float) -> int:
    """The ``fraction``-quantile of the costs (nearest-rank)."""
    if not costs:
        return 0
    ordered = sorted(costs)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def summarize(costs: Sequence[int]) -> dict[str, float]:
    """Mean, quartiles, tail, and extremes of one trace."""
    if not costs:
        return {"n": 0, "mean": 0.0, "p50": 0, "p90": 0, "p99": 0, "max": 0, "total": 0}
    return {
        "n": len(costs),
        "mean": amortized_cost(costs),
        "p50": percentile(costs, 0.50),
        "p90": percentile(costs, 0.90),
        "p99": percentile(costs, 0.99),
        "max": max(costs),
        "total": sum(costs),
    }
