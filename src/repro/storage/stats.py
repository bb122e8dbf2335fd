"""I/O accounting.

Every block read and write performed through a :class:`~repro.storage.blockstore.BlockStore`
is tallied here.  The benchmarks reproduce the paper's figures from these
counters: performance "is measured by the number of I/Os" (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import CounterSet


@dataclass(frozen=True)
class OperationCost:
    """Immutable snapshot of the I/O cost of one logical operation."""

    reads: int
    writes: int

    @property
    def total(self) -> int:
        """Combined read + write block I/Os."""
        return self.reads + self.writes

    def __add__(self, other: "OperationCost") -> "OperationCost":
        return OperationCost(self.reads + other.reads, self.writes + other.writes)

    def __sub__(self, other: "OperationCost") -> "OperationCost":
        return OperationCost(self.reads - other.reads, self.writes - other.writes)


class IOStats(CounterSet):
    """Mutable running totals of block I/Os and block lifecycle events.

    The counters accumulate forever; callers that want per-operation or
    per-phase costs take a :meth:`snapshot` (an :class:`OperationCost`)
    before and subtract after, or use :meth:`BlockStore.operation` which
    returns the delta directly.
    """

    PREFIX = "repro_io"
    COUNTERS = ("reads", "writes", "allocs", "frees", "cache_hits", "cache_misses")
    SNAPSHOT = OperationCost

    class Counts:
        @property
        def hit_ratio(self) -> float:
            """Cache hits over cache-eligible reads (0.0 when caching is
            off or nothing has been read)."""
            probes = self.cache_hits + self.cache_misses
            return self.cache_hits / probes if probes else 0.0

    @staticmethod
    def gauges(counts: Counts, instances: int) -> dict[str, float]:
        return {"cache_hit_ratio": counts.hit_ratio, "instances": instances}

    @property
    def total_io(self) -> int:
        """Combined read + write block I/Os since the last reset."""
        return self.reads + self.writes

    @property
    def hit_ratio(self) -> float:
        """:attr:`Counts.hit_ratio` now.

        Both counters come from one locked copy: a :meth:`reset` landing
        between two lock-free attribute reads could otherwise pair hits
        from before the reset with misses from after it, reporting a
        ratio no consistent state ever had.
        """
        return self.counts().hit_ratio
