"""Per-service counters, in the style of :class:`~repro.storage.stats.IOStats`.

The label service's health is visible through three families of numbers:

* **read path** — how many reads were served fresh from a pinned cache,
  repaired by modification-log replay, or forced through to a latched BOX
  lookup (the expensive, writer-excluding path);
* **write path** — epochs published, batches and ops applied, and how often
  producers had to wait on the bounded queue (backpressure);
* **staleness** — how far behind the writer's published epoch reader
  sessions were when they served reads (epoch lag).

Counting, locking and copies are :class:`~repro.obs.metrics.CounterSet`'s:
every snapshot is one state, so ``reads == fresh_hits + replay_hits +
fallthrough_reads`` holds in each.
"""

from __future__ import annotations

from ..obs.metrics import CounterSet


class ServiceStats(CounterSet):
    """Mutable running totals for one :class:`~repro.service.LabelService`.

    ``shard`` tags the instance with the shard it belongs to (``None`` for
    an unsharded service); the registry collector groups by it.
    """

    PREFIX = "repro_service"
    COUNTERS = (
        "reads",
        "fresh_hits",
        "replay_hits",
        "fallthrough_reads",
        "epochs_published",
        "batches_applied",
        "ops_applied",
        "backpressure_waits",
        "write_errors",
        "write_retries",
        "write_merges",
        "degradations",
        "degraded_write_rejects",
        "degraded_read_rejects",
        "lag_sum",
        "lag_samples",
    )
    MAXIMA = ("max_epoch_lag",)
    UNEXPORTED = ("lag_sum", "lag_samples")

    class Counts:
        """Immutable snapshot of a service's counters."""

        @property
        def repair_hit_ratio(self) -> float:
            """Reads answered without touching the BOX, over all reads."""
            return (self.fresh_hits + self.replay_hits) / self.reads if self.reads else 0.0

        @property
        def mean_epoch_lag(self) -> float:
            return self.lag_sum / self.lag_samples if self.lag_samples else 0.0

    @staticmethod
    def gauges(counts: Counts, instances: int) -> dict[str, float]:
        return {
            "repair_hit_ratio": counts.repair_hit_ratio,
            "epoch_lag_mean": counts.mean_epoch_lag,
            "epoch_lag_max": counts.max_epoch_lag,
        }

    def observe_lag(self, lag: int) -> None:
        """Record one reader's epoch lag (published epoch - pinned epoch)."""
        with self._lock:
            if lag > self.max_epoch_lag:
                self.max_epoch_lag = lag
            self.lag_sum += lag
            self.lag_samples += 1

    @property
    def repair_hit_ratio(self) -> float:
        """:attr:`Counts.repair_hit_ratio` now, from one locked copy, so
        numerator and denominator agree even when :meth:`reset` or
        :meth:`add` land mid-read."""
        return self.snapshot().repair_hit_ratio


#: The type :meth:`ServiceStats.snapshot` returns.
ServiceCounters = ServiceStats.Counts
