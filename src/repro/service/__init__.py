"""Concurrent label service: snapshot-consistent reads over N writers.

:class:`ShardedLabelService` (:mod:`repro.service.sharded`, N >= 1 shards)
is the service: the one type every layer above this package accepts.  It
binds N schemes into one global label space through a
:class:`~repro.service.router.ShardRouter`; reader sessions
(:class:`ShardedReaderSession`) pin a cross-shard :class:`EpochVector`
(DESIGN.md section 13).

Each shard is one :class:`LabelService` unit (Sections 3-6 of the paper
as a service): a single writer applies group-committed batches and
publishes an immutable epoch at every commit, while any number of
:class:`ReaderSession` objects serve label reads from epoch-pinned caches
repaired by modification-log replay — falling through to a latched BOX
read only when the log no longer covers their history (DESIGN.md section
8).  The unit is constructed only by :mod:`repro.service.sharded`; it
stays importable here for the deterministic interleaving harness, whose
subject it is.
"""

from .._exports import lazy_exports

__all__ = lazy_exports(__name__, {
    ".epoch": ("Epoch", "WriteTicket"),
    ".queue": ("WriteQueue",),
    ".router": ("ShardRouter",),
    ".service": ("FATAL_WRITER_ERRORS", "LabelService", "ReaderSession", "RetryPolicy"),
    ".sharded": (
        "EpochVector", "ShardedLabelService", "ShardedReaderSession",
        "ShardedWriteTicket", "bulk_load_sharded",
    ),
    ".stats": ("ServiceCounters", "ServiceStats"),
})
