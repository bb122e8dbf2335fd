"""Exception hierarchy for the BOXes reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent (e.g. a block too
    small to hold a single record)."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class BlockNotFoundError(StorageError):
    """A block id was read or written that is not currently allocated."""


class BlockOverflowError(StorageError):
    """An encoded node does not fit within the configured block size."""


class PersistError(StorageError):
    """A serialized structure (snapshot file, page payload, varint stream)
    is not valid, or the scheme is not serializable."""


class WALError(StorageError):
    """The write-ahead log is malformed beyond what recovery tolerates
    (bad magic, impossible record type) — distinct from an ordinary torn
    tail, which recovery discards and reports."""


class RecoveryError(StorageError):
    """A page file cannot be brought to a consistent state: neither
    header slot is valid or the directory the newer one names is
    unreadable, or the log's sequence numbers do not continue the state
    they follow."""


class CrashError(StorageError):
    """Raised by an injected crash fault (:mod:`repro.faults`) when the
    simulated crash point is reached.  The backend refuses further
    physical writes until reopened, exactly like a machine that lost
    power."""


class TransientIOError(StorageError, IOError):
    """A retryable I/O failure (injected or real): the operation did not
    happen, no state was corrupted, and re-issuing it may succeed.  The
    label service's retry policy catches exactly this type."""


class FsyncFailedError(StorageError):
    """An ``fsync`` reported failure.  Following the PostgreSQL fsyncgate
    lesson, this is *not* retryable: once the kernel dropped dirty pages
    the backend cannot know what reached the platter, so it marks itself
    crashed and must be reopened (recovery re-establishes a consistent
    state from the WAL)."""


class XMLError(ReproError):
    """Base class for XML substrate failures."""


class XMLParseError(XMLError):
    """The input text is not well-formed XML, or has a DTD the parser refuses.

    Carries the byte offset and a human-readable reason.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class LabelingError(ReproError):
    """Base class for labeling-scheme failures."""


class UnknownLIDError(LabelingError):
    """An operation referenced a LID the scheme does not know about."""


class RecordNotFoundError(StorageError, UnknownLIDError):
    """A heap-file record (LID) does not exist or has been reclaimed.  The
    heap file is only ever the LIDF, so this is an unknown LID too."""


class InvariantViolation(LabelingError):
    """An internal structural invariant was found broken.

    Raised by the ``check_invariants`` debugging entry points; seeing this in
    production indicates a bug in the tree maintenance code.
    """


class OrdinalUnsupportedError(LabelingError):
    """Ordinal labels were requested from a scheme built without ordinal
    (size-field) support."""


class CrossShardError(LabelingError):
    """An operation spans shard boundaries in a way the router cannot
    serve: its LID arguments (or the :class:`~repro.core.batch.BatchRef`
    targets they resolve to) live on different shards.  The shard
    partition follows subtree boundaries, so cross-shard writes and
    cross-shard element pairs are rejected rather than silently split."""


class CacheError(ReproError):
    """Failures in the caching/logging layer of Section 6."""


class ServiceError(ReproError):
    """Base class for label-service failures."""


class ServiceClosedError(ServiceError):
    """An operation was submitted to a stopped (or stopping) service."""


class BackpressureTimeout(ServiceError):
    """A bounded write-queue put timed out while the queue stayed full."""


class WriterCrashError(ServiceError):
    """The service's writer thread was killed (injected fault or a fatal
    storage error).  The service transitions to degraded read-only mode."""


class ServiceDegradedError(ServiceError):
    """The service is in degraded read-only mode (its writer died).
    Writes fail fast with this error; reads served from pinned-epoch
    caches keep working, but reads that would need a live BOX fallthrough
    are refused because the structure may hold an unpublished half-applied
    group."""


class ServiceOverloadedError(ServiceError):
    """The service shed a request instead of queueing it: the bounded
    admission queue (network front end) or the write queue was full for
    longer than the overload budget.  Typed shedding — the caller should
    back off and retry; nothing was applied."""


class ReplicationError(ServiceError):
    """A replication request cannot be served: the target shard is not
    file-backed, or the request names a segment or checkpoint image the
    shard's manifest does not hold (never recorded, or deleted by the
    retention rule).  On the wire this is a ``BAD_REQUEST`` error frame —
    the connection lives on.  Raised on the follower, it means the
    follower cannot go on from where it is — its cursor is below the
    primary's retention horizon, or the two histories diverged — and a
    follower never retries it: restart it to re-bootstrap."""


class ProtocolError(ReproError):
    """A network protocol violation: a malformed, truncated, oversized, or
    otherwise undecodable frame.  The peer that detects it answers with a
    typed error frame (when a transport still exists to answer on) and
    closes the connection — never a hang, crash, or silent misparse."""
