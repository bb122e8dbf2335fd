"""Primary-side replication duties: latched checkpoints.

:func:`~repro.persist.checkpoint_scheme` and
:func:`~repro.persist.full_checkpoint` operate on a bare scheme and
require the caller to exclude concurrent commits.  Under a running
:class:`~repro.service.sharded.ShardedLabelService` each shard's writer
thread commits whenever a batch drains, so these wrappers take each
shard's exclusive latch for the duration — a checkpoint then sits
between two wake-up commits, never inside one.
"""

from __future__ import annotations

import threading

from ..persist import checkpoint_scheme, full_checkpoint
from ..service.sharded import ShardedLabelService

__all__ = [
    "annotate_commits_with_epoch",
    "checkpoint_service",
    "rotate_service_wal",
    "start_checkpoint_thread",
]


def annotate_commits_with_epoch(service: ShardedLabelService) -> ShardedLabelService:
    """Stamp every commit's journaled delta with the epoch it will
    publish as.

    Installs the ``stamp`` of each shard backend's owner (a scheme journal
    adopts it from the owner it replaces): the writer commits first and
    publishes after, so the transaction that produces epoch N+1 carries
    ``current_epoch.number + 1``.  Followers use the stamp to report lag
    in epochs; everything else ignores it.  Returns ``service`` for
    chaining; idempotent per service.
    """
    for shard_service in service.shards:
        shard_service.scheme.store.backend.owner.stamp = (
            lambda shard_service=shard_service: shard_service.current_epoch.number + 1
        )
    return service


def checkpoint_service(service: ShardedLabelService) -> list[dict]:
    """Full checkpoint of every shard, each under its commit latch.

    Per shard: checkpoint (which seals the live log) and record a
    page-file checkpoint image stamped with the shard's current epoch
    (the follower's lag-in-epochs reference); retention then keeps the
    two newest images and the segments from the older one on.  Returns
    the checkpoint records in shard order.  This is the durability point
    bootstrap requires: a follower attaches to the newest recorded image.
    """
    records = []
    for shard_service in service.shards:
        with shard_service._latch.exclusive():
            records.append(
                full_checkpoint(
                    shard_service.scheme,
                    extra={"epoch": shard_service.current_epoch.number},
                )
            )
    return records


def rotate_service_wal(service: ShardedLabelService) -> list[int]:
    """Checkpoint every shard, each under its commit latch: write back
    and seal the live log as one segment, no image copy.  Returns the
    sealed segment ids in shard order."""
    sealed = []
    for shard_service in service.shards:
        with shard_service._latch.exclusive():
            backend = checkpoint_scheme(shard_service.scheme)
            sealed.append(backend.wal_manifest["next_segment"] - 1)
    return sealed


def start_checkpoint_thread(
    service: ShardedLabelService,
    interval: float,
    *,
    stop: threading.Event | None = None,
) -> tuple[threading.Thread, threading.Event]:
    """Background full checkpoints: every ``interval`` seconds run
    :func:`checkpoint_service` (the backend seals by itself in between,
    every :data:`~repro.storage.filebackend.CHECKPOINT_TAPE_BYTES` of tape
    logged).
    Returns the started daemon thread and its stop event."""
    stop_event = stop if stop is not None else threading.Event()

    def _loop() -> None:
        while not stop_event.wait(interval):
            checkpoint_service(service)

    thread = threading.Thread(target=_loop, name="repl-checkpointer", daemon=True)
    thread.start()
    return thread, stop_event
