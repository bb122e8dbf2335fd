"""WAL-shipping replication: read replicas + incremental checkpoints.

The primary side (:mod:`repro.repl.primary`) rotates the retained
write-ahead log into sealed segments and records page-file checkpoint
images, all under the service's commit latch; the network front end
(:mod:`repro.net.server`) serves the manifest and raw segment/image
bytes to followers over the ordinary varint-framed protocol.

The follower side (:mod:`repro.repl.follower`) pulls sealed segments and
the live tail, persists them *log-first* into a local mirror of the
primary's layout, applies committed transactions to each shard of a
replica :class:`~repro.service.sharded.ShardedLabelService` under that
shard's exclusive latch, and publishes epochs — so pinned-epoch reader sessions on the follower
behave exactly like sessions on the primary, lagging by the shipping
delay.  A killed follower restarts through the stock crash-recovery
path and resumes from its local cursor; :meth:`Follower.promote` turns
the replica into a writable primary (failover handoff).
"""

from .follower import Follower, ShardFollower
from .primary import (
    annotate_commits_with_epoch,
    checkpoint_service,
    rotate_service_wal,
    start_checkpoint_thread,
)

__all__ = [
    "Follower",
    "ShardFollower",
    "annotate_commits_with_epoch",
    "checkpoint_service",
    "rotate_service_wal",
    "start_checkpoint_thread",
]
