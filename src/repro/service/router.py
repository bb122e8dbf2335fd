"""Shard routing: the global-LID codec and batch partitioning.

A sharded deployment runs N independent labeling schemes ("shards") whose
shard-*local* LIDs all start at 0.  The router binds them into one global
label space:

* **Codec.**  Global LID ``glid`` lives on shard ``glid % N`` with local
  LID ``glid // N`` (and back: ``glid = local * N + shard``).  For
  ``N == 1`` every function is the identity, so the single-shard path is
  bit-for-bit the unsharded one — the degeneration the golden-I/O tests
  pin.
* **Partition.**  The document is split into N *contiguous* document-order
  chunks at subtree boundaries, chunk ``i`` on shard ``i``.  Because every
  structural update is anchored at an existing LID (and lands on that
  LID's shard), the chunks stay contiguous and ordered by shard index
  forever.  That invariant is what makes cross-shard order queries free:
  ``compare`` across shards is a comparison of shard indices, and a
  cross-shard element pair can never be in an ancestor relationship.
* **Routing.**  A batch of :class:`~repro.core.batch.BatchOp` items is
  split into per-shard sub-batches by :func:`~repro.core.batch.route_ops`
  (order-preserving within a shard, so per-shard group commit keeps its
  I/O coalescing); results are put back into submission order and local
  LIDs in them are translated back to global ones.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.batch import (
    BatchOp,
    ShardRouting,
    globalize_results,
    merge_routed_results,
    route_ops,
)

__all__ = ["ShardRouter"]


class ShardRouter:
    """The global-LID codec plus batch partitioning for N shards."""

    __slots__ = ("n_shards",)

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards

    # -- codec ---------------------------------------------------------

    def shard_of(self, glid: int) -> int:
        """The shard a global LID lives on."""
        return glid % self.n_shards

    def to_local(self, glid: int) -> int:
        """A global LID's shard-local LID."""
        return glid // self.n_shards

    def to_global(self, local: int, shard: int) -> int:
        """A shard-local LID's global LID."""
        return local * self.n_shards + shard

    def order_key(self, glid: int, label: Any) -> tuple[int, Any]:
        """Document-order sort key of ``glid``'s ``label``: chunks are
        contiguous in document order, so (shard index, label) compares
        lexicographically as global document order."""
        return (glid % self.n_shards, label)

    # -- partition -----------------------------------------------------

    def split_bulk(self, count: int) -> list[int]:
        """Per-shard label counts for bulk-loading ``count`` labels as N
        contiguous document-order chunks (near-even; earlier shards take
        the remainder)."""
        base, rem = divmod(count, self.n_shards)
        return [base + (1 if shard < rem else 0) for shard in range(self.n_shards)]

    # -- batch routing -------------------------------------------------

    def route(self, ops: Sequence[BatchOp]) -> ShardRouting:
        """Split a batch into localized per-shard sub-batches (raises
        :class:`~repro.errors.CrossShardError` on an op whose LID args
        span shards)."""
        return route_ops(
            ops, self.n_shards, shard_of=self.shard_of, to_local=self.to_local
        )

    def merge(
        self,
        ops: Sequence[BatchOp],
        routing: ShardRouting,
        per_shard_results: dict[int, Sequence[Any]],
    ) -> list:
        """Per-shard result lists → submission-order results with global
        LIDs."""
        merged = merge_routed_results(routing, per_shard_results)
        return globalize_results(ops, merged, routing.op_shard, self.to_global)
