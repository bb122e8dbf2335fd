"""Shard routing: the global-LID codec and batch partitioning.

A sharded deployment runs N independent labeling schemes ("shards") whose
shard-*local* LIDs all start at 0.  The router binds them into one global
label space, and this module is the only place that knows how:

* **Codec.**  Global LID ``glid`` lives on shard ``glid % N`` with local
  LID ``glid // N`` (and back: ``glid = local * N + shard``).  For
  ``N == 1`` every function is the identity, so the single-shard path is
  bit-for-bit the unsharded one — the degeneration the golden-I/O tests
  pin.  :class:`ShardRouter` owns the codec; everything else, routing
  included, calls its methods.
* **Partition.**  The document is split into N *contiguous* document-order
  chunks at subtree boundaries, chunk ``i`` on shard ``i``.  Because every
  structural update is anchored at an existing LID (and lands on that
  LID's shard), the chunks stay contiguous and ordered by shard index
  forever.  That invariant is what makes cross-shard order queries free:
  ``compare`` across shards is a comparison of shard indices, and a
  cross-shard element pair can never be in an ancestor relationship.
* **Routing.**  A batch of :class:`~repro.core.batch.BatchOp` items is
  split into per-shard sub-batches by :func:`route_ops` (order-preserving
  within a shard, so per-shard group commit keeps its I/O coalescing);
  :meth:`ShardRouter.merge` puts the results back into submission order
  and translates the local LIDs in them back to global ones, in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..core.batch import BatchOp, BatchRef
from ..errors import CrossShardError, LabelingError

__all__ = [
    "LID_ARG_POSITIONS",
    "LID_RESULT_SHAPES",
    "ShardRouter",
    "ShardRouting",
    "route_ops",
]

#: Every LID-typed argument position per kind: which shard an op belongs
#: to (all LID args must agree), and which args to translate into
#: shard-local LIDs.
LID_ARG_POSITIONS: dict[str, tuple[int, ...]] = {
    "lookup": (0,),
    "ordinal_lookup": (0,),
    "lookup_pair": (0, 1),
    "compare": (0, 1),
    "insert_before": (0,),
    "insert_element_before": (0,),
    "delete": (0,),
    "delete_element": (0, 1),
    "insert_subtree_before": (0,),
    "delete_range": (0, 1),
}

#: Shape of each kind's result in LID terms: ``None`` (labels/ordinals —
#: nothing to translate), one LID, a (start, end) LID tuple, or a LID list.
LID_RESULT_SHAPES: dict[str, str | None] = {
    "lookup": None,
    "ordinal_lookup": None,
    "lookup_pair": None,
    "compare": None,
    "insert_before": "lid",
    "insert_element_before": "lid_tuple",
    "delete": None,
    "delete_element": None,
    "insert_subtree_before": "lid_list",
    "delete_range": "lid_list",
}


@dataclass
class ShardRouting:
    """One batch split into per-shard sub-batches, plus the maps that put
    the per-shard results back into submission order.

    ``per_shard[s]`` holds shard ``s``'s ops *localized* (global LIDs
    translated to shard-local ones, :class:`BatchRef` indices rewritten to
    the sub-batch's positions) and in original relative order — so the
    executor's group-commit and locality grouping work unchanged per
    shard.  ``positions[s][j]`` is the original batch position of
    ``per_shard[s][j]``; ``op_shard[i]`` is op ``i``'s shard.
    """

    per_shard: dict[int, list[BatchOp]]
    positions: dict[int, list[int]]
    op_shard: list[int]


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
        return route_ops(ops, self)

    def merge(
        self, routing: ShardRouting, per_shard_results: dict[int, Sequence[Any]]
    ) -> list:
        """Per-shard result lists → submission-order results with global
        LIDs.  Only result components that *are* LIDs (per
        :data:`LID_RESULT_SHAPES`) are translated — labels, ordinals and
        comparison signs pass through untouched."""
        to_global = self.to_global
        merged: list = [None] * len(routing.op_shard)
        for shard, pos_map in routing.positions.items():
            sub_batch = routing.per_shard[shard]
            for pos, op, value in zip(pos_map, sub_batch, per_shard_results[shard]):
                shape = LID_RESULT_SHAPES[op.kind]
                if value is None or shape is None:
                    merged[pos] = value
                elif shape == "lid":
                    merged[pos] = to_global(value, shard)
                elif shape == "lid_tuple":
                    merged[pos] = tuple(to_global(item, shard) for item in value)
                else:  # lid_list
                    merged[pos] = [to_global(item, shard) for item in value]
        return merged


def route_ops(ops: Sequence[BatchOp], router: ShardRouter) -> ShardRouting:
    """Partition a batch into per-shard sub-batches through ``router``'s
    codec.

    Every LID argument of an op must land on one shard; an op whose LID
    args (or whose :class:`BatchRef` targets) disagree raises
    :class:`~repro.errors.CrossShardError` — the shard partition follows
    subtree boundaries, so such an op is a caller error, not a split
    candidate.  Refs follow the referenced op's shard and must not cross
    shards either.  Relative order within a shard is preserved, which is
    what keeps group-commit I/O coalescing intact after routing.
    """
    per_shard: dict[int, list[BatchOp]] = {}
    positions: dict[int, list[int]] = {}
    op_shard: list[int] = []
    local_index: list[int] = []  # original position -> index in its sub-batch

    for position, op in enumerate(ops):
        lid_positions = LID_ARG_POSITIONS[op.kind]
        shard: int | None = None

        def claim(candidate: int, why: str) -> None:
            nonlocal shard
            if shard is None:
                shard = candidate
            elif shard != candidate:
                raise CrossShardError(
                    f"op {position} ({op.kind}) spans shards {shard} and "
                    f"{candidate} via {why}"
                )

        for index, arg in enumerate(op.args):
            if isinstance(arg, BatchRef):
                if not 0 <= arg.index < position:
                    raise LabelingError(
                        f"op {position} references op {arg.index}, which has "
                        "not executed yet (refs must point backwards)"
                    )
                claim(op_shard[arg.index], f"ref to op {arg.index}")
            elif index in lid_positions and isinstance(arg, int) and not isinstance(arg, bool):
                claim(router.shard_of(arg), f"LID argument {index}")
        if shard is None:
            shard = 0

        sub = per_shard.setdefault(shard, [])
        pos_map = positions.setdefault(shard, [])
        new_args = []
        for index, arg in enumerate(op.args):
            if isinstance(arg, BatchRef):
                new_args.append(BatchRef(local_index[arg.index], arg.item))
            elif index in lid_positions and isinstance(arg, int) and not isinstance(arg, bool):
                new_args.append(router.to_local(arg))
            else:
                new_args.append(arg)
        op_shard.append(shard)
        local_index.append(len(sub))
        sub.append(BatchOp(op.kind, tuple(new_args)))
        pos_map.append(position)

    return ShardRouting(per_shard=per_shard, positions=positions, op_shard=op_shard)
