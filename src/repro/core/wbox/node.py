"""W-BOX node layouts and range arithmetic.

A W-BOX is a weight-balanced B-tree keyed on label values.  Every node is
associated with a *range* of permissible label values; the root owns the
full range and each child owns one of ``b`` equal-length subranges,
identified by a *slot* number in ``[0, b)``.  Some slots may be unassigned —
that slack is what lets a split often grab an adjacent free subrange instead
of relabeling the whole parent subtree (Section 4, "Insert and delete").

Leaves follow the within-leaf ordinal rule of Section 6: the ``i``-th record
of a leaf always carries label ``range_lo + i``.  Labels are therefore
implicit — a leaf stores only its records and its range origin, and
"relabeling a leaf" is a single field update.

Weights implement the global-rebuilding deletion strategy: a deletion
physically removes the record (so within-leaf labels stay ordinal) but never
decrements any weight, leaving a *ghost* counted in ``weight`` until a
reclaim or a rebuild.  Hence ``weight >= len(records)`` for leaves.
"""

from __future__ import annotations

from typing import Any

from ..kernels import cumulative, prefix

#: Leaf records are LIDs (ints) in the basic W-BOX; W-BOX-O uses
#: :class:`PairRecord` objects.
Record = Any


class PairRecord:
    """A W-BOX-O leaf record.

    ``partner_lid`` / ``partner_block`` locate the record of the same
    element's other tag; ``end_value`` caches the end label (maintained on
    start records only).  Fresh records are unwired until the element-level
    operation that created them installs the pairing.
    """

    __slots__ = ("lid", "is_start", "partner_lid", "partner_block", "end_value")

    def __init__(self, lid: int) -> None:
        self.lid = lid
        self.is_start = False
        self.partner_lid: int | None = None
        self.partner_block = 0
        self.end_value: int | None = None

    def __repr__(self) -> str:
        kind = "start" if self.is_start else "end"
        return f"PairRecord(lid={self.lid}, {kind}, partner={self.partner_lid})"


class WEntry:
    """One child entry of an internal W-BOX node.

    ``slot`` is the child's subrange number within the parent's range;
    ``weight`` is the number of leaf records *ever inserted* below the child
    and still counted (ghosts included); ``size`` is the number of live
    records below (maintained only with ordinal support, else 0).
    """

    __slots__ = ("child", "slot", "weight", "size")

    def __init__(self, child: int, slot: int, weight: int, size: int = 0) -> None:
        self.child = child
        self.slot = slot
        self.weight = weight
        self.size = size

    def __repr__(self) -> str:
        return f"WEntry(child={self.child}, slot={self.slot}, w={self.weight}, s={self.size})"


class WNode:
    """A W-BOX node (leaf or internal), stored as one block payload.

    * ``level`` — 0 for leaves.
    * ``range_lo`` / ``range_len`` — the associated label range
      ``[range_lo, range_lo + range_len)``.  ``range_len`` is determined by
      the level alone (``leaf_range_len * b**level``) and never changes.
    * ``weight`` — for leaves, the record count including ghosts; for
      internal nodes, kept equal to the sum of entry weights.
    * ``entries`` — records (leaf) or :class:`WEntry` children (internal),
      the latter sorted by slot.
    """

    __slots__ = (
        "level",
        "range_lo",
        "range_len",
        "weight",
        "entries",
        "_cum_weights",
        "_cum_sizes",
        "_lid_index",
    )

    def __init__(
        self,
        level: int,
        range_lo: int,
        range_len: int,
        weight: int = 0,
        entries: list | None = None,
    ) -> None:
        self.level = level
        self.range_lo = range_lo
        self.range_len = range_len
        self.weight = weight
        self.entries: list = entries if entries is not None else []
        # Lazily built prefix-sum / position caches (see repro.core.kernels).
        # Invalidated by touch(), which BlockStore.write calls whenever the
        # node's block is dirtied.
        self._cum_weights: list[int] | None = None
        self._cum_sizes: list[int] | None = None
        self._lid_index: dict[int, int] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    # ------------------------------------------------------------------
    # internal-node helpers
    # ------------------------------------------------------------------

    def subrange_len(self, fanout: int) -> int:
        """Length of one child subrange."""
        return self.range_len // fanout

    def child_range_lo(self, entry: WEntry, fanout: int) -> int:
        """Range origin owned by ``entry``'s child."""
        return self.range_lo + entry.slot * self.subrange_len(fanout)

    def entry_index_for_value(self, value: int, fanout: int) -> int:
        """Index of the entry whose subrange contains ``value``.

        Assumes ``value`` falls inside an *assigned* subrange (true whenever
        the search target is an existing node's ``range_lo``).
        """
        slot = (value - self.range_lo) // self.subrange_len(fanout)
        entries = self.entries
        low, high = 0, len(entries) - 1
        while low < high:
            mid = (low + high + 1) // 2
            if entries[mid].slot <= slot:
                low = mid
            else:
                high = mid - 1
        return low

    def entry_index_of_child(self, child_id: int) -> int:
        """Index of the entry pointing at ``child_id`` (ValueError if absent)."""
        for index, entry in enumerate(self.entries):
            if entry.child == child_id:
                return index
        raise ValueError(f"child {child_id} not found")

    def used_slots(self) -> set[int]:
        """Currently assigned subrange slots."""
        return {entry.slot for entry in self.entries}

    def entry_rows(self) -> list[int]:
        """The internal node's child array flattened to wire order —
        ``(child, slot, weight, size)`` per entry — for the codec's
        packed-row fast path."""
        flat: list[int] = []
        extend = flat.extend
        for entry in self.entries:
            extend((entry.child, entry.slot, entry.weight, entry.size))
        return flat

    # ------------------------------------------------------------------
    # prefix-sum kernels (repro.core.kernels)
    # ------------------------------------------------------------------

    def touch(self) -> None:
        """Drop the cached prefix sums; called by ``BlockStore.write``
        whenever this node's block is dirtied."""
        self._cum_weights = None
        self._cum_sizes = None
        self._lid_index = None

    def weight_sums(self) -> list[int]:
        """Cumulative entry weights (internal nodes)."""
        cum = self._cum_weights
        if cum is None:
            cum = self._cum_weights = cumulative(
                entry.weight for entry in self.entries
            )
        return cum

    def size_sums(self) -> list[int]:
        """Cumulative entry sizes (internal nodes, ordinal support)."""
        cum = self._cum_sizes
        if cum is None:
            cum = self._cum_sizes = cumulative(entry.size for entry in self.entries)
        return cum

    def weight_prefix(self, index: int) -> int:
        """Total weight of the first ``index`` entries."""
        return prefix(self.weight_sums(), index) if index > 0 else 0

    def size_prefix(self, index: int) -> int:
        """Total size of the first ``index`` entries."""
        return prefix(self.size_sums(), index) if index > 0 else 0

    def total_size(self) -> int:
        """Sum of all entry sizes (live records below an internal node)."""
        cum = self.size_sums()
        return cum[-1] if cum else 0

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return (
            f"WNode({kind}, lo={self.range_lo}, len={self.range_len}, "
            f"w={self.weight}, n={len(self.entries)})"
        )


def spread_slots(count: int, fanout: int) -> list[int]:
    """``count`` distinct, increasing slots spread evenly over ``[0, fanout)``.

    Used when bulk building and when a split finds both adjacent subranges
    taken and must "reassign all children of parent(u) with equally spaced
    subranges".
    """
    if count > fanout:
        raise ValueError(f"cannot place {count} children in {fanout} slots")
    return [(index * fanout) // count for index in range(count)]
