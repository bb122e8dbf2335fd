"""W-BOX: the weight-balanced B-tree labeling structure (Section 4).

Label values are the search keys; the tree's balancing operations double as
relabeling operations, confining every relabel to a subrange.  Costs (all in
block I/Os, through the shared :class:`~repro.storage.BlockStore`):

* lookup — 1 I/O past the LIDF record (Theorem 4.5);
* insert — ``O(log_B N)`` amortized (Theorem 4.6);
* delete — ``O(1)`` amortized via global rebuilding (Theorem 4.6), or
  ``O(log_B N)`` with ordinal support (size-field maintenance);
* bulk load — ``O(N/B)``; subtree insert/delete — ``O((N + N')/B)`` worst
  case.

Deletion strategy (global rebuilding): a delete physically removes the leaf
record — keeping the within-leaf labels ordinal, which is what makes the
Section 6 logging succinct — but never decrements a weight field.  The
difference between a leaf's weight and its record count is its *ghost*
count; a later insert into such a leaf reclaims a ghost without touching any
weight (hence no split and O(1) cost).  Once total deletions reach the live
label count the whole structure is rebuilt by bulk loading.
"""

from __future__ import annotations

from typing import Any

from ...config import BoxConfig
from ...errors import InvariantViolation, UnknownLIDError
from ...storage import BlockStore
from ..cachelog import ORDINAL_CHANNEL, Invalidate, RangeShift
from ..interface import LabelingScheme
from ..kernels import cumulative, weight_split_point
from .node import Record, WEntry, WNode, spread_slots

#: Path item: (block id, node, index of the entry followed; None at the leaf).
PathItem = tuple[int, WNode, "int | None"]


class WBox(LabelingScheme):
    """The basic W-BOX labeling scheme.

    Parameters
    ----------
    config, store:
        Shared infrastructure (fresh ones are created when omitted).
    ordinal:
        Maintain size fields so :meth:`ordinal_lookup` works.  Insertion
        cost is unaffected; deletion cost rises to ``O(log_B N)`` because
        sizes, unlike weights, must be decremented (Section 4, "Ordinal
        labeling support").
    balance:
        ``"weight"`` (the paper's weight-balanced splits) or ``"fanout"``
        (ablation: split internal nodes when their child count reaches the
        maximum fan-out, like a regular B-tree).  The paper argues after
        Theorem 4.6 that the regular policy loses the amortized relabeling
        bound — a level-i node can split every ``(b/2)^{i+1}`` insertions
        while relabeling up to ``b^{i+1}`` leaves.
    """

    name = "W-BOX"

    def __init__(
        self,
        config: BoxConfig | None = None,
        store: BlockStore | None = None,
        ordinal: bool = False,
        balance: str = "weight",
    ) -> None:
        super().__init__(config, store)
        if balance not in ("weight", "fanout"):
            raise ValueError("balance must be 'weight' or 'fanout'")
        self.balance = balance
        if balance == "fanout":
            self.name = "W-BOX (regular B-tree splits)"
        self.ordinal = ordinal
        self.b = self.config.wbox_max_fanout
        self.a = self.config.wbox_branching
        self.leaf_capacity = self._leaf_capacity()
        #: The leaf parameter k, from this variant's actual leaf capacity
        #: (W-BOX-O records are wider, so its k is smaller).
        self.k = (self.leaf_capacity + 1) // 2
        #: Length of a leaf's assigned range; must be >= leaf capacity.  One
        #: spare value keeps the arithmetic round.
        self.leaf_range_len = self.leaf_capacity + 1
        self.root_id = self.store.allocate(WNode(0, 0, self.leaf_range_len))
        #: Level of the root (0 while the root is a leaf).
        self.height = 0
        self.root_weight = 0
        self._live = 0
        self._deletions = 0

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def persist_state(self) -> dict[str, Any]:
        return {
            **super().persist_state(),
            "root_id": self.root_id,
            "height": self.height,
            "root_weight": self.root_weight,
            "live": self._live,
            "deletions": self._deletions,
            "ordinal": self.ordinal,
            "balance": self.balance,
        }

    def restore_state(self, meta: dict[str, Any]) -> None:
        super().restore_state(meta)
        self.root_id = meta["root_id"]
        self.height = meta["height"]
        self.root_weight = meta["root_weight"]
        self._live = meta["live"]
        self._deletions = meta["deletions"]

    @classmethod
    def from_persisted(cls, config: BoxConfig, meta: dict[str, Any]) -> "WBox":
        return cls(config, ordinal=meta["ordinal"], balance=meta["balance"])

    # ------------------------------------------------------------------
    # record-format hooks (overridden by W-BOX-O)
    # ------------------------------------------------------------------

    def _leaf_capacity(self) -> int:
        return self.config.wbox_leaf_capacity

    def _make_record(self, lid: int) -> Record:
        """Create a leaf record for a fresh LID."""
        return lid

    def _make_records(self, lids: list[int]) -> list[Record]:
        """Leaf records for fresh LIDs, in order (a W-BOX record is its LID,
        so the list itself)."""
        return lids

    def _record_lid(self, record: Record) -> int:
        """The LID stored in a leaf record."""
        return record

    def _find_record(self, leaf: WNode, lid: int) -> int:
        """Position of ``lid``'s record within ``leaf`` (UnknownLIDError if
        absent)."""
        try:
            return leaf.entries.index(lid)
        except ValueError:
            raise UnknownLIDError(f"LID {lid} not found in its leaf") from None

    def _relocate_records(self, records: list[Record], new_block: int) -> None:
        """Records moved to ``new_block``: repoint their LIDF records (a
        W-BOX record is its LID), one read and one write per LIDF block.

        W-BOX-O overrides this to journal the moves for partner-pointer
        fixup."""
        self.lidf.repoint(records, new_block)

    def _leaf_relabeled(self, leaf_id: int, leaf: WNode) -> None:
        """Hook: the labels of ``leaf``'s records changed (range or
        positions).  No-op for the basic W-BOX; W-BOX-O refreshes cached end
        values held by partner records."""

    # ------------------------------------------------------------------
    # basic accounting
    # ------------------------------------------------------------------

    def label_count(self) -> int:
        return self._live

    @property
    def supports_ordinal(self) -> bool:
        return self.ordinal

    def label_bit_length(self) -> int:
        """Bits needed for the largest value in the root's range."""
        top = self.leaf_range_len * self.b**self.height - 1
        return max(1, top.bit_length())

    def _max_weight(self, level: int) -> int:
        """Split threshold ``2 a^i k`` for level ``i``."""
        return 2 * self.a**level * self.k

    def _min_weight(self, level: int) -> int:
        """Largest weight that *violates* the lower bound for a non-root
        node at ``level``: the constraint is ``w > a^i k - 2 a^{i-1} k``
        (for level 0 read ``a^{i-1}`` as ``1/a``), so a node is underweight
        iff ``w <= _min_weight(level)``."""
        return (self.a**level * self.k * (self.a - 2)) // self.a

    @staticmethod
    def _node_size(node: WNode) -> int:
        """Live records below ``node`` (meaningful when sizes maintained)."""
        if node.is_leaf:
            return len(node.entries)
        return node.total_size()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _descend(self, value: int) -> list[PathItem]:
        """Root-to-leaf path to the node whose range contains ``value``.

        ``value`` must lie in an assigned subrange at every level (always
        true when it is an existing leaf's ``range_lo``)."""
        path: list[PathItem] = []
        node_id = self.root_id
        while True:
            node = self.store.read(node_id)
            if node.is_leaf:
                path.append((node_id, node, None))
                return path
            index = node.entry_index_for_value(value, self.b)
            path.append((node_id, node, index))
            node_id = node.entries[index].child

    def _path_ordinal(self, path: list[PathItem]) -> int:
        """Live records strictly left of the path's leaf (needs sizes)."""
        total = 0
        for _, node, index in path[:-1]:
            assert index is not None
            total += node.size_prefix(index)
        return total

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def lookup(self, lid: int) -> int:
        """The label behind ``lid``: one LIDF I/O + one leaf I/O."""
        with self.store.operation():
            leaf_id = self.lidf.read(lid)
            leaf = self.store.read(leaf_id)
            return leaf.range_lo + self._find_record(leaf, lid)

    def ordinal_lookup(self, lid: int) -> int:
        """The tag's exact document position: ``O(log_B N)`` I/Os."""
        if not self.ordinal:
            return super().ordinal_lookup(lid)
        with self.store.operation():
            leaf_id = self.lidf.read(lid)
            leaf = self.store.read(leaf_id)
            position = self._find_record(leaf, lid)
            path = self._descend(leaf.range_lo)
            return self._path_ordinal(path) + position

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def insert_before(self, lid_old: int) -> int:
        """Insert a new label immediately before ``lid_old``'s."""
        with self.store.operation():
            leaf_id = self.lidf.read(lid_old)
            leaf = self.store.read(leaf_id)
            position = self._find_record(leaf, lid_old)
            timestamp = self._tick()
            lid_new = self.lidf.allocate(leaf_id)
            if self._log_listeners:
                self._emit(
                    RangeShift(
                        timestamp,
                        leaf.range_lo + position,
                        leaf.range_lo + len(leaf.entries) - 1,
                        +1,
                    )
                )
            reclaim = leaf.weight > len(leaf.entries)  # a ghost is available
            leaf.entries.insert(position, self._make_record(lid_new))
            self._live += 1
            self._leaf_relabeled(leaf_id, leaf)
            self.store.write(leaf_id)
            if reclaim and not self.ordinal:
                # Reclaiming a deleted slot: no weight changes, no splits.
                return lid_new
            path = self._descend(leaf.range_lo)
            if self.ordinal and self._log_listeners:
                anchor = self._path_ordinal(path) + position
                self._emit(RangeShift(timestamp, anchor, None, +1, ORDINAL_CHANNEL))
            for node_id, node, index in path[:-1]:
                assert index is not None
                entry = node.entries[index]
                if not reclaim:
                    entry.weight += 1
                    node.weight += 1
                entry.size += 1
                self.store.write(node_id)
            if not reclaim:
                leaf.weight += 1
                self.root_weight += 1
                self._split_overweight(path, timestamp)
            return lid_new

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------

    def delete(self, lid: int) -> None:
        """Remove one label.  ``O(1)`` amortized; ``O(log_B N)`` with
        ordinal support (size fields must reach the root)."""
        with self.store.operation():
            leaf_id = self.lidf.read(lid)
            leaf = self.store.read(leaf_id)
            position = self._find_record(leaf, lid)
            timestamp = self._tick()
            if self._log_listeners:
                self._emit(
                    RangeShift(
                        timestamp,
                        leaf.range_lo + position,
                        leaf.range_lo + len(leaf.entries) - 1,
                        -1,
                        freed=1,
                    )
                )
            if self.ordinal:
                path = self._descend(leaf.range_lo)
                if self._log_listeners:
                    anchor = self._path_ordinal(path) + position
                    self._emit(RangeShift(timestamp, anchor, None, -1, ORDINAL_CHANNEL, 1))
                for node_id, node, index in path[:-1]:
                    assert index is not None
                    node.entries[index].size -= 1
                    self.store.write(node_id)
            leaf.entries.pop(position)  # weight untouched: the ghost remains
            self._leaf_relabeled(leaf_id, leaf)
            self.store.write(leaf_id)
            self.lidf.free(lid)
            self._live -= 1
            self._deletions += 1
            if self._deletions >= max(1, self._live):
                self._global_rebuild(timestamp)

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------

    def _needs_split(self, node: WNode) -> bool:
        """Whether a node must split, per the configured balancing policy."""
        if node.is_leaf or self.balance == "weight":
            return node.weight >= self._max_weight(node.level)
        return len(node.entries) >= self.b  # regular B-tree: fan-out full

    def _split_overweight(self, path: list[PathItem], timestamp: int) -> None:
        """Walk the insert path bottom-up, splitting every node whose weight
        reached its level's threshold."""
        index = len(path) - 1
        while index >= 0:
            node_id, node, _ = path[index]
            if not self._needs_split(node):
                index -= 1
                continue
            if index == 0:
                # Root overweight: grow the tree.  The new root extends the
                # old root's range by a factor of b; the old root's range
                # becomes its first subrange (slot 0).
                entry = WEntry(node_id, 0, node.weight, self._node_size(node))
                new_root = WNode(
                    node.level + 1,
                    node.range_lo,
                    node.range_len * self.b,
                    node.weight,
                    [entry],
                )
                self.root_id = self.store.allocate(new_root)
                self.height += 1
                path.insert(0, (self.root_id, new_root, 0))
                index = 1
            parent_id, parent, _ = path[index - 1]
            self._split_child(parent_id, parent, path[index][0], timestamp)
            index -= 1

    def _split_child(self, parent_id: int, parent: WNode, child_id: int, timestamp: int) -> None:
        """Split ``child_id`` (a child of ``parent``) into two nodes."""
        child = self.store.read(child_id)
        entry_index = parent.entry_index_of_child(child_id)
        entry = parent.entries[entry_index]
        level = child.level

        if child.is_leaf:
            # At leaf-split time weight == record count (a leaf only splits
            # after a non-reclaim insert, which implies no ghosts).
            split_point = len(child.entries) // 2
            left_weight = split_point
            right_weight = len(child.entries) - split_point
            left_size = split_point
            right_size = len(child.entries) - split_point
        elif self.balance == "fanout":
            # Regular B-tree policy (ablation): split children evenly by count.
            split_point = len(child.entries) // 2
            left_weight = child.weight_prefix(split_point)
            right_weight = child.weight - left_weight
            left_size = child.size_prefix(split_point)
            right_size = child.total_size() - left_size
        else:
            target = self.a**level * self.k
            split_point, accumulated = weight_split_point(child.weight_sums(), target)
            left_weight = accumulated
            right_weight = child.weight - accumulated
            left_size = child.size_prefix(split_point)
            right_size = child.total_size() - left_size

        slots_taken = parent.used_slots()
        slot = entry.slot
        subrange = parent.subrange_len(self.b)

        if slot + 1 < self.b and (slot + 1) not in slots_taken:
            # New sibling on the right takes the right part; entries that
            # remain in the child keep their positions (no relabeling).
            moved = child.entries[split_point:]
            child.entries = child.entries[:split_point]
            child.weight = left_weight
            sibling = self._new_sibling(level, child.range_len, moved, right_weight)
            sibling_id = self.store.allocate(sibling)
            if child.is_leaf:
                self._relocate_records(moved, sibling_id)
            self._assign_range(sibling_id, parent.range_lo + (slot + 1) * subrange)
            entry.weight = left_weight
            entry.size = left_size
            parent.entries.insert(
                entry_index + 1, WEntry(sibling_id, slot + 1, right_weight, right_size)
            )
            self.store.write(child_id)
        elif slot - 1 >= 0 and (slot - 1) not in slots_taken:
            # New sibling on the left takes the left part; the child keeps
            # its range but its remaining records shift to the front, so a
            # leaf child is effectively relabeled in place.
            moved = child.entries[:split_point]
            child.entries = child.entries[split_point:]
            child.weight = right_weight
            sibling = self._new_sibling(level, child.range_len, moved, left_weight)
            sibling_id = self.store.allocate(sibling)
            if child.is_leaf:
                self._relocate_records(moved, sibling_id)
                self._leaf_relabeled(child_id, child)
            self._assign_range(sibling_id, parent.range_lo + (slot - 1) * subrange)
            entry.weight = right_weight
            entry.size = right_size
            parent.entries.insert(
                entry_index, WEntry(sibling_id, slot - 1, left_weight, left_size)
            )
            self.store.write(child_id)
        else:
            # Both adjacent subranges taken: reassign equally spaced
            # subranges to all children and relabel the whole parent subtree.
            moved = child.entries[split_point:]
            child.entries = child.entries[:split_point]
            child.weight = left_weight
            sibling = self._new_sibling(level, child.range_len, moved, right_weight)
            sibling_id = self.store.allocate(sibling)
            if child.is_leaf:
                self._relocate_records(moved, sibling_id)
            entry.weight = left_weight
            entry.size = left_size
            parent.entries.insert(
                entry_index + 1, WEntry(sibling_id, 0, right_weight, right_size)
            )
            for child_entry, new_slot in zip(
                parent.entries, spread_slots(len(parent.entries), self.b)
            ):
                child_entry.slot = new_slot
                self._assign_range(
                    child_entry.child, parent.child_range_lo(child_entry, self.b)
                )
            self.store.write(child_id)
        self.store.write(parent_id)
        if self._log_listeners:
            self._emit(
                Invalidate(
                    timestamp, parent.range_lo, parent.range_lo + parent.range_len - 1
                )
            )

    def _new_sibling(self, level: int, range_len: int, entries: list, weight: int) -> WNode:
        """A fresh node holding ``entries``; internal entries get evenly
        spread slots (ranges are assigned afterwards by
        :meth:`_assign_range`)."""
        node = WNode(level, None, range_len, weight, entries)  # type: ignore[arg-type]
        if level > 0:
            for child_entry, slot in zip(entries, spread_slots(len(entries), self.b)):
                child_entry.slot = slot
        return node

    def _assign_range(self, node_id: int, new_lo: int) -> None:
        """Move ``node_id``'s subtree to the range starting at ``new_lo``.

        Skips the whole subtree when the origin is unchanged — a node's
        labels depend only on its own ``range_lo`` and its descendants'
        slots, neither of which changes in that case."""
        node = self.store.read(node_id)
        if node.range_lo == new_lo:
            return
        node.range_lo = new_lo
        if node.is_leaf:
            self._leaf_relabeled(node_id, node)
        else:
            subrange = node.subrange_len(self.b)
            for entry in node.entries:
                self._assign_range(entry.child, new_lo + entry.slot * subrange)
        self.store.write(node_id)

    # ------------------------------------------------------------------
    # invariant checking (diagnostics; uses peek, costs no I/O)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify every structural invariant; raises
        :class:`InvariantViolation` on the first breach."""
        root = self.store.peek(self.root_id)
        if root.level != self.height:
            raise InvariantViolation("height mismatch")
        if root.range_lo != 0:
            raise InvariantViolation("root range must start at 0")
        if not root.is_leaf and len(root.entries) < 2:
            raise InvariantViolation("internal root must have more than one child")
        live, weight = self._check_node(self.root_id, is_root=True)
        if weight != self.root_weight:
            raise InvariantViolation(
                f"root weight {self.root_weight} != computed {weight}"
            )
        if live != self._live:
            raise InvariantViolation(f"live count {self._live} != computed {live}")
        previous_lid_labels: list[int] = []
        self._collect_labels(self.root_id, previous_lid_labels)
        if previous_lid_labels != sorted(previous_lid_labels):
            raise InvariantViolation("labels are not in increasing order")

    def _check_node(self, node_id: int, is_root: bool) -> tuple[int, int]:
        node: WNode = self.store.peek(node_id)
        self._check_prefix_caches(node_id, node)
        weight_balanced = self.balance == "weight" or node.is_leaf
        if weight_balanced and node.weight >= self._max_weight(node.level):
            raise InvariantViolation(f"node {node_id} overweight: {node}")
        if weight_balanced and not is_root and node.weight <= self._min_weight(node.level):
            raise InvariantViolation(f"node {node_id} underweight: {node}")
        if node.is_leaf:
            if len(node.entries) > self.leaf_capacity:
                raise InvariantViolation(f"leaf {node_id} over capacity")
            if node.weight < len(node.entries):
                raise InvariantViolation(f"leaf {node_id} weight below record count")
            if node.range_len < self.leaf_capacity:
                raise InvariantViolation(f"leaf {node_id} range too short")
            for record in node.entries:
                lid = self._record_lid(record)
                if self.lidf.exists(lid):
                    block = self._peek_lidf(lid)
                    if block != node_id:
                        raise InvariantViolation(
                            f"LIDF for lid {lid} points at {block}, not {node_id}"
                        )
                else:
                    raise InvariantViolation(f"leaf {node_id} holds dead lid {lid}")
            return len(node.entries), node.weight
        if len(node.entries) > self.b:
            raise InvariantViolation(f"node {node_id} fan-out over b")
        slots = [entry.slot for entry in node.entries]
        if slots != sorted(set(slots)) or (slots and slots[-1] >= self.b):
            raise InvariantViolation(f"node {node_id} has bad slots {slots}")
        total_live = 0
        total_weight = 0
        subrange = node.subrange_len(self.b)
        for entry in node.entries:
            child = self.store.peek(entry.child)
            if child.level != node.level - 1:
                raise InvariantViolation("child level mismatch")
            expected_lo = node.range_lo + entry.slot * subrange
            if child.range_lo != expected_lo:
                raise InvariantViolation(
                    f"child {entry.child} range_lo {child.range_lo} != {expected_lo}"
                )
            if child.range_len != subrange:
                raise InvariantViolation("child range length mismatch")
            live, weight = self._check_node(entry.child, is_root=False)
            if entry.weight != weight:
                raise InvariantViolation(
                    f"entry weight {entry.weight} != child weight {weight}"
                )
            if self.ordinal and entry.size != live:
                raise InvariantViolation(f"entry size {entry.size} != live {live}")
            total_live += live
            total_weight += weight
        if node.weight != total_weight:
            raise InvariantViolation("internal weight != sum of entry weights")
        return total_live, total_weight

    def _check_prefix_caches(self, node_id: int, node: WNode) -> None:
        """Any populated prefix-sum cache must match a fresh recomputation
        (a mismatch means a mutation skipped ``BlockStore.write``)."""
        if node._cum_weights is not None:
            if node._cum_weights != cumulative(e.weight for e in node.entries):
                raise InvariantViolation(f"stale weight prefix cache on {node_id}")
        if node._cum_sizes is not None:
            if node._cum_sizes != cumulative(e.size for e in node.entries):
                raise InvariantViolation(f"stale size prefix cache on {node_id}")
        if node._lid_index is not None:
            expected_index = {
                self._record_lid(record): position
                for position, record in enumerate(node.entries)
            }
            if node._lid_index != expected_index:
                raise InvariantViolation(f"stale lid index cache on {node_id}")

    def _collect_labels(self, node_id: int, out: list[int]) -> None:
        node: WNode = self.store.peek(node_id)
        if node.is_leaf:
            out.extend(node.range_lo + i for i in range(len(node.entries)))
            return
        for entry in node.entries:
            self._collect_labels(entry.child, out)

    def _peek_lidf(self, lid: int) -> int:
        """LIDF record contents without I/O accounting (diagnostics)."""
        block_id, slot = self.lidf._locate(lid)
        return self.store.peek(block_id)[slot]

    # Bulk operations (bulk_load, subtree insert/delete, global rebuild)
    # live in bulk.py and are attached below to keep this module focused on
    # the per-record algorithms.

    def bulk_load(self, n_labels: int, pairing: "list[int] | None" = None) -> list[int]:
        from .bulk import wbox_bulk_load

        return wbox_bulk_load(self, n_labels, pairing)

    def insert_subtree_before(
        self, lid_old: int, n_labels: int, pairing: "list[int] | None" = None
    ) -> list[int]:
        from .bulk import wbox_insert_subtree

        return wbox_insert_subtree(self, lid_old, n_labels, pairing)

    def delete_range(self, first_lid: int, last_lid: int) -> list[int]:
        from .bulk import wbox_delete_range

        return wbox_delete_range(self, first_lid, last_lid)

    def _global_rebuild(self, timestamp: int) -> None:
        from .bulk import wbox_global_rebuild

        wbox_global_rebuild(self, timestamp)
