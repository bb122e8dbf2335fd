"""B-BOX: the back-linked keyless B-tree labeling structure (Section 5).

B-BOX never materializes labels.  A label is reconstructed on demand by
walking back-links from the leaf to the root, collecting child ordinals —
so nothing needs relabeling when the document changes.  Labels are tuples
of components, compared lexicographically; all live labels have the same
number of components (every leaf sits at the same depth), so tuple order is
document order.

Costs (in block I/Os):

* lookup — ``O(log_B N)`` (Theorem 5.2);
* insert / delete — ``O(1)`` amortized, ``O(B log_B N)`` worst case
  (Theorem 5.3); with ordinal support every update walks to the root to
  maintain size fields, making the amortized cost ``O(log_B N)``;
* comparison — bottom-up to the lowest common ancestor, often much cheaper
  than two full lookups;
* bulk load — ``O(N/B)``; subtree insert via "ripping" —
  ``O(N'/B + B log_B (N + N'))``.

The minimum fan-out is ``capacity // min_fill_divisor``; the paper
recommends the standard ``B/2`` (divisor 2) for insert-mostly workloads and
``B/4`` (divisor 4) to guarantee O(1) amortized cost under mixed
insert/delete churn (at the price of slightly longer labels).
"""

from __future__ import annotations

from typing import Any, Sequence

from ...config import BoxConfig
from ...errors import ConfigError, InvariantViolation, UnknownLIDError
from ...storage import BlockStore
from ..cachelog import LABEL_CHANNEL, ORDINAL_CHANNEL, Invalidate, RangeShift, invalidate_all
from ..interface import LabelingScheme
from ..kernels import cumulative, position_index
from .node import BNode


class BBox(LabelingScheme):
    """The B-BOX labeling scheme (``ordinal=True`` gives B-BOX-O).

    Parameters
    ----------
    config, store:
        Shared infrastructure (fresh ones are created when omitted).
    ordinal:
        Maintain per-entry size fields so :meth:`ordinal_lookup` works;
        every update then propagates to the root (Section 5, "Ordinal
        labeling support").
    min_fill_divisor:
        2 (default) for the standard minimum fan-out, 4 for the relaxed
        variant that bounds amortized cost under mixed updates.
    """

    name = "B-BOX"

    def __init__(
        self,
        config: BoxConfig | None = None,
        store: BlockStore | None = None,
        ordinal: bool = False,
        min_fill_divisor: int = 2,
    ) -> None:
        super().__init__(config, store)
        if min_fill_divisor not in (2, 4):
            raise ConfigError("min_fill_divisor must be 2 or 4")
        self.ordinal = ordinal
        if ordinal:
            self.name = "B-BOX-O"
        self.leaf_capacity = self.config.bbox_leaf_capacity
        self.fanout = self.config.bbox_fanout
        self.min_fill_divisor = min_fill_divisor
        self.leaf_min = max(1, self.leaf_capacity // min_fill_divisor)
        self.fanout_min = max(2, self.fanout // min_fill_divisor)
        self.root_id = self.store.allocate(BNode(leaf=True))
        self.height = 0
        self._live = 0

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def persist_state(self) -> dict[str, Any]:
        return {
            **super().persist_state(),
            "root_id": self.root_id,
            "height": self.height,
            "live": self._live,
            "ordinal": self.ordinal,
            "min_fill_divisor": self.min_fill_divisor,
        }

    def restore_state(self, meta: dict[str, Any]) -> None:
        super().restore_state(meta)
        self.root_id = meta["root_id"]
        self.height = meta["height"]
        self._live = meta["live"]

    @classmethod
    def from_persisted(cls, config: BoxConfig, meta: dict[str, Any]) -> "BBox":
        return cls(
            config, ordinal=meta["ordinal"], min_fill_divisor=meta["min_fill_divisor"]
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def label_count(self) -> int:
        return self._live

    @property
    def supports_ordinal(self) -> bool:
        return self.ordinal

    def label_bit_length(self) -> int:
        """Bits for a packed label: one component per level, each wide
        enough for the level's maximum ordinal."""
        leaf_bits = max(1, (self.leaf_capacity - 1).bit_length())
        internal_bits = max(1, (self.fanout - 1).bit_length())
        return leaf_bits + self.height * internal_bits

    # ------------------------------------------------------------------
    # lookup and comparison
    # ------------------------------------------------------------------

    def lookup(self, lid: int) -> tuple[int, ...]:
        """Reconstruct the label bottom-up through back-links."""
        with self.store.operation():
            node_id = self.lidf.read(lid)
            node = self.store.read(node_id)
            components = [self._leaf_position(node, lid)]
            while not node.is_root:
                parent = self.store.read(node.parent)
                components.append(parent.index_of(node_id))
                node_id, node = node.parent, parent
            components.reverse()
            return tuple(components)

    def ordinal_lookup(self, lid: int) -> int:
        """The tag's exact document position, via size fields."""
        if not self.ordinal:
            return super().ordinal_lookup(lid)
        with self.store.operation():
            node_id = self.lidf.read(lid)
            node = self.store.read(node_id)
            counter = self._leaf_position(node, lid)
            while not node.is_root:
                parent = self.store.read(node.parent)
                index = parent.index_of(node_id)
                assert parent.sizes is not None
                counter += parent.size_prefix(index)
                node_id, node = node.parent, parent
            return counter

    def compare(self, lid1: int, lid2: int) -> int:
        """Document-order comparison via the lowest common ancestor: walk
        both paths up in lockstep and stop at the first shared node —
        usually far fewer I/Os than two full lookups when the labels are
        close in document order."""
        if lid1 == lid2:
            return 0
        with self.store.operation():
            id1 = self.lidf.read(lid1)
            id2 = self.lidf.read(lid2)
            if id1 == id2:
                leaf = self.store.read(id1)
                p1 = self._leaf_position(leaf, lid1)
                p2 = self._leaf_position(leaf, lid2)
                return (p1 > p2) - (p1 < p2)
            node1 = self.store.read(id1)
            node2 = self.store.read(id2)
            while node1.parent != node2.parent:
                id1, node1 = node1.parent, self.store.read(node1.parent)
                id2, node2 = node2.parent, self.store.read(node2.parent)
            parent = self.store.read(node1.parent)
            i1 = parent.index_of(id1)
            i2 = parent.index_of(id2)
            return (i1 > i2) - (i1 < i2)

    def lookup_packed(self, lid: int) -> int:
        """The label packed into a single integer (fixed component widths),
        handy for storing labels in word-sized fields."""
        label = self.lookup(lid)
        leaf_bits = max(1, (self.leaf_capacity - 1).bit_length())
        internal_bits = max(1, (self.fanout - 1).bit_length())
        packed = 0
        for component in label[:-1]:
            packed = (packed << internal_bits) | component
        return (packed << leaf_bits) | label[-1]

    def _leaf_position(self, leaf: BNode, lid: int) -> int:
        """``lid``'s position in ``leaf`` for a read path: builds the
        leaf's position map, which later reads reuse."""
        position = leaf.position_map().get(lid)
        if position is None:
            raise UnknownLIDError(f"LID {lid} not found in its leaf")
        return position

    def _find_record(self, leaf: BNode, lid: int) -> int:
        """``lid``'s position in ``leaf`` for an update path: builds no map."""
        try:
            return leaf.find(lid)
        except ValueError:
            raise UnknownLIDError(f"LID {lid} not found in its leaf") from None

    def lookup_many(self, lids: Sequence[int], channel: str = LABEL_CHANNEL) -> list:
        """Labels (or, on ``ORDINAL_CHANNEL``, document positions) for
        ``lids`` in one bottom-up walk.

        Per-LID walks re-derive the path above every leaf they share.
        Here each node's value for the path above it — the label
        components, or the document offset of its subtree's first record —
        is memoized, so every *distinct* ancestor is read and folded once
        however many LIDs sit below it.  The per-LID blocks are read in the
        per-LID order, inside one operation scope.
        """
        ordinal = channel == ORDINAL_CHANNEL
        if ordinal and not self.ordinal:
            return super().lookup_many(lids, channel)
        with self.store.operation():
            read = self.store.read
            above: dict[int, Any] = {self.root_id: 0 if ordinal else ()}
            results: list = []
            for lid in lids:
                leaf_id = self.lidf.read(lid)
                node = read(leaf_id)
                position = self._leaf_position(node, lid)
                node_id = leaf_id
                path: list[tuple[int, BNode]] = []
                while node_id not in above:
                    parent = read(node.parent)
                    path.append((node_id, parent))
                    node_id, node = node.parent, parent
                value = above[node_id]
                for child_id, parent in reversed(path):
                    index = parent.index_of(child_id)
                    value += parent.size_prefix(index) if ordinal else (index,)
                    above[child_id] = value
                results.append(value + (position if ordinal else (position,)))
            return results

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------

    def insert_before(self, lid_old: int) -> int:
        with self.store.operation():
            leaf_id = self.lidf.read(lid_old)
            leaf = self.store.read(leaf_id)
            position = self._find_record(leaf, lid_old)
            timestamp = self._tick()
            if self._log_listeners:
                prefix = self._prefix_of(leaf_id, leaf)
                self._emit(
                    RangeShift(
                        timestamp,
                        prefix + (position,),
                        prefix + (len(leaf.entries) - 1,),
                        +1,
                    )
                )
            lid_new = self.lidf.allocate(leaf_id)
            leaf.entries.insert(position, lid_new)
            self.store.write(leaf_id)
            self._live += 1
            if self.ordinal:
                anchor = self._bubble_sizes(leaf_id, leaf, +1, position)
                self._emit(RangeShift(timestamp, anchor, None, +1, ORDINAL_CHANNEL))
            if len(leaf.entries) > self.leaf_capacity:
                self._split(leaf_id, leaf, timestamp)
            return lid_new

    def _bubble_sizes(self, node_id: int, node: BNode, delta: int, position: int) -> int:
        """Propagate a size change to the root; returns the ordinal position
        of the affected record (computed for free along the way)."""
        ordinal = position
        while not node.is_root:
            parent = self.store.read(node.parent)
            index = parent.find(node_id)
            assert parent.sizes is not None
            # The prefix excludes index, so it is unaffected by the delta.
            # Use the cached sums when a reader already built them, but do
            # not build them here — the write below would discard them.
            cum = parent._cum_sizes
            if cum is not None:
                ordinal += cum[index - 1] if index > 0 else 0
            else:
                ordinal += sum(parent.sizes[:index])
            parent.sizes[index] += delta
            self.store.write(node.parent)
            node_id, node = node.parent, parent
        return ordinal

    def _prefix_of(self, node_id: int, node: BNode) -> tuple[int, ...]:
        """Label components contributed by the path above ``node``."""
        components: list[int] = []
        while not node.is_root:
            parent = self.store.read(node.parent)
            components.append(parent.find(node_id))
            node_id, node = node.parent, parent
        components.reverse()
        return tuple(components)

    def _split(self, node_id: int, node: BNode, timestamp: int) -> None:
        """Split an overflowing node; may cascade to the root."""
        sibling_id, sibling = self._split_off(node_id, node, len(node.entries) // 2)

        if node.is_root:
            sizes = None
            if self.ordinal:
                sizes = [self._subtree_size(node), self._subtree_size(sibling)]
            root = BNode(leaf=False, parent=0, entries=[node_id, sibling_id], sizes=sizes)
            root_id = self.store.allocate(root)
            node.parent = root_id
            sibling.parent = root_id
            self.store.write(node_id)
            self.store.write(sibling_id)
            self.root_id = root_id
            self.height += 1
            # Every label gained a component: no cached label survives.
            self._emit(invalidate_all(timestamp))
            return

        parent = self.store.read(node.parent)
        index = parent.find(node_id)
        parent.entries.insert(index + 1, sibling_id)
        if parent.sizes is not None:
            total = parent.sizes[index]
            right = self._subtree_size(sibling)
            parent.sizes[index] = total - right
            parent.sizes.insert(index + 1, right)
        self.store.write(node.parent)
        if self._log_listeners:
            # Paper's case (1): the parent gained a child.  We invalidate
            # from the *split* child's ordinal onwards — records moved out
            # of it still have cached labels under its old position, and
            # every later sibling's component shifted by one.
            prefix = self._prefix_of(node.parent, parent)
            self._emit(
                Invalidate(timestamp, prefix + (index,), prefix if prefix else None)
            )
        if len(parent.entries) > self.fanout:
            self._split(node.parent, parent, timestamp)

    def _split_off(self, node_id: int, node: BNode, position: int) -> tuple[int, BNode]:
        """Move ``node``'s entries from ``position`` on to a new right
        sibling (not yet linked into the parent); returns it and its id."""
        moved = node.entries[position:]
        del node.entries[position:]
        sibling = BNode(leaf=node.leaf, parent=node.parent, entries=moved)
        if node.sizes is not None:
            sibling.sizes = node.sizes[position:]
            del node.sizes[position:]
        sibling_id = self.store.allocate(sibling)
        self._adopt(sibling_id, sibling, moved)
        self.store.write(node_id)
        return sibling_id, sibling

    def _subtree_size(self, node: BNode) -> int:
        if node.leaf:
            return len(node.entries)
        assert node.sizes is not None
        return sum(node.sizes)

    def _adopt(self, node_id: int, node: BNode, entries: Sequence[int]) -> None:
        """Point ``entries``, just moved into ``node``, back at it: a leaf's
        LIDF records, one read and one write per LIDF block (O(B) I/Os at
        worst), or an internal node's children's back-links."""
        if node.leaf:
            self.lidf.repoint(entries, node_id)
        else:
            for child_id in entries:
                child = self.store.read(child_id)
                child.parent = node_id
                self.store.write(child_id)

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------

    def delete(self, lid: int) -> None:
        with self.store.operation():
            leaf_id = self.lidf.read(lid)
            leaf = self.store.read(leaf_id)
            position = self._find_record(leaf, lid)
            timestamp = self._tick()
            if self._log_listeners:
                prefix = self._prefix_of(leaf_id, leaf)
                self._emit(
                    RangeShift(
                        timestamp,
                        prefix + (position,),
                        prefix + (len(leaf.entries) - 1,),
                        -1,
                        freed=1,
                    )
                )
            leaf.entries.pop(position)
            self.store.write(leaf_id)
            self.lidf.free(lid)
            self._live -= 1
            if self.ordinal:
                anchor = self._bubble_sizes(leaf_id, leaf, -1, position)
                self._emit(RangeShift(timestamp, anchor, None, -1, ORDINAL_CHANNEL, 1))
            if not leaf.is_root and len(leaf.entries) < self.leaf_min:
                self._rebalance(leaf_id, leaf, timestamp)

    def _rebalance(self, node_id: int, node: BNode, timestamp: int) -> None:
        """Repair an underflowing non-root node by borrowing or merging."""
        # Subtree deletion can leave a parent with a single child, in which
        # case the node has no sibling to borrow from or merge with: repair
        # (or collapse) the parent first so a sibling appears.
        while True:
            if node.is_root:
                return
            parent_id = node.parent
            parent = self.store.read(parent_id)
            if len(parent.entries) >= 2:
                break
            if parent.is_root:
                node.parent = 0
                self.store.write(node_id)
                self.store.free(parent_id)
                self.root_id = node_id
                self.height -= 1
                self._emit(invalidate_all(timestamp))
                return
            self._rebalance(parent_id, parent, timestamp)
        index = parent.find(node_id)
        minimum = self.leaf_min if node.leaf else self.fanout_min

        # Try borrowing from the left, then the right sibling.  Subtree
        # surgery can leave a node far below the minimum, so borrow
        # repeatedly while the sibling has entries to spare.
        borrowed = False
        for sibling_index, take_last in ((index - 1, True), (index + 1, False)):
            if not 0 <= sibling_index < len(parent.entries):
                continue
            sibling_id = parent.entries[sibling_index]
            sibling = self.store.read(sibling_id)
            spare = min(minimum - len(node.entries), len(sibling.entries) - minimum)
            if spare > 0:
                self._borrow(node_id, node, sibling_id, sibling, take_last, spare)
                borrowed = True
            if borrowed:
                self._update_parent_sizes(parent, index, node, sibling_index, sibling)
                self.store.write(parent_id)
                if self._log_listeners:
                    # Paper's case (2): the boundary between children moved.
                    prefix = self._prefix_of(parent_id, parent)
                    low = min(index, sibling_index)
                    self._emit(
                        Invalidate(timestamp, prefix + (low,), prefix + (low + 1,))
                    )
            if len(node.entries) >= minimum:
                return

        # Merge with a sibling (left preferred), then fix the parent.
        if index > 0:
            left_id = parent.entries[index - 1]
            left = self.store.read(left_id)
            self._merge(left_id, left, node_id, node)
            removed_index = index
            survivor_index = index - 1
            survivor_id, survivor = left_id, left
        else:
            right_id = parent.entries[index + 1]
            right = self.store.read(right_id)
            self._merge(node_id, node, right_id, right)
            removed_index = index + 1
            survivor_index = index
            survivor_id, survivor = node_id, node
        parent.entries.pop(removed_index)
        if parent.sizes is not None:
            parent.sizes.pop(removed_index)
            parent.sizes[survivor_index] = self._subtree_size(survivor)
        self.store.write(parent_id)
        if self._log_listeners:
            prefix = self._prefix_of(parent_id, parent)
            self._emit(
                Invalidate(
                    timestamp, prefix + (survivor_index,), prefix if prefix else None
                )
            )
        if parent.is_root:
            if len(parent.entries) == 1 and not parent.leaf:
                # Collapse: the lone child becomes the root.
                child_id = parent.entries[0]
                child = self.store.read(child_id)
                child.parent = 0
                self.store.write(child_id)
                self.store.free(parent_id)
                self.root_id = child_id
                self.height -= 1
                self._emit(invalidate_all(timestamp))
        elif len(parent.entries) < self.fanout_min:
            self._rebalance(parent_id, parent, timestamp)
        # Subtree surgery can merge two *already tiny* nodes: if the merged
        # survivor is still under minimum, keep repairing it.
        if (
            self.store.exists(survivor_id)
            and not survivor.is_root
            and len(survivor.entries) < minimum
        ):
            self._rebalance(survivor_id, survivor, timestamp)

    def _borrow(
        self, node_id: int, node: BNode, sibling_id: int, sibling: BNode, take_last: bool, n: int
    ) -> None:
        """Move ``n`` entries from the adjacent end of ``sibling`` into
        ``node``; their LIDF records or back-links are repointed nearest
        first."""
        taken = slice(len(sibling.entries) - n, None) if take_last else slice(0, n)
        at = 0 if take_last else len(node.entries)
        moved = sibling.entries[taken]
        del sibling.entries[taken]
        node.entries[at:at] = moved
        if node.sizes is not None:
            assert sibling.sizes is not None
            node.sizes[at:at] = sibling.sizes[taken]
            del sibling.sizes[taken]
        self._adopt(node_id, node, moved[::-1] if take_last else moved)
        self.store.write(node_id)
        self.store.write(sibling_id)

    def _merge(self, left_id: int, left: BNode, right_id: int, right: BNode) -> None:
        """Move all of ``right``'s entries into ``left`` and free ``right``."""
        self._adopt(left_id, left, right.entries)
        left.entries.extend(right.entries)
        if left.sizes is not None:
            assert right.sizes is not None
            left.sizes.extend(right.sizes)
        self.store.write(left_id)
        self.store.free(right_id)

    def _update_parent_sizes(
        self, parent: BNode, index: int, node: BNode, sibling_index: int, sibling: BNode
    ) -> None:
        if parent.sizes is None:
            return
        parent.sizes[index] = self._subtree_size(node)
        parent.sizes[sibling_index] = self._subtree_size(sibling)

    # ------------------------------------------------------------------
    # invariant checking (diagnostics; uses peek, costs no I/O)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structure: uniform leaf depth, fan-out bounds, back-links,
        size fields, and LIDF pointers."""
        root = self.store.peek(self.root_id)
        if root.parent != 0:
            raise InvariantViolation("root must have no back-link")
        if not root.leaf and len(root.entries) < 2:
            raise InvariantViolation("internal root must have >= 2 children")
        live, depth = self._check_node(self.root_id, is_root=True)
        if live != self._live:
            raise InvariantViolation(f"live count {self._live} != computed {live}")
        if depth != self.height:
            raise InvariantViolation(f"height {self.height} != computed {depth}")

    def _check_node(self, node_id: int, is_root: bool) -> tuple[int, int]:
        node: BNode = self.store.peek(node_id)
        if node._cum_sizes is not None:
            if node.sizes is None or node._cum_sizes != cumulative(node.sizes):
                raise InvariantViolation(f"stale size prefix cache on {node_id}")
        if node._pos_index is not None and node._pos_index != position_index(
            node.entries
        ):
            raise InvariantViolation(f"stale position index cache on {node_id}")
        if node.leaf:
            if len(node.entries) > self.leaf_capacity:
                raise InvariantViolation(f"leaf {node_id} over capacity")
            if not is_root and len(node.entries) < self.leaf_min:
                raise InvariantViolation(f"leaf {node_id} underflow")
            for lid in node.entries:
                if not self.lidf.exists(lid):
                    raise InvariantViolation(f"leaf {node_id} holds dead lid {lid}")
                block_id, slot = self.lidf._locate(lid)
                if self.store.peek(block_id)[slot] != node_id:
                    raise InvariantViolation(f"LIDF for {lid} does not point at {node_id}")
            return len(node.entries), 0
        if len(node.entries) > self.fanout:
            raise InvariantViolation(f"node {node_id} over fan-out")
        if not is_root and len(node.entries) < self.fanout_min:
            raise InvariantViolation(f"node {node_id} underflow")
        if self.ordinal and (node.sizes is None or len(node.sizes) != len(node.entries)):
            raise InvariantViolation(f"node {node_id} has inconsistent sizes")
        total = 0
        depths = set()
        for position, child_id in enumerate(node.entries):
            child = self.store.peek(child_id)
            if child.parent != node_id:
                raise InvariantViolation(
                    f"child {child_id} back-link {child.parent} != {node_id}"
                )
            live, depth = self._check_node(child_id, is_root=False)
            if self.ordinal and node.sizes[position] != live:
                raise InvariantViolation(
                    f"size field {node.sizes[position]} != live {live} at {node_id}"
                )
            total += live
            depths.add(depth)
        if len(depths) != 1:
            raise InvariantViolation(f"children of {node_id} at different depths")
        return total, depths.pop() + 1

    # Bulk operations live in bulk.py.

    def bulk_load(self, n_labels: int, pairing: Sequence[int] | None = None) -> list[int]:
        from .bulk import bbox_bulk_load

        return bbox_bulk_load(self, n_labels)

    def insert_subtree_before(
        self, lid_old: int, n_labels: int, pairing: Sequence[int] | None = None
    ) -> list[int]:
        from .bulk import bbox_insert_subtree

        return bbox_insert_subtree(self, lid_old, n_labels)

    def delete_range(self, first_lid: int, last_lid: int) -> list[int]:
        from .bulk import bbox_delete_range

        return bbox_delete_range(self, first_lid, last_lid)
