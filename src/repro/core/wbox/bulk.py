"""W-BOX bulk operations: bulk loading, global rebuilding, and subtree
insert/delete (Section 4, "Bulk loading and subtree insert/delete").

All four operations share one rebuild engine.  Its input is an ordered list
of *segments* — existing leaves to reuse (records stay in their blocks, so
their LIDF records need no update) and runs of records that need placement —
and its output is a freshly built, weight-balanced subtree.  Reuse is the
paper's optimization: "the rebuilding process keeps all existing leaf
entries in their original blocks, except those in u", which bounds the LIDF
update cost.

Bulk loading requires no sorting: scanning the document in order produces
the records in exactly their intended order, and each LIDF block is written
once, for an overall ``O(N/B)`` cost.  The Python work follows the I/O: new
LIDs come from one :meth:`~repro.storage.HeapFile.allocate_many` and each
emitted leaf repoints its records with one ``repoint``, so both touch
storage once per LIDF block, not once per label.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ...errors import LabelingError
from ..cachelog import ORDINAL_CHANNEL, Invalidate, RangeShift, invalidate_all
from .node import WEntry, WNode, spread_slots

if TYPE_CHECKING:  # pragma: no cover
    from .tree import WBox

#: One unit handed to the rebuild engine: a leaf block to reuse verbatim, or
#: a run of records (each paired with its current block, None if fresh).
Segment = tuple[str, Any, Any]

#: One built node at some level: (block id, weight, live size).
LevelItem = tuple[int, int, int]


# ----------------------------------------------------------------------
# leaf collection
# ----------------------------------------------------------------------


def collect_leaves(tree: "WBox", node_id: int) -> tuple[list[tuple[int, WNode]], list[int]]:
    """All leaves under ``node_id`` in label order, plus the internal block
    ids of the subtree (for freeing after a rebuild).  Reads every node."""
    leaves: list[tuple[int, WNode]] = []
    internals: list[int] = []
    stack = [node_id]
    # Iterative DFS preserving order: push children reversed.
    while stack:
        current = stack.pop()
        node = tree.store.read(current)
        if node.is_leaf:
            leaves.append((current, node))
        else:
            internals.append(current)
            stack.extend(entry.child for entry in reversed(node.entries))
    return leaves, internals


# ----------------------------------------------------------------------
# the rebuild engine
# ----------------------------------------------------------------------


def _even_chunks(records: list, capacity: int) -> list[list]:
    """Split ``records`` into the fewest chunks of at most ``capacity``,
    sized as evenly as possible (so no chunk is pathologically small)."""
    total = len(records)
    if total == 0:
        return []
    n_chunks = -(-total // capacity)
    base, extra = divmod(total, n_chunks)
    chunks = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(records[start : start + size])
        start += size
    return chunks


class _Rebuilder:
    """Streams segments into finalized leaves, then builds internal levels."""

    def __init__(self, tree: "WBox", timestamp: int) -> None:
        self.tree = tree
        self.timestamp = timestamp
        self.items: list[LevelItem] = []
        #: (record, current block or None) runs awaiting placement.
        self._buffer: list[tuple[Any, int | None]] = []
        self._reuse_seen: set[int] = set()
        self._reuse_emitted: set[int] = set()

    # -- segment intake -------------------------------------------------

    def add_reuse(self, block_id: int, node: WNode, records: list) -> None:
        """An existing leaf whose (possibly trimmed) records stay in order."""
        self._reuse_seen.add(block_id)
        if not self._buffer and len(records) >= self.tree.k and records:
            self._emit(block_id, [(record, block_id) for record in records])
            return
        if self._buffer and len(self._buffer) >= self.tree.k:
            self._flush_buffer()
            if len(records) >= self.tree.k:
                self._emit(block_id, [(record, block_id) for record in records])
                return
        # Too small on one side or the other: merge into the buffer; the
        # block may still be picked as the home of the merged run.
        self._buffer.extend((record, block_id) for record in records)
        self._drain(into=block_id)

    def add_records(self, records: Sequence[Any], origin: int | None = None) -> None:
        """Fresh or displaced records needing placement."""
        self._buffer.extend((record, origin) for record in records)
        self._drain(into=None)

    # -- finishing ------------------------------------------------------

    def finish_leaves(self) -> list[LevelItem]:
        """Flush the tail of the buffer and free unused reuse blocks."""
        tree = self.tree
        if self._buffer:
            if len(self._buffer) >= tree.k or not self.items:
                self._flush_buffer()
            else:
                # Under-full tail: fold it into the last emitted leaf.
                block_id, _, _ = self.items.pop()
                node = tree.store.read(block_id)
                combined = [(record, block_id) for record in node.entries]
                combined.extend(self._buffer)
                self._buffer = []
                chunks = _even_chunks(combined, tree.leaf_capacity)
                self._emit(block_id, chunks[0])
                for chunk in chunks[1:]:
                    self._emit(None, chunk)
        for block_id in self._reuse_seen - self._reuse_emitted:
            tree.store.free(block_id)
        if not self.items:
            # Everything was deleted: a single empty leaf.
            empty = WNode(0, None, tree.leaf_range_len)
            self.items.append((tree.store.allocate(empty), 0, 0))
        return self.items

    # -- internals ------------------------------------------------------

    def _drain(self, into: int | None) -> None:
        """Emit full leaves from the front of the buffer while enough
        records remain to keep the tail viable."""
        tree = self.tree
        capacity = tree.leaf_capacity
        buffer = self._buffer
        start = 0  # one cut at the end: cutting each leaf off the front is quadratic
        while len(buffer) - start >= capacity + tree.k:
            home = into if into is not None and into not in self._reuse_emitted else None
            self._emit(home, buffer[start : start + capacity])
            start += capacity
        del buffer[:start]

    def _flush_buffer(self) -> None:
        chunks = _even_chunks(self._buffer, self.tree.leaf_capacity)
        self._buffer = []
        for chunk in chunks:
            self._emit(None, chunk)

    def _emit(self, block_id: int | None, chunk: list[tuple[Any, int | None]]) -> None:
        """Finalize one leaf holding ``chunk``'s records."""
        tree = self.tree
        records = [record for record, _ in chunk]
        if block_id is None:
            node = WNode(0, None, tree.leaf_range_len, len(records), records)
            block_id = tree.store.allocate(node)
        else:
            node = tree.store.read(block_id)
            changed = node.entries != records
            node.entries = records
            node.weight = len(records)
            tree.store.write(block_id)
            if changed:
                tree._leaf_relabeled(block_id, node)
        moved = [record for record, origin in chunk if origin != block_id]
        if moved:
            tree._relocate_records(moved, block_id)
        self._reuse_emitted.add(block_id)
        self.items.append((block_id, len(records), len(records)))

    # -- level building -------------------------------------------------

    def group_level(self, items: list[LevelItem], level: int) -> list[LevelItem]:
        """Group ``items`` (nodes at ``level - 1``) into new nodes at
        ``level`` whose weights satisfy the weight-balance constraints."""
        tree = self.tree
        target = tree.a**level * tree.k
        groups: list[list[LevelItem]] = []
        current: list[LevelItem] = []
        accumulated = 0
        for item in items:
            current.append(item)
            accumulated += item[1]
            if accumulated >= target:
                groups.append(current)
                current = []
                accumulated = 0
        if current:
            groups.append(current)
        if len(groups) > 1 and sum(i[1] for i in groups[-1]) <= tree._min_weight(level):
            # The tail group is underweight; merging it into its neighbour
            # keeps the result strictly under the 2a^i k ceiling.
            tail = groups.pop()
            groups[-1].extend(tail)
        return [self._make_internal(group, level) for group in groups]

    def _make_internal(self, group: list[LevelItem], level: int) -> LevelItem:
        tree = self.tree
        entries = [
            WEntry(block_id, 0, weight, size) for block_id, weight, size in group
        ]
        for entry, slot in zip(entries, spread_slots(len(entries), tree.b)):
            entry.slot = slot
        weight = sum(item[1] for item in group)
        size = sum(item[2] for item in group)
        node = WNode(
            level, None, tree.leaf_range_len * tree.b**level, weight, entries
        )
        return tree.store.allocate(node), weight, size

    def install_as_root(self) -> None:
        """Build levels until a single node remains and make it the root."""
        tree = self.tree
        items = self.finish_leaves()
        level = 0
        while len(items) > 1:
            level += 1
            items = self.group_level(items, level)
        root_id, weight, size = items[0]
        tree.root_id = root_id
        tree.height = level
        tree.root_weight = weight
        tree._assign_range(root_id, 0)

    def install_into(self, node_id: int, node: WNode) -> None:
        """Build levels up to ``node.level`` and write the result into the
        existing block ``node_id`` (keeping its range and its parent link)."""
        tree = self.tree
        items = self.finish_leaves()
        level = 0
        while level < node.level - 1:
            level += 1
            items = self.group_level(items, level)
        if len(items) > tree.b:
            raise LabelingError(
                f"subtree rebuild produced {len(items)} children for fan-out {tree.b}"
            )
        node.entries = [WEntry(bid, 0, w, s) for bid, w, s in items]
        for entry, slot in zip(node.entries, spread_slots(len(node.entries), tree.b)):
            entry.slot = slot
        node.weight = sum(item[1] for item in items)
        tree.store.write(node_id)
        subrange = node.subrange_len(tree.b)
        for entry in node.entries:
            tree._assign_range(entry.child, node.range_lo + entry.slot * subrange)


# ----------------------------------------------------------------------
# public bulk operations
# ----------------------------------------------------------------------


def wbox_bulk_load(tree: "WBox", n_labels: int, pairing: Sequence[int] | None = None) -> list[int]:
    """Load ``n_labels`` labels in document order into an empty W-BOX.

    Returns the LIDs in document order.  ``O(N/B)`` I/Os: the document scan
    produces records already ordered, so leaves, internal levels, and the
    LIDF are all written sequentially.
    """
    del pairing  # used by W-BOX-O's override
    if tree.label_count() or tree.root_weight:
        raise LabelingError("bulk_load requires an empty structure")
    with tree.store.operation():
        timestamp = tree._tick()
        old_root = tree.root_id
        lids = tree.lidf.allocate_many([0] * n_labels)
        if not lids:
            return lids
        tree.store.free(old_root)
        rebuilder = _Rebuilder(tree, timestamp)
        rebuilder.add_records([tree._make_record(lid) for lid in lids])
        rebuilder.install_as_root()
        tree._live = n_labels
        tree._deletions = 0
    return lids


def wbox_global_rebuild(tree: "WBox", timestamp: int) -> None:
    """Rebuild the whole structure, purging accumulated ghosts (the global
    rebuilding deletion strategy)."""
    tree._emit(invalidate_all(timestamp))
    leaves, internals = collect_leaves(tree, tree.root_id)
    rebuilder = _Rebuilder(tree, timestamp)
    for block_id, node in leaves:
        rebuilder.add_reuse(block_id, node, list(node.entries))
    for block_id in internals:
        tree.store.free(block_id)
    rebuilder.install_as_root()
    tree._deletions = 0


def wbox_insert_subtree(
    tree: "WBox", lid_old: int, n_labels: int, pairing: Sequence[int] | None = None
) -> list[int]:
    """Insert ``n_labels`` new labels immediately before ``lid_old``.

    Finds the lowest ancestor of the insertion leaf that can absorb the new
    weight, then rebuilds just that subtree — reusing existing leaf blocks
    so only the anchor leaf's displaced tail and the new records incur LIDF
    writes.  Worst case (the root must be rebuilt): ``O((N + N')/B)``.
    """
    del pairing
    if n_labels <= 0:
        return []
    with tree.store.operation():
        leaf_id = tree.lidf.read(lid_old)
        leaf = tree.store.read(leaf_id)
        position = tree._find_record(leaf, lid_old)
        timestamp = tree._tick()
        path = tree._descend(leaf.range_lo)
        if tree.ordinal:
            anchor = tree._path_ordinal(path) + position
            tree._emit(RangeShift(timestamp, anchor, None, n_labels, ORDINAL_CHANNEL))
        new_lids = tree.lidf.allocate_many([0] * n_labels)
        new_records = [tree._make_record(lid) for lid in new_lids]

        # Case 1: everything fits in the anchor leaf.
        if leaf.weight + n_labels < tree._max_weight(0):
            tree._emit(
                RangeShift(
                    timestamp,
                    leaf.range_lo + position,
                    leaf.range_lo + len(leaf.entries) - 1,
                    n_labels,
                )
            )
            leaf.entries[position:position] = new_records
            leaf.weight += n_labels
            tree._relocate_records(new_records, leaf_id)
            tree._leaf_relabeled(leaf_id, leaf)
            tree.store.write(leaf_id)
            for node_id, node, index in path[:-1]:
                assert index is not None
                node.entries[index].weight += n_labels
                node.entries[index].size += n_labels
                node.weight += n_labels
                tree.store.write(node_id)
            tree.root_weight += n_labels
            tree._live += n_labels
            # The bulk weight bump can push ancestors to their ceilings
            # just like n single insertions would: split them now.
            tree._split_overweight(path, timestamp)
            return new_lids

        # Case 2: find the lowest ancestor able to absorb the new labels —
        # every node on the path *above* the rebuild point also gains the
        # new weight, so the whole prefix must stay under its ceiling.
        chosen = 0
        for index in range(1, len(path) - 1):
            node = path[index][1]
            if node.weight + n_labels < tree._max_weight(node.level):
                chosen = index
            else:
                break

        while True:
            subtree_id, subtree, _ = path[chosen]
            leaves, internals = collect_leaves(tree, subtree_id)
            live_under = sum(len(node.entries) for _, node in leaves)
            if chosen == 0:
                break
            # The rebuild purges ghosts: the chosen node's weight becomes
            # live_under + n_labels and ancestors absorb the difference;
            # escalate while anything on the path would underflow.
            delta = live_under + n_labels - subtree.weight
            if live_under + n_labels > tree._min_weight(subtree.level) and all(
                path[j][1].weight + delta > tree._min_weight(path[j][1].level)
                for j in range(1, chosen)
            ):
                break
            chosen -= 1
        old_weight = subtree.weight if chosen > 0 else tree.root_weight

        rebuilder = _Rebuilder(tree, timestamp)
        for block_id, node in leaves:
            if block_id != leaf_id:
                rebuilder.add_reuse(block_id, node, list(node.entries))
                continue
            head = node.entries[:position]
            tail = node.entries[position:]  # displaced: always repointed
            rebuilder.add_reuse(block_id, node, head)
            rebuilder.add_records(new_records)
            rebuilder.add_records(tail, origin=None)
        for block_id in internals:
            if block_id != subtree_id:
                tree.store.free(block_id)

        tree._emit(
            Invalidate(
                timestamp,
                subtree.range_lo if chosen > 0 else None,
                subtree.range_lo + subtree.range_len - 1 if chosen > 0 else None,
            )
        )
        if chosen == 0:
            if not subtree.is_leaf:  # a leaf root stays with the rebuilder
                tree.store.free(subtree_id)
            rebuilder.install_as_root()
            tree.root_weight = live_under + n_labels
        else:
            rebuilder.install_into(subtree_id, subtree)
            new_weight = subtree.weight
            delta = new_weight - old_weight
            for node_id, node, index in path[:chosen]:
                assert index is not None
                node.entries[index].weight += delta
                node.entries[index].size += n_labels
                node.weight += delta
                tree.store.write(node_id)
            tree.root_weight += delta
            # Ancestors below the root were verified to absorb +n, but the
            # root has no ceiling check in the selection: grow/split it (and
            # any borderline ancestor) exactly as n single inserts would.
            tree._split_overweight(path[:chosen], timestamp)
        ghosts_purged = old_weight - live_under
        tree._deletions = max(0, tree._deletions - ghosts_purged)
        tree._live += n_labels
        return new_lids


def _delete_within_leaf(
    tree: "WBox",
    path: list,
    leaf_id: int,
    leaf: WNode,
    position1: int,
    position2: int,
    timestamp: int,
) -> list[int]:
    """Range delete confined to one leaf: trim in place, purge its ghosts,
    and propagate the weight/size deltas up the path."""
    deleted = list(leaf.entries[position1 : position2 + 1])
    n_deleted = len(deleted)
    if tree.ordinal:
        anchor = tree._path_ordinal(path) + position1
        tree._emit(RangeShift(timestamp, anchor, None, -n_deleted, ORDINAL_CHANNEL, n_deleted))
    tree._emit(
        RangeShift(
            timestamp,
            leaf.range_lo + position1,
            leaf.range_lo + len(leaf.entries) - 1,
            -n_deleted,
            freed=n_deleted,
        )
    )
    old_weight = leaf.weight
    del leaf.entries[position1 : position2 + 1]
    leaf.weight = len(leaf.entries)  # trimming also purges this leaf's ghosts
    tree._leaf_relabeled(leaf_id, leaf)
    tree.store.write(leaf_id)
    weight_delta = leaf.weight - old_weight
    for node_id, node, index in path[:-1]:
        assert index is not None
        node.entries[index].weight += weight_delta
        node.entries[index].size -= n_deleted
        node.weight += weight_delta
        tree.store.write(node_id)
    tree.root_weight += weight_delta
    ghosts_purged = -weight_delta - n_deleted
    tree._deletions = max(0, tree._deletions - max(0, ghosts_purged))
    tree._live -= n_deleted
    deleted_lids = [tree._record_lid(record) for record in deleted]
    for lid in deleted_lids:
        tree.lidf.free(lid)
    return deleted_lids


def wbox_delete_range(tree: "WBox", first_lid: int, last_lid: int) -> list[int]:
    """Delete every label between ``first_lid`` and ``last_lid`` inclusive
    (a subtree's contiguous range) and return the deleted LIDs in order.

    Rebuilds the lowest ancestor that remains weight-legal afterwards;
    worst case ``O(N/B)`` for the tree plus ``O(N')`` for freeing scattered
    LIDF records (``O(N'/B)`` when they were allocated together).
    """
    with tree.store.operation():
        leaf1_id = tree.lidf.read(first_lid)
        leaf1 = tree.store.read(leaf1_id)
        position1 = tree._find_record(leaf1, first_lid)
        leaf2_id = tree.lidf.read(last_lid)
        leaf2 = tree.store.read(leaf2_id)
        position2 = tree._find_record(leaf2, last_lid)
        if (leaf1.range_lo + position1) > (leaf2.range_lo + position2):
            raise LabelingError("delete_range bounds are out of order")
        timestamp = tree._tick()
        path1 = tree._descend(leaf1.range_lo)
        path2 = tree._descend(leaf2.range_lo)
        lca_index = 0
        for index in range(min(len(path1), len(path2))):
            if path1[index][0] == path2[index][0]:
                lca_index = index
            else:
                break
        if tree.ordinal:
            anchor = tree._path_ordinal(path1) + position1

        # Leaf-local fast path: the whole range lives in one leaf that stays
        # weight-legal after the trim (the LCA of the two paths is the leaf
        # itself).
        if leaf1_id == leaf2_id:
            live_after = len(leaf1.entries) - (position2 + 1 - position1)
            fast_delta = live_after - leaf1.weight
            ancestors_legal = all(
                node.weight + fast_delta > tree._min_weight(node.level)
                for _, node, _ in path1[1:-1]
            )
            if len(path1) == 1 or (live_after > tree._min_weight(0) and ancestors_legal):
                return _delete_within_leaf(
                    tree, path1, leaf1_id, leaf1, position1, position2, timestamp
                )

        chosen = min(lca_index, max(0, len(path1) - 2))
        while True:
            subtree_id, subtree, _ = path1[chosen]
            leaves, internals = collect_leaves(tree, subtree_id)
            boundary1 = next(i for i, (bid, _) in enumerate(leaves) if bid == leaf1_id)
            boundary2 = next(i for i, (bid, _) in enumerate(leaves) if bid == leaf2_id)
            deleted: list[Any] = list(leaves[boundary1][1].entries[position1:])
            if leaf1_id == leaf2_id:
                deleted = list(leaves[boundary1][1].entries[position1 : position2 + 1])
            else:
                for _, node in leaves[boundary1 + 1 : boundary2]:
                    deleted.extend(node.entries)
                deleted.extend(leaves[boundary2][1].entries[: position2 + 1])
            live_under = sum(len(node.entries) for _, node in leaves)
            live_after = live_under - len(deleted)
            delta = live_after - subtree.weight
            if chosen == 0 or (
                live_after > tree._min_weight(subtree.level)
                and all(
                    path1[j][1].weight + delta > tree._min_weight(path1[j][1].level)
                    for j in range(1, chosen)
                )
            ):
                break
            chosen -= 1
        old_weight = subtree.weight if chosen > 0 else tree.root_weight

        if tree.ordinal:
            freed = len(deleted)
            tree._emit(RangeShift(timestamp, anchor, None, -freed, ORDINAL_CHANNEL, freed))
        tree._emit(
            Invalidate(
                timestamp,
                subtree.range_lo if chosen > 0 else None,
                subtree.range_lo + subtree.range_len - 1 if chosen > 0 else None,
            )
        )

        rebuilder = _Rebuilder(tree, timestamp)
        for index, (block_id, node) in enumerate(leaves):
            if leaf1_id == leaf2_id and block_id == leaf1_id:
                kept = node.entries[:position1] + node.entries[position2 + 1 :]
                rebuilder.add_reuse(block_id, node, kept)
            elif block_id == leaf1_id:
                rebuilder.add_reuse(block_id, node, node.entries[:position1])
            elif block_id == leaf2_id:
                rebuilder.add_reuse(block_id, node, node.entries[position2 + 1 :])
            elif boundary1 < index < boundary2:
                rebuilder.add_reuse(block_id, node, [])
            else:
                rebuilder.add_reuse(block_id, node, list(node.entries))
        for block_id in internals:
            if block_id != subtree_id:
                tree.store.free(block_id)

        deleted_lids = [tree._record_lid(record) for record in deleted]
        for lid in deleted_lids:
            tree.lidf.free(lid)

        if chosen == 0:
            if not subtree.is_leaf:  # a leaf root stays with the rebuilder
                tree.store.free(subtree_id)
            rebuilder.install_as_root()
            tree.root_weight = live_after
        else:
            rebuilder.install_into(subtree_id, subtree)
            delta = subtree.weight - old_weight
            for node_id, node, index in path1[:chosen]:
                assert index is not None
                node.entries[index].weight += delta
                node.entries[index].size -= len(deleted)
                node.weight += delta
                tree.store.write(node_id)
            tree.root_weight += delta
        ghosts_purged = old_weight - live_under
        tree._deletions = max(0, tree._deletions - ghosts_purged)
        tree._live -= len(deleted)
        return deleted_lids
