"""B-BOX bulk operations (Section 5, "Bulk loading and subtree
insert/delete").

* **Bulk load** — a single document scan fills leaves and levels in order;
  no sorting, ``O(N/B)`` I/Os.  LIDs come from one
  :meth:`~repro.storage.HeapFile.allocate_many` and each leaf repoints its
  run of records with one ``repoint``: storage is touched once per LIDF
  block, not once per label.
* **Subtree insert** — bulk load the new data as a separate B-BOX ``T'``
  sharing the LIDF, then "rip" the host tree along the insertion point for
  as many levels as ``T'`` has and splice ``T'`` into the gap, so every
  root-to-leaf path keeps the same length.  Cost
  ``O(N'/B + B log_B (N + N'))``.  When ``T'`` would be at least as tall as
  the host the rip cannot apply; we fall back to rebuilding the merged
  sequence (documented deviation, same asymptotics).
* **Subtree delete** — the doomed labels form one contiguous range; the two
  boundary paths isolate whole subtrees that are unlinked and freed, the
  boundary leaves are trimmed, and underflows along the boundaries are
  repaired.  Tree cost ``O(B log_B N)``; freeing the LIDF records costs up
  to ``O(N')`` when they are scattered (``O(N'/B)`` when clustered).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ...errors import LabelingError
from ..cachelog import ORDINAL_CHANNEL, RangeShift, invalidate_all
from .node import BNode

if TYPE_CHECKING:  # pragma: no cover
    from .tree import BBox


def chunk_evenly(items: Sequence, capacity: int) -> list[list]:
    """Split into the fewest runs of at most ``capacity``, sized evenly —
    the bulk loader's way of avoiding an underfull rightmost node."""
    total = len(items)
    if total == 0:
        return []
    n_chunks = -(-total // capacity)
    base, extra = divmod(total, n_chunks)
    chunks = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def predicted_height(tree: "BBox", n_labels: int) -> int:
    """Height the bulk builder will produce for ``n_labels`` labels."""
    count = -(-n_labels // tree.leaf_capacity)
    height = 0
    while count > 1:
        count = -(-count // tree.fanout)
        height += 1
    return height


def build_tree(tree: "BBox", lids: Sequence[int]) -> tuple[int, int]:
    """Build a fresh (sub)tree over ``lids`` in order; returns
    ``(root block id, height)``.  The root's back-link is left as 0."""
    items: list[tuple[int, int]] = []
    for chunk in chunk_evenly(lids, tree.leaf_capacity):
        node = BNode(leaf=True, entries=chunk)
        node_id = tree.store.allocate(node)
        tree.lidf.repoint(chunk, node_id)
        items.append((node_id, len(chunk)))
    height = 0
    while len(items) > 1:
        next_items: list[tuple[int, int]] = []
        for group in chunk_evenly(items, tree.fanout):
            entries = [child_id for child_id, _ in group]
            sizes = [size for _, size in group] if tree.ordinal else None
            node_id = tree.store.allocate(BNode(leaf=False, entries=entries, sizes=sizes))
            for child_id, _ in group:
                child = tree.store.read(child_id)
                child.parent = node_id
                tree.store.write(child_id)
            next_items.append((node_id, sum(size for _, size in group)))
        items = next_items
        height += 1
    return items[0][0], height


def collect_subtree(tree: "BBox", node_id: int) -> tuple[list[int], list[int]]:
    """(lids in document order, all block ids) of the subtree at ``node_id``."""
    lids: list[int] = []
    blocks: list[int] = []
    stack = [node_id]
    while stack:
        current = stack.pop()
        node = tree.store.read(current)
        blocks.append(current)
        if node.leaf:
            lids.extend(node.entries)
        else:
            stack.extend(reversed(node.entries))
    return lids, blocks


def _path_to_root(tree: "BBox", leaf_id: int) -> list[tuple[int, BNode]]:
    """[(block id, node)] from ``leaf_id`` up to and including the root."""
    path = []
    node_id = leaf_id
    while True:
        node = tree.store.read(node_id)
        path.append((node_id, node))
        if node.is_root:
            return path
        node_id = node.parent


# ----------------------------------------------------------------------
# bulk load
# ----------------------------------------------------------------------


def bbox_bulk_load(tree: "BBox", n_labels: int) -> list[int]:
    """Load ``n_labels`` labels in document order into an empty B-BOX."""
    if tree.label_count():
        raise LabelingError("bulk_load requires an empty structure")
    with tree.store.operation():
        tree._tick()
        lids = tree.lidf.allocate_many([0] * n_labels)
        if not lids:
            return lids
        tree.store.free(tree.root_id)
        tree.root_id, tree.height = build_tree(tree, lids)
        tree._live = n_labels
    return lids


# ----------------------------------------------------------------------
# subtree insert ("ripping")
# ----------------------------------------------------------------------


def bbox_insert_subtree(tree: "BBox", lid_old: int, n_labels: int) -> list[int]:
    """Insert ``n_labels`` labels immediately before ``lid_old``."""
    if n_labels <= 0:
        return []
    with tree.store.operation():
        leaf_id = tree.lidf.read(lid_old)
        leaf = tree.store.read(leaf_id)
        position = tree._find_record(leaf, lid_old)
        timestamp = tree._tick()
        if tree.ordinal:
            anchor = tree.ordinal_lookup(lid_old)
            tree._emit(RangeShift(timestamp, anchor, None, n_labels, ORDINAL_CHANNEL))
        tree._emit(invalidate_all(timestamp))

        new_height = predicted_height(tree, n_labels)
        if new_height >= tree.height:
            return _rebuild_with_splice(tree, leaf_id, position, n_labels)

        new_lids = tree.lidf.allocate_many([0] * n_labels)
        prime_root, built_height = build_tree(tree, new_lids)
        if built_height != new_height:
            raise LabelingError("bulk builder height diverged from prediction")

        # Rip the host along the insertion point, one split per level of T'
        # (including the leaf level), opening a gap of exactly T''s height.
        ripped: list[tuple[int, int | None]] = []
        current_id, current, split_position = leaf_id, leaf, position
        for _ in range(new_height + 1):
            parent_id = current.parent
            parent = tree.store.read(parent_id)
            index = parent.find(current_id)
            if split_position == 0:
                boundary = index
                ripped.append((current_id, None))
            elif split_position == len(current.entries):
                boundary = index + 1
                ripped.append((current_id, None))
            else:
                right_id, right = tree._split_off(current_id, current, split_position)
                parent.entries.insert(index + 1, right_id)
                if parent.sizes is not None:
                    left_size = tree._subtree_size(current)
                    right_size = tree._subtree_size(right)
                    parent.sizes[index] = left_size
                    parent.sizes.insert(index + 1, right_size)
                tree.store.write(parent_id)
                boundary = index + 1
                ripped.append((current_id, right_id))
            current_id, current, split_position = parent_id, parent, boundary

        # Splice T' into the gap.
        current.entries.insert(split_position, prime_root)
        if current.sizes is not None:
            current.sizes.insert(split_position, n_labels)
        tree.store.write(current_id)
        prime_node = tree.store.read(prime_root)
        prime_node.parent = current_id
        tree.store.write(prime_root)
        if tree.ordinal:
            node_id, node = current_id, current
            while not node.is_root:
                parent = tree.store.read(node.parent)
                assert parent.sizes is not None
                parent.sizes[parent.find(node_id)] += n_labels
                tree.store.write(node.parent)
                node_id, node = node.parent, parent
        tree._live += n_labels

        # Repair: the splice node may overflow; rip halves may underflow.
        if len(current.entries) > tree.fanout:
            tree._split(current_id, current, timestamp)
        repair: list[int] = [prime_root]
        for left_id, right_id in ripped:
            repair.append(left_id)
            if right_id is not None:
                repair.append(right_id)
        for node_id in repair:
            if not tree.store.exists(node_id):
                continue  # merged away by an earlier repair
            node = tree.store.read(node_id)
            if node.is_root:
                continue
            minimum = tree.leaf_min if node.leaf else tree.fanout_min
            if len(node.entries) < minimum:
                tree._rebalance(node_id, node, timestamp)
        return new_lids


def _rebuild_with_splice(
    tree: "BBox", leaf_id: int, position: int, n_labels: int
) -> list[int]:
    """Fallback for inserts at least as tall as the host: rebuild the merged
    label sequence from scratch."""
    all_lids, blocks = collect_subtree(tree, tree.root_id)
    offset = 0
    for block_id in blocks:  # collect_subtree lists the leaves in document order
        node = tree.store.read(block_id)
        if not node.leaf:
            continue
        if block_id == leaf_id:
            offset += position
            break
        offset += len(node.entries)
    else:
        raise LabelingError("anchor leaf not found during rebuild")
    new_lids = tree.lidf.allocate_many([0] * n_labels)
    combined = all_lids[:offset] + new_lids + all_lids[offset:]
    for block_id in blocks:
        tree.store.free(block_id)
    if combined:
        tree.root_id, tree.height = build_tree(tree, combined)
    else:
        tree.root_id = tree.store.allocate(BNode(leaf=True))
        tree.height = 0
    tree._live += n_labels
    return new_lids


# ----------------------------------------------------------------------
# subtree delete
# ----------------------------------------------------------------------


def bbox_delete_range(tree: "BBox", first_lid: int, last_lid: int) -> list[int]:
    """Delete the contiguous label range from ``first_lid`` through
    ``last_lid`` inclusive; returns the deleted LIDs in document order."""
    with tree.store.operation():
        if tree.ordinal:
            anchor = tree.ordinal_lookup(first_lid)
        leaf1_id = tree.lidf.read(first_lid)
        leaf2_id = tree.lidf.read(last_lid)
        leaf1 = tree.store.read(leaf1_id)
        position1 = tree._find_record(leaf1, first_lid)

        if leaf1_id == leaf2_id:
            position2 = tree._find_record(leaf1, last_lid)
            if position2 < position1:
                raise LabelingError("delete_range bounds are out of order")
            timestamp = tree._tick()
            deleted = leaf1.entries[position1 : position2 + 1]
            del leaf1.entries[position1 : position2 + 1]
            tree.store.write(leaf1_id)
            _finish_delete(tree, deleted, [leaf1_id], timestamp)
            if tree.ordinal:
                freed = len(deleted)
                tree._emit(RangeShift(timestamp, anchor, None, -freed, ORDINAL_CHANNEL, freed))
            tree._emit(invalidate_all(timestamp))
            return deleted

        leaf2 = tree.store.read(leaf2_id)
        position2 = tree._find_record(leaf2, last_lid)
        path1 = _path_to_root(tree, leaf1_id)
        path2 = _path_to_root(tree, leaf2_id)
        if len(path1) != len(path2):
            raise LabelingError("boundary leaves at different depths")
        # Find the lowest common ancestor (paths are leaf -> root).
        lca_offset = next(
            i
            for i in range(len(path1))
            if path1[i][0] == path2[i][0]
        )
        lca_id, lca = path1[lca_offset]
        index1 = lca.find(path1[lca_offset - 1][0])
        index2 = lca.find(path2[lca_offset - 1][0])
        if index1 >= index2:
            raise LabelingError("delete_range bounds are out of order")
        timestamp = tree._tick()

        deleted: list[int] = []
        freed_blocks: list[int] = []

        def drop_subtrees(parent_id: int, parent: BNode, indexes: list[int]) -> None:
            ordered = sorted(indexes)
            for child_index in ordered:  # collect in document order
                lids, blocks = collect_subtree(tree, parent.entries[child_index])
                deleted.extend(lids)
                freed_blocks.extend(blocks)
            for child_index in reversed(ordered):  # then unlink, right to left
                parent.entries.pop(child_index)
                if parent.sizes is not None:
                    parent.sizes.pop(child_index)
            tree.store.write(parent_id)

        # Trim the boundary leaves.
        tail = leaf1.entries[position1:]
        del leaf1.entries[position1:]
        tree.store.write(leaf1_id)
        deleted_order: list[int] = list(tail)
        # Whole subtrees right of path1, between the paths at the LCA, and
        # left of path2 — collected in document order.
        for offset in range(1, lca_offset):
            node_id, node = path1[offset]
            child_index = node.find(path1[offset - 1][0])
            doomed = list(range(child_index + 1, len(node.entries)))
            before = len(deleted)
            drop_subtrees(node_id, node, doomed)
            deleted_order.extend(deleted[before:])
        before = len(deleted)
        drop_subtrees(lca_id, lca, list(range(index1 + 1, index2)))
        deleted_order.extend(deleted[before:])
        for offset in range(lca_offset - 1, 0, -1):
            node_id, node = path2[offset]
            child_index = node.find(path2[offset - 1][0])
            doomed = list(range(child_index))
            before = len(deleted)
            drop_subtrees(node_id, node, doomed)
            deleted_order.extend(deleted[before:])
        head = leaf2.entries[: position2 + 1]
        del leaf2.entries[: position2 + 1]
        tree.store.write(leaf2_id)
        deleted_order.extend(head)

        # Unlink boundary nodes that became empty.
        for path in (path1, path2):
            for offset in range(lca_offset):
                node_id, node = path[offset]
                if not tree.store.exists(node_id) or node.entries:
                    continue
                parent_id, parent = path[offset + 1]
                child_index = parent.find(node_id)
                parent.entries.pop(child_index)
                if parent.sizes is not None:
                    parent.sizes.pop(child_index)
                tree.store.write(parent_id)
                tree.store.free(node_id)

        for block_id in freed_blocks:
            tree.store.free(block_id)
        _finish_delete(tree, deleted_order, [], timestamp)
        tree._emit(invalidate_all(timestamp))
        if tree.ordinal:
            freed = len(deleted_order)
            tree._emit(RangeShift(timestamp, anchor, None, -freed, ORDINAL_CHANNEL, freed))
            _recompute_sizes(tree, path1)
            _recompute_sizes(tree, path2)

        # Repair underflows along both boundary paths, bottom-up.
        for path in (path1, path2):
            for node_id, node in path:
                if not tree.store.exists(node_id) or node.is_root:
                    continue
                minimum = tree.leaf_min if node.leaf else tree.fanout_min
                if len(node.entries) < minimum:
                    tree._rebalance(node_id, node, timestamp)
        _collapse_root(tree, timestamp)
        return deleted_order


def _finish_delete(tree: "BBox", deleted: list[int], touched: list[int], timestamp: int) -> None:
    """Free the deleted LIDF records and fix counters; repair the touched
    leaves if they underflowed."""
    for lid in deleted:
        tree.lidf.free(lid)
    tree._live -= len(deleted)
    if tree.ordinal:
        for leaf_id in touched:
            node = tree.store.read(leaf_id)
            node_id = leaf_id
            while not node.is_root:
                parent = tree.store.read(node.parent)
                assert parent.sizes is not None
                parent.sizes[parent.find(node_id)] = tree._subtree_size(node)
                tree.store.write(node.parent)
                node_id, node = node.parent, parent
    for leaf_id in touched:
        if not tree.store.exists(leaf_id):
            continue
        node = tree.store.read(leaf_id)
        if not node.is_root and len(node.entries) < tree.leaf_min:
            tree._rebalance(leaf_id, node, timestamp)
    _collapse_root(tree, timestamp)


def _recompute_sizes(tree: "BBox", path: list[tuple[int, BNode]]) -> None:
    """Refresh the size fields along one boundary path, bottom-up."""
    for node_id, node in path:
        if not tree.store.exists(node_id):
            continue
        if not node.leaf and node.sizes is not None:
            node.sizes = [
                tree._subtree_size(tree.store.read(child_id)) for child_id in node.entries
            ]
            tree.store.write(node_id)


def _collapse_root(tree: "BBox", timestamp: int) -> None:
    """Shrink the tree while the root is an internal node with one child
    (or has lost all children after a full wipe)."""
    while True:
        root = tree.store.read(tree.root_id)
        if root.leaf:
            return
        if len(root.entries) == 0:
            tree.store.free(tree.root_id)
            tree.root_id = tree.store.allocate(BNode(leaf=True))
            tree.height = 0
            tree._emit(invalidate_all(timestamp))
            return
        if len(root.entries) > 1:
            return
        child_id = root.entries[0]
        child = tree.store.read(child_id)
        child.parent = 0
        tree.store.write(child_id)
        tree.store.free(tree.root_id)
        tree.root_id = child_id
        tree.height -= 1
        tree._emit(invalidate_all(timestamp))
