"""W-BOX-O: the W-BOX variant optimized for start/end label pairs
(Section 4, "Further optimization for start/end pairs").

Query processing very often wants *both* labels of an element.  In W-BOX-O
every leaf record carries, besides its LID, a pointer to the block holding
its partner record, and a **start** record additionally caches the current
value of its element's **end** label.  :meth:`WBoxO.lookup_pair` therefore
answers from the start record alone — two I/Os including the LIDF hop,
versus four for the basic W-BOX.

The price is maintenance:

* when records move between blocks (leaf splits, rebuilds), the partners'
  block pointers must be repaired — ``O(B)`` per split, amortized ``O(1)``;
* when a range of labels is relabeled, start records *outside* the range
  whose end partners are *inside* must refresh their cached end values.
  Those elements all contain the range's left endpoint, so they lie on one
  root-to-leaf path of the XML tree and number at most ``D``, the document
  depth — giving the ``O(D + log_B N)`` amortized insert of Theorem 4.7.

Implementation: the tree code reports record moves and leaf relabelings
through the ``_relocate_records`` / ``_leaf_relabeled`` hooks; this class
journals them during an operation and repairs partner state once, when the
outermost operation finishes (a *fixup session*).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from ...config import BoxConfig
from ...errors import LabelingError, UnknownLIDError
from ...storage import BlockStore
from .node import WNode
from .tree import WBox


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


class WBoxO(WBox):
    """W-BOX optimized for reading start/end labels in pairs."""

    name = "W-BOX-O"
    bulk_needs_pairing = True

    def __init__(
        self,
        config: BoxConfig | None = None,
        store: BlockStore | None = None,
        ordinal: bool = False,
    ) -> None:
        self._session_depth = 0
        self._pending_moves: dict[int, tuple[PairRecord, int]] = {}
        self._pending_relabeled: dict[int, None] = {}
        super().__init__(config, store, ordinal)

    @classmethod
    def from_persisted(cls, config: BoxConfig, meta: dict[str, Any]) -> "WBoxO":
        return cls(config, ordinal=meta["ordinal"])  # weight-balanced only

    # ------------------------------------------------------------------
    # record format hooks
    # ------------------------------------------------------------------

    def _leaf_capacity(self) -> int:
        return self.config.wbox_pair_leaf_capacity

    def _make_record(self, lid: int) -> PairRecord:
        return PairRecord(lid)

    def _record_lid(self, record: PairRecord) -> int:
        return record.lid

    def _find_record(self, leaf: WNode, lid: int) -> int:
        # Use the leaf's lid -> position map when one is already built (fixup
        # sessions build it); otherwise scan.  Update paths dirty the leaf
        # right after finding, which would throw a fresh map away, so they
        # must not pay for building one.
        index = leaf._lid_index
        if index is not None:
            try:
                return index[lid]
            except KeyError:
                raise UnknownLIDError(f"LID {lid} not found in its leaf") from None
        for position, record in enumerate(leaf.entries):
            if record.lid == lid:
                return position
        raise UnknownLIDError(f"LID {lid} not found in its leaf")

    def _relocate_records(self, records: list[PairRecord], new_block: int) -> None:
        self.lidf.repoint([record.lid for record in records], new_block)
        for record in records:
            self._pending_moves[record.lid] = (record, new_block)
        self._pending_relabeled[new_block] = None

    def _leaf_relabeled(self, leaf_id: int, leaf: WNode) -> None:
        self._pending_relabeled[leaf_id] = None

    # ------------------------------------------------------------------
    # fixup sessions
    # ------------------------------------------------------------------

    @contextmanager
    def _fixup_session(self) -> Iterator[None]:
        """Collect partner-maintenance work for one outermost operation and
        apply it exactly once at the end."""
        self._session_depth += 1
        try:
            yield
        finally:
            self._session_depth -= 1
            if self._session_depth == 0:
                try:
                    self._run_fixups()
                finally:
                    self._pending_moves = {}
                    self._pending_relabeled = {}

    def _run_fixups(self) -> None:
        # Both phases mutate only per-record *fields* (partner_block,
        # end_value), never record positions or blocks, so `leaf_at` checks,
        # reads and indexes each leaf once, at its first touch, and the
        # writes wait for the end.  In the enclosing operation a block's later
        # reads were free anyway: counted I/O and first-touch order are kept.
        moves = self._pending_moves
        store = self.store
        leaves: dict[int, tuple[WNode, dict[int, int]] | None] = {}

        def leaf_at(block_id: int) -> tuple[WNode, dict[int, int]] | None:
            """(leaf, lid -> position) at ``block_id``; None if freed or reused."""
            if block_id in leaves:
                return leaves[block_id]
            found = None
            if store.exists(block_id):
                node = store.read(block_id)
                if isinstance(node, WNode) and node.is_leaf:
                    if node._lid_index is None:  # kept on the leaf until its next write
                        node._lid_index = {r.lid: p for p, r in enumerate(node.entries)}
                    found = node, node._lid_index
            leaves[block_id] = found
            return found

        dirty: dict[int, None] = {}
        # Phase 1: repair partner block pointers for every moved record.
        for record, new_block in moves.values():
            partner_lid = record.partner_lid
            if partner_lid is None:
                continue  # not yet wired (fresh record)
            partner_move = moves.get(partner_lid)
            partner_location = record.partner_block if partner_move is None else partner_move[1]
            record.partner_block = partner_location
            found = leaf_at(partner_location)
            if found is None:
                continue  # partner deleted along with its block
            position = found[1].get(partner_lid)
            if position is None:
                continue  # partner record was deleted
            found[0].entries[position].partner_block = new_block
            dirty[partner_location] = None
        # Phase 2: refresh cached end values for every relabeled leaf.  End
        # records inside the relabeled set whose start partners live outside
        # are the D-bounded cost of Theorem 4.7.
        for leaf_id in self._pending_relabeled:
            found = leaf_at(leaf_id)
            if found is None:
                continue  # merged away during a rebuild
            leaf = found[0]
            for position, record in enumerate(leaf.entries):
                if record.is_start or record.partner_lid is None:
                    continue
                block = record.partner_block
                found = leaf_at(block)
                if found is None:
                    continue  # partner deleted; its block was freed or reused
                partner_position = found[1].get(record.partner_lid)
                if partner_position is None:
                    continue
                found[0].entries[partner_position].end_value = leaf.range_lo + position
                dirty[block] = None
        for block_id in dirty:  # each one a leaf leaf_at found; none was freed
            store.write(block_id)

    # ------------------------------------------------------------------
    # wrapped mutating operations
    # ------------------------------------------------------------------

    def insert_before(self, lid_old: int) -> int:
        with self.store.operation(), self._fixup_session():
            return super().insert_before(lid_old)

    def delete(self, lid: int) -> None:
        with self.store.operation(), self._fixup_session():
            super().delete(lid)

    def delete_range(self, first_lid: int, last_lid: int) -> list[int]:
        with self.store.operation(), self._fixup_session():
            return super().delete_range(first_lid, last_lid)

    def insert_element_before(self, lid: int) -> tuple[int, int]:
        """Insert an element and wire the new records' partner state."""
        with self.store.operation(), self._fixup_session():
            end_lid = self.insert_before(lid)
            start_lid = self.insert_before(end_lid)
            self._wire_pair(start_lid, end_lid)
            return start_lid, end_lid

    def bulk_load(self, n_labels: int, pairing: Sequence[int] | None = None) -> list[int]:
        self._check_pairing("bulk_load", n_labels, pairing)
        with self.store.operation(), self._fixup_session():
            lids = super().bulk_load(n_labels)
            self._wire_pairing(lids, pairing)
            # The tree was empty and the wiring set every end value: no
            # leaf needs its end values refreshed.
            self._pending_relabeled.clear()
            return lids

    def insert_subtree_before(
        self, lid_old: int, n_labels: int, pairing: Sequence[int] | None = None
    ) -> list[int]:
        self._check_pairing("insert_subtree_before", n_labels, pairing)
        with self.store.operation(), self._fixup_session():
            lids = super().insert_subtree_before(lid_old, n_labels)
            self._wire_pairing(lids, pairing)
            return lids

    # ------------------------------------------------------------------
    # pair wiring and pair lookup
    # ------------------------------------------------------------------

    @staticmethod
    def _check_pairing(what: str, n_labels: int, pairing: Sequence[int] | None) -> None:
        """Refuse a pairing that does not pair every position back (one may
        come in a Submit frame) before any label is placed."""
        if pairing is None:
            raise LabelingError(f"W-BOX-O {what} requires the tag pairing")
        if len(pairing) != n_labels:
            raise LabelingError("pairing length must match the number of labels")
        for index, partner in enumerate(pairing):
            if not 0 <= partner < n_labels or pairing[partner] != index:
                raise LabelingError(f"pairing[{index}] = {partner} does not pair back")

    def _locate(self, lid: int) -> tuple[int, WNode, int]:
        """(leaf block id, leaf, position) for ``lid``."""
        leaf_id = self.lidf.read(lid)
        leaf = self.store.read(leaf_id)
        return leaf_id, leaf, self._find_record(leaf, lid)

    @staticmethod
    def _link(
        start_record: PairRecord,
        start_block: int,
        end_record: PairRecord,
        end_block: int,
        end_leaf: WNode,
        end_position: int,
    ) -> None:
        """Make two records partners: each points at the other's LID and
        leaf, and the start record caches the end record's label."""
        start_record.is_start = True
        start_record.partner_lid = end_record.lid
        start_record.partner_block = end_block
        start_record.end_value = end_leaf.range_lo + end_position
        end_record.is_start = False
        end_record.partner_lid = start_record.lid
        end_record.partner_block = start_block

    def _wire_pair(self, start_lid: int, end_lid: int) -> None:
        start_block, start_leaf, start_position = self._locate(start_lid)
        end_block, end_leaf, end_position = self._locate(end_lid)
        self._link(
            start_leaf.entries[start_position], start_block,
            end_leaf.entries[end_position], end_block, end_leaf, end_position,
        )
        self.store.write(start_block)
        self.store.write(end_block)

    def _wire_pairing(self, lids: Sequence[int], pairing: Sequence[int]) -> None:
        """Wire the fresh records of a bulk load or subtree insert leaf by
        leaf.  The placement just relocated every one of them, so this
        session's move journal names each record and its leaf: a leaf
        holding end records is read and indexed once, and each leaf is
        written once, in the order a pair-by-pair loop first wrote them
        (the placement dirtied them all: counted I/O does not change)."""
        store = self.store
        moves = self._pending_moves
        placed = [moves[lid] for lid in lids]
        indexed: dict[int, tuple[WNode, dict[int, int]]] = {}
        dirty: dict[int, None] = {}
        # A position that is its own partner stays unpaired.
        for index, partner_index in enumerate(pairing):
            if index >= partner_index:
                continue
            start_record, start_block = placed[index]
            end_record, end_block = placed[partner_index]
            found = indexed.get(end_block)
            if found is None:
                end_leaf = store.read(end_block)
                found = indexed[end_block] = (
                    end_leaf,
                    {record.lid: p for p, record in enumerate(end_leaf.entries)},
                )
            self._link(
                start_record, start_block, end_record, end_block,
                found[0], found[1][end_record.lid],
            )
            dirty[start_block] = None
            dirty[end_block] = None
        for block_id in dirty:
            store.write(block_id)
        # Wired where they lie: the fixups have no pointer of theirs to repair.
        for lid in lids:
            del moves[lid]

    def lookup_pair(self, start_lid: int, end_lid: int) -> tuple[int, int]:
        """Both labels of an element from its start record alone: one LIDF
        I/O plus one leaf I/O."""
        with self.store.operation():
            _, leaf, position = self._locate(start_lid)
            record = leaf.entries[position]
            if not record.is_start or record.end_value is None:
                return super().lookup_pair(start_lid, end_lid)
            return leaf.range_lo + position, record.end_value
