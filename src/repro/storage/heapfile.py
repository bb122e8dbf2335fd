"""The immutable label ID file (LIDF) of Section 3.

A heap file of fixed-size records.  Record numbers — *LIDs* — are immutable:
once handed out, a LID keeps addressing the same logical record until it is
explicitly freed, so LIDs can be duplicated freely throughout a database
(indexes, element ids) while the record contents (a pointer to the BOX leaf
holding the label, or for naive-k the label value itself) stay updatable in
one place.

Layout: LID ``i`` lives in heap block ``i // records_per_block`` at slot
``i % records_per_block``.  Freed LIDs go on a free list and are reallocated
first, keeping the file compact (the paper relies on this for its
``O(N/B)`` space bound and ``log N``-bit LIDs).

Every record access costs the one block I/O of its containing block (through
the shared :class:`~repro.storage.blockstore.BlockStore`, so per-operation
buffering applies: reading both records of an element whose LIDs are
adjacent costs a single I/O, the paper's "obvious optimization").
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..config import BoxConfig
from ..errors import RecordNotFoundError
from .blockstore import BlockStore

#: Marker stored in unallocated slots.
_EMPTY = None

# Journal op codes; each op is the pair ``(code, argument)``, and repeats
# exactly what :class:`HeapFile` did to its own lists (the DELTA carries
# them; ``tests/lidf_reference.py`` writes their meaning down).
_J_TAIL = 0  # argument records taken from the tail
_J_POP = 1  # argument records popped off the free heap
_J_FREE = 2  # LID argument pushed onto the free heap
_J_BLOCK = 4  # store block argument appended to the file (3 is retired)


class HeapFile:
    """Fixed-size-record heap file over a :class:`BlockStore`."""

    def __init__(self, store: BlockStore, config: BoxConfig | None = None) -> None:
        self.store = store
        self.config = config if config is not None else store.config
        self.records_per_block = self.config.lidf_records_per_block
        self._block_ids: list[int] = []  # heap block index -> store block id
        self._free: list[int] = []  # min-heap of freed LIDs (low LIDs reused first)
        self._tail = 0  # next never-used LID
        self._live = 0
        #: Allocation ops since the owner last consumed them, as a flat
        #: list of ``(code, argument)`` pairs; None (the default) records
        #: nothing.  :func:`repro.persist.checkpoint_scheme` turns
        #: it on so a file backend's owner journals what each commit changed.
        self.journal: list[int] | None = None

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def allocate(self, value: Any) -> int:
        """Allocate one record, store ``value`` in it, return its LID."""
        if self._free:
            lid = heapq.heappop(self._free)
            self._log(_J_POP, 1, run=True)
        else:
            lid = self._tail
            self._tail += 1
            self._log(_J_TAIL, 1, run=True)
        self._put(lid, value)
        self._live += 1
        return lid

    def allocate_many(self, values: Sequence[Any]) -> list[int]:
        """Allocate one record per value, in order; return their LIDs.

        Takes the LIDs, store blocks and journal ops a loop of
        :meth:`allocate` would — the free heap first, in heap order, then
        the tail — and touches the same LIDF blocks in the same first-touch
        order, but with one read and one write per block (a tail run fills
        each block with one slice assignment).  Inside an operation its
        counted I/O is the loop's; bulk loads call it inside one.
        """
        per_block = self.records_per_block
        store = self.store
        free = self._free
        count = len(values)
        lids = [heapq.heappop(free) for _ in range(min(count, len(free)))]
        if lids:
            self._log(_J_POP, len(lids), run=True)
            groups: dict[int, list[tuple[int, Any]]] = {}
            for lid, value in zip(lids, values):
                block_index, slot = divmod(lid, per_block)
                groups.setdefault(block_index, []).append((slot, value))
            for block_index, group in groups.items():
                block_id = self._block_ids[block_index]
                records = store.read(block_id)
                for slot, value in group:
                    records[slot] = value
                store.write(block_id)
        taken = len(lids)
        first = lid = self._tail
        end = first + count - taken
        while lid < end:
            block_index, slot = divmod(lid, per_block)
            stop = min(end, lid - slot + per_block)
            if block_index < len(self._block_ids):
                self._log(_J_TAIL, stop - lid, run=True)
            else:  # as in the loop: the first record, its block, the rest
                self._log(_J_TAIL, 1, run=True)
                self._add_blocks(block_index)
                if stop - lid > 1:
                    self._log(_J_TAIL, stop - lid - 1, run=True)
            block_id = self._block_ids[block_index]
            records = store.read(block_id)
            offset = taken + lid - first
            records[slot : slot + stop - lid] = values[offset : offset + stop - lid]
            store.write(block_id)
            lid = stop
        self._tail = end
        self._live += count
        lids.extend(range(first, end))
        return lids

    def free(self, lid: int) -> None:
        """Release a record; its LID may be recycled by later allocations."""
        block_id, slot = self._locate(lid)
        records = self.store.read(block_id)
        if records[slot] is _EMPTY:
            raise RecordNotFoundError(f"LID {lid} is not allocated")
        records[slot] = _EMPTY
        self.store.write(block_id)
        heapq.heappush(self._free, lid)
        self._live -= 1
        self._log(_J_FREE, lid)

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------

    def read(self, lid: int) -> Any:
        """Return the record stored under ``lid`` (one block I/O)."""
        block_id, slot = self._locate(lid)
        records = self.store.read(block_id)
        value = records[slot]
        if value is _EMPTY:
            raise RecordNotFoundError(f"LID {lid} is not allocated")
        return value

    def write(self, lid: int, value: Any) -> None:
        """Overwrite the record stored under ``lid`` (one block I/O)."""
        self.write_many(((lid, value),))

    def write_many(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """Overwrite the record of each ``(lid, value)`` pair with one read
        and one write per LIDF block, in the order the pairs first touch
        the blocks: in an operation, a :meth:`write` loop's I/O and cache.
        All or nothing: a freed or out-of-range LID raises
        :class:`RecordNotFoundError` before any record changes."""
        per_block = self.records_per_block
        groups: dict[int, list[tuple[int, Any]]] = {}
        for lid, value in pairs:
            if lid < 0 or lid >= self._tail:
                raise RecordNotFoundError(f"LID {lid} is not allocated")
            block_index, slot = divmod(lid, per_block)
            groups.setdefault(block_index, []).append((slot, value))
        blocks = []
        for block_index, group in groups.items():
            block_id = self._block_ids[block_index]
            records = self.store.read(block_id)
            for slot, _ in group:
                if records[slot] is _EMPTY:
                    lid = block_index * per_block + slot
                    raise RecordNotFoundError(f"LID {lid} is not allocated")
            blocks.append((block_id, records, group))
        for block_id, records, group in blocks:
            for slot, value in group:
                records[slot] = value
            self.store.write(block_id)

    def repoint(self, lids: Sequence[int], value: Any) -> None:
        """:meth:`write_many` of ``(lid, value)`` for every LID in ``lids``
        — the records a leaf now holds, pointed at it.  A list that is one
        ascending run of live LIDs (a leaf a bulk load or rebuild filled)
        is assigned one slice per LIDF block, with the same reads, writes
        and first-touch order; any other list, and a run that holds a
        freed LID, goes through :meth:`write_many`, which checks it."""
        first = lids[0] if lids else 0
        end = first + len(lids)
        if first < 0 or end > self._tail or lids != list(range(first, end)):
            self.write_many((lid, value) for lid in lids)
            return
        per_block = self.records_per_block
        blocks = []
        lid = first
        while lid < end:
            block_index, slot = divmod(lid, per_block)
            stop = slot + min(end - lid, per_block - slot)
            block_id = self._block_ids[block_index]
            records = self.store.read(block_id)
            if _EMPTY in records[slot:stop]:
                self.write_many((lid, value) for lid in lids)
                return
            blocks.append((block_id, records, slot, stop))
            lid += stop - slot
        for block_id, records, slot, stop in blocks:
            records[slot:stop] = [value] * (stop - slot)
            self.store.write(block_id)

    def exists(self, lid: int) -> bool:
        """Whether ``lid`` currently addresses a live record (uncounted)."""
        if lid < 0 or lid >= self._tail:
            return False
        block_index = lid // self.records_per_block
        if block_index >= len(self._block_ids):
            return False
        records = self.store.peek(self._block_ids[block_index])
        return records[lid % self.records_per_block] is not _EMPTY

    # ------------------------------------------------------------------
    # bulk access (for naive-k global relabeling and rebuilds)
    # ------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, Any]]:
        """Yield ``(lid, value)`` for every live record in LID order.

        Costs one read I/O per heap block, the sequential-scan cost the
        paper charges the naive scheme's relabeling pass.
        """
        return self._live_records(self.store.read)

    def peek_records(self) -> Iterator[tuple[int, Any]]:
        """:meth:`scan` without the I/O accounting: for rebuilding state
        *derived* from the records on restore, which is not a measured
        access."""
        return self._live_records(self.store.peek)

    def _live_records(
        self, read: Callable[[int], Any]
    ) -> Iterator[tuple[int, Any]]:
        for block_index, block_id in enumerate(self._block_ids):
            records = read(block_id)
            base = block_index * self.records_per_block
            for slot, value in enumerate(records):
                if value is not _EMPTY:
                    yield base + slot, value

    def rewrite_all(self, transform: Callable[[int, Any], Any]) -> None:
        """Apply ``transform(lid, value)`` to every live record in place.

        Costs one read + one write I/O per heap block — the cost model of a
        full relabeling sweep.
        """
        for block_index, block_id in enumerate(self._block_ids):
            records = self.store.read(block_id)
            base = block_index * self.records_per_block
            for slot, value in enumerate(records):
                if value is not _EMPTY:
                    records[slot] = transform(base + slot, value)
            self.store.write(block_id)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def persist_state(self) -> dict[str, Any]:
        """The LIDF directory as a JSON-able dict: which store blocks back
        the file, and the allocation state.  The free list keeps its heap
        order, so a restored file recycles LIDs exactly as this one would.
        """
        return {
            "block_ids": list(self._block_ids),
            "free": list(self._free),
            "tail": self._tail,
            "live": self._live,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt a directory produced by :meth:`persist_state` (the record
        blocks themselves must already be in the store)."""
        self._block_ids = list(state["block_ids"])
        self._free = list(state["free"])
        heapq.heapify(self._free)
        self._tail = state["tail"]
        self._live = state["live"]

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    @property
    def block_count(self) -> int:
        """Number of heap blocks currently backing the file."""
        return len(self._block_ids)

    @property
    def high_water_lid(self) -> int:
        """One past the largest LID ever allocated."""
        return self._tail

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _locate(self, lid: int) -> tuple[int, int]:
        if lid < 0 or lid >= self._tail:
            raise RecordNotFoundError(f"LID {lid} is not allocated")
        block_index, slot = divmod(lid, self.records_per_block)
        return self._block_ids[block_index], slot

    def _put(self, lid: int, value: Any) -> None:
        block_index, slot = divmod(lid, self.records_per_block)
        self._add_blocks(block_index)
        block_id = self._block_ids[block_index]
        records = self.store.read(block_id)
        records[slot] = value
        self.store.write(block_id)

    def _add_blocks(self, block_index: int) -> None:
        """Append store blocks to the file until it covers ``block_index``."""
        while block_index >= len(self._block_ids):
            block_id = self.store.allocate([_EMPTY] * self.records_per_block)
            self._block_ids.append(block_id)
            self._log(_J_BLOCK, block_id)

    def _log(self, code: int, arg: int, run: bool = False) -> None:
        journal = self.journal
        if journal is None:
            return
        if run and journal and journal[-2] == code:
            journal[-1] += arg  # runs of tail/heap allocations fold into one op
        else:
            journal += (code, arg)
