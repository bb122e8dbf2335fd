"""The naive gap-based relabeling scheme ("naive-k" in Section 7).

This is the baseline most systems use: leave gaps of ``2^k`` between
adjacent labels — paying ``k`` extra bits per label — and, whenever an
insertion lands in a gap of size 1, relabel *everything* with equally
spaced values.  An adversary that keeps inserting into the smallest gap
forces a full relabel every ``~k`` insertions, which is exactly what the
concentrated experiment demonstrates.

Storage model (matching the paper's experimental setup): each LIDF record
directly stores the label value and the gap to the previous label.  A
relabel is a sequential scan + rewrite of the whole LIDF, ``O(N/B)`` I/Os.
The paper deliberately gives the baseline an unfair advantage — "we assume
that there is enough memory devoted to naive relabeling such that sorting
can be done entirely in memory without extra I/O passes" — and we grant the
same: the scheme keeps an in-memory list of LIDs in document order, so a
relabel charges only the LIDF scan + rewrite.

Label values are Python big-ints; real 32-bit word overflow is reported by
:meth:`label_bit_length` rather than by wrapping (see the "Other findings"
benchmark).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Sequence

from ..config import BoxConfig
from ..errors import LabelingError
from ..storage import BlockStore
from .cachelog import RangeShift, invalidate_all
from .interface import Label, LabelingScheme


class SortedOrderScheme(LabelingScheme):
    """A scheme granted the paper's free sort oracle: its live labels also
    sit in memory as a sorted ``_order`` list of ``(label, lid)`` — naive-k,
    ORDPATH and the ancestry schemes.  They delete the same way."""

    def __init__(self, config: BoxConfig | None = None, store: BlockStore | None = None) -> None:
        super().__init__(config, store)
        #: Derived state, rebuilt from the LIDF on restore.
        self._order: list[tuple[Any, int]] = []

    @staticmethod
    def _label_of(record: Any) -> Label:
        """The label a LIDF record holds (records are ``(label, extra)``)."""
        return record[0]

    def label_count(self) -> int:
        return len(self._order)

    def _index(self, label: Label, lid: int) -> int:
        """Where ``(label, lid)`` sits in ``_order``."""
        index = bisect_left(self._order, (label, lid))
        if index >= len(self._order) or self._order[index] != (label, lid):
            raise LabelingError(f"LID {lid} is not tracked by {self.name}")
        return index

    def _delete_sorted(self, lid: int) -> tuple[Any, int]:
        """Unlink ``lid`` from ``_order``, free its LIDF record and log the
        free (a :class:`RangeShift` that moves nothing and kills ``lid``'s
        label); returns its record and the index it held."""
        record = self.lidf.read(lid)
        label = self._label_of(record)
        index = self._index(label, lid)
        timestamp = self._tick()
        self._order.pop(index)
        self.lidf.free(lid)
        self._emit(RangeShift(timestamp, label, label, 0, freed=1))
        return record, index

    def delete_range(self, first_lid: int, last_lid: int) -> list[int]:
        """Delete the contiguous label range between the two labels."""
        with self.store.operation():
            first = self._label_of(self.lidf.read(first_lid))
            last = self._label_of(self.lidf.read(last_lid))
            if first > last:
                raise LabelingError("delete_range bounds are out of order")
            start = bisect_left(self._order, (first, first_lid))
            stop = bisect_left(self._order, (last, last_lid))
            doomed = [lid for _, lid in self._order[start : stop + 1]]
            for lid in doomed:
                self.delete(lid)
            return doomed


class NaiveScheme(SortedOrderScheme):
    """naive-k: gap labeling with global relabeling.

    Parameters
    ----------
    gap_bits:
        ``k``; fresh and relabeled assignments space labels ``2^k`` apart.
    """

    def __init__(
        self,
        gap_bits: int,
        config: BoxConfig | None = None,
        store: BlockStore | None = None,
    ) -> None:
        super().__init__(config, store)
        if gap_bits < 1:
            raise LabelingError("gap_bits must be at least 1")
        self.gap_bits = gap_bits
        self.gap = 1 << gap_bits
        self.name = f"naive-{gap_bits}"
        #: Number of global relabels performed (reported by benchmarks).
        self.relabel_count = 0
        #: Total labels rewritten across all relabels (the "tags relabeled"
        #: metric of the order-maintenance literature).
        self.relabeled_items = 0

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def label_bit_length(self) -> int:
        """Bits for the largest label currently assigned."""
        if not self._order:
            return 1
        return max(1, self._order[-1][0].bit_length())

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def lookup(self, lid: int) -> int:
        """One LIDF I/O: the record holds the value directly."""
        with self.store.operation():
            value, _gap = self.lidf.read(lid)
            return value

    def insert_before(self, lid_old: int) -> int:
        """Split the gap below ``lid_old``; global relabel when it closes."""
        with self.store.operation():
            value, gap = self.lidf.read(lid_old)
            self._tick()
            if gap <= 1:
                self._relabel()
                value, gap = self.lidf.read(lid_old)
            # Place the new label in the middle of the gap.
            lower = gap // 2  # part of the gap left below the new label
            new_value = value - (gap - lower)
            lid_new = self.lidf.allocate((new_value, lower))
            self.lidf.write(lid_old, (value, gap - lower))
            insort(self._order, (new_value, lid_new))
            return lid_new

    def delete(self, lid: int) -> None:
        """Remove a label; the freed gap merges into the successor's."""
        with self.store.operation():
            (_value, gap), index = self._delete_sorted(lid)
            if index < len(self._order):
                successor_lid = self._order[index][1]
                successor_value, successor_gap = self.lidf.read(successor_lid)
                self.lidf.write(successor_lid, (successor_value, successor_gap + gap))

    def bulk_load(self, n_labels: int, pairing: Sequence[int] | None = None) -> list[int]:
        """Assign ``i * 2^k`` to the i-th label (1-based), one LIDF pass."""
        del pairing
        if self._order:
            raise LabelingError("bulk_load requires an empty structure")
        with self.store.operation():
            self._tick()
            lids = self.lidf.allocate_many(
                [((index + 1) * self.gap, self.gap) for index in range(n_labels)]
            )
            self._order = sorted(
                ((index + 1) * self.gap, lid) for index, lid in enumerate(lids)
            )
        return lids

    def insert_subtree_before(
        self, lid_old: int, n_labels: int, pairing: Sequence[int] | None = None
    ) -> list[int]:
        """The naive scheme has no bulk machinery; insert one at a time
        (this is the point the paper's bulk-vs-element table makes)."""
        del pairing
        return super().insert_subtree_before(lid_old, n_labels)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def persist_state(self) -> dict[str, Any]:
        # The in-memory order list is derived state (every record stores
        # its value in the LIDF) and is rebuilt on restore; journaling it
        # would make every file-backend commit O(n).
        return {
            **super().persist_state(),
            "gap_bits": self.gap_bits,
            "relabel_count": self.relabel_count,
        }

    def restore_state(self, meta: dict[str, Any]) -> None:
        super().restore_state(meta)
        self.relabel_count = meta["relabel_count"]
        # Labels are distinct and totally ordered, so sorting reproduces
        # the insort-maintained list exactly.
        self._order = sorted(
            (value, lid) for lid, (value, _gap) in self.lidf.peek_records()
        )

    @classmethod
    def from_persisted(cls, config: BoxConfig, meta: dict[str, Any]) -> "NaiveScheme":
        return cls(meta["gap_bits"], config)

    # ------------------------------------------------------------------
    # global relabel
    # ------------------------------------------------------------------

    def _relabel(self) -> None:
        """Rewrite every label as ``i * 2^k``: one sequential LIDF sweep."""
        self.relabel_count += 1
        self.relabeled_items += len(self._order)
        self._emit(invalidate_all(self.clock))
        new_values = {
            lid: (index + 1) * self.gap for index, (_, lid) in enumerate(self._order)
        }
        self.lidf.rewrite_all(lambda lid, record: (new_values[lid], self.gap))
        self._order = sorted((value, lid) for lid, value in new_values.items())
