"""In-memory order maintenance (the paper's related work, Section 2).

Before the BOXes, the order-maintenance toolbox was in-memory: Dietz's
classic algorithm "relabels O(log N) tags per insertion, amortized" [8],
Dietz & Sleator brought it to O(1) with indirection [9], and Bender et al.
[4] gave the simplified tag-range relabeling variant that Fisher et al.
[10] applied to XML ordering.  The paper's point is that none of these are
I/O-efficient — but they are the natural main-memory comparator, so this
module implements the Bender-style algorithm:

* every item carries a ``w``-bit integer tag; order = tag order;
* an insert takes the midpoint of the gap after its predecessor;
* when the gap is exhausted, walk up the dyadic windows around the
  predecessor's tag until one is within its density threshold — a window
  ``h`` levels above the leaves may be at most ``tau**h`` full, so larger
  windows must be sparser — and relabel that window's items with evenly
  spaced tags.  Spreading a window at density ``tau**h`` leaves each child
  well under its own (looser) threshold ``tau**(h-1)``: that hysteresis is
  where the amortization comes from.

Amortized O(log N) relabelings per insertion.  The structure doubles as a
fast oracle for the test suite: it maintains the same abstract order as
the disk-based schemes with none of their machinery.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import LabelingError

#: Default tag width: far more headroom than any test or benchmark needs.
DEFAULT_TAG_BITS = 48

#: Density decay per level: a window ``h`` levels above the leaves may
#: hold at most ``TAU ** h`` of its capacity.  Must be in (0.5, 1); the
#: structure's total capacity is ``(2 * TAU) ** tag_bits``.
TAU = 0.75


class OrderList:
    """Order maintenance via tag-range relabeling.

    Items are opaque integers handed out by the structure; use
    :meth:`insert_first`, :meth:`insert_before`, :meth:`insert_after`,
    :meth:`delete`, and :meth:`compare`.
    """

    def __init__(self, tag_bits: int = DEFAULT_TAG_BITS) -> None:
        if tag_bits < 4:
            raise LabelingError("tag_bits must be at least 4")
        self.tag_bits = tag_bits
        self.universe = 1 << tag_bits
        self._tags: list[int] = []  # sorted tags
        self._items: list[int] = []  # item ids parallel to _tags
        self._tag_of: dict[int, int] = {}
        self._next_item = 0
        #: Total items moved by relabeling passes (the metric Dietz's
        #: bound speaks about).
        self.relabeled_items = 0
        #: Number of relabeling passes performed.
        self.relabel_passes = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tags)

    def tag(self, item: int) -> int:
        """The item's current tag (changes across relabelings)."""
        return self._tag_of[item]

    def compare(self, first: int, second: int) -> int:
        """Order comparison: -1, 0, +1."""
        a, b = self._tag_of[first], self._tag_of[second]
        return (a > b) - (a < b)

    def items_in_order(self) -> list[int]:
        """All items, first to last."""
        return list(self._items)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert_first(self) -> int:
        """Insert an item at the front (or into an empty list)."""
        if not self._tags:
            return self._place(self.universe // 2)
        return self._insert_at_index(0)

    def insert_last(self) -> int:
        """Insert an item at the back."""
        if not self._tags:
            return self.insert_first()
        return self._insert_at_index(len(self._tags))

    def insert_before(self, item: int) -> int:
        """Insert a new item immediately before ``item``."""
        index = self._index_of(item)
        return self._insert_at_index(index)

    def insert_after(self, item: int) -> int:
        """Insert a new item immediately after ``item``."""
        index = self._index_of(item)
        return self._insert_at_index(index + 1)

    def delete(self, item: int) -> None:
        """Remove ``item``."""
        index = self._index_of(item)
        self._tags.pop(index)
        self._items.pop(index)
        del self._tag_of[item]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _index_of(self, item: int) -> int:
        tag = self._tag_of[item]
        index = bisect_left(self._tags, tag)
        if index >= len(self._tags) or self._items[index] != item:
            raise LabelingError(f"unknown item {item}")
        return index

    def _place(self, tag: int) -> int:
        item = self._next_item
        self._next_item += 1
        index = bisect_left(self._tags, tag)
        self._tags.insert(index, tag)
        self._items.insert(index, item)
        self._tag_of[item] = tag
        return item

    def _insert_at_index(self, index: int) -> int:
        """Insert between positions ``index-1`` and ``index``."""
        low = self._tags[index - 1] if index > 0 else -1
        high = self._tags[index] if index < len(self._tags) else self.universe
        if high - low < 2:
            self._rebalance_around(max(0, min(index, len(self._tags) - 1)))
            low = self._tags[index - 1] if index > 0 else -1
            high = self._tags[index] if index < len(self._tags) else self.universe
            if high - low < 2:
                raise LabelingError("tag universe exhausted; use more tag_bits")
        return self._place(low + (high - low) // 2)

    def _rebalance_around(self, index: int) -> None:
        """Find the smallest enclosing dyadic window around position
        ``index`` that is within its density threshold and spread its items
        evenly across it."""
        anchor = self._tags[index]
        for height in range(1, self.tag_bits + 1):
            size = 1 << height
            window_lo = (anchor >> height) << height
            window_hi = window_lo + size  # exclusive
            first = bisect_left(self._tags, window_lo)
            last = bisect_left(self._tags, window_hi)
            count = last - first
            threshold = size * (TAU**height)
            if count + 1 <= threshold:
                self._relabel_window(first, last, window_lo, size)
                return
        raise LabelingError(
            f"tag universe exhausted at {len(self._tags)} items; "
            "use more tag_bits"
        )

    def _relabel_window(self, first: int, last: int, window_lo: int, size: int) -> None:
        count = last - first
        if count == 0:
            return
        self.relabel_passes += 1
        self.relabeled_items += count
        # Evenly spaced tags inside [window_lo, window_lo + size).
        step = size / (count + 1)
        for offset in range(count):
            tag = window_lo + int(step * (offset + 1))
            position = first + offset
            self._tags[position] = tag
            self._tag_of[self._items[position]] = tag
        # Evenness guarantees strict increase when count + 1 <= size.
        for position in range(max(1, first), min(len(self._tags), last + 1)):
            if self._tags[position - 1] >= self._tags[position]:
                raise LabelingError("relabeling produced a collision")  # pragma: no cover
