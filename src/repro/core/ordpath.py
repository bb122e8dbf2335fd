"""ORDPATH — the immutable hybrid labeling baseline (O'Neil et al.,
SIGMOD 2004; the paper's Section 2).

ORDPATH labels are Dewey-style component vectors made *insert-friendly* by
"careting in": a new label between two existing ones extends the left
neighbour with extra components instead of renumbering anything.  Existing
labels are therefore **immutable** — the property the paper's related-work
section credits it for — but immutability has a price the paper calls out
when motivating the concentrated experiment:

    "as an immutable labeling scheme, ORDPATH cannot escape the lower bound
    of Ω(N) bits per label … certain insertion sequences (such as the
    *concentrated* sequence we experiment with in Section 7) can result in
    Ω(N)-bit labels."

This implementation uses ORDPATH purely as an order-maintenance scheme (the
role it plays in the paper's comparison): labels are tuples compared
lexicographically; ``insert_before`` derives a label strictly between the
two neighbours; nothing is ever relabeled, so lookups cost the single LIDF
I/O and the modification log never receives an effect.  Like naive-k, the
scheme keeps its document-order list in memory (the same concession the
paper grants the baselines).

Label width is measured with an ORDPATH-style variable-length component
encoding (a 4-bit length class plus the value bits, approximating the
Li/Oi prefix-free code of the original paper).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Sequence

from ..errors import LabelingError
from .naive import SortedOrderScheme

#: Approximate per-component overhead of the ORDPATH prefix-free encoding.
COMPONENT_OVERHEAD_BITS = 4

Label = tuple[int, ...]


def label_between(left: Label | None, right: Label | None) -> Label:
    """A label strictly between ``left`` and ``right`` (lexicographic order)
    without modifying either — the careting-in rule.

    Only the ordering matters for order maintenance, so even/odd component
    parity (which ORDPATH uses for ancestry semantics) is not enforced.
    """
    if left is None and right is None:
        return (1,)
    if left is None:
        assert right is not None
        # A label before ``right``: step the last component down, or caret
        # below it when there is no room.
        if right[-1] >= 3:
            return right[:-1] + (right[-1] - 2,)
        return right[:-1] + (right[-1] - 1, 1)
    if right is None:
        return left[:-1] + (left[-1] + 2,)
    if not left < right:
        raise LabelingError(f"labels out of order: {left!r} !< {right!r}")
    # First position where they differ (or where left ends).
    for index in range(len(left)):
        if index >= len(right):  # impossible given left < right
            break
        if left[index] == right[index]:
            continue
        if right[index] - left[index] >= 2:
            # Room for a fresh component strictly between.
            return left[:index] + (left[index] + 1, 1)
        # Adjacent components: stay under right by extending left's prefix.
        return left[: index + 1] + _after_suffix(left[index + 1 :])
    # left is a proper prefix of right.
    return left + _before_suffix(right[len(left) :])


def _after_suffix(tail: Sequence[int]) -> Label:
    """A suffix greater than ``tail`` when appended to the shared prefix."""
    if not tail:
        return (1,)
    return (tail[0] + 1, 1)


def _before_suffix(tail: Sequence[int]) -> Label:
    """A suffix less than ``tail`` when appended to the shared prefix."""
    assert tail
    return (tail[0] - 1, 1)


def label_bits(label: Label) -> int:
    """Width of the label under the variable-length component encoding."""
    total = 0
    for component in label:
        total += COMPONENT_OVERHEAD_BITS + max(1, abs(component).bit_length()) + 1
    return total


class OrdPath(SortedOrderScheme):
    """The ORDPATH immutable labeling scheme as an order-maintenance
    baseline."""

    name = "ORDPATH"

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def label_bit_length(self) -> int:
        """Width of the *widest* live label."""
        if not self._order:
            return 1
        return max(label_bits(label) for label, _ in self._order)

    def mean_label_bits(self) -> float:
        """Average label width (ORDPATH widths are highly skewed)."""
        if not self._order:
            return 0.0
        return sum(label_bits(label) for label, _ in self._order) / len(self._order)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def lookup(self, lid: int) -> Label:
        """One LIDF I/O: the record stores the immutable label itself."""
        with self.store.operation():
            return self.lidf.read(lid)

    def insert_before(self, lid_old: int) -> int:
        with self.store.operation():
            anchor = self.lidf.read(lid_old)
            index = self._index(anchor, lid_old)
            self._tick()
            predecessor = self._order[index - 1][0] if index > 0 else None
            new_label = label_between(predecessor, anchor)
            lid_new = self.lidf.allocate(new_label)
            insort(self._order, (new_label, lid_new))
            # No existing label changed: nothing to log (immutability).
            return lid_new

    def delete(self, lid: int) -> None:
        """Labels are immutable: the only effect logged is the free."""
        with self.store.operation():
            self._delete_sorted(lid)

    @staticmethod
    def _label_of(record: Label) -> Label:
        return record  # the record is the label itself

    def bulk_load(self, n_labels: int, pairing: Sequence[int] | None = None) -> list[int]:
        """Assign single-component odd labels 1, 3, 5, … in one pass."""
        del pairing
        if self._order:
            raise LabelingError("bulk_load requires an empty structure")
        with self.store.operation():
            self._tick()
            lids = self.lidf.allocate_many([(2 * index + 1,) for index in range(n_labels)])
            self._order = [((2 * index + 1,), lid) for index, lid in enumerate(lids)]
        return lids

    def restore_state(self, meta: dict[str, Any]) -> None:
        super().restore_state(meta)
        # The order list is derived state, as for naive-k: the snapshot
        # codec hands labels back as tuples, which is what lookup returns.
        self._order = sorted(
            (tuple(label), lid) for lid, label in self.lidf.peek_records()
        )

