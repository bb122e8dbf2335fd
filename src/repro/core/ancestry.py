"""Related-work ancestry schemes (Dahlgaard, Knudsen & Rotbart).

Two additional :class:`~repro.core.interface.LabelingScheme` variants
adapted from the ancestry-labeling literature retrieved in PAPERS.md:

* :class:`AncestryScheme` — the *simple and optimal* static scheme
  (arXiv 1407.5011), adapted to this repo's label model.  DKR assign
  every node a nesting interval via heavy-path decomposition, rounding
  interval sizes to powers of two at **light** children only, so the
  per-label encoding costs ``lg n + 2 lg lg n`` bits.  Here an element
  already owns two labels (start and end LID), so the interval's two
  endpoints *are* the two labels and ancestry is the stock order test
  ``l<(a) < l<(d) and l>(d) < l>(a)``.  What survives the adaptation is
  the interval layout itself: tight nested intervals with the
  power-of-two slack parked at light subtrees, giving measured label
  widths of about ``lg n + 2`` bits — well under W-BOX.  Updates are
  supported the way naive-k supports them (split the gap under the
  insertion point; rebuild the whole layout when a gap closes), so the
  scheme is honest about being *static*: concentrated insertions force
  frequent rebuilds, which is exactly the trade the label-bits table
  shows.
* :class:`AncestryDynamic` — a dynamic variant following DKR's
  *dynamic and multi-functional labeling schemes* (arXiv 1404.4982):
  labels live in a power-of-two universe of ``Θ(n lg n)`` slots
  (``lg n + lg lg n + O(1)`` bits) and an insertion that lands in a
  closed gap renumbers only the smallest enclosing *dyadic range* that
  is sparse enough (graded density thresholds, the order-maintenance
  discipline), so relabeling cost is amortized polylogarithmic instead
  of the naive scheme's full-file sweep.  The universe grows/shrinks by
  global renumber when the live count drifts past its density band,
  which is what keeps the bit-length invariant
  (:func:`benchmarks.labelbits.dynamic_ancestry_label_bits_bound`) true at
  every point of any insert/delete sequence — the Hypothesis state
  machine in ``tests/test_ancestry_stateful.py`` asserts exactly that.

Both schemes tag every LIDF record with a :class:`LabelKind` code
(start / end / unknown for raw ``insert_before`` labels), which is what
lets the static rebuild recover the element tree from the label tape
alone, and both count every access through the shared
:class:`~repro.storage.BlockStore` / :class:`~repro.storage.IOStats`
substrate like every other scheme.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Sequence

from ..config import BoxConfig
from ..errors import LabelingError
from ..storage import BlockStore
from .cachelog import invalidate_all
from .interface import LabelKind
from .naive import SortedOrderScheme

#: LIDF record kind codes (column 2 of every record).
KIND_START = LabelKind.START.value  # 0
KIND_END = LabelKind.END.value  # 1
KIND_UNKNOWN = 2  # a raw insert_before label with no element identity


def next_power_of_two(value: int) -> int:
    """The smallest power of two ``>= value`` (and ``>= 1``)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def dynamic_ancestry_gap(n_labels: int) -> int:
    """The Θ(lg n) power-of-two spacing the dynamic ancestry scheme
    re-establishes at every global renumbering."""
    n = max(16, n_labels)
    log_n = max(1, (n - 1).bit_length())
    return next_power_of_two(max(4, log_n))


def dynamic_ancestry_universe(n_labels: int) -> int:
    """The power-of-two label universe for ``n_labels`` live labels:
    ``next_pow2(2 n G)`` slots with ``G = Θ(lg n)``, i.e.
    ``lg n + lg lg n + O(1)`` bits per label."""
    n = max(16, n_labels)
    return next_power_of_two(2 * n * dynamic_ancestry_gap(n_labels))


def interval_layout(pairing: Sequence[int]) -> list[int]:
    """The DKR heavy-path interval layout: one strictly increasing label
    position per tag, nesting intervals with power-of-two-rounded slack
    at light children.

    ``pairing`` maps each tag position to its partner's position (the
    same convention ``bulk_load`` takes).  Each node's interval needs
    ``4 + sum(child slabs)`` slots: two for its own tags plus one spare
    slot directly below each, so a fresh layout always leaves a gap of
    at least two below every tag.  The *heavy* child (largest subtree)
    keeps its exact size; every light child's slab is rounded up to a
    power of two — DKR's trick for keeping the rounding loss off the
    heavy paths.  Raises :class:`LabelingError` when ``pairing`` is not
    a properly nested involution.
    """
    n = len(pairing)
    children: dict[int, list[int]] = {-1: []}
    stack = [-1]
    for index, partner in enumerate(pairing):
        if not 0 <= partner < n or partner == index or pairing[partner] != index:
            raise LabelingError("pairing is not an involution over tag positions")
        if partner > index:  # start tag
            children[index] = []
            children[stack[-1]].append(index)
            stack.append(index)
        else:  # end tag: must close the innermost open element
            if stack[-1] == -1 or stack.pop() != partner:
                raise LabelingError("pairing is not properly nested")
    if stack != [-1]:
        raise LabelingError("pairing leaves unclosed elements")

    # Subtree space requirements, children before parents (a child's
    # start index is always larger than its parent's).
    need: dict[int, int] = {}
    slab: dict[int, int] = {}

    def _slab_children(kids: list[int]) -> int:
        heavy = max(kids, key=lambda child: need[child])
        total = 0
        for child in kids:
            slab[child] = (
                need[child] if child == heavy else next_power_of_two(need[child])
            )
            total += slab[child]
        return total

    for index in range(n - 1, -1, -1):
        if pairing[index] < index:
            continue  # end tag
        kids = children[index]
        need[index] = 4 + (_slab_children(kids) if kids else 0)
    top = children[-1]
    if top:
        _slab_children(top)

    # Top-down placement: a node's interval is [lo, lo + need - 1] with
    # the start tag at lo+1 and the end tag at the interval's top slot.
    positions = [0] * n
    work: list[tuple[int, int]] = []
    cursor = 1
    for child in top:
        work.append((child, cursor))
        cursor += slab[child]
    while work:
        node, lo = work.pop()
        positions[node] = lo + 1
        positions[pairing[node]] = lo + need[node] - 1
        cursor = lo + 2
        for child in children[node]:
            work.append((child, cursor))
            cursor += slab[child]
    return positions


class _OrderedGapScheme(SortedOrderScheme):
    """Shared machinery of the two ancestry schemes.

    Like naive-k, the scheme stores the label value directly in each
    LIDF record (plus the :class:`LabelKind` code) and keeps an
    in-memory ``(value, lid)`` sort oracle as derived state.  Ordinary
    inserts split the gap below the insertion point — which never raises
    the maximum assigned value, so the bit length can only change at a
    renumbering — and subclasses decide what happens when a gap closes.
    """

    def __init__(
        self,
        config: BoxConfig | None = None,
        store: BlockStore | None = None,
    ) -> None:
        super().__init__(config, store)
        #: LID -> kind code mirror of the records' kind column.
        self._kind: dict[int, int] = {}
        #: Renumbering passes performed (global or ranged).
        self.relabel_count = 0
        #: Total labels rewritten across all renumberings.
        self.relabeled_items = 0

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def label_bit_length(self) -> int:
        if not self._order:
            return 1
        return max(1, self._order[-1][0].bit_length())

    def kind_of(self, lid: int) -> LabelKind | None:
        """The :class:`LabelKind` recorded for ``lid`` (``None`` for a
        raw ``insert_before`` label with no element identity)."""
        code = self._kind.get(lid, KIND_UNKNOWN)
        return None if code == KIND_UNKNOWN else LabelKind(code)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def lookup(self, lid: int) -> int:
        with self.store.operation():
            value, _kind = self.lidf.read(lid)
            return value

    def insert_before(self, lid_old: int) -> int:
        with self.store.operation():
            return self._insert_before(lid_old, KIND_UNKNOWN)

    def insert_element_before(self, lid: int) -> tuple[int, int]:
        """As the paper specifies — two ``insert_before`` calls — but
        carrying the element identity into the records' kind column."""
        with self.store.operation():
            end_lid = self._insert_before(lid, KIND_END)
            start_lid = self._insert_before(end_lid, KIND_START)
        return start_lid, end_lid

    def _insert_before(self, lid_old: int, kind: int) -> int:
        value, _ = self.lidf.read(lid_old)
        index = self._index(value, lid_old)
        self._tick()
        predecessor = self._order[index - 1][0] if index else 0
        if value - predecessor <= 1:
            self._make_room(index)
            value, _ = self.lidf.read(lid_old)
            index = bisect_left(self._order, (value, lid_old))
            predecessor = self._order[index - 1][0] if index else 0
        gap = value - predecessor
        new_value = predecessor + gap // 2
        lid_new = self.lidf.allocate((new_value, kind))
        self._kind[lid_new] = kind
        insort(self._order, (new_value, lid_new))
        return lid_new

    def delete(self, lid: int) -> None:
        with self.store.operation():
            self._delete_sorted(lid)
            self._kind.pop(lid, None)
            self._after_delete()

    def bulk_load(self, n_labels: int, pairing: Sequence[int] | None = None) -> list[int]:
        if self._order:
            raise LabelingError("bulk_load requires an empty structure")
        if pairing is None:
            kinds = [KIND_UNKNOWN] * n_labels
        else:
            if len(pairing) != n_labels:
                raise LabelingError("pairing length must match n_labels")
            kinds = [
                KIND_START if partner > index else KIND_END
                for index, partner in enumerate(pairing)
            ]
        values = self._bulk_values(n_labels, pairing)
        with self.store.operation():
            self._tick()
            lids = self.lidf.allocate_many(list(zip(values, kinds)))
            self._kind = {lid: kinds[index] for index, lid in enumerate(lids)}
            self._order = sorted(
                (values[index], lid) for index, lid in enumerate(lids)
            )
        return lids

    # ------------------------------------------------------------------
    # renumbering
    # ------------------------------------------------------------------

    def _make_room(self, index: int) -> None:
        """Open a gap below ``self._order[index]``; subclass-specific."""
        raise NotImplementedError

    def _after_delete(self) -> None:
        """Post-delete hook (the dynamic scheme shrinks its universe)."""

    def _bulk_values(self, n_labels: int, pairing: Sequence[int] | None) -> list[int]:
        raise NotImplementedError

    def _fresh_values(self) -> dict[int, int]:
        """New value for every live LID, for a global renumbering."""
        raise NotImplementedError

    def _relabel(self) -> None:
        """Global renumbering: one sequential LIDF sweep, kinds kept."""
        self.relabel_count += 1
        self.relabeled_items += len(self._order)
        self._emit(invalidate_all(self.clock))
        new_values = self._fresh_values()
        self.lidf.rewrite_all(lambda lid, record: (new_values[lid], record[1]))
        self._order = sorted((value, lid) for lid, value in new_values.items())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def persist_state(self) -> dict[str, Any]:
        # Order list and kind mirror are derived state (each record
        # stores value + kind) and are rebuilt on restore.
        return {
            **super().persist_state(),
            "relabel_count": self.relabel_count,
            "relabeled_items": self.relabeled_items,
        }

    def restore_state(self, meta: dict[str, Any]) -> None:
        super().restore_state(meta)
        self.relabel_count = meta["relabel_count"]
        self.relabeled_items = meta["relabeled_items"]
        order: list[tuple[int, int]] = []
        kinds: dict[int, int] = {}
        for lid, (value, kind) in self.lidf.peek_records():
            order.append((value, lid))
            kinds[lid] = kind
        order.sort()
        self._order = order
        self._kind = kinds


class AncestryScheme(_OrderedGapScheme):
    """The static DKR simple-optimal ancestry scheme (see module doc).

    Labels come from :func:`interval_layout` at bulk load and at every
    rebuild; between rebuilds, inserts split gaps like naive-k.  A
    rebuild recovers the element tree from the records'
    :class:`LabelKind` tape when it is balanced (every start matched by
    its end, no raw unknown labels); otherwise it falls back to a flat
    evenly-gapped renumbering — the tree is unknowable, but order (and
    therefore every ancestry answer) is preserved either way.
    """

    name = "ancestry"

    def _bulk_values(self, n_labels: int, pairing: Sequence[int] | None) -> list[int]:
        if pairing is None:
            return [4 * (index + 1) for index in range(n_labels)]
        return interval_layout(pairing)

    def _make_room(self, index: int) -> None:
        del index
        self._relabel()

    def _fresh_values(self) -> dict[int, int]:
        lids = [lid for _value, lid in self._order]
        pairing = self._pairing_from_kinds(lids)
        if pairing is None:
            values = [4 * (position + 1) for position in range(len(lids))]
        else:
            values = interval_layout(pairing)
        return {lid: values[position] for position, lid in enumerate(lids)}

    def _pairing_from_kinds(self, lids: list[int]) -> list[int] | None:
        """Reconstruct the tag pairing from the kind tape, or ``None``
        when the tape is unbalanced / contains raw unknown labels."""
        pairing = [0] * len(lids)
        stack: list[int] = []
        for position, lid in enumerate(lids):
            kind = self._kind.get(lid, KIND_UNKNOWN)
            if kind == KIND_START:
                stack.append(position)
            elif kind == KIND_END:
                if not stack:
                    return None
                partner = stack.pop()
                pairing[partner] = position
                pairing[position] = partner
            else:
                return None
        return pairing if not stack else None


class AncestryDynamic(_OrderedGapScheme):
    """The dynamic DKR variant (see module doc): an order-maintenance
    file over a power-of-two universe of ``Θ(n lg n)`` slots.

    A closed gap renumbers the smallest enclosing dyadic range whose
    density passes the graded threshold (sparser thresholds for larger
    ranges), touching amortized polylog labels per insert; the universe
    itself regrows (or shrinks, after deletes) by global renumbering
    when the live count leaves its density band.  The maximum assigned
    value never exceeds the universe, which pins the bit length to
    ``lg n + lg lg n + O(1)``
    (:func:`benchmarks.labelbits.dynamic_ancestry_label_bits_bound`).
    """

    name = "ancestry-dyn"

    def __init__(
        self,
        config: BoxConfig | None = None,
        store: BlockStore | None = None,
    ) -> None:
        super().__init__(config, store)
        #: Power-of-two universe size; labels live in [1, capacity).
        self.capacity = dynamic_ancestry_universe(0)
        #: The Θ(lg n) spacing global renumberings re-establish.
        self.gap = dynamic_ancestry_gap(0)

    # -- persistence: only the universe sizing is journaled -------------

    def persist_state(self) -> dict[str, Any]:
        return {**super().persist_state(), "capacity": self.capacity, "gap": self.gap}

    def restore_state(self, meta: dict[str, Any]) -> None:
        super().restore_state(meta)
        self.capacity = meta["capacity"]
        self.gap = meta["gap"]

    # -- layout --------------------------------------------------------

    def _bulk_values(self, n_labels: int, pairing: Sequence[int] | None) -> list[int]:
        del pairing  # the dynamic scheme keeps no tree, only kinds
        self.capacity = dynamic_ancestry_universe(n_labels)
        self.gap = dynamic_ancestry_gap(n_labels)
        step = self.capacity // (n_labels + 1)
        return [step * (index + 1) for index in range(n_labels)]

    def _fresh_values(self) -> dict[int, int]:
        # Callers size self.capacity before triggering the renumbering.
        count = len(self._order)
        self.gap = dynamic_ancestry_gap(count)
        step = self.capacity // (count + 1)
        return {
            lid: step * (position + 1)
            for position, (_value, lid) in enumerate(self._order)
        }

    def _after_delete(self) -> None:
        # Shrink hysteresis: renumber into a smaller universe only once
        # the live count has fallen far below the universe's density
        # band, so alternating insert/delete cannot thrash renumbers.
        target = dynamic_ancestry_universe(len(self._order))
        if self.capacity > 4 * target:
            self.capacity = target
            self._relabel()

    # -- dyadic range renumbering --------------------------------------

    def _make_room(self, index: int) -> None:
        """Renumber the smallest sufficiently sparse dyadic range around
        the insertion point (order-maintenance overflow handling)."""
        anchor = self._order[index][0]
        universe_bits = self.capacity.bit_length() - 1
        for level in range(3, universe_bits):
            size = 1 << level
            lo = (anchor >> level) << level
            left = bisect_left(self._order, (lo, -1))
            right = bisect_left(self._order, (lo + size, -1))
            count = right - left
            step = size // (count + 2)
            # Graded density thresholds: larger ranges must come out
            # sparser, which is what bounds the amortized relabel cost.
            threshold = 0.5 - level / (4 * universe_bits)
            if step >= 2 and (count + 1) <= threshold * size:
                self._respace(left, right, lo, step)
                return
        # Even the whole universe is too dense: grow it globally.
        self.capacity = max(
            2 * self.capacity, dynamic_ancestry_universe(len(self._order))
        )
        self._relabel()

    def _respace(self, left: int, right: int, lo: int, step: int) -> None:
        """Evenly re-spread ``self._order[left:right]`` over the dyadic
        range starting at ``lo`` with spacing ``step``."""
        count = right - left
        self.relabel_count += 1
        self.relabeled_items += count
        self._emit(invalidate_all(self.clock))
        renumbered = [
            (lo + step * (offset + 1), lid)
            for offset, (_value, lid) in enumerate(self._order[left:right])
        ]
        kind = self._kind
        self.lidf.write_many(
            (lid, (value, kind.get(lid, KIND_UNKNOWN))) for value, lid in renumbered
        )
        self._order[left:right] = renumbered
