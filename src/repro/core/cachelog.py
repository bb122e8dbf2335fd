"""Reducing the cost of indirection (Section 6 of the paper).

Dynamic labels force a level of indirection — a LID dereference plus a BOX
lookup — on every label read.  Section 6 removes most of that cost with a
combination of *caching* and *logging*:

* every reference to a label is augmented with a cached value and a
  ``last_cached`` timestamp (:class:`LabelRef`);
* the scheme logs the *effect* of each of the last ``k`` modifications on
  existing labels — either a succinct range update (``[l, hi]: +1``,
  :class:`RangeShift`) or, rarely, an invalidated range
  (:class:`Invalidate`);
* a delete's shift also counts the labels it freed (``freed``): a cached
  label replayed across its own free is dead, never another element's;
* a lookup whose cached value is newer than the oldest logged modification
  *replays* the logged effects on the cached value and returns without any
  I/O (:func:`serve_refs`, the one rule both front ends read through).

The paper's *basic caching approach* (a single last-modified timestamp) is
the ``capacity=0`` special case of :class:`ModificationLog`.

Effects are channelled: ``"label"`` effects apply to regular labels,
``"ordinal"`` effects to ordinal labels (the paper logs ordinal updates as
``[l, ∞): ±1``).

Labels here are either ints (W-BOX, naive-k) or component tuples (B-BOX);
range bounds compare with the same operators.  A tuple bound may be a
*prefix*: a label "starting with" the bound counts as inside the range.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Sequence

from ..errors import CacheError
from .interface import LABEL_CHANNEL, Label, LabelingScheme

# The channels are the scheme interface's; re-exported for the log's users.
from .interface import ORDINAL_CHANNEL as ORDINAL_CHANNEL


def _at_least(label: Label, bound: Label) -> bool:
    """``label >= bound``, treating a tuple bound as a prefix lower bound.

    Lexicographic order is decided by the first unequal component, so when
    the leading components already differ the answer needs no slicing —
    the common case on replay, where most effects anchor in a different
    subtree than the label being repaired.
    """
    if isinstance(label, tuple) and isinstance(bound, tuple):
        if label and bound and label[0] != bound[0]:
            return label[0] > bound[0]
        return label[: len(bound)] >= bound
    return label >= bound


def _at_most(label: Label, bound: Label) -> bool:
    """``label <= bound``, treating a tuple bound as a prefix upper bound.

    Same first-component short circuit as :func:`_at_least`.
    """
    if isinstance(label, tuple) and isinstance(bound, tuple):
        if label and bound and label[0] != bound[0]:
            return label[0] < bound[0]
        return label[: len(bound)] <= bound
    return label <= bound


@dataclass(frozen=True, slots=True)
class RangeShift:
    """All existing labels in ``[lo, hi]`` move by ``delta``, except the
    first ``freed`` of them from ``lo``, which a delete freed: they die.

    ``hi=None`` means unbounded (the ordinal log entries ``[l, ∞): ±1``).
    For tuple labels the shift applies to the **last component** — a
    single-leaf B-BOX update only renumbers positions within that leaf —
    and so does the ``freed`` count.
    """

    timestamp: int
    lo: Label
    hi: Label | None
    delta: int
    channel: str = LABEL_CHANNEL
    freed: int = 0

    def apply(self, label: Label) -> Label | None:
        """The label's new value, the unchanged label if unaffected, or
        None if the label was freed."""
        if not _at_least(label, self.lo):
            return label
        if self.hi is not None and not _at_most(label, self.hi):
            return label
        if isinstance(label, tuple):
            if self.freed and label[-1] - self.lo[-1] < self.freed:
                return None
            return label[:-1] + (label[-1] + self.delta,)
        if label - self.lo < self.freed:
            return None
        return label + self.delta

    @property
    def invalidates(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Invalidate:
    """Cached labels in ``[lo, hi]`` can no longer be repaired by replay.

    Emitted when an update reorganized more than one leaf (splits, merges,
    redistributions): the paper notes these are rare — "on average only one
    in Θ(B) updates affects more than one leaf".  ``lo=None`` with
    ``hi=None`` invalidates every label (height changes, rebuilds, bulk
    operations).
    """

    timestamp: int
    lo: Label | None
    hi: Label | None
    channel: str = LABEL_CHANNEL

    def hits(self, label: Label) -> bool:
        """Whether ``label`` falls in the invalidated range."""
        if self.lo is not None and not _at_least(label, self.lo):
            return False
        if self.hi is not None and not _at_most(label, self.hi):
            return False
        return True

    @property
    def invalidates(self) -> bool:
        return True


Effect = RangeShift | Invalidate


def invalidate_all(timestamp: int, channel: str = LABEL_CHANNEL) -> Invalidate:
    """An effect that invalidates every cached label on ``channel``."""
    return Invalidate(timestamp, None, None, channel)


@dataclass
class LabelRef:
    """An augmented reference: LID + cached value + last-cached timestamp.

    This is what a database would store wherever it today stores a raw
    label; ``value`` and ``last_cached`` are refreshed in place by
    :func:`serve_refs`.
    """

    lid: int
    value: Label | None = None
    last_cached: int = -1
    channel: str = LABEL_CHANNEL


_timestamp = attrgetter("timestamp")


@dataclass(frozen=True)
class LogSnapshot:
    """Immutable, epoch-stamped window ``items[lo:hi]`` of a
    :class:`ModificationLog`: the one thing a cached label is replayed over.

    The label service publishes one per epoch; :class:`CachedLabelStore`
    one per logged effect.  ``items`` is the log's own list, shared, not
    copied: the writer only appends past ``hi`` or compacts into a *new*
    list, so any number of readers may :meth:`replay` against the window
    concurrently without synchronization.
    """

    items: Sequence[Effect]
    lo: int
    hi: int
    dropped_through: int
    last_modified: int
    epoch: int

    def replay(self, label: Label, last_cached: int, channel: str = LABEL_CHANNEL) -> Label | None:
        """Bring a cached ``label`` (valid as of ``last_cached``) up to this
        snapshot's state, in O(log n + k) for the k effects logged since
        ``last_cached``: the window's timestamps never decrease
        (:meth:`ModificationLog.record` enforces it), so the suffix to
        replay starts at a binary search.  Returns the repaired label, or
        ``None`` when the cache cannot be used — the history needed has been
        dropped from the log, a logged effect invalidated a range containing
        the label, or a delete freed it.
        """
        if last_cached >= self.last_modified:
            return label  # nothing happened since; cache is fresh
        if last_cached < self.dropped_through:
            return None  # history lost
        items, hi = self.items, self.hi
        start = bisect_right(items, last_cached, self.lo, hi, key=_timestamp)
        if label.__class__ is int:  # W-BOX, naive-k, ordinals: plain comparisons
            for index in range(start, hi):
                effect = items[index]
                if effect.channel != channel:
                    continue
                low, high = effect.lo, effect.hi
                if effect.__class__ is RangeShift:
                    if label >= low and (high is None or label <= high):
                        if label - low < effect.freed:
                            return None
                        label += effect.delta
                elif (low is None or label >= low) and (high is None or label <= high):
                    return None
            return label
        for index in range(start, hi):
            effect = items[index]
            if effect.channel != channel:
                continue
            if effect.__class__ is RangeShift:
                label = effect.apply(label)
                if label is None:
                    return None
            elif effect.hits(label):
                return None
        return label

    def __len__(self) -> int:
        return self.hi - self.lo


class ModificationLog:
    """FIFO log of the last ``capacity`` modification effects.

    ``capacity=0`` degenerates to the paper's *basic caching approach*: the
    log remembers nothing, so any modification after ``last_cached`` forces
    a full lookup — exactly the single last-modified-timestamp behaviour.

    The live window is ``_items[_lo:]``.  Eviction advances ``_lo``; once
    the dead prefix exceeds ``capacity`` the window moves to a new list, so
    a published :class:`LogSnapshot` never sees its indices rewritten and
    eviction stays O(1) amortized.  :meth:`record` and :meth:`snapshot` are
    serialized by an internal lock so a writer thread can append effects
    while other threads take snapshots; every replay runs on a snapshot.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise CacheError("log capacity must be >= 0")
        self.capacity = capacity
        self._items: list[Effect] = []
        self._lo = 0
        self._lock = threading.Lock()
        #: Epoch stamp: bumped by :meth:`snapshot`; the label service
        #: publishes one epoch per writer wake-up.
        self.epoch = 0
        #: Timestamp of the newest modification no longer in the log; a
        #: cached value older than this cannot be repaired.
        self.dropped_through = 0
        #: Timestamp of the newest modification seen (the document's
        #: last-modified timestamp).
        self.last_modified = 0

    def record(self, effect: Effect) -> None:
        """Append one effect, evicting the oldest beyond capacity.

        Timestamps must not decrease (several effects may share one tick):
        replay finds its suffix by binary search on them."""
        with self._lock:
            if effect.timestamp < self.last_modified:
                raise CacheError(
                    f"effect at timestamp {effect.timestamp} is older than the "
                    f"last logged modification ({self.last_modified})"
                )
            self.last_modified = effect.timestamp
            if self.capacity == 0:
                self.dropped_through = self.last_modified
                return
            items = self._items
            items.append(effect)
            if len(items) - self._lo > self.capacity:
                self.dropped_through = items[self._lo].timestamp
                self._lo += 1
                if self._lo > self.capacity:
                    self._items = items[self._lo:]
                    self._lo = 0

    def snapshot(self, advance_epoch: bool = True) -> LogSnapshot:
        """Immutable view of the current log state, stamped with the next
        epoch number (``advance_epoch=False`` re-reads the current epoch
        without claiming a new one).  O(1): nothing is copied."""
        with self._lock:
            if advance_epoch:
                self.epoch += 1
            # An empty window holds no list: a session pinned before the first
            # write must not keep alive every effect appended after it.
            window = (self._items, self._lo, len(self._items)) if len(self) else ((), 0, 0)
            return LogSnapshot(*window, self.dropped_through, self.last_modified, self.epoch)

    def __len__(self) -> int:
        return len(self._items) - self._lo


def noop_hook(point: str) -> None:
    """The per-LID hook of an unobserved :func:`serve_refs`: do nothing."""


def serve_refs(
    refs: dict[int, LabelRef],
    lids: Sequence[int],
    snapshot: LogSnapshot,
    clock: int,
    channel: str = LABEL_CHANNEL,
    hook: Callable[[str], None] = noop_hook,
) -> tuple[list[Label], list[int] | None, int]:
    """Section 6's read rule: serve each of ``lids`` from its ref, as
    cached if no modification followed it, else replayed over ``snapshot``
    and stamped ``clock`` (the clock the snapshot is exact at).  A LID with
    no ref, or one replay cannot repair (history dropped, range
    invalidated, LID freed), misses, for the caller to read from the BOX.
    Returns the values (complete only if nothing missed), the missed LIDs
    (None if none) and the replay count.
    """
    last_modified = snapshot.last_modified
    values: list[Label] = []
    missed: list[int] | None = None
    replayed = 0
    for lid in lids:
        hook("read:begin")
        ref = refs.get(lid)
        if ref is not None:
            if ref.last_cached >= last_modified:
                values.append(ref.value)
                continue
            value = snapshot.replay(ref.value, ref.last_cached, channel)
            if value is not None:
                ref.value = value
                ref.last_cached = clock
                replayed += 1
                values.append(value)
                continue
        missed = missed or []
        missed.append(lid)
    return values, missed, replayed


@dataclass
class CacheCounters:
    """How :class:`CachedLabelStore` served its reads, in the label
    service's vocabulary (:class:`~repro.service.ServiceStats`)."""

    fresh_hits: int = 0  # cache newer than every modification
    replay_hits: int = 0  # repaired by replaying logged effects
    fallthrough_reads: int = 0  # full lookups paid

    @property
    def reads(self) -> int:
        return self.fresh_hits + self.replay_hits + self.fallthrough_reads

    @property
    def repair_hit_ratio(self) -> float:
        """Reads answered without touching the BOX, over all reads."""
        reads = self.reads
        return (reads - self.fallthrough_reads) / reads if reads else 0.0


class CachedLabelStore:
    """Front-end that serves label reads through the cache + log.

    Attach one to a scheme and read labels through :meth:`get`::

        cached = CachedLabelStore(scheme, log_capacity=64)
        ref = cached.reference(lid)
        ...
        value = cached.get(ref)   # free if cache is usable

    The store registers itself as a log listener on the scheme, so every
    update the scheme performs is captured automatically.
    """

    def __init__(self, scheme: LabelingScheme, log_capacity: int = 0) -> None:
        self.scheme = scheme
        self.log = ModificationLog(log_capacity)
        self.counters = CacheCounters()
        self._snapshot = self.log.snapshot(advance_epoch=False)
        scheme.add_log_listener(self._record)

    def _record(self, effect: Effect) -> None:
        """Log ``effect`` and take the snapshot reads are served at."""
        self.log.record(effect)
        self._snapshot = self.log.snapshot(advance_epoch=False)

    def close(self) -> None:
        """Detach from the scheme's log stream."""
        self.scheme.remove_log_listener(self._record)

    def reference(self, lid: int, channel: str = LABEL_CHANNEL) -> LabelRef:
        """Create an augmented reference for ``lid`` with a warm cache."""
        ref = LabelRef(lid, channel=channel)
        self._refresh(ref)
        return ref

    def get(self, ref: LabelRef) -> Label:
        """Current label behind ``ref``, via cache, replay, or full lookup
        (:func:`serve_refs`).  A freed LID raises
        :class:`~repro.errors.UnknownLIDError`; a recycled one reads its
        new label."""
        values, missed, replayed = serve_refs(
            {ref.lid: ref}, (ref.lid,), self._snapshot, self.scheme.clock, ref.channel
        )
        if missed is not None:
            self.counters.fallthrough_reads += 1
            return self._refresh(ref)
        self.counters.replay_hits += replayed
        self.counters.fresh_hits += 1 - replayed
        return values[0]

    def _refresh(self, ref: LabelRef) -> Label:
        (value,) = self.scheme.lookup_many((ref.lid,), ref.channel)
        ref.value = value
        ref.last_cached = self.scheme.clock
        return value
