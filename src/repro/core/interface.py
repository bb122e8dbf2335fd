"""The labeling-scheme interface (Section 3 of the paper).

A *labeling scheme* assigns every start and end tag an integer (or, for
B-BOX, a component-vector) label whose ordering matches document order.
Labels are referenced through *immutable label IDs* (LIDs): records in the
LIDF heap file that can be duplicated freely in a database because they
never change, while the label value behind them may.

Supported operations (paper, Section 3):

* ``lookup(lid)`` — the current label value behind ``lid``;
  ``lookup_many(lids, channel)`` reads a set of them in one operation.
* ``insert_element_before(lid)`` — insert a new element immediately before
  the tag identified by ``lid``; returns the new element's (start, end)
  LIDs.  Implemented, as in the paper, with two low-level
  ``insert_before`` calls.
* ``delete(lid)`` — remove one label; deleting an element means deleting
  both of its labels (children are implicitly promoted).
* bulk loading and subtree insert/delete.

Every scheme owns (or shares) a :class:`~repro.storage.BlockStore` and a
:class:`~repro.storage.HeapFile` LIDF, and counts its I/Os there.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Any, Callable, Sequence

from ..config import BoxConfig
from ..errors import OrdinalUnsupportedError
from ..storage import BlockStore, HeapFile, IOStats

#: A label: an int for W-BOX / naive-k, a tuple of ints for B-BOX.
Label = Any

#: Callback type for modification-log listeners (see core.cachelog).
LogListener = Callable[[Any], None]

#: Value channels: regular labels, and ordinal labels (document positions).
#: Modification-log effects and cached references carry one each.
LABEL_CHANNEL = "label"
ORDINAL_CHANNEL = "ordinal"


class LabelKind(Enum):
    """Whether a LID names a start or an end label."""

    START = 0
    END = 1


class LabelingScheme(ABC):
    """Abstract base for every dynamic labeling scheme in this package."""

    #: Short scheme name used in benchmark tables, e.g. ``"W-BOX"``.
    name: str = "abstract"
    #: Whether :meth:`bulk_load` refuses to run without a tag pairing.
    bulk_needs_pairing: bool = False

    def __init__(
        self,
        config: BoxConfig | None = None,
        store: BlockStore | None = None,
    ) -> None:
        self.config = config if config is not None else BoxConfig()
        self.store = store if store is not None else BlockStore(self.config)
        self.lidf = HeapFile(self.store, self.config)
        self._log_listeners: list[LogListener] = []
        #: Logical modification clock; bumped once per label-changing
        #: operation (the caching layer's timestamps come from here).
        self.clock = 0

    # ------------------------------------------------------------------
    # required low-level operations
    # ------------------------------------------------------------------

    @abstractmethod
    def lookup(self, lid: int) -> Label:
        """Return the current label value identified by ``lid``."""

    @abstractmethod
    def insert_before(self, lid_old: int) -> int:
        """Insert a new label immediately before the one identified by
        ``lid_old``; returns the new label's LID."""

    @abstractmethod
    def delete(self, lid: int) -> None:
        """Remove the label identified by ``lid`` and free its LIDF record."""

    @abstractmethod
    def bulk_load(self, n_labels: int, pairing: "list[int] | None" = None) -> list[int]:
        """Load ``n_labels`` fresh labels in document order into an empty
        structure; returns their LIDs in that order.

        The caller supplies only the count because document order is all a
        labeling scheme needs — a single scan of the document produces the
        records in exactly their intended order (Section 4).  ``pairing``
        optionally maps each tag position to its partner tag's position
        (start <-> end of the same element); only W-BOX-O requires it
        (:attr:`bulk_needs_pairing`).
        """

    @abstractmethod
    def label_count(self) -> int:
        """Number of live labels currently maintained."""

    # ------------------------------------------------------------------
    # optional operations with default implementations
    # ------------------------------------------------------------------

    def compare(self, lid1: int, lid2: int) -> int:
        """Document-order comparison of two labels: -1, 0, or +1.

        The default materializes both labels; B-BOX overrides this with the
        cheaper lowest-common-ancestor walk.
        """
        label1, label2 = self.lookup(lid1), self.lookup(lid2)
        return (label1 > label2) - (label1 < label2)

    def lookup_pair(self, start_lid: int, end_lid: int) -> tuple[Label, Label]:
        """Return (start, end) labels of one element.

        W-BOX-O overrides this to answer from the start record alone.
        """
        return self.lookup(start_lid), self.lookup(end_lid)

    def lookup_many(self, lids: Sequence[int], channel: str = LABEL_CHANNEL) -> list:
        """Values on ``channel`` — labels, or ordinals with
        ``ORDINAL_CHANNEL`` — for ``lids``, in order, read in one operation
        scope so a block several of them share is counted once.  Raises
        what the per-LID :meth:`lookup` / :meth:`ordinal_lookup` raises.

        The default makes the per-LID calls; B-BOX overrides it with one
        bottom-up walk that visits each shared ancestor once.
        """
        read = self.ordinal_lookup if channel == ORDINAL_CHANNEL else self.lookup
        if len(lids) == 1:  # nothing to share; the lookup is its own scope
            return [read(lids[0])]
        with self.store.operation():
            return [read(lid) for lid in lids]

    def ordinal_lookup(self, lid: int) -> int:
        """The *ordinal* label: the exact 0-based position of the tag in the
        document.  Only available on schemes built with ordinal support."""
        raise OrdinalUnsupportedError(f"{self.name} was built without ordinal support")

    @property
    def supports_ordinal(self) -> bool:
        """Whether :meth:`ordinal_lookup` works on this instance."""
        return False

    def insert_subtree_before(
        self, lid_old: int, n_labels: int, pairing: "list[int] | None" = None
    ) -> list[int]:
        """Insert ``n_labels`` new labels (a whole XML subtree's tags, in
        document order) immediately before ``lid_old``; returns their LIDs.

        The default falls back to repeated :meth:`insert_before`; W-BOX and
        B-BOX override it with their bulk subtree-insert algorithms.
        ``pairing`` maps each new tag position to its partner's position
        within the inserted run (needed by W-BOX-O only).
        """
        del pairing
        lids: list[int] = []
        anchor = lid_old
        for _ in range(n_labels):
            anchor = self.insert_before(anchor)
            lids.append(anchor)
        # Repeated insert-before(anchor) builds the run back-to-front.
        lids.reverse()
        return lids

    def delete_range(self, first_lid: int, last_lid: int) -> list[int]:
        """Delete every label from ``first_lid``'s through ``last_lid``'s
        position inclusive (a subtree's contiguous label range); returns the
        deleted LIDs in document order.

        The default falls back to per-label deletes and therefore needs the
        caller to pass a range it can enumerate by repeated comparison;
        schemes override this with their bulk subtree-delete algorithms.
        """
        raise NotImplementedError(f"{self.name} does not implement delete_range")

    # ------------------------------------------------------------------
    # element-level convenience (the paper's insert-element-before)
    # ------------------------------------------------------------------

    def insert_element_before(self, lid: int) -> tuple[int, int]:
        """Insert a new element immediately before the tag behind ``lid``.

        If ``lid`` is a start label, the new element becomes that element's
        previous sibling; if an end label, the new element becomes the last
        child.  Implemented exactly as the paper specifies: allocate two
        LIDF records, then ``insert_before(lid2, lid)`` followed by
        ``insert_before(lid1, lid2)``.
        """
        with self.store.operation():
            end_lid = self.insert_before(lid)
            start_lid = self.insert_before(end_lid)
        return start_lid, end_lid

    def delete_element(self, start_lid: int, end_lid: int) -> None:
        """Delete an element's two labels; its children are implicitly
        promoted to the deleted element's parent."""
        with self.store.operation():
            self.delete(start_lid)
            self.delete(end_lid)

    # ------------------------------------------------------------------
    # batched execution (group commit)
    # ------------------------------------------------------------------

    def execute_batch(self, ops: Sequence[Any], group_size: int = 64) -> Any:
        """Run a sequence of :class:`~repro.core.batch.BatchOp` items with
        group commit: ops are executed in submission order, partitioned
        into groups that each share one operation scope, so block I/O is
        coalesced across the group, and the whole run is one durable
        commit.  Returns a :class:`~repro.core.batch.BatchResult`.
        """
        from .batch import BatchExecutor

        executor = BatchExecutor(self, group_size=group_size)
        return executor.execute(ops)

    # ------------------------------------------------------------------
    # bookkeeping shared by all schemes
    # ------------------------------------------------------------------

    @property
    def stats(self) -> IOStats:
        """The shared I/O counters."""
        return self.store.stats

    def add_log_listener(self, listener: LogListener) -> None:
        """Subscribe a modification-log listener (see
        :class:`repro.core.cachelog.ModificationLog`).  Listeners receive
        effect objects describing how each update changed existing labels."""
        self._log_listeners.append(listener)

    def remove_log_listener(self, listener: LogListener) -> None:
        """Unsubscribe a previously added listener."""
        self._log_listeners.remove(listener)

    def _emit(self, effect: Any) -> None:
        """Deliver one update effect to all listeners."""
        for listener in self._log_listeners:
            listener(effect)

    def _tick(self) -> int:
        """Advance and return the modification clock."""
        self.clock += 1
        return self.clock

    # ------------------------------------------------------------------
    # persistence (see repro.persist: snapshots and commit metadata)
    # ------------------------------------------------------------------

    def persist_state(self) -> dict[str, Any]:
        """The scheme's own persistent state as a JSON-able dict: counters,
        root pointers, and the constructor flags :meth:`from_persisted`
        reads back.  Read at *every* file-backend commit, so keep it O(1)
        — state derivable from the LIDF records is rebuilt in
        :meth:`restore_state` instead.  Values of type ``int`` are
        journaled by difference with each commit and must stay ints; any
        other value reaches disk only with a checkpoint, so it must be a
        constant of the instance (a constructor flag).  Subclasses extend
        the base dict; key order is part of the snapshot format.
        """
        return {"clock": self.clock}

    def restore_state(self, meta: dict[str, Any]) -> None:
        """Adopt the state :meth:`persist_state` produced.  The blocks
        and the LIDF directory are already in place when this runs."""
        self.clock = meta["clock"]

    @classmethod
    def from_persisted(cls, config: BoxConfig, meta: dict[str, Any]) -> "LabelingScheme":
        """A fresh, empty scheme of the flavour ``meta`` describes, on a
        default in-memory store (the caller restores or swaps the store,
        then calls :meth:`restore_state`)."""
        del meta
        return cls(config)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------

    @abstractmethod
    def label_bit_length(self) -> int:
        """Bits required to represent the largest label value currently
        assignable (the paper's first metric, "length of a label in bits")."""

    def space_blocks(self) -> int:
        """Total blocks used by the structure and its LIDF."""
        return self.store.block_count

    def describe(self) -> dict[str, Any]:
        """A small diagnostic summary (name, labels, blocks, bits)."""
        return {
            "scheme": self.name,
            "labels": self.label_count(),
            "blocks": self.space_blocks(),
            "label_bits": self.label_bit_length(),
        }

