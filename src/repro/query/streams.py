"""Ordered-axis query streams over a pinned service epoch.

The lookup-heavy counterpart of the update-heavy workloads: descendant /
following / ancestor(-at-depth) streams evaluated purely from the labels
of a *catalog* of elements, read through a pinned
:class:`~repro.service.sharded.ShardedReaderSession` so every stream
reflects exactly one published epoch vector: a view is built from one
``lookup_many``, whose values are all exact at the pins it returns with.

Three layers:

* :class:`ElementCatalog` — the versioned registry of element
  ``(start_lid, end_lid)`` pairs queries range over.  The labels
  themselves live in the scheme; the catalog is only the *identity* of
  the queryable elements (the net server grows it from acked
  ``insert_element_before`` results, tests seed it from bulk loads).
* :class:`EpochView` — an immutable index built from **one**
  epoch-consistent ``lookup_many`` round over the catalog: elements in
  document order, parent pointers and depths recovered from nesting.
  Everything a stream yields comes from this snapshot, so a result set
  can never mix epochs ("no torn results").
* :class:`QueryEngine` — the cheap façade that rebuilds the view only
  when the catalog version or the session pin moved, and exposes the
  axis streams.  :meth:`ShardedLabelService.query()
  <repro.service.sharded.ShardedLabelService.query>` hands one out.

Document order across shards needs no special casing: the sharded
partition is contiguous chunks in document order, so the router's sort
key ``(shard index, label)`` *is* global document order — even for
elements whose start and end tags live on different shards.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..core.document import LabeledDocument
from ..errors import LabelingError, UnknownLIDError
from ..xml.model import Element

if TYPE_CHECKING:  # the service builds engines; importing it here would cycle
    from ..service.sharded import ShardedReaderSession

__all__ = ["ElementCatalog", "EpochView", "QueryEngine", "document_view"]

#: An element's identity: its (start LID, end LID) pair.
ElementPair = tuple[int, int]


def _label(_lid: int, label: Any) -> Any:
    """The identity sort key: one scheme's labels are document order."""
    return label


class ElementCatalog:
    """A thread-safe, versioned registry of queryable element pairs.

    Insertion order is irrelevant — document order is recovered from the
    labels at view-build time — so adds and removes are O(1) dict ops.
    The version counter is what lets engines cache views: any mutation
    bumps it, and a view built at version *v* is exact for version *v*.
    """

    def __init__(self, pairs: Iterable[ElementPair] = ()) -> None:
        self._lock = threading.Lock()
        self._pairs: dict[ElementPair, None] = dict.fromkeys(
            (int(start), int(end)) for start, end in pairs
        )
        self._version = 0

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair: ElementPair) -> bool:
        return tuple(pair) in self._pairs

    def add(self, start_lid: int, end_lid: int) -> None:
        with self._lock:
            self._pairs[(int(start_lid), int(end_lid))] = None
            self._version += 1

    def remove(self, start_lid: int, end_lid: int) -> None:
        with self._lock:
            self._pairs.pop((int(start_lid), int(end_lid)), None)
            self._version += 1

    def snapshot(self) -> tuple[int, list[ElementPair]]:
        """An atomic (version, pairs) snapshot."""
        with self._lock:
            return self._version, list(self._pairs)


class EpochView:
    """An immutable document-order index of a catalog at one epoch.

    Built from a single epoch-consistent label round; every stream
    answer is derived from the arrays here, so results never mix epochs.
    """

    __slots__ = (
        "epochs",
        "catalog_version",
        "pairs",
        "_start_keys",
        "_end_keys",
        "_parents",
        "_depths",
        "_index",
    )

    def __init__(
        self,
        epochs: tuple[int, ...],
        catalog_version: int,
        pairs: list[ElementPair],
        start_keys: list[Any],
        end_keys: list[Any],
    ) -> None:
        #: The pinned epoch vector's numbers the labels were read at.
        self.epochs = epochs
        self.catalog_version = catalog_version
        #: Element pairs in document order (sorted by start label).
        self.pairs = pairs
        self._start_keys = start_keys
        self._end_keys = end_keys
        self._index = {pair: position for position, pair in enumerate(pairs)}
        # Nesting recovery: starts are sorted, so a stack of open
        # elements (those whose end key exceeds the incoming start's end
        # key) yields parent pointers and depths in one pass.
        parents = [-1] * len(pairs)
        depths = [0] * len(pairs)
        stack: list[int] = []
        for position in range(len(pairs)):
            while stack and end_keys[stack[-1]] < end_keys[position]:
                stack.pop()
            if stack:
                parents[position] = stack[-1]
                depths[position] = depths[stack[-1]] + 1
            stack.append(position)
        self._parents = parents
        self._depths = depths

    @classmethod
    def build(
        cls,
        pairs: Sequence[ElementPair],
        labels: Sequence[Any],
        key: Callable[[int, Any], Any] = _label,
        epochs: tuple[int, ...] = (),
        version: int = 0,
    ) -> "EpochView":
        """The view of ``pairs`` from one label round: ``labels[2 * i]``
        and ``labels[2 * i + 1]`` are pair ``i``'s start and end labels
        (one ``lookup_many`` over the flattened pairs), ordered by
        ``key(lid, label)``."""
        keyed = []
        for position, pair in enumerate(pairs):
            start_key = key(pair[0], labels[2 * position])
            end_key = key(pair[1], labels[2 * position + 1])
            if not start_key < end_key:
                raise LabelingError(
                    f"catalog pair {pair!r} is not a (start, end) element"
                )
            keyed.append((start_key, end_key, pair))
        keyed.sort()
        return cls(
            epochs,
            version,
            [pair for _s, _e, pair in keyed],
            [start for start, _e, _p in keyed],
            [end for _s, end, _p in keyed],
        )

    def __len__(self) -> int:
        return len(self.pairs)

    def _position(self, element: ElementPair) -> int:
        try:
            return self._index[tuple(element)]
        except KeyError:
            raise LabelingError(
                f"element {tuple(element)!r} is not in this view's catalog"
            ) from None

    def depth(self, element: ElementPair) -> int:
        """Nesting depth of ``element`` within the catalog (roots are 0)."""
        return self._depths[self._position(element)]

    # -- axis streams (generators, document order) ---------------------

    def span(self, element: ElementPair) -> tuple[int, int]:
        """``element``'s descendants as the range ``[position + 1, limit)``
        of the start-sorted array, ``position`` being its own: the
        elements that start before it ends, found by one bisection."""
        position = self._position(element)
        limit = bisect_left(self._start_keys, self._end_keys[position], position + 1)
        return position + 1, limit

    def descendants(self, element: ElementPair) -> Iterator[ElementPair]:
        """Catalog elements properly contained in ``element``, in
        document order: the pairs in its :meth:`span`."""
        for inner in range(*self.span(element)):
            yield self.pairs[inner]

    def following(self, element: ElementPair) -> Iterator[ElementPair]:
        """Catalog elements that begin after ``element`` ends (the XPath
        ``following`` axis restricted to the catalog), document order."""
        for later in range(self.span(element)[1], len(self.pairs)):
            yield self.pairs[later]

    def ancestors(self, element: ElementPair) -> Iterator[ElementPair]:
        """Proper ancestors of ``element`` within the catalog, nearest
        first (XPath ``ancestor`` axis order)."""
        position = self._parents[self._position(element)]
        while position != -1:
            yield self.pairs[position]
            position = self._parents[position]

    def ancestor_at_depth(self, element: ElementPair, depth: int) -> ElementPair | None:
        """The proper ancestor of ``element`` at nesting depth ``depth``
        (roots are depth 0), or ``None`` when the element sits at or
        above that depth."""
        position = self._position(element)
        if not 0 <= depth < self._depths[position]:
            return None
        while self._depths[position] != depth:
            position = self._parents[position]
        return self.pairs[position]


class QueryEngine:
    """Axis streams for one (session, catalog) pair.

    Rebuilding the view is the only label I/O; it happens lazily, and
    only when the catalog changed or the session pin moved.  Engines are
    as thread-safe as their session — i.e. use one per reader thread,
    exactly like sessions themselves.
    """

    def __init__(
        self,
        session: "ShardedReaderSession",
        catalog: ElementCatalog | Iterable[ElementPair],
    ) -> None:
        if not isinstance(catalog, ElementCatalog):
            catalog = ElementCatalog(catalog)
        self.session = session
        self.catalog = catalog
        self._view: EpochView | None = None

    def view(self) -> EpochView:
        """The current epoch's view, rebuilt only when stale.

        Snapshot the catalog and read every label in one ``lookup_many``:
        its values are exact for the pin at return, so the view is built at
        that pin.  Only a catalog that moved under a dead LID is retried.
        """
        view = self._view
        if (
            view is not None
            and view.catalog_version == self.catalog.version
            and view.epochs == self.session.vector.numbers
        ):
            return view
        while True:
            version, pairs = self.catalog.snapshot()
            lids = [lid for pair in pairs for lid in pair]
            try:
                labels = self.session.lookup_many(lids)
            except UnknownLIDError:
                # Catalog discipline is remove-*before*-the-delete-commits,
                # so a dead LID in our snapshot means the snapshot raced a
                # concurrent removal — the catalog has already moved on.
                # Retry with a fresh snapshot; if the catalog did NOT move,
                # it genuinely names a dead element and the error stands.
                if self.catalog.version != version:
                    continue
                raise
            self._view = EpochView.build(
                pairs,
                labels,
                key=self.session.router.order_key,
                epochs=self.session.vector.numbers,
                version=version,
            )
            return self._view

    # -- convenience streams (always against the fresh view) -----------

    def descendants(self, element: ElementPair) -> Iterator[ElementPair]:
        return self.view().descendants(element)

    def following(self, element: ElementPair) -> Iterator[ElementPair]:
        return self.view().following(element)

    def ancestors(self, element: ElementPair) -> Iterator[ElementPair]:
        return self.view().ancestors(element)

    def ancestor_at_depth(self, element: ElementPair, depth: int) -> ElementPair | None:
        return self.view().ancestor_at_depth(element, depth)


def document_view(
    doc: LabeledDocument, elements: Iterable[Element]
) -> tuple[EpochView, dict[ElementPair, Element]]:
    """The view of ``elements`` of ``doc``, every label read in one
    ``lookup_many``, and the map from each view pair back to its element.

    This is the library operators' one label read: containment joins,
    twigs and XPath's result order all run on the view it returns.
    """
    by_pair = {(doc.start_lid(e), doc.end_lid(e)): e for e in elements}
    labels = doc.scheme.lookup_many([lid for pair in by_pair for lid in pair])
    return EpochView.build(list(by_pair), labels), by_pair
