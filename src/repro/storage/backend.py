"""Pluggable block-storage backends.

A :class:`StorageBackend` owns block *residency*: payload storage,
allocation bookkeeping (id assignment and the free list), and the
durability point (:meth:`commit`).  Everything measured — I/O counting,
per-operation buffering, the LRU/SLRU cache — lives above it, in
:class:`~repro.storage.blockstore.BlockStore`, and stacks on any backend
unchanged.

Two implementations ship:

* :class:`MemoryBackend` (the default) keeps payloads as live Python
  objects in a dict.  It is byte-for-byte the storage behaviour the
  benchmarks have always measured: no serialization on any path, commit is
  a no-op.
* :class:`~repro.storage.filebackend.FileBackend` round-trips every block
  through :mod:`repro.storage.codec` into a real fixed-size-page file,
  with a write-ahead log making every commit atomic (see that module).

Backends raise ``KeyError`` for unallocated ids; :class:`BlockStore`
translates that into :class:`~repro.errors.BlockNotFoundError` so the
public error contract is unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator

#: A commit's tape: ``(encoder, outcome)`` per batch run under
#: :meth:`~repro.storage.BlockStore.taped`, ``encoder(outcome)`` its row;
#: None when blocks were dirtied outside every batch.
Tape = list[tuple[Callable[[str], bytes], str]] | None


class StorageBackend(ABC):
    """Abstract block residency layer.

    Allocation bookkeeping is shared by all backends and deliberately
    mirrors the historical :class:`BlockStore` behaviour exactly: freed ids
    are recycled LIFO, fresh ids count up from 1 (id 0 is the null
    pointer).
    """

    #: Durable transactions committed so far; a backend whose commit makes
    #: nothing durable (memory) counts none.
    commits = 0

    def __init__(self) -> None:
        self._next_id = 1  # block id 0 is reserved as "null pointer"
        self._free_ids: list[int] = []
        #: Optional :class:`~repro.faults.FaultInjector` consulted at the
        #: backend's named hook points.  None (the default) keeps every
        #: hook site at a single attribute check.
        self.fault_injector: Any = None

    # ------------------------------------------------------------------
    # allocation bookkeeping (shared)
    # ------------------------------------------------------------------

    def allocate(self, payload: Any = None) -> int:
        """Assign a block id (recycling freed ids LIFO) and store ``payload``."""
        block_id = self._free_ids.pop() if self._free_ids else self._next_id
        if block_id == self._next_id:
            self._next_id += 1
        self._install(block_id, payload)
        return block_id

    def free(self, block_id: int) -> None:
        """Release a block; its id may be recycled by later allocations.

        Raises ``KeyError`` if the block is not allocated.
        """
        self._discard(block_id)
        self._free_ids.append(block_id)

    @property
    def next_id(self) -> int:
        """The next never-used block id."""
        return self._next_id

    @property
    def free_ids(self) -> list[int]:
        """The current free list, in recycling (LIFO) order."""
        return list(self._free_ids)

    # ------------------------------------------------------------------
    # payload residency (backend-specific)
    # ------------------------------------------------------------------

    @abstractmethod
    def read(self, block_id: int) -> Any:
        """Return the payload behind ``block_id`` (``KeyError`` if absent).

        Uncounted: the :class:`BlockStore` above decides what costs I/O.
        """

    @abstractmethod
    def write(self, block_id: int, payload: Any) -> None:
        """Replace the payload behind ``block_id`` (``KeyError`` if absent)."""

    @abstractmethod
    def exists(self, block_id: int) -> bool:
        """Whether ``block_id`` is currently allocated."""

    @abstractmethod
    def block_ids(self) -> Iterator[int]:
        """All currently allocated block ids."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of currently allocated blocks."""

    @abstractmethod
    def _install(self, block_id: int, payload: Any) -> None:
        """Store the payload of a freshly allocated block."""

    @abstractmethod
    def _discard(self, block_id: int) -> None:
        """Drop the payload of a freed block (``KeyError`` if absent)."""

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def commit(self, dirty_ids: Iterable[int], tape: Tape = None) -> None:
        """Make the listed blocks (and all allocation state) durable.

        Called by :class:`BlockStore` when the outermost operation scope
        closes, with the :data:`Tape` of the batches that dirtied them.
        Volatile backends ignore it — but still expose
        the ``backend.commit`` hook point, so transient commit faults can
        be injected on any backend.
        """
        if self.fault_injector is not None:
            self.fault_injector.hit("backend.commit")

    def close(self) -> None:
        """Release any resources held by the backend."""


class MemoryBackend(StorageBackend):
    """Live-object block residency: the historical in-memory store.

    Payloads are the very objects the tree code mutates in place; nothing
    is ever serialized, and :meth:`commit` is a no-op — which is what makes
    counted I/Os byte-identical to the pre-backend ``BlockStore``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._blocks: dict[int, Any] = {}

    def read(self, block_id: int) -> Any:
        return self._blocks[block_id]

    def write(self, block_id: int, payload: Any) -> None:
        if block_id not in self._blocks:
            raise KeyError(block_id)
        self._blocks[block_id] = payload

    def exists(self, block_id: int) -> bool:
        return block_id in self._blocks

    def block_ids(self) -> Iterator[int]:
        return iter(tuple(self._blocks))

    def __len__(self) -> int:
        return len(self._blocks)

    def _install(self, block_id: int, payload: Any) -> None:
        self._blocks[block_id] = payload

    def _discard(self, block_id: int) -> None:
        del self._blocks[block_id]

    def bulk_restore(
        self, blocks: dict[int, Any], next_id: int, free_ids: list[int]
    ) -> None:
        """Replace the backend's entire contents (snapshot load path)."""
        self._blocks = dict(blocks)
        self._next_id = next_id
        self._free_ids = list(free_ids)
