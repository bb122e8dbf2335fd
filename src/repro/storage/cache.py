"""Block-replacement cache layer.

The cache policy used to live inline in :class:`~repro.storage.blockstore.BlockStore`;
it is now its own layer so it can be stacked on any
:class:`~repro.storage.backend.StorageBackend`.  The cache tracks block
*ids* only — payload residency is the backend's business — and implements
two replacement policies:

* ``"lru"``: one recency list.
* ``"slru"``: segmented LRU.  A miss enters a probationary segment; a
  probationary hit promotes the block to a protected segment holding 4/5 of
  the capacity; protected overflow demotes back to probation.  One-shot
  scans (bulk loads, subtree sweeps) then cannot flush the hot upper tree
  levels out of the cache.

The cache never counts I/O itself: :class:`BlockStore` consults
:meth:`lookup` / :meth:`insert` and does the :class:`~repro.storage.stats.IOStats`
accounting.

Every probe, admission, and eviction takes an internal lock: the label
service lets many readers fall through to latched BOX reads concurrently,
and each such read probes (and possibly reorders) these ``OrderedDict``
segments.  The lock serializes those structural mutations; the latch alone
does not, because readers share it with each other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import StorageError

#: Protected fraction of an SLRU cache's capacity (numerator / denominator).
_PROTECTED_FRACTION = (4, 5)


class BlockCache:
    """LRU / segmented-LRU cache over block ids.

    A ``capacity`` of 0 disables the cache: :meth:`lookup` always misses
    and :meth:`insert` is a no-op, reproducing the paper's caching-off
    measurements.
    """

    __slots__ = (
        "capacity",
        "mode",
        "_probation",
        "_protected",
        "protected_capacity",
        "probation_capacity",
        "_lock",
    )

    def __init__(self, capacity: int = 0, mode: str = "lru") -> None:
        if mode not in ("lru", "slru"):
            raise StorageError(f"cache_mode must be 'lru' or 'slru', got {mode!r}")
        if capacity < 0:
            raise StorageError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.mode = mode
        #: Recency list in "lru" mode; the probationary segment in "slru" mode.
        self._probation: OrderedDict[int, None] = OrderedDict()
        #: Protected segment ("slru" mode only).
        self._protected: OrderedDict[int, None] = OrderedDict()
        numerator, denominator = _PROTECTED_FRACTION
        self.protected_capacity = (numerator * capacity) // denominator
        self.probation_capacity = capacity - self.protected_capacity
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether the cache holds anything at all."""
        return self.capacity > 0

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._probation or block_id in self._protected

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def lookup(self, block_id: int) -> bool:
        """Probe the cache; on a hit, apply the policy's promotion rules."""
        with self._lock:
            if self.mode == "lru":
                if block_id not in self._probation:
                    return False
                self._probation.move_to_end(block_id)
                return True
            if block_id in self._protected:
                self._protected.move_to_end(block_id)
                return True
            if block_id in self._probation:  # probationary hit: promote
                del self._probation[block_id]
                self._protected[block_id] = None
                while len(self._protected) > self.protected_capacity:
                    demoted, _ = self._protected.popitem(last=False)
                    self._probation[demoted] = None
                    while len(self._probation) > self.probation_capacity:
                        self._probation.popitem(last=False)
                return True
            return False

    def insert(self, block_id: int) -> None:
        """Admit (or refresh) a block after a counted read or a write."""
        if self.capacity <= 0:
            return
        with self._lock:
            if self.mode == "lru":
                self._probation[block_id] = None
                self._probation.move_to_end(block_id)
                while len(self._probation) > self.capacity:
                    self._probation.popitem(last=False)
                return
            # SLRU: refresh a resident block in place; admit new blocks to
            # the probationary segment only.
            if block_id in self._protected:
                self._protected.move_to_end(block_id)
                return
            self._probation[block_id] = None
            self._probation.move_to_end(block_id)
            while len(self._probation) > self.probation_capacity:
                self._probation.popitem(last=False)

    def evict(self, block_id: int) -> None:
        """Drop a block from every segment (the ``free()`` path: a freed id
        may be recycled by a later allocation, and the stale entry must not
        masquerade as a hit for the reborn block)."""
        with self._lock:
            self._probation.pop(block_id, None)
            self._protected.pop(block_id, None)

