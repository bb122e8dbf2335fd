"""B-BOX node layout.

A B-BOX node stores **no keys**: a leaf is an ordered list of LIDs, an
internal node an ordered list of child pointers.  Every node except the root
carries a *back-link* to its parent (``parent == 0`` marks the root), which
is what lets a label be reconstructed bottom-up — the label of a record is
the vector of child ordinals along its root-to-leaf path, ending with the
record's position in the leaf (Figure 4).

With ordinal support, internal nodes also keep a ``sizes`` list parallel to
``entries``: ``sizes[i]`` is the number of records in the subtree under
``entries[i]``.
"""

from __future__ import annotations

from ..kernels import cumulative, position_index, prefix


class BNode:
    """One B-BOX node (leaf or internal), stored as one block payload."""

    __slots__ = ("leaf", "parent", "entries", "sizes", "_cum_sizes", "_pos_index")

    def __init__(
        self,
        leaf: bool,
        parent: int = 0,
        entries: list[int] | None = None,
        sizes: list[int] | None = None,
    ) -> None:
        self.leaf = leaf
        self.parent = parent
        self.entries: list[int] = entries if entries is not None else []
        #: Parallel subtree sizes (internal nodes, ordinal mode only).
        self.sizes: list[int] | None = sizes
        # Lazily built cumulative sizes and entry-position index (see
        # repro.core.kernels); invalidated by touch(), which BlockStore.write
        # calls when the block is dirtied.
        self._cum_sizes: list[int] | None = None
        self._pos_index: dict[int, int] | None = None

    def touch(self) -> None:
        """Drop the cached prefix sums and position index (called by
        ``BlockStore.write``)."""
        self._cum_sizes = None
        self._pos_index = None

    def size_sums(self) -> list[int]:
        """Cumulative subtree sizes (internal nodes, ordinal mode)."""
        cum = self._cum_sizes
        if cum is None:
            assert self.sizes is not None
            cum = self._cum_sizes = cumulative(self.sizes)
        return cum

    def size_prefix(self, index: int) -> int:
        """Records in the subtrees of the first ``index`` children."""
        return prefix(self.size_sums(), index) if index > 0 else 0

    @property
    def is_root(self) -> bool:
        return self.parent == 0

    def index_of(self, entry: int) -> int:
        """Position of ``entry`` (a LID or child block id) in this node,
        for read paths: builds the position map, which later reads reuse."""
        index = self.position_map().get(entry)
        if index is None:
            raise ValueError(f"{entry} is not in list")
        return index

    def find(self, entry: int) -> int:
        """:meth:`index_of` for update paths: the position map only if a
        reader already built it, else a scan.  An update dirties the node
        next, and that write's ``touch()`` would drop a fresh map unused."""
        pos = self._pos_index
        if pos is not None and entry in pos:
            return pos[entry]
        return self.entries.index(entry)

    def position_map(self) -> dict[int, int]:
        """Entry-to-position map (lazily built, dropped by ``touch()``)."""
        pos = self._pos_index
        if pos is None:
            pos = self._pos_index = position_index(self.entries)
        return pos

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.leaf else "internal"
        return f"BNode({kind}, parent={self.parent}, n={len(self.entries)})"
