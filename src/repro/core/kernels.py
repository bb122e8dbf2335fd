"""Prefix-sum hot-path kernels.

The W-BOX and B-BOX descent paths repeatedly need prefix aggregates over a
node's entries: "live records strictly left of child ``i``" for ordinal
lookups, and "accumulated weight up to the split point" when a
weight-balanced split picks where to cut.  Recomputing those with
``sum(entry.size for entry in node.entries[:i])``-style scans costs O(B)
Python-level work on every level of every visit.

These kernels replace the scans with *maintained cumulative arrays*: each
node lazily materializes ``itertools.accumulate`` of its per-entry values
(one C-level pass), answers prefix queries by a single index, and answers
split-point searches with :func:`bisect.bisect_right`.  The arrays are
invalidated wholesale whenever the node is dirtied — every structural
mutation in the package is followed by a ``BlockStore.write`` of the same
block, so the store's write path is the single invalidation choke point
(see ``BlockStore.write``).

None of this changes I/O accounting: the arrays live on the in-memory node
payloads and model block-internal computation, which the paper's cost model
(block transfers only) treats as free.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Sequence


def cumulative(values: Iterable[int]) -> list[int]:
    """Running totals of ``values`` (``out[i] = values[0] + ... + values[i]``)."""
    return list(accumulate(values))


def prefix(cum: Sequence[int], index: int) -> int:
    """Sum of the first ``index`` values underlying ``cum``."""
    return cum[index - 1] if index > 0 else 0


def weight_split_point(cum_weights: Sequence[int], target: int) -> tuple[int, int]:
    """Split position for a weight-balanced internal split.

    Replicates the paper's scan — accumulate child weights until adding the
    next child would exceed ``target``, always taking at least one child and
    always leaving at least one behind — as a single binary search over the
    cumulative-weight array.  Returns ``(split_point, left_weight)`` where
    ``left_weight`` is the weight of the children before ``split_point``.
    """
    point = bisect_right(cum_weights, target)
    if point == 0:
        point = 1
    if point >= len(cum_weights):
        point = len(cum_weights) - 1
    return point, (cum_weights[point - 1] if point > 0 else 0)


def position_index(entries: Sequence[int]) -> dict[int, int]:
    """Entry-to-position map for a node's child/LID array.

    Replaces repeated ``entries.index(x)`` scans — O(B) Python-level work
    per probe — with one O(B) dict build answering every later probe in
    O(1).  Like the cumulative arrays above, the map is cached on the node
    payload and invalidated wholesale by ``touch()`` when the block is
    dirtied; it models block-internal computation and costs no I/O.  It
    pays off only when several probes come before the node's next write,
    so only read paths build it (update paths probe with ``list.index``).
    """
    return {entry: index for index, entry in enumerate(entries)}

