"""The LIDF journal's meaning, written down as an interpreter.

Every DELTA carries the allocation ops :meth:`HeapFile._log` journals.
Recovery re-runs logged tapes and compares the journals they produce
rather than folding them, so nothing in ``src/`` interprets the ops;
this reference does, and ``tests/test_heapfile.py`` holds the live file
to it: folded over an older directory, a journal must reproduce the
newer one — free-heap order included.
"""

import heapq
from typing import Iterator

from repro.errors import PersistError
from repro.storage.heapfile import _J_BLOCK, _J_FREE, _J_POP, _J_TAIL


def fold_lidf_journal(
    block_ids: list[int], free: list[int], ops: Iterator[int]
) -> tuple[int, int]:
    """Replay journaled allocation ops (an iterator of ints, two per op)
    onto an LIDF directory's block list and free heap, in place; returns
    how far they move its tail and its live count."""
    tail = live = 0
    for code, arg in zip(ops, ops):
        if code == _J_TAIL:
            tail += arg
            live += arg
        elif code == _J_POP:
            for _ in range(arg):
                heapq.heappop(free)
            live += arg
        elif code == _J_FREE:
            heapq.heappush(free, arg)
            live -= 1
        elif code == _J_BLOCK:
            block_ids.append(arg)
        else:
            raise PersistError(f"unknown LIDF journal op {code}")
    return tail, live
