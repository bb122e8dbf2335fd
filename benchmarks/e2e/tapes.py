"""Seeded op tapes and the harness's own model of document order.

Every tape is a pure function of ``--seed`` and fixed op counts — never of
elapsed time or a calibrated rate — so two runs of one seed send the same
bytes.  The order model is the oracle replies are checked against; it
shares no code with the program under test.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Sequence

from repro.core import BatchOp

#: Size of the hot LID set (fits every session's ref cache; each hot LID
#: is touched during warm-up so measured hot reads are cache hits).
HOT_LIDS = 4096

#: A tape deletes the element it inserted this many submits earlier, so
#: the structure stays near its bulk-loaded size and frees get exercised.
DELETE_LAG = 16


def sign(a: Any, b: Any) -> int:
    return (a > b) - (a < b)


class OrderModel:
    """Document order of the bulk-loaded labels plus everything the tape
    inserted, kept by the harness alone.

    Base LIDs are bulk-loaded as one contiguous document-order chunk per
    shard (global LID ``g`` lives on shard ``g % n`` at position
    ``g // n``), and every tape anchor is a base LID, so the labels
    inserted before anchor ``a`` form a list in insertion order directly
    in front of ``a``.  Labels on different shards compare by shard index.
    """

    def __init__(self, shards: int) -> None:
        self.shards = shards
        self._before: dict[int, list[int]] = {}
        self._anchor: dict[int, int] = {}

    def key(self, lid: int) -> tuple[int, int, int, int]:
        anchor = self._anchor.get(lid)
        if anchor is None:
            return (lid % self.shards, lid // self.shards, 1, 0)
        slot = self._before[anchor].index(lid)
        return (anchor % self.shards, anchor // self.shards, 0, slot)

    def compare(self, a: int, b: int) -> int:
        return sign(self.key(a), self.key(b))

    def live_inserted(self) -> list[int]:
        return list(self._anchor)

    def apply(self, ops: Sequence[BatchOp], results: Sequence[Any]) -> None:
        """Fold one acked submit (ops + positional results) into the model."""
        for op, result in zip(ops, results):
            if op.kind == "insert_element_before":
                self._insert(op.args[0], list(result))
            elif op.kind == "insert_before":
                self._insert(op.args[0], [result])
            elif op.kind == "delete_element":
                for lid in op.args:
                    self._before[self._anchor.pop(lid)].remove(lid)

    def _insert(self, anchor: int, lids: list[int]) -> None:
        self._before.setdefault(anchor, []).extend(lids)
        for lid in lids:
            self._anchor[lid] = anchor


def check_lookup(model: OrderModel, lids: Sequence[int], labels: Sequence[Any]) -> bool:
    """Labels of one reply are strictly increasing in document order of
    their LIDs within each shard (labels of different shards are not
    comparable), and equal for a repeated LID."""
    if len(labels) != len(lids):
        return False
    ordered = sorted(zip((model.key(lid) for lid in lids), labels), key=lambda p: p[0])
    for (key1, label1), (key2, label2) in zip(ordered, ordered[1:]):
        if key1[0] != key2[0]:
            continue
        if (label1 == label2) != (key1 == key2) or label1 > label2:
            return False
    return True


def check_compare(
    model: OrderModel, pairs: Sequence[tuple[int, int]], orders: Sequence[int]
) -> bool:
    return len(orders) == len(pairs) and all(
        model.compare(a, b) == order for (a, b), order in zip(pairs, orders)
    )


class ReadTape:
    """``Lookup``/``Compare`` frames over a hot set and a cold stream.

    A ``Lookup`` carries 4 LIDs: three drawn from the hot set (session
    ref-cache hits after warm-up) and one taken without replacement from a
    seeded permutation of the remaining LIDs — always a first touch, so it
    falls through to a latched BOX read via BlockStore and the backend.
    A ``Compare`` carries 4 hot pairs.
    """

    def __init__(self, rng: random.Random, labels: int) -> None:
        self._rng = rng
        self.hot = rng.sample(range(labels), HOT_LIDS)
        hot = set(self.hot)
        self._cold = [lid for lid in range(labels) if lid not in hot]
        rng.shuffle(self._cold)

    def warmup_frames(self) -> list[tuple]:
        return [("lookup", tuple(self.hot[i:i + 4])) for i in range(0, HOT_LIDS, 4)]

    def lookup(self) -> tuple:
        rng = self._rng
        lids = [rng.choice(self.hot) for _ in range(3)]
        lids.insert(rng.randrange(4), self._cold.pop())
        return ("lookup", tuple(lids))

    def compare(self) -> tuple:
        rng = self._rng
        return ("compare", tuple((rng.choice(self.hot), rng.choice(self.hot)) for _ in range(4)))


def write_ops(anchor: int, victim: tuple[int, int] | None) -> list[BatchOp]:
    """One small submit: a new element and a new label before ``anchor``,
    plus the delete of an element inserted :data:`DELETE_LAG` submits ago."""
    ops = [
        BatchOp("insert_element_before", (anchor,)),
        BatchOp("insert_before", (anchor,)),
    ]
    if victim is not None:
        ops.append(BatchOp("delete_element", victim))
    return ops


def sample_pairs(
    rng: random.Random, population: Sequence[int], extra: Iterable[int], count: int
) -> list[tuple[int, int]]:
    """``count`` LID pairs for the post-run order check: half between
    inserted labels and base labels near them, half uniformly random."""
    extra = list(extra)
    pairs = []
    for index in range(count):
        if extra and index % 2 == 0:
            a = rng.choice(extra)
            b = rng.choice(extra) if index % 4 == 0 else rng.choice(population)
        else:
            a, b = rng.choice(population), rng.choice(population)
        pairs.append((a, b))
    return pairs
