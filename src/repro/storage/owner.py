"""The owner's section: the tail of every page-file directory and DELTA.

A :class:`~repro.storage.filebackend.FileBackend` hands it to its one
``owner`` — the labeling structure, whose LIDF is its own (§3) — with
``delta()`` at commit, ``consumed()`` once that DELTA is durable and
``image()`` at checkpoint; a replay re-creates each DELTA and checks it
against the logged one, taking only its stamp (``logged_stamp``)::

    directory image:  scalars row | LIDF tail, live, block ids, free heap | JSON meta
    DELTA:            scalar-diff row | LIDF journal ops

The scalars (zigzag) are a stamp — replication's publish epoch — then the
scheme's ``persist_state()`` integers in key order.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator

from ..errors import PersistError
from .codec import append_uvarints, scan_uvarint, scan_uvarints


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else (-value << 1) - 1


def _unzigzag(raw: int) -> int:
    return (raw >> 1) ^ -(raw & 1)


class FoldedOwner:
    """The section decoded — ``scalars``, ``lidf`` (a
    :meth:`HeapFile.persist_state` dict), ``meta`` — which a backend opens
    with until :mod:`repro.persist` attaches a scheme's journal to adopt
    it.  It journals no change of its own."""

    #: Zero-arg callable whose integer is journaled as ``scalars[0]``;
    #: None keeps the last journaled value.
    stamp: Callable[[], int] | None = None

    def __init__(self, section: bytes | None = None) -> None:
        #: LIDF journal ops not journaled yet (a scheme's ``lidf.journal``).
        self.ops: list[int] = []
        self.scalars = [0]
        self.lidf = {"block_ids": [], "free": [], "tail": 0, "live": 0}
        self.meta: dict = {}
        if section is None:
            return

        def row(pos: int) -> tuple[list[int], int]:
            count, pos = scan_uvarint(section, pos)
            return scan_uvarints(section, pos, count)

        scalars, pos = row(0)
        self.scalars = [_unzigzag(raw) for raw in scalars]
        (self.lidf["tail"], self.lidf["live"]), pos = scan_uvarints(section, pos, 2)
        self.lidf["block_ids"], pos = row(pos)
        self.lidf["free"], pos = row(pos)
        try:
            self.meta = json.loads(section[pos:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise PersistError(f"corrupt directory metadata: {error}") from None

    def _integers(self) -> list[int]:
        """The owner's integers after the stamp, as they stand now."""
        return self.scalars[1:]

    def _description(self) -> tuple[dict[str, Any], dict]:
        """``(LIDF directory, meta)`` as they stand now."""
        return self.lidf, self.meta

    def delta(self) -> tuple[list[int], bool]:
        """The owner's part of a DELTA, and whether it changes anything: a
        new stamp alone does not (a checkpoint publishes no epoch), it
        rides with the next commit that does."""
        integers = self._integers()
        stamp = self.stamp() if self.stamp is not None else self.scalars[0]
        scalars = [stamp] + integers
        old = self.scalars + [0] * (len(scalars) - len(self.scalars))
        diffs = [_zigzag(new - was) for new, was in zip(scalars, old)]
        self._pending = scalars
        changed = bool(self.ops) or integers != self.scalars[1:]
        return [len(diffs), *diffs, *self.ops], changed

    def consumed(self) -> None:
        self.scalars = self._pending
        self.ops.clear()

    def image(self) -> bytes:
        lidf, meta = self._description()
        flat = [len(self.scalars), *map(_zigzag, self.scalars), lidf["tail"], lidf["live"]]
        flat.append(len(lidf["block_ids"]))
        flat += lidf["block_ids"]
        flat.append(len(lidf["free"]))
        flat += lidf["free"]
        out = bytearray()
        append_uvarints(out, flat)
        return bytes(out) + json.dumps(meta, sort_keys=True).encode("utf-8")

    def logged_stamp(self, row: Iterator[int]) -> int:
        """The stamp a DELTA's owner part ``row`` journals: its first
        scalar difference over the current stamp."""
        count = next(row)
        return self.scalars[0] + (_unzigzag(next(row)) if count else 0)
