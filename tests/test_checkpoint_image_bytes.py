"""The bytes a checkpoint writes, pinned without a clock.

A served ``write_small`` submit (a new element and a new label before a
random anchor, plus the delete of the element added sixteen submits
earlier) costs its bytes mostly at checkpoints, so what one checkpoint
writes decides that workload's ``write_bytes_per_op``.  This runs the
same shape of tape in-process on a bulk-loaded W-BOX at the benchmark's
block size and pins:

* which pages the checkpoint writes — a count the codec cannot change;
* every byte the checkpoint puts through :class:`~repro.storage.disk.Disk`
  on any file — page images, directory, header slot, the seal's manifest
  — against the figure of the previous page-file layout (version 3: each
  image logged as a WAL PUT, then written again into a fixed slot, with
  the directory logged and written too).  Writing each image once, into
  an extent, must keep the total at most 60 % of that.

The count is host-independent: no clock, no fsync, no file-system
detail.  Regenerate the figures (only for a deliberate change of the
tape or of the insert paths) with::

    PYTHONPATH=src python -m tests.test_checkpoint_image_bytes
"""

import random

from repro import BatchOp, WBox
from repro.config import BENCH_CONFIG
from repro.persist import checkpoint_scheme
from repro.storage import BlockStore, FileBackend
from repro.storage.disk import Disk

LABELS = 20_000
SUBMITS = 300
#: A submit deletes the element inserted this many submits before it.
DELETE_LAG = 16
SEED = 7

#: Pages the checkpoint writes after the tape.
PAGES = 335
#: Bytes the same checkpoint put through ``Disk`` with page file version
#: 3 and WAL version 4 (PUT + ABSOLUTE records, then the slots).
SLOTTED_CHECKPOINT_BYTES = 94_837


def checkpoint_bytes(tmp_path, monkeypatch) -> tuple[int, int]:
    """Run the tape in one durable scope, then checkpoint; returns the
    pages the checkpoint wrote and every byte it put through ``Disk``."""
    backend = FileBackend(str(tmp_path / "w.pages"))
    store = BlockStore(BENCH_CONFIG, backend=backend)
    scheme = WBox(BENCH_CONFIG, store=store)
    lids = scheme.bulk_load(LABELS)
    checkpoint_scheme(scheme)
    rng = random.Random(SEED)
    elements = []
    with store.durable():
        for index in range(SUBMITS):
            anchor = lids[rng.randrange(LABELS)]
            ops = [
                BatchOp("insert_element_before", (anchor,)),
                BatchOp("insert_before", (anchor,)),
            ]
            if index >= DELETE_LAG:
                ops.append(BatchOp("delete_element", elements[index - DELETE_LAG]))
            elements.append(tuple(scheme.execute_batch(ops).results[0]))
    written = [0]
    put = Disk.put

    def counted(disk, handle, data):
        written[0] += len(data)
        return put(disk, handle, data)

    monkeypatch.setattr(Disk, "put", counted)
    pages = backend.page_writes
    backend.checkpoint()
    monkeypatch.undo()
    backend.close()
    return backend.page_writes - pages, written[0]


def test_a_checkpoint_writes_each_page_image_once(tmp_path, monkeypatch):
    pages, written = checkpoint_bytes(tmp_path, monkeypatch)
    assert pages == PAGES
    assert written <= 0.6 * SLOTTED_CHECKPOINT_BYTES, written


if __name__ == "__main__":
    import pathlib
    import tempfile

    from _pytest.monkeypatch import MonkeyPatch

    with tempfile.TemporaryDirectory() as workdir:
        pages, written = checkpoint_bytes(pathlib.Path(workdir), MonkeyPatch())
    print(f"pages {pages}, bytes through Disk {written} ({written / pages:.1f} a page)")
