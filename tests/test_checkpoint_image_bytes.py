"""The bytes a checkpoint writes per page, pinned without a clock.

A served ``write_small`` submit (a new element and a new label before a
random anchor, plus the delete of the element added sixteen submits
earlier) costs its bytes mostly at checkpoints: every page the tape
dirtied goes out twice, once as a WAL PUT and once written back to the
page file.  So the size of a page image decides that workload's
``write_bytes_per_op``.  This runs the same shape of tape in-process on a
bulk-loaded W-BOX at the benchmark's block size and pins:

* which pages the checkpoint writes — a count the codec cannot change;
* the PUT bytes per page, against a bound set from plain varint rows
  (every LID and block pointer written absolute): delta-coded rows must
  keep the image at most 60 % of that.

Regenerate the figures (only for a deliberate change of the tape or of
the insert paths) with::

    PYTHONPATH=src python -m tests.test_checkpoint_image_bytes
"""

import random

from repro import BatchOp, WBox
from repro.config import BENCH_CONFIG
from repro.persist import checkpoint_scheme
from repro.storage import BlockStore, FileBackend, default_page_bytes

LABELS = 20_000
SUBMITS = 300
#: A submit deletes the element inserted this many submits before it.
DELETE_LAG = 16
SEED = 7

#: Pages the checkpoint writes after the tape.
PAGES = 335
#: PUT bytes per page with plain varint rows (page file version 2).
PLAIN_ROW_BYTES_PER_PAGE = 318.6


def checkpoint_puts(tmp_path) -> dict[int, bytes]:
    """Run the tape in one durable scope, then checkpoint; returns the
    page images the checkpoint logged as PUTs."""
    backend = FileBackend(
        str(tmp_path / "w.pages"), page_bytes=default_page_bytes(BENCH_CONFIG)
    )
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
    puts: dict[int, bytes] = {}
    append = backend._wal.append_transaction

    def logged(images, blob, **kwargs):
        puts.update(images)
        return append(images, blob, **kwargs)

    backend._wal.append_transaction = logged
    backend.checkpoint()
    backend.close()
    return puts


def test_a_checkpoint_logs_delta_coded_page_images(tmp_path):
    puts = checkpoint_puts(tmp_path)
    assert len(puts) == PAGES
    per_page = sum(map(len, puts.values())) / len(puts)
    assert per_page <= 0.6 * PLAIN_ROW_BYTES_PER_PAGE, per_page


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        images = checkpoint_puts(pathlib.Path(workdir))
    print(f"pages {len(images)}, PUT bytes per page "
          f"{sum(map(len, images.values())) / len(images):.1f}")
