"""O(delta) commits: what a commit journals, and that replaying it is exact.

A file-backend commit writes one log transaction ``[OPS, DELTA, COMMIT]``:
the tape of the batches it ran and the DELTA of what changed in the
directory (allocation state, LIDF directory, scheme scalars); reopening
re-runs the tapes over the last checkpoint and checks each DELTA.  Three
claims are pinned here:

* **replay ≡ absolute** (property): whatever tape ran, wherever
  checkpoints fell and wherever the process died, the reopened scheme's
  complete self-description equals a memory twin's that ran the same
  tape — free lists *in order* — and both go on allocating the same ids;
* **flat in the size of the structure**: the DELTA and tape of one fixed
  3-op submit have the same bytes on a 2k-label and a 20k-label store,
  and it logs no page image;
* **bounded replay**: commits alone keep the tape a reopen re-runs under
  ``CHECKPOINT_TAPE_BYTES`` plus one commit's.
"""

import os
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import BatchOp, WBox
from repro.core.batch import encode_batch
from repro.config import TINY_CONFIG, BoxConfig
from repro.persist import (
    checkpoint_scheme,
    open_file_scheme,
    scheme_metadata_header,
)
from repro.storage import BlockStore, FileBackend, scan_wal
from repro.storage import filebackend as filebackend_module

from . import taped
from .test_format_pin import FACTORIES

#: One tape step: insert before / insert an element before / delete the
#: drawn live LID, or checkpoint.  Deletes outnumber what a document edit
#: session would have so LIDs and blocks get recycled.
STEP = st.tuples(
    st.sampled_from(
        ["insert", "insert", "element", "delete", "delete", "delete", "checkpoint"]
    ),
    st.integers(min_value=0, max_value=1 << 16),
)


def _apply(scheme, lids, step):
    """One step, as one logged tape on a page file."""
    kind, draw = step
    if kind == "checkpoint":
        if isinstance(scheme.store.backend, FileBackend):
            checkpoint_scheme(scheme)
    elif kind == "delete" and len(lids) > 6:
        taped.delete(scheme, lids.pop(draw % len(lids)))
    elif kind == "element":
        lids.extend(taped.insert_element_before(scheme, lids[draw % len(lids)]))
    else:
        lids.append(taped.insert_before(scheme, lids[draw % len(lids)]))


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(tape=st.lists(STEP, min_size=5, max_size=120), data=st.data())
@settings(
    max_examples=20, deadline=None, suppress_health_check=list(HealthCheck)
)
def test_fold_equals_absolute(name, tape, data):
    crash_at = data.draw(st.integers(min_value=0, max_value=len(tape)))
    with tempfile.TemporaryDirectory(prefix="repro-fold-") as directory:
        path = os.path.join(directory, "t.pages")
        backend = FileBackend(
            path
        )
        scheme = FACTORIES[name](BlockStore(TINY_CONFIG, backend=backend))
        checkpoint_scheme(scheme)
        twin = FACTORIES[name](None)
        lids = scheme.bulk_load(16, [i ^ 1 for i in range(16)])
        twin_lids = twin.bulk_load(16, [i ^ 1 for i in range(16)])
        for step in tape[:crash_at]:
            _apply(scheme, lids, step)
            _apply(twin, twin_lids, step)
        assert lids == twin_lids
        # The crash: close() writes nothing, so this is the process dying
        # with the log as the commits left it.
        backend.close()

        reopened = open_file_scheme(path)
        try:
            assert scheme_metadata_header(reopened) == scheme_metadata_header(twin)
            assert [reopened.lookup(lid) for lid in lids] == [
                twin.lookup(lid) for lid in lids
            ]
            for step in range(20):
                anchor = lids[(7 * step) % len(lids)]
                assert reopened.insert_before(anchor) == twin.insert_before(anchor)
            assert [reopened.store.backend.allocate([]) for _ in range(20)] == [
                twin.store.backend.allocate([]) for _ in range(20)
            ]
        finally:
            reopened.store.backend.close()


def _three_op_delta(directory, n_labels):
    """The DELTA body of one fixed 3-op edit on an ``n_labels`` W-BOX."""
    config = BoxConfig(block_bytes=1024)
    path = os.path.join(directory, f"{n_labels}.pages")
    backend = FileBackend(path)
    scheme = WBox(config, store=BlockStore(config, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(n_labels, [i ^ 1 for i in range(n_labels)])
    checkpoint_scheme(scheme)
    scheme.execute_batch(  # one commit, as one service submit is
        [
            BatchOp("insert_element_before", (lids[40],)),
            BatchOp("insert_before", (lids[40],)),
            BatchOp("delete_element", (lids[60], lids[61])),
        ]
    )
    backend.close()
    (txn,) = scan_wal(path + ".wal").transactions
    assert txn.ops
    return txn.body, txn.ops


def test_delta_is_flat_in_the_size_of_the_structure(tmp_path):
    small, small_ops = _three_op_delta(str(tmp_path), 2_000)
    large, large_ops = _three_op_delta(str(tmp_path), 20_000)
    assert len(small) == len(large) <= 32
    assert small == large  # same LSN, same differences, same LIDF ops
    assert small_ops == large_ops and len(small_ops) <= 16


def test_commits_alone_keep_the_log_bounded(tmp_path, monkeypatch):
    """5,000 one-op commits, no explicit checkpoint: ``commit``
    checkpoints by itself on tape logged, so the live log never holds more
    tape than the constant plus the commit that crossed it — and that is
    all a reopen re-runs."""
    monkeypatch.setattr(filebackend_module, "CHECKPOINT_TAPE_BYTES", 4096)
    path = str(tmp_path / "t.pages")
    backend = FileBackend(path)
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
    wal = path + ".wal"

    def wal_size():  # a checkpoint seals the live log away
        return os.path.getsize(wal) if os.path.exists(wal) else 0

    size = wal_size()
    tape = checkpoints = 0
    for index in range(5_000):
        anchor = lids[(7 * index) % len(lids)]
        row = len(encode_batch([BatchOp("insert_before", (anchor,))], ""))
        lids.append(taped.insert_before(scheme, anchor))
        now = wal_size()
        if now < size:
            # Only the commit whose row crosses the bound checkpoints.
            checkpoints += 1
            assert tape <= 4096 < tape + row and backend._tape_bytes == 0
        else:
            assert backend._tape_bytes == tape + row <= 4096
        tape, size = backend._tape_bytes, now
    assert checkpoints >= 5 and backend.page_writes > 0
    tapes = [txn.ops for txn in scan_wal(wal).transactions]
    assert sum(map(len, tapes)) == tape
    labels = [scheme.lookup(lid) for lid in lids]
    backend.close()

    reopened = open_file_scheme(path)
    report = reopened.store.backend.recovery_report
    assert report["replayed_transactions"] == len(tapes) < 5_000
    assert report["lsn"] == backend.lsn
    assert [reopened.lookup(lid) for lid in lids] == labels
    reopened.store.backend.close()
