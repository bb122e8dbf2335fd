"""One durable commit per writer wake-up.

The writer's wake-up, not the locality group, is the unit of durability
and visibility: every batch queued when the writer wakes runs under one
exclusive latch, and the wake-up ends in one backend commit (one WAL
transaction, one log fsync) and one published epoch.  Locality groups
still cut measured I/O scopes, so counted I/O does not move; they are no
longer commit points.  Pinned here:

* a ``write_small``-shaped 3-op submit that plans as two groups costs one
  WAL transaction and one log fsync;
* a crash at the commit that follows the run's second group leaves none
  of the run's ops after reopen — no group is durable on its own;
* two tickets drained into one wake-up resolve independently: the first
  with its own results (durable across reopen), the second, naming a LID
  the first freed, with its own typed error — and they share one epoch.
"""

from __future__ import annotations

import time

import pytest

from repro import TINY_CONFIG, BatchExecutor, BatchOp, WBox
from repro.errors import CrashError, RecordNotFoundError
from repro.faults import FaultInjector, FaultPlan
from repro.persist import checkpoint_scheme, open_file_scheme
from repro.service import LabelService
from repro.storage import BlockStore, FileBackend

BASE = 64


def submit_behind_held_latch(service, scheme, batches):
    """Submit ``batches`` while the writer is parked on the store latch
    behind a first one-op wake-up, so they all queue up for the next one.
    Returns their tickets, in order."""
    latch = scheme.store.latch
    latch.acquire_shared()
    try:
        gate = service.submit_ops([BatchOp("lookup", (0,))], timeout=10)
        deadline = time.monotonic() + 10
        while not latch._writers_waiting and time.monotonic() < deadline:
            time.sleep(0.001)  # until the writer has the gate and waits
        tickets = [service.submit_ops(ops, timeout=10) for ops in batches]
        assert service.queue_depth == len(batches)
    finally:
        latch.release_shared()
    gate.wait(timeout=10)
    return tickets


def file_scheme(tmp_path, fsync=False):
    """A W-BOX on a journaled page file with ``BASE`` labels, plus an
    element far from label 2 (a different LIDF block) to delete later."""
    path = str(tmp_path / "s.pages")
    backend = FileBackend(path, fsync=fsync)
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(BASE)
    victim = scheme.insert_element_before(lids[BASE - 2])
    return path, scheme, lids, victim


def write_small_ops(anchor, victim):
    """The e2e ``write_small`` submit: a new element and a new label
    before ``anchor``, then the delete of an older element elsewhere."""
    return [
        BatchOp("insert_element_before", (anchor,)),
        BatchOp("insert_before", (anchor,)),
        BatchOp("delete_element", victim),
    ]


def test_write_small_submit_is_one_wal_transaction_and_one_fsync(tmp_path):
    _path, scheme, lids, victim = file_scheme(tmp_path, fsync=True)
    ops = write_small_ops(lids[2], victim)
    assert len(BatchExecutor(scheme, group_size=64).plan(ops)) == 2
    backend = scheme.store.backend
    injector = FaultInjector(FaultPlan([]))  # counts hook invocations only
    backend.install_faults(injector)
    lsn = backend.lsn
    with LabelService(scheme) as service:
        result = service.submit_ops(ops, timeout=10).wait(timeout=10)
    assert result.group_count == 2
    assert backend.lsn - lsn == 1  # WAL transactions
    assert injector.invocations("wal.append") == 1
    assert injector.invocations("backend.fsync") == 1  # the log's one sync
    assert result.backend_commits == 1
    backend.close()


class _CrashAfterSecondGroup:
    """Injector that crashes the first ``backend.commit`` reached after
    the run's second group has started (its first op is the delete)."""

    def __init__(self) -> None:
        self.armed = False

    def hit(self, hook, size=None):
        if hook == "backend.commit" and self.armed:
            raise CrashError("injected crash at the second group's commit")
        return None


def test_crash_at_second_group_commit_keeps_none_of_the_run(tmp_path):
    path, scheme, lids, victim = file_scheme(tmp_path)
    ops = write_small_ops(lids[2], victim)
    assert BatchExecutor(scheme, group_size=64).plan(ops) == [[0, 1], [2]]
    before = {lid: scheme.lookup(lid) for lid in lids}
    injector = _CrashAfterSecondGroup()
    delete_element = scheme.delete_element

    def arm_then_delete(*args):
        injector.armed = True
        return delete_element(*args)

    scheme.delete_element = arm_then_delete
    scheme.store.backend.install_faults(injector)
    service = LabelService(scheme).start()
    with pytest.raises(CrashError):
        service.submit_ops(ops, timeout=10).wait(timeout=10)
    assert service.degraded
    service.close()
    scheme.store.backend.close()

    reopened = open_file_scheme(path)
    # Neither the first group's element and label nor the delete survive.
    assert len(reopened.lidf) == BASE + 2
    assert all(reopened.lidf.exists(lid) for lid in victim)
    assert {lid: reopened.lookup(lid) for lid in lids} == before
    reopened.store.backend.close()


def test_drained_tickets_fail_alone_and_share_one_epoch(tmp_path):
    path, scheme, lids, victim = file_scheme(tmp_path)
    service = LabelService(scheme).start()
    epochs = service.current_epoch.number
    good, bad = submit_behind_held_latch(
        service,
        scheme,
        [
            write_small_ops(lids[2], victim),
            [BatchOp("insert_before", (victim[0],))],  # freed by the first
        ],
    )
    result = good.wait(timeout=10)
    with pytest.raises(RecordNotFoundError):
        bad.wait(timeout=10)
    # The gate's wake-up, then one wake-up for both tickets: one epoch,
    # one commit, one merge.
    assert service.current_epoch.number == epochs + 2
    assert service.describe()["write_merges"] == 1
    assert result.backend_commits == 1
    element, label = result.results[0], result.results[1]
    expected = {lid: scheme.lookup(lid) for lid in (*lids, *element, label)}
    service.close()
    scheme.store.backend.close()

    reopened = open_file_scheme(path)
    assert {lid: reopened.lookup(lid) for lid in expected} == expected
    assert not any(reopened.lidf.exists(lid) for lid in victim)
    reopened.store.backend.close()
