"""Commits log tapes, not pages; recovery and followers re-run them.

A writer wake-up commits ``[OPS, DELTA, COMMIT]``: the batches it ran
and how each ended, then what it changed in the directory.  No page is
encoded until the next checkpoint.  Reopening and a follower re-run each
tape through the batch executor and check that the re-run's DELTA and
tape are the logged ones.  Pinned here:

* a served 3-op submit appends exactly one OPS, one DELTA and one COMMIT
  record, no PUT, and encodes no page;
* a wake-up whose middle batch fails after partial effects recovers to
  exactly the pre-crash labels (twin oracle), and that batch fails the
  same way on replay;
* a replay that diverges from its log is a typed error naming the LSN —
  ``RecoveryError`` on a reopen, ``ReplicationError`` on a follower,
  which degrades — and never a silently different store;
* no tape is logged twice or re-run over a state that already holds it:
  a failed automatic checkpoint leaves its logged commit standing, an
  abandoned commit's blocks commit by checkpointing, and an interrupted
  batch — or replay — commits no tape;
* a failed batch that changed the scheme without dirtying a block is
  logged, so its re-run matches the next commit's DELTA.
"""

from __future__ import annotations

import pytest

from repro import BatchOp, BatchRef, WBox, WBoxO
from repro.config import TINY_CONFIG, BoxConfig
from repro.core.batch import decode_tape, encode_batch
from repro.errors import (
    RecordNotFoundError,
    RecoveryError,
    ReplicationError,
    ServiceDegradedError,
    TransientIOError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.persist import checkpoint_scheme, open_file_scheme
from repro.repl import Follower
from repro.service import LabelService
from repro.storage import BlockStore, FileBackend, scan_wal
from repro.storage import filebackend as filebackend_module
from repro.storage.disk import Disk
from repro.storage.wal import _HEADER, MAGIC, REC_COMMIT, REC_DELTA, REC_OPS, WALWriter

from . import taped
from .test_replication import Primary

CONFIG = BoxConfig(block_bytes=1024)


def file_scheme(path, factory=WBox, config=CONFIG, labels=2_000):
    backend = FileBackend(path)
    scheme = factory(config, store=BlockStore(config, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(labels, [i ^ 1 for i in range(labels)])
    return scheme, backend, lids


def record_types(path):
    """The record types of a log file, in order."""
    with open(path, "rb") as handle:
        data = handle.read()
    assert data[: len(MAGIC)] == MAGIC
    types, offset = [], len(MAGIC)
    while offset < len(data):
        kind, length = _HEADER.unpack_from(data, offset)
        types.append(kind)
        offset += _HEADER.size + length
    return types


def test_a_served_submit_logs_its_tape_and_no_page(tmp_path, monkeypatch):
    scheme, backend, lids = file_scheme(str(tmp_path / "s.pages"))
    encodes = []
    real = filebackend_module.encode_block_payload
    monkeypatch.setattr(
        filebackend_module, "encode_block_payload", lambda p: encodes.append(p) or real(p)
    )
    ops = [
        BatchOp("insert_element_before", (lids[40],)),
        BatchOp("insert_before", (BatchRef(0, 1),)),
        BatchOp("delete_element", (lids[60], lids[61])),
    ]
    with LabelService(scheme) as service:
        service.submit_ops(ops).wait(10)
    assert record_types(backend.wal_path) == [REC_OPS, REC_DELTA, REC_COMMIT]
    assert encodes == []
    (txn,) = scan_wal(backend.wal_path).transactions
    assert decode_tape(txn.ops) == [(tuple(ops), "")]
    labels = [scheme.lookup(lid) for lid in lids if lid not in (lids[60], lids[61])]
    backend.close()
    reopened = open_file_scheme(backend.path)
    try:
        assert reopened.store.backend.recovery_report["replayed_transactions"] == 1
        assert [reopened.lookup(lid) for lid in lids if lid not in (lids[60], lids[61])] == labels
    finally:
        reopened.store.backend.close()


@pytest.mark.parametrize(
    "failing", [("delete", (10**6,)), ("insert_before", (3, 4))], ids=["unknown-lid", "arity"]
)
def test_a_failed_middle_batch_recovers_as_it_ran(tmp_path, failing):
    """One wake-up, three batches: the middle one inserts, then fails — on
    a LID that does not exist, or on an op with one argument too many (a
    malformed submit).  Its insert stays (what running it alone leaves),
    the wake-up commits once, as a tape, and the reopened store is the
    memory twin that ran the same batches."""
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, config=TINY_CONFIG, labels=24)
    batches = [
        [BatchOp("insert_before", (lids[3],))],
        [BatchOp("insert_before", (lids[7],)), BatchOp(*failing)],
        [BatchOp("insert_element_before", (lids[11],))],
    ]
    service = LabelService(scheme)
    outcomes = service._apply_wakeup(batches)
    assert isinstance(outcomes[1], Exception) and not isinstance(outcomes[2], Exception)
    failed = type(outcomes[1]).__name__
    service.close()
    (txn,) = scan_wal(backend.wal_path).transactions
    assert [outcome for _ops, outcome in decode_tape(txn.ops)] == ["", failed, ""]
    live = lids + [outcomes[0].results[0], *outcomes[2].results[0]]
    before = {lid: scheme.lookup(lid) for lid in live}
    backend.close()

    twin = WBox(TINY_CONFIG)
    twin_lids = twin.bulk_load(24, [i ^ 1 for i in range(24)])
    assert twin_lids == lids
    for ops in batches:
        try:
            twin.execute_batch(ops)
        except Exception as error:  # noqa: BLE001 - the same failure, on the twin
            assert type(error).__name__ == failed
    reopened = open_file_scheme(path)
    try:
        assert {lid: reopened.lookup(lid) for lid in live} == before
        assert {lid: twin.lookup(lid) for lid in live} == before
        assert reopened.label_count() == twin.label_count()
    finally:
        reopened.store.backend.close()


def test_wbox_o_subtree_inserts_are_logged_and_rerun_as_tapes(tmp_path):
    """A W-BOX-O subtree insert carries its tag pairing in its op row, so
    each batch commits as a tape, and a reopen re-runs every tape into the
    store its memory twin holds, cached end labels included."""
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, factory=WBoxO, config=TINY_CONFIG, labels=24)
    twin = WBoxO(TINY_CONFIG)
    assert twin.bulk_load(24, [i ^ 1 for i in range(24)]) == lids
    pairing = (3, 2, 1, 0)  # <a><b/></a>
    batches = [
        [BatchOp("insert_subtree_before", (lids[anchor], 4, pairing))]
        for anchor in (3, 8, 8, 15, 22)
    ]
    pairs = [(lids[i], lids[i + 1]) for i in range(0, 24, 2)]
    for ops in batches:
        a_start, b_start, b_end, a_end = scheme.execute_batch(ops).results[0]
        assert twin.execute_batch(ops).results[0] == [a_start, b_start, b_end, a_end]
        pairs += [(a_start, a_end), (b_start, b_end)]
    expected = [scheme.lookup_pair(*pair) for pair in pairs]
    assert [twin.lookup_pair(*pair) for pair in pairs] == expected
    backend.close()
    reopened = open_file_scheme(path)
    try:
        report = reopened.store.backend.recovery_report
        assert report["replayed_transactions"] == len(batches)
        assert [reopened.lookup_pair(*pair) for pair in pairs] == expected
        assert reopened.label_count() == twin.label_count()
    finally:
        reopened.store.backend.close()


def test_a_batch_that_ends_otherwise_on_replay_is_refused(tmp_path):
    """The same log with the failed batch's outcome rewritten to ok: the
    re-run fails where the log says it did not, and reopening says so."""
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, config=TINY_CONFIG, labels=24)
    failing = [BatchOp("insert_before", (lids[7],)), BatchOp("delete", (10**6,))]
    with pytest.raises(Exception):
        scheme.execute_batch(failing)
    backend.close()
    (txn,) = scan_wal(path + ".wal").transactions
    _rewrite_log(path, txn.body, encode_batch(failing, ""))
    with pytest.raises(RecoveryError, match=f"log transaction {txn.lsn} gave a different tape"):
        open_file_scheme(path)


def _rewrite_log(path, body, ops):
    """Replace a page file's log with one transaction of ``body`` and
    tape ``ops`` — a valid log (its CRC checks), whatever it says."""
    Disk().remove(path + ".wal")
    writer = WALWriter(path + ".wal", Disk())
    writer.append_transaction({REC_OPS: ops, REC_DELTA: body})
    writer.close()


def test_a_diverging_replay_on_reopen_names_the_lsn(tmp_path):
    """A tape that logs one insert more than its DELTA accounts for: the
    re-run's DELTA differs from the logged one, and reopening raises
    rather than open a store the log does not describe."""
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, config=TINY_CONFIG, labels=24)
    one = [BatchOp("insert_before", (lids[5],))]
    scheme.execute_batch(one)
    backend.close()
    (txn,) = scan_wal(path + ".wal").transactions
    _rewrite_log(path, txn.body, encode_batch(one + one, ""))
    with pytest.raises(RecoveryError, match=f"log transaction {txn.lsn} gave a different DELTA"):
        open_file_scheme(path)


def test_a_diverging_replay_stops_the_follower_typed(tmp_path):
    """A follower whose scheme re-runs an insert differently from the
    primary (a planted extra allocation): catching up raises
    ``ReplicationError`` naming the LSN, the replica degrades, and a
    read that would reach the diverged structure is refused."""
    primary = Primary(tmp_path)
    try:
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as follower:
            follower.catch_up()
            replica = follower.shards[0].scheme
            real = replica.insert_before

            def planted(lid):
                real(lid)
                return real(lid)

            replica.insert_before = planted
            session = follower.service.session()
            before = session.lookup(primary.lids[0])
            lid = primary.insert(primary.lids[3])
            with pytest.raises(ReplicationError, match="log transaction"):
                follower.catch_up()
            assert follower.service.shards[0].degraded
            assert session.lookup(primary.lids[0]) == before  # the pinned epoch
            with pytest.raises(ServiceDegradedError):
                follower.service.session().lookup(lid)
    finally:
        primary.close()


def test_a_failed_automatic_checkpoint_leaves_the_logged_tape_standing(tmp_path, monkeypatch):
    """The automatic checkpoint a commit takes fails transiently at its
    first page write, after its tape is durable: the commit still stands
    (the retry policy re-runs nothing, so no tape is logged twice), the
    next commit retries the checkpoint, a follower replays every record,
    and the store reopens with every acknowledged insert."""
    monkeypatch.setattr(filebackend_module, "CHECKPOINT_TAPE_BYTES", 48)
    primary = Primary(tmp_path)
    try:
        backend = primary.service.shards[0].scheme.store.backend
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as follower:
            follower.catch_up()
            injector = FaultInjector(FaultPlan.transient_io_error(hook="backend.page_write"))
            backend.fault_injector = injector
            for index in range(24):
                primary.insert(primary.lids[(5 * index) % 24])
            assert len(injector.fired) == 1 and backend.page_writes > 0
            assert primary.service.shards[0].stats.write_retries == 0
            follower.catch_up()
            primary_session = primary.service.session()
            replica_session = follower.service.session()
            labels = [primary_session.lookup(lid) for lid in primary.lids]
            assert [replica_session.lookup(lid) for lid in primary.lids] == labels
    finally:
        primary.close()
    reopened = open_file_scheme(str(tmp_path / "primary.pages"))
    try:
        assert [reopened.lookup(lid) for lid in primary.lids] == labels
    finally:
        reopened.store.backend.close()


def test_an_abandoned_commit_restated_by_a_checkpoint_is_never_replayed(tmp_path):
    """A commit fails before its tape is logged and nobody retries it; a
    checkpoint then restates its effects.  The next commit must not log
    the abandoned tape again — re-running it over a state that holds it
    would diverge — and the store reopens as the memory twin."""
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, config=TINY_CONFIG, labels=24)
    twin = WBox(TINY_CONFIG)
    assert twin.bulk_load(24, [i ^ 1 for i in range(24)]) == lids
    backend.fault_injector = FaultInjector(FaultPlan.transient_io_error(hook="wal.append"))
    with pytest.raises(TransientIOError):
        taped.insert_before(scheme, lids[3])
    lids.append(twin.insert_before(lids[3]))
    checkpoint_scheme(scheme)
    lids.append(taped.insert_before(scheme, lids[5]))
    assert twin.insert_before(lids[5]) == lids[-1]
    labels = [scheme.lookup(lid) for lid in lids]
    backend.close()
    reopened = open_file_scheme(path)
    try:
        assert [reopened.lookup(lid) for lid in lids] == labels
        assert [twin.lookup(lid) for lid in lids] == labels
        assert reopened.label_count() == twin.label_count()
    finally:
        reopened.store.backend.close()


def test_an_interrupted_batch_commits_by_checkpointing(tmp_path):
    """A KeyboardInterrupt from inside a scheme op, mid-batch: how the
    batch ended is nothing a re-run reproduces, so its partial effects
    commit without a tape — by checkpointing — and the store reopens with
    them."""
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, config=TINY_CONFIG, labels=24)
    real, calls = scheme.insert_before, []

    def interrupted(lid):
        if calls:
            raise KeyboardInterrupt
        calls.append(real(lid))
        return calls[0]

    scheme.insert_before = interrupted
    lsn = backend.lsn
    with pytest.raises(KeyboardInterrupt):
        scheme.execute_batch([BatchOp("insert_before", (lids[i],)) for i in (2, 9, 15)])
    assert scan_wal(backend.wal_path).transactions == [] and backend.lsn == lsn + 1
    assert scheme.label_count() == 25
    labels = {lid: scheme.lookup(lid) for lid in lids + calls}
    backend.close()
    reopened = open_file_scheme(path)
    try:
        assert reopened.label_count() == 25
        assert {lid: reopened.lookup(lid) for lid in labels} == labels
    finally:
        reopened.store.backend.close()


def test_a_failed_batch_that_dirties_no_block_is_logged_if_it_changed_state(
    tmp_path, monkeypatch
):
    """An op that ticks the scheme's clock and then raises, dirtying no
    block — every shipped op validates before it ticks
    (``tests/test_failed_op_changes_nothing.py``), so a stand-in does —
    still commits its batch, tape and DELTA, so a re-run ticks too and
    the next commit re-runs equal."""

    def tick_then_fail(self, first_lid, last_lid):
        self._tick()
        raise RecordNotFoundError(f"LID {last_lid}")

    monkeypatch.setattr(WBox, "delete_range", tick_then_fail)
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, config=TINY_CONFIG, labels=24)
    clock = scheme.clock
    with pytest.raises(RecordNotFoundError):
        scheme.execute_batch([BatchOp("delete_range", (lids[2], 10**6))])
    assert scheme.clock == clock + 1
    (txn,) = scan_wal(backend.wal_path).transactions
    assert [ended for _ops, ended in decode_tape(txn.ops)] == ["RecordNotFoundError"]
    lids.append(taped.insert_before(scheme, lids[5]))
    labels = [scheme.lookup(lid) for lid in lids]
    backend.close()
    reopened = open_file_scheme(path)
    try:
        assert reopened.store.backend.recovery_report["replayed_transactions"] == 2
        assert [reopened.lookup(lid) for lid in lids] == labels
        assert reopened.clock == scheme.clock
    finally:
        reopened.store.backend.close()


def test_a_failed_batch_that_changes_nothing_logs_nothing(tmp_path):
    """A W-BOX ``delete_range`` whose last LID is unallocated raises
    before it ticks the clock or dirties a block (so does a failed
    lookup): the wake-up commits nothing, and the next commit re-runs
    equal."""
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, config=TINY_CONFIG, labels=24)
    with pytest.raises(RecordNotFoundError):
        scheme.execute_batch([BatchOp("lookup", (10**6,))])
    clock = scheme.clock
    with pytest.raises(RecordNotFoundError):
        scheme.execute_batch([BatchOp("delete_range", (lids[2], 10**6))])
    assert scheme.clock == clock
    assert scan_wal(backend.wal_path).transactions == []
    lids.append(taped.insert_before(scheme, lids[5]))
    labels = [scheme.lookup(lid) for lid in lids]
    backend.close()
    reopened = open_file_scheme(path)
    try:
        assert reopened.store.backend.recovery_report["replayed_transactions"] == 1
        assert [reopened.lookup(lid) for lid in lids] == labels
        assert reopened.clock == scheme.clock
    finally:
        reopened.store.backend.close()


def test_an_interrupted_replay_loses_no_tape(tmp_path, monkeypatch):
    """A KeyboardInterrupt inside a re-run, after the batch's first insert,
    leaves the replay without a tape; it must fail the open, never
    checkpoint the half-replayed state (which would seal the tapes not yet
    re-run away) — the next open re-runs them all."""
    path = str(tmp_path / "s.pages")
    scheme, backend, lids = file_scheme(path, config=TINY_CONFIG, labels=24)
    scheme.execute_batch([BatchOp("insert_before", (lids[i],)) for i in (3, 9)])
    lids.append(taped.insert_before(scheme, lids[5]))
    labels = [scheme.lookup(lid) for lid in lids]
    count = scheme.label_count()
    backend.close()
    real, calls = WBox.insert_before, []

    def interrupted(self, lid):
        calls.append(lid)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(self, lid)

    with monkeypatch.context() as patch:
        patch.setattr(WBox, "insert_before", interrupted)
        with pytest.raises((KeyboardInterrupt, RecoveryError)):
            open_file_scheme(path)
    assert len(scan_wal(path + ".wal").transactions) == 2
    reopened = open_file_scheme(path)
    try:
        assert reopened.label_count() == count
        assert [reopened.lookup(lid) for lid in lids] == labels
    finally:
        reopened.store.backend.close()
