"""Service-level fault handling: retry with backoff, degraded read-only.

Transient backend errors (:class:`TransientIOError`, raised before any
side effect) are retried at the commit level with exponential backoff;
fatal errors (an injected writer kill, a crashed backend) flip the
service into degraded read-only mode where pinned-epoch readers keep
serving and everything else fails fast with a typed error.  All sleeps
are injected, all faults come from a seeded :class:`FaultPlan` — nothing
here is timing-dependent.
"""

import pytest

from repro import BatchOp, TINY_CONFIG, WBox
from repro.errors import ServiceDegradedError, TransientIOError, WriterCrashError
from repro.faults import FaultInjector, FaultPlan
from repro.service import LabelService, RetryPolicy
from repro.workloads.sequences import _bulk_load_two_level

from . import taped


def build_service(**kwargs):
    scheme = WBox(TINY_CONFIG)
    lids = _bulk_load_two_level(scheme, 4)
    service = LabelService(scheme, log_capacity=64, **kwargs)
    return scheme, service, lids


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05)
        assert [policy.delay_for(a) for a in (1, 2, 3, 4, 5)] == [
            0.01,
            0.02,
            0.04,
            0.05,
            0.05,
        ]


class TestTransientRetry:
    def test_transient_commit_fault_is_retried_to_success(self):
        sleeps = []
        policy = RetryPolicy(max_retries=4, base_delay=0.01, sleep=sleeps.append)
        scheme, service, lids = build_service(retry_policy=policy)
        scheme.store.backend.fault_injector = FaultInjector(
            FaultPlan.transient_io_error(hook="backend.commit", at=1, times=2)
        )
        with service.start():
            ticket = service.submit_ops([BatchOp("insert_before", (lids[3],))])
            ticket.wait(timeout=5.0)
            assert service.stats.snapshot().write_retries == 2
            # One backoff per failed attempt, growing exponentially.
            assert sleeps == [policy.delay_for(1), policy.delay_for(2)]
            assert not service.degraded
            assert service.stats.snapshot().write_errors == 0

    def test_retry_exhaustion_fails_batch_but_not_service(self):
        sleeps = []
        policy = RetryPolicy(max_retries=1, base_delay=0.0, sleep=sleeps.append)
        scheme, service, lids = build_service(retry_policy=policy)
        # times=2 == the two attempts max_retries=1 allows: this batch's
        # commit exhausts the budget, the next batch commits clean.
        scheme.store.backend.fault_injector = FaultInjector(
            FaultPlan.transient_io_error(hook="backend.commit", at=1, times=2)
        )
        with service.start():
            doomed = service.submit_ops([BatchOp("insert_before", (lids[3],))])
            with pytest.raises(TransientIOError):
                doomed.wait(timeout=5.0)
            counters = service.stats.snapshot()
            assert counters.write_errors == 1 and counters.write_retries == 1
            # Transient errors are not fatal: the writer keeps serving.
            assert not service.degraded
            follow_up = service.submit_ops([BatchOp("insert_before", (lids[3],))])
            follow_up.wait(timeout=5.0)

    def test_retries_disabled_with_none_policy(self):
        scheme, service, lids = build_service(retry_policy=None)
        scheme.store.backend.fault_injector = FaultInjector(
            FaultPlan.transient_io_error(hook="backend.commit", at=1)
        )
        with service.start():
            ticket = service.submit_ops([BatchOp("insert_before", (lids[3],))])
            with pytest.raises(TransientIOError):
                ticket.wait(timeout=5.0)
            assert service.stats.snapshot().write_retries == 0


class TestRetryOnAFileBackend:
    def test_retried_commit_journals_its_delta_once(self, tmp_path):
        """A transient error mid-append rolls the log back and leaves the
        pending delta and its LSN unconsumed, so the retry journals the
        same delta under the same LSN: one transaction, folded once."""
        from repro.persist import (
            checkpoint_scheme,
            open_file_scheme,
            scheme_metadata_header,
        )
        from repro.storage import BlockStore, FileBackend, scan_wal

        path = str(tmp_path / "retry.pages")
        backend = FileBackend(
            path
        )
        scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
        checkpoint_scheme(scheme)
        lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
        before = backend.lsn  # the bulk load, a checkpoint, left no live log
        policy = RetryPolicy(max_retries=3, base_delay=0.0, sleep=lambda _: None)
        service = LabelService(scheme, log_capacity=64, retry_policy=policy)
        # The 3rd physical write of the submit's commit (after the fresh
        # log's magic) is inside its transaction: its OPS record is
        # already in the log when the DELTA fails.
        backend.fault_injector = FaultInjector(
            FaultPlan.transient_io_error(hook="backend.raw_write", at=3)
        )
        with service.start():
            service.submit_ops([BatchOp("delete", (lids[8],))]).wait(timeout=5.0)
            assert service.stats.snapshot().write_retries == 1
        after = [txn.lsn for txn in scan_wal(backend.wal_path).transactions]
        assert after == [before + 1] and backend.lsn == after[-1]
        header = scheme_metadata_header(scheme)
        backend.close()
        reopened = open_file_scheme(path)
        assert scheme_metadata_header(reopened) == header
        reopened.store.backend.close()

    def test_abandoned_commit_leaves_no_transaction_behind(self, tmp_path):
        """A transient error at the log's fsync — the transaction is
        complete in the file by then — rolls it back too.  A caller who
        does not retry and edits on then commits both edits under that
        LSN, by checkpointing: the held-over tape is never logged, since
        a checkpoint may have restated its effects by then."""
        from repro.persist import (
            checkpoint_scheme,
            open_file_scheme,
            scheme_metadata_header,
        )
        from repro.storage import (
            BlockStore,
            FileBackend,
                    read_directory,
            scan_wal,
        )

        path = str(tmp_path / "abandon.pages")
        backend = FileBackend(
            path, fsync=True
        )
        scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
        checkpoint_scheme(scheme)
        twin = WBox(TINY_CONFIG)
        lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
        twin.bulk_load(24, [i ^ 1 for i in range(24)])
        before = backend.lsn  # the bulk load, a checkpoint, left no live log
        backend.fault_injector = FaultInjector(
            FaultPlan.transient_io_error(hook="backend.fsync", at=1)
        )
        with pytest.raises(TransientIOError):
            taped.insert_before(scheme, lids[3])
        assert scan_wal(backend.wal_path).transactions == []
        twin.insert_before(lids[3])
        lids.append(taped.insert_before(scheme, lids[5]))
        assert twin.insert_before(lids[5]) == lids[-1]
        assert scan_wal(backend.wal_path).transactions == []  # sealed away
        assert backend.lsn == read_directory(path)["lsn"] == before + 1
        backend.close()
        reopened = open_file_scheme(path)
        assert scheme_metadata_header(reopened) == scheme_metadata_header(twin)
        assert [reopened.lookup(lid) for lid in lids] == [twin.lookup(lid) for lid in lids]
        reopened.store.backend.close()


class TestDegradedMode:
    def test_writer_crash_degrades_to_read_only(self):
        scheme, service, lids = build_service(
            fault_injector=FaultInjector(FaultPlan.writer_crash())
        )
        with service.start():
            warm = service.session()
            truth = {lid: warm.resolve((lid,))[0] for lid in lids}

            ticket = service.submit_ops([BatchOp("insert_before", (lids[3],))])
            with pytest.raises(WriterCrashError):
                ticket.wait(timeout=5.0)

            assert service.degraded
            assert "WriterCrashError" in service.degraded_reason
            described = service.describe()
            assert described["state"] == "degraded"

            # Writes fail fast with the typed error, before queueing.
            with pytest.raises(ServiceDegradedError):
                service.submit_ops([BatchOp("insert_before", (lids[3],))])

            # A cold session cannot fall through to the structure.
            cold = service.session()
            with pytest.raises(ServiceDegradedError):
                cold.resolve((lids[1],))

            # The warm session's pinned-epoch reads keep serving, and
            # still agree with the pre-crash truth.
            for lid in lids:
                assert warm.resolve((lid,)) == [truth[lid]]

            counters = service.stats.snapshot()
            assert counters.degradations == 1
            assert counters.degraded_write_rejects >= 1
            assert counters.degraded_read_rejects >= 1
            assert service.describe()["degraded_write_rejects"] >= 1

    def test_queued_batches_fail_fast_on_degradation(self):
        """Batches sitting behind the fatal one get their tickets failed
        with ServiceDegradedError instead of blocking forever."""
        scheme, service, lids = build_service(
            fault_injector=FaultInjector(FaultPlan.writer_crash())
        )
        with service.start():
            first = service.submit_ops([BatchOp("insert_before", (lids[3],))])
            with pytest.raises(WriterCrashError):
                first.wait(timeout=5.0)
            # The writer is dead; anything still queued was drained and
            # failed by the degradation path, and new submits are refused.
            with pytest.raises(ServiceDegradedError):
                service.submit_ops([BatchOp("insert_before", (lids[3],))])

    def test_degradation_is_recorded_once(self):
        scheme, service, lids = build_service(
            fault_injector=FaultInjector(
                FaultPlan.writer_crash(hook="service.writer_apply")
            )
        )
        with service.start():
            ticket = service.submit_ops([BatchOp("insert_before", (lids[3],))])
            with pytest.raises(WriterCrashError):
                ticket.wait(timeout=5.0)
            with pytest.raises(ServiceDegradedError):
                service.submit_ops([BatchOp("insert_before", (lids[3],))])
            assert service.stats.snapshot().degradations == 1
