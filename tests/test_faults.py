"""Unit tests for the declarative fault-injection subsystem.

Covers the plan vocabulary (validation, the legacy ``crash_after_writes``
mapping), the injector's deterministic firing/counting semantics, the
one fault interpreter (``FaultInjector.hit``), and the storage hook points
end to end: torn and short writes — and every other crash-type fault at
any backend hook — crash the backend, transient commit errors leave it
healthy and retryable, the WAL rolls a partial transaction back to a
clean boundary, and an uninstalled injector costs nothing observable.
"""

import pytest

from repro.config import TINY_CONFIG
from repro.errors import (
    CrashError,
    FsyncFailedError,
    TransientIOError,
    WriterCrashError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    standard_plan_names,
    standard_plans,
)
from repro.obs.metrics import get_registry
from repro.storage import FileBackend, MemoryBackend, scan_wal


def make_backend(tmp_path, name="t.pages", **kwargs):
    return FileBackend(str(tmp_path / name), **kwargs)


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec("meteor_strike", "backend.raw_write")

    def test_unknown_hook_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown hook"):
            FaultSpec("torn_write", "backend.nonsense")

    def test_bad_at_and_times_rejected(self):
        with pytest.raises(FaultPlanError, match="1-based"):
            FaultSpec("torn_write", "backend.raw_write", at=0)
        with pytest.raises(FaultPlanError, match="times"):
            FaultSpec("io_error", "backend.commit", times=0)

    def test_bad_window_rejected(self):
        with pytest.raises(FaultPlanError, match="window"):
            FaultSpec("torn_write", "backend.raw_write", at=None, window=(5, 2))

    def test_standard_plan_set(self):
        plans = standard_plans()
        assert list(plans) == standard_plan_names()
        assert len(plans) >= 4  # the chaos sweep's acceptance floor
        for plan in plans.values():
            assert len(plan) >= 1


class TestLegacyCrashBudgetMapping:
    def test_positive_budget_tears_the_nth_write(self):
        plan = FaultPlan.crash_after_writes(7)
        (spec,) = plan.specs
        assert spec.kind == "torn_write"
        assert spec.hook == "backend.raw_write"
        assert spec.at == 7

    def test_zero_budget_blocks_the_first_write(self):
        plan = FaultPlan.crash_after_writes(0)
        (spec,) = plan.specs
        assert spec.kind == "short_write"
        assert spec.at == 1 and spec.cut == 0


class TestInjectorFiring:
    def test_fires_on_exact_invocation_only(self):
        injector = FaultInjector(FaultPlan.torn_write(at=3))
        assert injector.fire("backend.raw_write", size=10) is None
        assert injector.fire("backend.raw_write", size=10) is None
        action = injector.fire("backend.raw_write", size=10)
        assert action is not None and action.kind == "torn_write"
        assert action.invocation == 3
        assert injector.fire("backend.raw_write", size=10) is None
        assert injector.invocations("backend.raw_write") == 4

    def test_other_hooks_untouched(self):
        injector = FaultInjector(FaultPlan.torn_write(at=1))
        assert injector.fire("backend.commit") is None
        assert injector.fire("wal.append") is None

    def test_repeating_spec_fires_consecutively(self):
        plan = FaultPlan.transient_io_error(hook="backend.commit", at=2, times=3)
        injector = FaultInjector(plan)
        hits = [injector.fire("backend.commit") is not None for _ in range(6)]
        assert hits == [False, True, True, True, False, False]

    def test_seeded_at_is_deterministic(self):
        plan = FaultPlan.torn_write(at=None, window=(1, 32))
        firings = []
        for _ in range(2):
            injector = FaultInjector(plan, seed=1234)
            invocation = 0
            while True:
                invocation += 1
                if injector.fire("backend.raw_write", size=64) is not None:
                    firings.append(invocation)
                    break
        assert firings[0] == firings[1]
        assert 1 <= firings[0] <= 32

    def test_seeded_short_write_cut_within_size(self):
        injector = FaultInjector(FaultPlan.short_write(at=1), seed=7)
        action = injector.fire("backend.raw_write", size=100)
        assert action is not None and 0 <= action.cut < 100

    def test_fired_list_and_metric(self):
        registry = get_registry()
        counter = registry.counter(
            "repro_faults_injected_total",
            help="faults injected by the fault-injection subsystem",
            labels={"kind": "torn_write", "hook": "backend.raw_write"},
        )
        before = counter.value
        injector = FaultInjector(FaultPlan.torn_write(at=1))
        injector.fire("backend.raw_write", size=8)
        assert [(f.hook, f.kind, f.invocation) for f in injector.fired] == [
            ("backend.raw_write", "torn_write", 1)
        ]
        assert counter.value == before + 1

    def test_with_fresh_counters_restarts(self):
        injector = FaultInjector(FaultPlan.torn_write(at=2), seed=3)
        injector.fire("backend.raw_write", size=8)
        injector.fire("backend.raw_write", size=8)
        fresh = injector.with_fresh_counters()
        assert fresh.invocations("backend.raw_write") == 0
        assert fresh.fire("backend.raw_write", size=8) is None  # at=2 again
        assert fresh.fire("backend.raw_write", size=8) is not None


class TestApplySimpleAction:
    """What each kind does, carried out by ``FaultInjector.hit``."""

    def _hit(self, kind, size=None, hook="backend.commit", **overrides):
        injector = FaultInjector(FaultPlan([FaultSpec(kind, hook, **overrides)]))
        return injector.hit(hook, size)

    def test_none_is_a_noop(self):
        injector = FaultInjector(FaultPlan.transient_io_error(at=2))
        assert injector.hit("backend.commit") is None  # a silent invocation
        assert injector.hit("wal.append") is None  # a hook with no spec

    def test_error_kinds_raise_their_types(self):
        with pytest.raises(TransientIOError):
            self._hit("io_error")
        with pytest.raises(FsyncFailedError):
            self._hit("fsync_fail")
        with pytest.raises(WriterCrashError):
            self._hit("writer_crash")
        # A shard's scoped view carries its kinds out the same way.
        scoped = FaultInjector(
            FaultPlan([FaultSpec("io_error", "backend.commit@shard1")])
        ).scoped("shard1")
        with pytest.raises(TransientIOError):
            scoped.hit("backend.commit")

    def test_write_kind_at_generic_site_is_a_crash(self):
        with pytest.raises(CrashError):
            self._hit("torn_write")
        with pytest.raises(CrashError):
            self._hit("short_write", cut=3)
        # At a write site (one that passes a size) the tear is returned,
        # for the site to carry out on the bytes it holds.
        torn = self._hit("torn_write", size=10, hook="backend.raw_write")
        assert torn.kind == "torn_write" and torn.keep(10) == 5
        short = self._hit("short_write", size=10, hook="backend.raw_write", cut=3)
        assert short.keep(10) == 3 and short.keep(2) == 2

    def test_latency_returns(self):
        assert self._hit("latency", delay=0.0) is None
        assert self._hit("latency", size=8, hook="backend.raw_write") is None


class TestBackendHooks:
    def test_torn_write_crashes_and_refuses_further_writes(self, tmp_path):
        backend = make_backend(tmp_path)
        block_id = backend.allocate([1, 2])
        backend.install_faults(FaultInjector(FaultPlan.torn_write(at=1)))
        with pytest.raises(CrashError, match="torn_write"):
            backend.commit([block_id])
        with pytest.raises(CrashError, match="reopen to recover"):
            backend.commit([block_id])
        backend.close()

    def test_transient_commit_error_leaves_backend_healthy(self, tmp_path):
        backend = make_backend(tmp_path)
        block_id = backend.allocate([5])
        backend.install_faults(
            FaultInjector(FaultPlan.transient_io_error(hook="backend.commit", at=1))
        )
        with pytest.raises(TransientIOError):
            backend.commit([block_id])
        backend.commit([block_id])  # the retry: same commit, now clean
        backend.close()
        reopened = make_backend(tmp_path)
        assert reopened.read(block_id) == [5]
        reopened.close()

    def test_transient_mid_wal_error_rolls_the_log_back(self, tmp_path):
        backend = make_backend(tmp_path)
        first = backend.allocate([1])
        backend.commit([first])
        second = backend.allocate([2])
        # A commit without a tape is a checkpoint.  Invocation 3 of
        # raw_write within it — after the fresh log's magic and the first
        # PUT — lands inside its WAL transaction: the partial transaction
        # must be rolled back, not left as a torn tail, and its LSN must
        # still be the next one.
        backend.install_faults(
            FaultInjector(
                FaultPlan.transient_io_error(hook="backend.raw_write", at=3)
            )
        )
        with pytest.raises(TransientIOError):
            backend.commit([first, second])
        scan = scan_wal(backend.wal_path)
        assert scan.committed == 0 and not scan.torn_tail
        assert backend.lsn == 1
        backend.commit([first, second])  # retry succeeds against a clean log
        assert backend.lsn == 2
        backend.close()
        reopened = make_backend(tmp_path)
        assert [reopened.read(first), reopened.read(second)] == [[1], [2]]
        reopened.close()
        reopened = make_backend(tmp_path)
        assert reopened.read(second) == [2]
        assert reopened.next_id == 3  # the retried delta folded exactly once
        reopened.close()

    def test_fsync_failure_is_fatal(self, tmp_path):
        backend = make_backend(tmp_path, fsync=True)
        block_id = backend.allocate([3])
        backend.install_faults(FaultInjector(FaultPlan.fsync_failure(at=1)))
        with pytest.raises(FsyncFailedError):
            backend.commit([block_id])
        with pytest.raises(CrashError, match="reopen to recover"):
            backend.commit([block_id])
        backend.close()

    @pytest.mark.parametrize(
        "kind,hook",
        [
            ("torn_write", "backend.fsync"),
            ("short_write", "backend.commit"),
            ("torn_write", "wal.append"),
            ("fsync_fail", "backend.raw_write"),
        ],
    )
    def test_every_crash_fault_leaves_the_backend_crashed(self, tmp_path, kind, hook):
        backend = make_backend(tmp_path, fsync=True)
        block_id = backend.allocate([3])
        backend.install_faults(FaultInjector(FaultPlan([FaultSpec(kind, hook)])))
        tape = [(lambda ended: b"\x00", "")]  # a logged commit, so wal.append fires
        with pytest.raises((CrashError, FsyncFailedError)):
            backend.commit([block_id], tape)
        with pytest.raises(CrashError, match="backend has crashed; reopen"):
            backend.commit([block_id], tape)
        backend.close()

    def test_fsync_hook_silent_without_fsync_mode(self, tmp_path):
        backend = make_backend(tmp_path)  # fsync=False: no fsync points
        block_id = backend.allocate([4])
        injector = FaultInjector(FaultPlan.fsync_failure(at=1))
        backend.install_faults(injector)
        backend.commit([block_id])
        assert injector.invocations("backend.fsync") == 0
        backend.close()

    def test_memory_backend_commit_hook_fires(self):
        backend = MemoryBackend()
        block_id = backend.allocate([1])
        backend.fault_injector = FaultInjector(
            FaultPlan.transient_io_error(hook="backend.commit", at=1)
        )
        with pytest.raises(TransientIOError):
            backend.commit([block_id])
        backend.commit([block_id])  # transient: next attempt is clean

    def test_latency_plan_changes_nothing_but_time(self, tmp_path):
        backend = make_backend(tmp_path)
        block_id = backend.allocate([6])
        backend.install_faults(
            FaultInjector(FaultPlan.latency_spike(0.0, at=1))
        )
        backend.commit([block_id])
        backend.close()
        reopened = make_backend(tmp_path)
        assert reopened.read(block_id) == [6]
        reopened.close()

    def test_uninstalled_injector_costs_nothing_observable(self, tmp_path):
        plain = make_backend(tmp_path, name="plain.pages")
        block_id = plain.allocate([7])
        plain.commit([block_id])
        assert plain.fault_injector is None
        plain.close()
        reopened = make_backend(tmp_path, name="plain.pages")
        assert reopened.read(block_id) == [7]
        reopened.close()
