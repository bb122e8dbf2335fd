"""Shard-targeted fault injection: scoped hooks, shard kill, recovery.

Three layers:

* the ``hook@scope`` addressing surface itself — :func:`split_hook`,
  spec validation, and one parent injector fanned out to per-shard
  scoped views with a shared fault budget;
* a **live** shard kill — one shard's writer dies mid-stream inside a
  running :class:`ShardedLabelService`; the dead shard degrades (typed,
  read-only) while the healthy shard keeps serving reads AND writes;
* the crash-recovery matrix entry — the ``shard-writer-crash`` standard
  plan kills shard 1's writer mid-tape in a file-backed 2-shard service
  (and a shard-scoped *backend* fault tears one of shard 1's physical
  writes), every shard recovers through its own WAL, and every recovered
  label on every shard must match a twin oracle (the same per-trial
  machinery the ``repro chaos`` CLI sweeps nightly).
"""

from __future__ import annotations

import pytest

from repro import BatchOp, TINY_CONFIG, WBox
from repro.errors import ServiceDegradedError, WriterCrashError
from repro.faults import (
    TORN_WRITE,
    WRITER_CRASH,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    run_chaos_sweep,
    run_chaos_trial,
    split_hook,
    standard_plans,
)
from repro.service import ShardedLabelService, bulk_load_sharded

SHARD_CRASH_PLAN = standard_plans()["shard-writer-crash"]

#: plan name -> (plan, seeds).  The backend plan tears one of shard 1's
#: physical writes: unlike the writer kill (which fires before its batch
#: touches anything) the in-flight commit may already have reached the
#: log, and the twin must then replay that step too.
SHARD_MATRIX_PLANS = {
    "shard-writer-crash": (SHARD_CRASH_PLAN, 20),
    "shard-backend-torn": (
        FaultPlan(
            [FaultSpec(TORN_WRITE, "backend.raw_write@shard1", at=None, window=(1, 48))]
        ),
        12,
    ),
}


# ---------------------------------------------------------------------------
# hook@scope addressing
# ---------------------------------------------------------------------------


def test_split_hook_separates_scope_suffix():
    assert split_hook("service.writer_apply@shard2") == (
        "service.writer_apply",
        "shard2",
    )
    assert split_hook("backend.fsync") == ("backend.fsync", None)


def test_spec_validates_base_hook_not_suffix():
    # The scope suffix is free-form; the base hook must be real.
    FaultSpec(WRITER_CRASH, "service.writer_apply@anything", at=1)
    with pytest.raises(FaultPlanError):
        FaultSpec(WRITER_CRASH, "service.no_such_hook@shard0", at=1)


def test_scoped_views_share_one_budget_with_per_shard_addressing():
    plan = FaultPlan(
        [FaultSpec(WRITER_CRASH, "service.writer_apply@shard1", at=1)]
    )
    injector = FaultInjector(plan)
    shard0 = injector.scoped("shard0")
    shard1 = injector.scoped("shard1")
    # shard0's invocations never match the shard1-addressed spec...
    assert shard0.fire("service.writer_apply") is None
    # ...but shard1's first invocation does.
    action = shard1.fire("service.writer_apply")
    assert action is not None and action.kind == WRITER_CRASH
    # Counters live on the parent: both scoped and plain names counted.
    assert injector.invocations("service.writer_apply") == 2
    assert injector.invocations("service.writer_apply@shard0") == 1
    assert injector.invocations("service.writer_apply@shard1") == 1


# ---------------------------------------------------------------------------
# live shard kill
def test_batch_touching_a_dead_shard_is_refused_whole():
    """A routed batch spanning a dead shard must be refused BEFORE its
    healthy half is queued: the caller is told the write failed, so
    nothing of it may commit."""
    schemes = [WBox(TINY_CONFIG) for _ in range(2)]
    glids = bulk_load_sharded(schemes, 12)
    shard0_glid = next(g for g in glids if g % 2 == 0)
    shard1_glid = next(g for g in glids if g % 2 == 1)
    injector = FaultInjector(
        FaultPlan([FaultSpec(WRITER_CRASH, "service.writer_apply@shard1", at=1)])
    )
    with ShardedLabelService(schemes, fault_injector=injector) as service:
        with pytest.raises(WriterCrashError):
            service.submit_ops(
                [BatchOp("insert_before", (shard1_glid,))], timeout=10
            ).wait(timeout=10)
        assert service.degraded_shards == [1]
        epoch_before = service.current_epoch_vector.numbers[0]
        labels_before = len(schemes[0].lidf)

        with pytest.raises(ServiceDegradedError):
            service.submit_ops(
                [
                    BatchOp("insert_before", (shard0_glid,)),
                    BatchOp("insert_before", (shard1_glid,)),
                ],
                timeout=10,
            )
        # Drain shard 0's writer: anything wrongly queued would commit
        # before this marker write does.
        service.submit_ops([BatchOp("lookup", (shard0_glid,))], timeout=10).wait(10)
        assert len(schemes[0].lidf) == labels_before
        assert service.current_epoch_vector.numbers[0] == epoch_before + 1


# ---------------------------------------------------------------------------


def test_live_shard_kill_leaves_healthy_shard_serving():
    schemes = [WBox(TINY_CONFIG) for _ in range(2)]
    glids = bulk_load_sharded(schemes, 12)
    shard0_glid = next(g for g in glids if g % 2 == 0)
    shard1_glid = next(g for g in glids if g % 2 == 1)
    injector = FaultInjector(
        FaultPlan([FaultSpec(WRITER_CRASH, "service.writer_apply@shard1", at=1)])
    )
    service = ShardedLabelService(schemes, fault_injector=injector)
    with service:
        session = service.session()
        before = session.lookup_many(glids)

        # The first write routed to shard 1 kills that shard's writer.
        ticket = service.submit_ops(
            [BatchOp("insert_before", (shard1_glid,))], timeout=10
        )
        with pytest.raises(WriterCrashError):
            ticket.wait(timeout=10)
        assert service.degraded
        assert service.degraded_shards == [1]

        # Healthy shard: writes still commit, epoch component advances.
        result = service.submit_ops(
            [BatchOp("insert_before", (shard0_glid,))], timeout=10
        ).wait(timeout=10)
        assert result.results[0] % 2 == 0

        # Dead shard: new writes are refused, typed.
        with pytest.raises(ServiceDegradedError):
            service.submit_ops(
                [BatchOp("insert_before", (shard1_glid,))], timeout=10
            )

        # A session pinned before the crash still reads both shards.
        assert session.lookup_many(glids) == before


# ---------------------------------------------------------------------------
# crash-recovery matrix + sweep dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme_name, plan_name",
    [
        pytest.param("wbox", "shard-writer-crash", id="wbox"),
        pytest.param("bbox", "shard-writer-crash", id="bbox"),
        pytest.param("wbox", "shard-backend-torn", id="wbox-backend-torn"),
        pytest.param("bbox", "shard-backend-torn", id="bbox-backend-torn"),
    ],
)
def test_shard_crash_recovery_matrix(tmp_path, scheme_name, plan_name):
    """Kill shard 1 anywhere in the plan's seeded window; all shards must
    recover and agree with their twin oracles LID-for-LID."""
    plan, seeds = SHARD_MATRIX_PLANS[plan_name]
    crashed = replayed = 0
    for seed in range(seeds):
        trial = run_chaos_trial(
            scheme_name,
            plan_name,
            plan,
            seed,
            str(tmp_path / f"{scheme_name}-{seed}"),
            max_ops=120,
        )
        assert trial.ok, (
            f"seed {seed}: {trial.error or f'{trial.mismatches} mismatch(es)'}"
        )
        assert trial.mismatches == 0
        replayed += trial.replayed
        if trial.crashed:
            crashed += 1
            assert any("@shard1" in fired for fired in trial.faults_fired)
    # The seeded window must actually reach shard 1 in the vast majority
    # of tapes, or the matrix tests nothing.
    assert crashed * 5 >= seeds * 4, f"only {crashed}/{seeds} seeds crashed"
    if plan_name == "shard-backend-torn":
        # ...and some tears must land after the commit record, or the
        # in-flight-commit rule is never exercised.
        assert replayed >= 1


def test_sweep_dispatches_sharded_plans_to_sharded_trials(tmp_path):
    """run_chaos_sweep runs any plan with an @shard hook as a 2-shard
    trial — visible in the trial's scheme tag."""
    report = run_chaos_sweep(
        2,
        schemes=["wbox"],
        plans={"shard-writer-crash": SHARD_CRASH_PLAN},
        max_ops=60,
        root_dir=str(tmp_path),
    )
    assert report.total == 2
    assert all(trial.scheme == "wboxx2" for trial in report.trials)
    assert all(trial.ok for trial in report.trials)
