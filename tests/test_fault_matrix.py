"""The crash-recovery matrix: every scheme variant x every crash window.

This is the PR-2 twin-oracle recovery test, generalized through
:class:`repro.faults.FaultPlan`: for each of the six scheme variants and
each fault class — torn physical write, failed fsync, mid-directory
crash — a file-backed scheme runs a deterministic op tape until the
injected fault kills the backend, reopens through WAL recovery, and must
agree with a memory-backed twin on **every** LID.  A dedicated case pins
the *header slot* write of a checkpoint, proving first that the tear
leaves the previous directory standing and the log's tapes past it.

The per-trial machinery is :func:`repro.faults.run_chaos_trial` — the
same code the ``repro chaos`` CLI sweeps — so this matrix doubles as the
sweep driver's own regression test.
"""

import pytest

from repro.config import TINY_CONFIG
from repro.core import scheme_factory
from repro.errors import CrashError
from repro.faults import FaultInjector, FaultPlan, run_chaos_trial, standard_plans
from repro.faults.chaos import SCHEME_NAMES
from repro.persist import checkpoint_scheme, open_file_scheme
from repro.storage import BlockStore, FileBackend, read_directory

from . import taped

MATRIX_PLANS = {
    "torn-write": FaultPlan.torn_write(at=None, window=(1, 160)),
    "fsync-fail": FaultPlan.fsync_failure(at=None, window=(1, 27)),
    "superblock-torn": FaultPlan.superblock_crash(at=None, window=(1, 6)),
}

@pytest.mark.parametrize("plan_name", sorted(MATRIX_PLANS))
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_NAMES))
def test_recovery_matrix(tmp_path, scheme_name, plan_name):
    """Crash anywhere the plan's seeded window reaches; the recovered
    scheme must match its twin oracle LID-for-LID and keep working."""
    for seed in (0, 1):
        trial = run_chaos_trial(
            scheme_name,
            plan_name,
            MATRIX_PLANS[plan_name],
            seed,
            str(tmp_path),
            max_ops=200,
        )
        assert trial.crashed, (
            f"{plan_name} seed {seed} never fired; widen the window or tape"
        )
        assert trial.mismatches == 0 and not trial.error, trial
        assert trial.checked_lids > 0
        assert any(f.startswith(("backend.",)) for f in trial.faults_fired)


@pytest.mark.parametrize("scheme_name", ["wbox", "bbox"])
def test_directory_write_crash(tmp_path, scheme_name):
    """Tear the header slot a checkpoint writes — its commit point,
    after its images and directory are synced into free extents: the
    slot no longer checks out, the other slot still names the previous
    directory, whose extents the checkpoint never wrote over, and
    recovery re-runs the tape the unsealed log still holds."""
    # Prove the path is actually exercised: after the tear the durable
    # directory is the previous checkpoint's.
    factory = scheme_factory(scheme_name)
    probe_path = str(tmp_path / "probe.pages")
    backend = FileBackend(probe_path)
    scheme = factory(TINY_CONFIG, BlockStore(TINY_CONFIG, backend=backend))
    lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
    checkpoint_scheme(scheme)
    assert read_directory(probe_path)["lsn"] == backend.lsn
    taped.insert_before(scheme, lids[5])
    backend.install_faults(FaultInjector(FaultPlan.superblock_crash(at=1)))
    with pytest.raises(CrashError):
        checkpoint_scheme(scheme)
    backend.close()
    assert read_directory(probe_path)["lsn"] == backend.lsn - 1
    reopened = open_file_scheme(probe_path)
    assert reopened.store.backend.recovery_report["replayed_transactions"] == 1
    assert reopened.label_count() == 25
    reopened.store.backend.close()

    for seed in (0, 1, 2):
        trial = run_chaos_trial(
            scheme_name,
            "directory-torn",
            FaultPlan.superblock_crash(at=None, window=(1, 4)),
            seed,
            str(tmp_path),
            max_ops=120,
        )
        assert trial.crashed, f"seed {seed}: directory fault never fired"
        assert "backend.superblock:torn_write" in trial.faults_fired
        assert trial.mismatches == 0 and not trial.error, trial


def test_standard_plan_set_covers_all_windows(tmp_path):
    """The CLI's standard plan set, one seed, one scheme: every plan runs
    to a verdict through the one trial function (crash plans crash, the
    latency plan completes clean); the topology each row needs — two
    shards, a follower — is derived from the plan."""
    for plan_name, plan in standard_plans().items():
        trial = run_chaos_trial("wbox", plan_name, plan, 0, str(tmp_path), max_ops=150)
        assert trial.mismatches == 0 and not trial.error, trial
        if plan_name == "latency":
            assert not trial.crashed and trial.completed_ops == 150
        else:
            assert trial.crashed


@pytest.mark.parametrize("broken", ["bulk_load_sharded", "stop_follower"])
def test_a_failing_trial_reports_instead_of_raising(tmp_path, monkeypatch, broken):
    """Setup and teardown sit inside the trial's error net: a failure
    there lands in ``trial.error`` (the first one wins) and the sweep
    goes on — it must never escape ``run_chaos_trial``."""
    from repro.faults import chaos

    target = chaos if broken == "bulk_load_sharded" else chaos._Stack
    real = getattr(target, broken)

    def boom(*args, **kwargs):
        real(*args, **kwargs)  # leak nothing: do the work, then fail
        raise OSError(f"{broken} broke")

    monkeypatch.setattr(target, broken, boom)
    plan = standard_plans()["follower-kill"]
    trial = run_chaos_trial("wbox", "follower-kill", plan, 0, str(tmp_path), max_ops=40)
    assert not trial.ok
    assert f"OSError: {broken} broke" in trial.error
    if broken == "stop_follower":
        # The trial itself was clean; only its teardown failed.
        assert trial.error.startswith("teardown ") and trial.mismatches == 0
        assert trial.replayed  # the follower, not the primary's reopen
