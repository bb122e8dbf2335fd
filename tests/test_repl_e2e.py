"""Replication kill/restart campaigns over WAL-segment boundaries.

The two replication rows of :func:`repro.faults.standard_plans` make the
chaos driver run a real primary behind a real socket with a follower
streaming its WAL, kill one side mid-stream at seeded points (two kills
per trial), and verify **every** live LID of the recovered primary *and*
of the caught-up follower against a memory twin.

Two crash stories sweep here: the follower torn down mid-segment (its
local live log gets the torn tail a real kill leaves, and a fresh
follower must resume from the committed prefix), and the primary killed
mid-ship (recovery trims its torn tail, so the restarted log is shorter
than what the follower already mirrored — the follower must detect the
trim and cut back to its applied prefix).  A directed test walks a
follower kill across a rotation so the resumed instance finishes
mirroring a segment that sealed while it was down.

``REPRO_REPL_KILLS`` (default 1) sets the seed count — the nightly
campaign runs 3.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import TINY_CONFIG, BatchOp, WBox
from repro.faults import run_chaos_trial, standard_plans
from repro.faults.chaos import _torn_append
from repro.persist import checkpoint_scheme
from repro.repl import (
    Follower,
    annotate_commits_with_epoch,
    checkpoint_service,
    rotate_service_wal,
)
from repro.service import ShardedLabelService
from repro.storage import BlockStore, FileBackend
from repro.storage.shardlayout import shard_page_path

KILLS = int(os.environ.get("REPRO_REPL_KILLS", "1"))
REPL_PLANS = standard_plans(["follower-kill", "primary-restart"])


@pytest.mark.parametrize("plan_name", REPL_PLANS)
def test_kill_restart_sweep(tmp_path, plan_name):
    """Seeded kills mid-stream; zero LID mismatches after catch-up."""
    for seed in range(KILLS):
        trial = run_chaos_trial(
            "wbox", plan_name, REPL_PLANS[plan_name], seed, str(tmp_path), max_ops=60
        )
        assert trial.crashed, f"seed {seed}: no kill was injected"
        assert trial.mismatches == 0 and not trial.error, trial
        assert trial.checked_lids > 0
        assert trial.replayed


@pytest.mark.slow
@pytest.mark.parametrize("plan_name", REPL_PLANS)
def test_kill_restart_campaign(tmp_path, plan_name):
    """The nightly-sized sweep: more seeds, longer tapes, double kills."""
    for seed in range(max(3, KILLS)):
        trial = run_chaos_trial(
            "wbox", plan_name, REPL_PLANS[plan_name], seed, str(tmp_path), max_ops=120
        )
        assert trial.crashed
        assert len(trial.faults_fired) == 2  # both kills of the row landed
        assert trial.mismatches == 0 and not trial.error, trial


def test_follower_kill_straddling_a_segment_boundary(tmp_path):
    """Directed boundary walk: the follower dies mid-segment, the
    primary rotates while it is down (sealing the very segment the
    follower was mirroring), and the resumed follower must finish that
    segment from its applied prefix, seal it locally, and stream on."""
    ready = threading.Event()
    holder: dict = {}
    from repro.net.server import run_server

    path = str(tmp_path / "primary.pages")
    backend = FileBackend(
        path,
    )
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
    service = ShardedLabelService([scheme]).start()
    annotate_commits_with_epoch(service)
    checkpoint_service(service)
    thread = threading.Thread(
        target=run_server,
        args=(service,),
        kwargs={"ready": ready, "holder": holder},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    port = holder["server"].port
    froot = str(tmp_path / "replica")

    def insert(anchor):
        lids.append(
            service.submit_ops([BatchOp("insert_before", (anchor,))])
            .wait(10)
            .results[0]
        )

    try:
        follower = Follower("127.0.0.1", port, froot).connect()
        follower.catch_up()
        # Commit into the live tail and let the follower mirror part of
        # the still-open segment.
        for index in range(4):
            insert(lids[index])
        follower.catch_up()
        mid_segment = follower.shards[0].segment
        assert follower.shards[0].offset > 0  # genuinely mid-segment
        follower.close()
        import random

        _torn_append(random.Random(7), shard_page_path(froot, 0) + ".wal")

        # While the follower is down: more commits, then the rotation
        # seals the segment it was half-way through.
        for index in range(4):
            insert(lids[-1 - index])
        sealed = rotate_service_wal(service)
        assert sealed[0] == mid_segment
        insert(lids[0])  # and a fresh live tail beyond the boundary

        resumed = Follower("127.0.0.1", port, froot).connect()
        try:
            resumed.catch_up()
            assert resumed.shards[0].segment == mid_segment + 1
            psess = service.session()
            fsess = resumed.service.session()
            for lid in lids:
                assert fsess.lookup(lid) == psess.lookup(lid)
        finally:
            resumed.close()
    finally:
        holder["stop"]()
        thread.join(10)
        service.close()
