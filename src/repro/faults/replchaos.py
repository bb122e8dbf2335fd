"""Replication chaos: kill and restart followers (and the primary)
mid-stream, then verify every LID against the live twin.

A replication trial runs a real primary — file-backed scheme, label
service, network front end — with a :class:`~repro.repl.Follower`
streaming its WAL, while a seeded write tape drives commits.  At seeded
points the trial injects one of two crash stories:

``follower-kill``
    The follower is torn down mid-stream and its local live log gets a
    garbage suffix appended (the torn, never-fsynced tail a real kill
    leaves).  A fresh follower reopens the same local files: stock crash
    recovery trims the garbage, the cursor resumes from the committed
    prefix, and streaming continues.

``primary-restart``
    Garbage is appended to the *primary's* live log while the server is
    still up, and the trial waits until the follower has mirrored those
    torn bytes.  Then the primary is killed and reopened: its recovery
    trims the torn tail, so the restarted server's log is *shorter* than
    what the follower already mirrored — the follower must detect the
    trim (``chunk.total < offset``), cut its own mirror back to the
    applied prefix, and resume.  This is the one window ordinary
    streaming never exercises.

After the tape (plus a final rotation) the follower catches up and
**every** live LID's label is compared between a primary session and a
follower session — the twin-oracle check, with the primary itself as the
oracle.  Trials reuse :class:`~repro.faults.chaos.ChaosTrial` /
:class:`~repro.faults.chaos.ChaosReport` so the CLI aggregates both
sweeps identically.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any, Callable, Iterable

from ..config import BoxConfig
from ..core.registry import scheme_factory
from ..storage import BlockStore, default_page_bytes
from ..storage.shardlayout import shard_page_path
from ..workloads.sequences import crash_recovery_tape
from .chaos import ChaosReport, ChaosTrial, _bulk

#: The replication crash stories a ``--repl`` sweep covers.
REPL_PLAN_NAMES = ("follower-kill", "primary-restart")


def _torn_append(rng: random.Random, wal_path: str) -> None:
    """Leave the torn tail a real kill leaves: a *prefix* of valid log
    bytes — a partial record (header or body cut short), or, on a log
    that never got its first append, a partial magic.  Random garbage
    would be dishonest: real crashes tear writes, they don't invent
    impossible record types."""
    from ..storage.wal import _HEADER, MAGIC, REC_META, REC_PUT

    fresh = not os.path.exists(wal_path) or os.path.getsize(wal_path) < len(MAGIC)
    if fresh:
        torn = MAGIC[: rng.randrange(1, len(MAGIC))]
    else:
        body = bytes(rng.randrange(0, 24))
        header = _HEADER.pack(
            rng.choice((REC_PUT, REC_META)), len(body) + rng.randrange(8, 64)
        )
        torn = (header + body)[: rng.randrange(1, len(header) + len(body) + 1)]
    with open(wal_path, "ab") as handle:
        handle.write(torn)


def run_repl_chaos_trial(
    scheme_name: str,
    plan_name: str,
    seed: int,
    directory: str,
    max_ops: int = 80,
    base_labels: int = 24,
    config: BoxConfig | None = None,
    kills: int = 2,
) -> ChaosTrial:
    """One seeded replication crash trial (see module docstring)."""
    from ..core.batch import BatchOp
    from ..net.server import serve_in_thread
    from ..repl import (
        Follower,
        annotate_commits_with_epoch,
        checkpoint_service,
        rotate_service_wal,
    )
    from ..service import ShardedLabelService
    from ..storage import FileBackend

    if plan_name not in REPL_PLAN_NAMES:
        raise KeyError(
            f"unknown replication plan {plan_name!r}; "
            f"choose from {', '.join(REPL_PLAN_NAMES)}"
        )
    trial = ChaosTrial(scheme=f"{scheme_name}+repl", plan=plan_name, seed=seed)
    if config is None:
        from ..config import TINY_CONFIG

        config = TINY_CONFIG
    factory = scheme_factory(scheme_name)
    rng = random.Random((seed << 8) ^ 0x5EED)
    path = os.path.join(directory, f"repl-{scheme_name}-{plan_name}-{seed}.pages")
    froot = path + ".replica"

    backend = FileBackend(
        path,
        page_bytes=default_page_bytes(config.block_bytes),
        retain_wal=True,
    )
    scheme = factory(config, BlockStore(config, backend=backend))
    live = _bulk(scheme, base_labels)
    service = ShardedLabelService([scheme]).start()
    annotate_commits_with_epoch(service)
    checkpoint_service(service)
    holder, thread = serve_in_thread(service)
    port = holder["server"].port

    follower = Follower("127.0.0.1", port, froot).connect()
    follower.start()

    tape = crash_recovery_tape(max_ops, seed=seed)
    kill_at = sorted(
        rng.sample(range(1, max(2, len(tape))), min(kills, max(1, len(tape) - 1)))
    )
    try:
        for index, (kind, draw) in enumerate(tape):
            if kind == "delete" and len(live) > 12:
                lid = live.pop(draw % len(live))
                service.submit_ops([BatchOp("delete", (lid,))]).wait(10)
            else:
                anchor = live[draw % len(live)]
                ticket = service.submit_ops([BatchOp("insert_before", (anchor,))])
                live.append(ticket.wait(10).results[0])
            trial.completed_ops += 1
            if index % 17 == 16:
                rotate_service_wal(service)
            if kill_at and index == kill_at[0]:
                kill_at.pop(0)
                trial.crashed = True
                if plan_name == "follower-kill":
                    follower = _kill_follower(follower, rng, froot, port, trial)
                else:
                    service, holder, thread, backend = _restart_primary(
                        follower, service, holder, thread, backend,
                        rng, path, port, trial,
                    )
        rotate_service_wal(service)
        follower.stop()
        follower.catch_up()
        trial.committed_ops = trial.completed_ops
        psess = service.session()
        fsess = follower.service.session()
        trial.checked_lids = len(live)
        for lid in live:
            if psess.lookup(lid) != fsess.lookup(lid):
                trial.mismatches += 1
        shard = follower.shards[0]
        trial.replayed = shard.txns_applied > 0
    except Exception as error:  # noqa: BLE001 — a trial must not kill the sweep
        trial.error = f"{type(error).__name__}: {error}"
    finally:
        for cleanup in (
            follower.close,
            holder["stop"],
            lambda: thread.join(10),
            service.close,
        ):
            try:
                cleanup()
            except Exception:  # noqa: BLE001 — teardown after a failed trial
                pass
    return trial


def _kill_follower(
    follower: Any, rng: random.Random, froot: str, port: int, trial: ChaosTrial
) -> Any:
    """Tear the follower down mid-stream, leave a torn local tail, and
    bring a fresh one up over the same files."""
    from ..repl import Follower

    follower.close()
    _torn_append(rng, shard_page_path(froot, 0) + ".wal")
    trial.faults_fired.append("repl.follower:kill")
    replacement = Follower("127.0.0.1", port, froot).connect()
    replacement.start()
    return replacement


def _restart_primary(
    follower: Any,
    service: Any,
    holder: dict,
    thread: threading.Thread,
    backend: Any,
    rng: random.Random,
    path: str,
    port: int,
    trial: ChaosTrial,
) -> tuple[Any, dict, threading.Thread, Any]:
    """Kill the primary after the follower mirrors a torn tail, reopen
    it (recovery trims the tear), and restart the server on the same
    port — the running follower must trim its mirror and resume."""
    from ..net.server import serve_in_thread
    from ..repl import annotate_commits_with_epoch
    from ..persist import open_file_scheme
    from ..service import ShardedLabelService

    # A torn in-flight append: bytes hit the live log but no commit
    # record ever will.  The server keeps serving, so the follower
    # mirrors them (it cannot apply them — the scan finds no commit).
    _torn_append(rng, backend.wal_path)
    wal_len = os.path.getsize(backend.wal_path)
    deadline = time.monotonic() + 10.0
    shard = follower.shards[0]
    while time.monotonic() < deadline:
        if shard.segment == _primary_segment(backend) and shard.offset >= wal_len:
            break
        time.sleep(0.01)
    holder["stop"]()
    thread.join(10)
    service.close()
    trial.faults_fired.append("repl.primary:restart")
    reopened = open_file_scheme(path, retain_wal=True)
    service = ShardedLabelService([reopened]).start()
    annotate_commits_with_epoch(service)
    holder, thread = serve_in_thread(service, port=port)
    return service, holder, thread, reopened.store.backend


def _primary_segment(backend: Any) -> int:
    manifest = backend.wal_manifest
    return manifest["next_segment"] if manifest else 0


def run_repl_chaos_sweep(
    seeds: int | Iterable[int],
    schemes: Iterable[str] | None = None,
    plans: Iterable[str] | None = None,
    max_ops: int = 80,
    base_labels: int = 24,
    config: BoxConfig | None = None,
    root_dir: str | None = None,
    kills: int = 2,
    progress: Callable[[ChaosTrial], None] | None = None,
) -> ChaosReport:
    """``seeds`` x ``plans`` x ``schemes`` replication crash trials."""
    import tempfile

    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    scheme_list = list(schemes) if schemes is not None else ["wbox"]
    plan_list = list(plans) if plans is not None else list(REPL_PLAN_NAMES)
    for name in scheme_list:
        scheme_factory(name)
    report = ChaosReport()
    with tempfile.TemporaryDirectory(
        prefix="repro-repl-chaos-", dir=root_dir
    ) as directory:
        for seed in seed_list:
            for plan_name in plan_list:
                for scheme_name in scheme_list:
                    trial = run_repl_chaos_trial(
                        scheme_name,
                        plan_name,
                        seed,
                        directory,
                        max_ops=max_ops,
                        base_labels=base_labels,
                        config=config,
                        kills=kills,
                    )
                    report.trials.append(trial)
                    if progress is not None:
                        progress(trial)
    return report
