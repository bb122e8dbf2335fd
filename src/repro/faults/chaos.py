"""Seeded chaos sweeps: crash, recover, verify against a twin oracle.

One *trial* is the full crash-recovery story for a single
``(scheme, fault plan, seed)`` triple, and :func:`run_chaos_trial` is the
one shape of it:

1. Create a sharded store root in a throwaway directory
   (:func:`~repro.persist.create_store`), bulk loading a base document
   (:func:`~repro.service.bulk_load_sharded`) between two checkpoints.
   The topology is *derived from the plan*: one shard more than the
   highest ``@shardK`` scope it names (else one shard), and a
   network front end plus a streaming :class:`~repro.repl.Follower` iff
   it names a ``repl.*`` hook.
2. Start a :class:`~repro.service.ShardedLabelService` carrying a
   :class:`~repro.faults.FaultInjector` built from the plan and seed, and
   drive a deterministic mixed insert/delete tape with a checkpoint every
   few steps (:func:`~repro.workloads.crash_recovery_tape`), one
   synchronous ticket per step, until an injected fault kills a backend
   or a writer — or the
   tape ends (latency plans don't kill; ``repl.*`` faults kill the
   follower or restart the primary mid-stream and the tape goes on).
3. Close everything and reopen the root with
   :func:`~repro.persist.open_store`, which re-runs each shard's logged tapes over
   its last checkpoint.
4. Replay the *committed prefix* of the same tape on per-shard twin
   schemes over the memory backend and compare **every** LID's label on
   every endpoint — each recovered shard, plus the follower when there is
   one — against the twin.  The committed prefix is the steps that
   finished before the crash, plus the in-flight step if (and only if)
   its commit record reached a log (a recovered shard's LSN is then past
   the one the last finished step left).  Each recovered shard must then
   accept a fresh insert.

:func:`run_chaos_sweep` runs the full cross product and aggregates a
:class:`ChaosReport`; the ``repro chaos`` CLI subcommand is a thin shell
around it.  Everything is deterministic in the seed list: tapes, firing
points, short-write cut points and torn-tail bytes all come from
``random.Random`` seeded per trial.
"""

from __future__ import annotations

import os
import random
import re
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..config import TINY_CONFIG, BoxConfig
from ..core.batch import BatchOp
from ..core.registry import scheme_factory
from ..errors import (
    CrashError,
    FsyncFailedError,
    ReproError,
    ServiceClosedError,
    ServiceDegradedError,
    TransientIOError,
    WriterCrashError,
)
from ..net.server import serve_in_thread
from ..persist import create_store, open_store
from ..repl import (
    Follower,
    annotate_commits_with_epoch,
    checkpoint_service,
    rotate_service_wal,
)
from ..service import ShardedLabelService, bulk_load_sharded
from ..service.router import ShardRouter
from ..storage.shardlayout import shard_page_path
from ..storage.wal import _HEADER, MAGIC, REC_OPS
from ..workloads.sequences import apply_tape_step, crash_recovery_tape
from .plan import TORN_WRITE, WRITER_CRASH, FaultInjector, FaultPlan, FaultSpec

#: The scheme variants every sweep covers (CLI names).
SCHEME_NAMES = ("wbox", "wboxo", "bbox", "bbox-o", "naive-8", "ancestry-dyn")

#: Exceptions that mean "the machine died here": the tape stops.
_CRASH_ERRORS = (
    CrashError,
    FsyncFailedError,
    TransientIOError,
    WriterCrashError,
    ServiceDegradedError,
    ServiceClosedError,
)

_SHARD_SCOPE = re.compile(r"@shard(\d+)$")


def _kills(hook: str) -> FaultPlan:
    """Two kills at driver hook ``hook``, one spec each.  The driver fires
    the hook once per completed tape step; disjoint windows make both
    kills land, at distinct steps, on any tape of 40+ steps.  The kind
    names what both stories leave behind — a process killed with a torn
    append in its live log; the driver's action for the hook
    (``_REPL_ACTIONS``) is what performs it, so the kind selects nothing."""
    return FaultPlan(
        [
            FaultSpec(TORN_WRITE, hook, at=None, window=window)
            for window in ((1, 20), (21, 40))
        ],
        name=f"kills@{hook}",
    )


def standard_plans(names: Iterable[str] | None = None) -> dict[str, FaultPlan]:
    """The standard sweep plan table: one row per crash window class.

    Firing points are seeded (``at=None``) where the window is wide, so
    different seeds crash at different protocol offsets — the sweep walks
    the crash point through WAL records, page images, the directory, and
    the fsync boundaries without anyone enumerating write budgets.  Page
    and directory writes happen only in the tape's checkpoint steps (one
    ``backend.superblock`` invocation each), which is what the windows
    are sized against.

    ``names`` selects rows (in the order given); a name that is not in
    the table raises :class:`~repro.errors.ReproError`.
    """
    plans = {
        # ~50 physical writes and 9 fsyncs per 8-step tape cycle (seven
        # commits, one checkpoint): three cycles' worth, so the draw lands
        # in page and directory writes as often as it used to.
        "torn-write": FaultPlan.torn_write(at=None, window=(1, 160)),
        "short-write": FaultPlan.short_write(at=None, window=(1, 160)),
        "fsync-fail": FaultPlan.fsync_failure(at=None, window=(1, 27)),
        "superblock-torn": FaultPlan.superblock_crash(at=None, window=(1, 6)),
        "latency": FaultPlan.latency_spike(0.0002, at=None, window=(1, 160)),
        # Shard-targeted: kill exactly shard 1's writer at a seeded apply,
        # then recover *all* shards.  The ``@shard1`` scope suffix routes
        # the fault through shard 1's scoped injector view only, and makes
        # the trial a 2-shard one.
        "shard-writer-crash": FaultPlan(
            [
                FaultSpec(
                    WRITER_CRASH, "service.writer_apply@shard1", at=None, window=(1, 16)
                )
            ],
            name="shard-writer-crash",
        ),
        # Replication stories (see _Stack.kill_follower / restart_primary):
        # a ``repl.*`` hook makes the trial serve the network and stream
        # its WAL to a follower, which is then verified like a shard.
        "follower-kill": _kills("repl.follower"),
        "primary-restart": _kills("repl.primary"),
    }
    if names is None:
        return plans
    wanted = list(names)
    unknown = [name for name in wanted if name not in plans]
    if unknown:
        raise ReproError(
            f"unknown plan(s) {', '.join(unknown)}; choose from {', '.join(plans)}"
        )
    return {name: plans[name] for name in wanted}


def standard_plan_names() -> list[str]:
    return list(standard_plans())


@dataclass
class ChaosTrial:
    """Outcome of one (scheme, plan, seed) crash-recovery trial."""

    #: Scheme name plus the derived topology: ``wbox``, ``wboxx2`` (two
    #: shards), ``wbox+repl`` (primary + follower).
    scheme: str
    plan: str
    seed: int
    #: A fault killed something: the tape, the follower, or the primary.
    crashed: bool = False
    #: What the injector actually fired, as ``hook:kind`` strings.
    faults_fired: list[str] = field(default_factory=list)
    #: Tape steps that completed before the fault struck.
    completed_ops: int = 0
    #: Committed prefix length the twin replayed (ops, not transactions).
    committed_ops: int = 0
    #: Whether a committed transaction was replayed from a log: by a
    #: shard's reopen — or, on a replication row, by the follower
    #: applying shipped WAL (there the primary's own reopen does not count).
    replayed: bool = False
    checked_lids: int = 0
    #: (LID, endpoint) pairs whose label disagrees with the twin.
    mismatches: int = 0
    #: Unexpected failure (recovery error, oracle exception), if any.
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and not self.error


@dataclass
class ChaosReport:
    """Aggregate of a full sweep."""

    trials: list[ChaosTrial] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.trials)

    @property
    def crashes(self) -> int:
        return sum(1 for t in self.trials if t.crashed)

    @property
    def replays(self) -> int:
        return sum(1 for t in self.trials if t.replayed)

    @property
    def lids_checked(self) -> int:
        return sum(t.checked_lids for t in self.trials)

    @property
    def failures(self) -> list[ChaosTrial]:
        return [t for t in self.trials if not t.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def _torn_append(rng: random.Random, wal_path: str) -> None:
    """Leave the torn tail a real kill leaves: a *prefix* of valid log
    bytes — a partial record (header or body cut short), or, on a log
    that never got its first append, a partial magic.  Random garbage
    would be dishonest: real crashes tear writes, they don't invent
    impossible record types."""
    fresh = not os.path.exists(wal_path) or os.path.getsize(wal_path) < len(MAGIC)
    if fresh:
        torn = MAGIC[: rng.randrange(1, len(MAGIC))]
    else:
        body = bytes(rng.randrange(0, 24))
        header = _HEADER.pack(REC_OPS, len(body) + rng.randrange(8, 64))  # a commit's first
        torn = (header + body)[: rng.randrange(1, len(header) + len(body) + 1)]
    with open(wal_path, "ab") as handle:
        handle.write(torn)


class _Shards:
    """Bare per-shard schemes addressed by global LID: the memory twins
    (an insert/delete target for :func:`apply_tape_step`) and the
    recovered shards (an endpoint to look up).  Each edit is a one-op
    batch, so on a recovered shard it commits as a logged tape, as the
    live service's do."""

    def __init__(self, schemes: list) -> None:
        self.schemes = schemes
        self.router = ShardRouter(len(schemes))

    def _local(self, glid: int) -> tuple[Any, int]:
        return self.schemes[self.router.shard_of(glid)], self.router.to_local(glid)

    def lookup(self, glid: int) -> Any:
        scheme, local = self._local(glid)
        return scheme.lookup(local)

    def insert_before(self, glid: int) -> int:
        scheme, local = self._local(glid)
        (lid,) = scheme.execute_batch([BatchOp("insert_before", (local,))]).results
        return self.router.to_global(lid, self.router.shard_of(glid))

    def delete(self, glid: int) -> None:
        scheme, local = self._local(glid)
        scheme.execute_batch([BatchOp("delete", (local,))])


class _Stack:
    """The live system one trial drives: the insert/delete target
    :func:`apply_tape_step` sees, one synchronous ticket per call.  A
    replicated stack also serves the network and streams to a follower;
    the ``repl.*`` actions swap its parts in place."""

    def __init__(self, root: str, injector: FaultInjector, replicated: bool) -> None:
        self.root = root
        self.injector = injector
        self.replicated = replicated
        #: Draws the torn-tail bytes the ``repl.*`` kills leave behind.
        self.rng = random.Random((injector.seed << 8) ^ 0x5EED)
        self.service: Any = None
        self.server: Any = None  # serve_in_thread's (holder, thread)
        self.follower: Any = None

    def start(self, schemes: list, port: int = 0) -> None:
        """Bring the primary up over ``schemes``."""
        self.service = ShardedLabelService(
            schemes, group_size=8, fault_injector=self.injector
        ).start()
        if self.replicated:
            annotate_commits_with_epoch(self.service)
            self.server = serve_in_thread(self.service, port=port)

    def follow(self) -> None:
        """Bring a follower up over the replica root (fresh or reopened)."""
        port = self.server[0]["server"].port
        self.follower = Follower("127.0.0.1", port, self.root + ".replica").start()

    def stop_primary(self) -> None:
        """Stop the server, the service and its backends; a no-op on a
        primary that is already down."""
        server, service, self.server, self.service = self.server, self.service, None, None
        try:
            if server is not None:
                holder, thread = server
                holder["stop"]()
                thread.join(10)
        finally:
            if service is not None:
                service.close()
                for scheme in service.schemes:
                    scheme.store.backend.close()

    def insert_before(self, glid: int) -> int:
        ticket = self.service.submit_ops([BatchOp("insert_before", (glid,))])
        return ticket.wait(10).results[0]

    def delete(self, glid: int) -> None:
        self.service.submit_ops([BatchOp("delete", (glid,))]).wait(10)

    def checkpoint(self) -> None:
        """The tape's checkpoint step: each shard between two commits."""
        rotate_service_wal(self.service)

    def lsns(self) -> list[int]:
        return [scheme.store.backend.lsn for scheme in self.service.schemes]

    def kill_follower(self) -> None:
        """``repl.follower``: the follower is torn down mid-stream and its
        local live log gets the torn, never-fsynced tail a real kill
        leaves.  A fresh follower reopens the same files: stock crash
        recovery trims the tear, the cursor resumes from the committed
        prefix, and streaming continues."""
        self.follower.close()
        _torn_append(self.rng, shard_page_path(self.root + ".replica", 0) + ".wal")
        self.follow()

    def restart_primary(self) -> None:
        """``repl.primary``: a torn in-flight append hits the *primary's*
        live log while the server is still up — bytes no commit record
        will ever follow — and the follower mirrors them (it cannot apply
        them).  Then the primary is killed and reopened on the same port:
        its recovery trims the tear, so the restarted log is *shorter*
        than what the follower mirrored, and the running follower must
        detect the trim (``chunk.total < offset``), cut its own mirror
        back to the applied prefix, and resume.  This is the one window
        ordinary streaming never exercises."""
        backend = self.service.schemes[0].store.backend
        _torn_append(self.rng, backend.wal_path)
        wal_len = os.path.getsize(backend.wal_path)
        segment = backend.wal_manifest["next_segment"]
        shard = self.follower.shards[0]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if shard.segment == segment and shard.offset >= wal_len:
                break
            time.sleep(0.01)
        self.stop_primary()
        self.start(open_store(self.root), port=self.follower.port)

    def stop_follower(self) -> None:
        if self.follower is not None:
            self.follower.close()


#: Driver-level hooks, fired once per completed tape step of a replicated
#: trial; each fired spec is one kill.
_REPL_ACTIONS = {
    "repl.follower": _Stack.kill_follower,
    "repl.primary": _Stack.restart_primary,
}


def run_chaos_trial(
    scheme_name: str,
    plan_name: str,
    plan: FaultPlan,
    seed: int,
    directory: str,
    max_ops: int = 300,
    base_labels: int = 24,
    config: BoxConfig | None = None,
) -> ChaosTrial:
    """Run one crash-recovery trial under ``directory`` (caller-owned);
    see the module docstring for its four steps."""
    config = config if config is not None else TINY_CONFIG
    scoped = [int(m.group(1)) for spec in plan if (m := _SHARD_SCOPE.search(spec.hook))]
    n_shards = max(scoped, default=0) + 1
    repl_hooks = sorted({spec.hook for spec in plan} & _REPL_ACTIONS.keys())
    trial = ChaosTrial(
        scheme=scheme_name
        + ("+repl" if repl_hooks else "")
        + (f"x{n_shards}" if n_shards > 1 else ""),
        plan=plan_name,
        seed=seed,
    )
    root = os.path.join(directory, f"{scheme_name}-{plan_name}-{seed}.shards")
    injector = FaultInjector(plan, seed=seed)
    tape = crash_recovery_tape(max_ops, seed=seed)
    stack = _Stack(root, injector, bool(repl_hooks))
    replica = None
    schemes: list = []
    reopened: list = []
    populate = lambda fresh: bulk_load_sharded(fresh, base_labels)
    try:
        schemes, lids = create_store(
            root,
            scheme_name,
            n_shards,
            config=config,
            populate=populate,
            fsync=any(spec.hook.startswith("backend.fsync") for spec in plan),
        )
        stack.start(schemes)
        if repl_hooks:
            checkpoint_service(stack.service)  # the image a follower boots from
            stack.follow()
        for shard, scheme in enumerate(schemes):
            scheme.store.backend.install_faults(injector.scoped(f"shard{shard}"))
        acked = stack.lsns()
        try:
            for index, step in enumerate(tape):
                apply_tape_step(stack, lids, step)
                trial.completed_ops += 1
                acked = stack.lsns()
                if repl_hooks and index % 17 == 16:
                    # Every third rotation records an image, so retention
                    # moves the horizon while the kills run — taken, as
                    # the two-image horizon assumes, with the follower
                    # caught up.
                    if index % 51 == 50:
                        stack.follower.catch_up()
                        checkpoint_service(stack.service)
                    else:
                        rotate_service_wal(stack.service)
                for hook in repl_hooks:
                    if injector.fire(hook) is not None:
                        trial.crashed = True
                        _REPL_ACTIONS[hook](stack)
            if repl_hooks:
                # Seal the live tail and let the follower apply everything
                # shipped: its reader session is one more endpoint to verify.
                rotate_service_wal(stack.service)
                stack.follower.stop()
                stack.follower.catch_up()
                replica = stack.follower.service.session()
        except _CRASH_ERRORS:
            trial.crashed = True
        trial.faults_fired = [f"{f.hook}:{f.kind}" for f in injector.fired]
        stack.stop_primary()

        reopened = open_store(root)
        trial.replayed = any(
            scheme.store.backend.recovery_report.get("replayed_transactions")
            for scheme in reopened
        )
        # A tape cut short leaves one step in flight.  If its commit
        # record made a log, recovery replayed it — the shard's LSN is past
        # the last acknowledged one — so the twin must apply that step too.
        in_flight = trial.completed_ops < len(tape) and any(
            scheme.store.backend.lsn > lsn for scheme, lsn in zip(reopened, acked)
        )
        trial.committed_ops = trial.completed_ops + (1 if in_flight else 0)
        if repl_hooks:
            # What a replication row must show is the *follower* applying
            # shipped WAL; the primary's own reopen does not count.
            trial.replayed = any(s.txns_applied for s in stack.follower.shards)

        twins, twin_lids = create_store(
            None, scheme_name, n_shards, config=config, populate=populate
        )
        twin = _Shards(twins)
        for step in tape[: trial.committed_ops]:
            apply_tape_step(twin, twin_lids, step)
        recovered = _Shards(reopened)
        endpoints = [recovered.lookup]
        if replica is not None:
            endpoints.append(replica.lookup)
        trial.checked_lids = len(twin_lids)
        for lid in twin_lids:
            expected = twin.lookup(lid)
            trial.mismatches += sum(lookup(lid) != expected for lookup in endpoints)
        # Every recovered shard — a killed one included — must keep
        # working: accept an insert anchored at its first live LID.
        for shard, scheme in enumerate(reopened):
            anchor = next(
                (g for g in twin_lids if twin.router.shard_of(g) == shard), None
            )
            if anchor is not None:
                recovered.insert_before(anchor)
            if hasattr(scheme, "check_invariants"):
                scheme.check_invariants()
    except Exception as error:  # noqa: BLE001 - a trial must not kill the sweep
        trial.error = f"{type(error).__name__}: {error}"
    finally:
        closers = [stack.stop_follower, stack.stop_primary]
        closers += [scheme.store.backend.close for scheme in schemes + reopened]
        for close in closers:
            try:
                close()
            except Exception as error:  # noqa: BLE001 - nor may its teardown
                trial.error = trial.error or f"teardown {type(error).__name__}: {error}"
    return trial


def run_chaos_sweep(
    seeds: int | Iterable[int],
    schemes: Iterable[str] | None = None,
    plans: dict[str, FaultPlan] | None = None,
    max_ops: int = 300,
    base_labels: int = 24,
    config: BoxConfig | None = None,
    root_dir: str | None = None,
    progress: Callable[[ChaosTrial], None] | None = None,
) -> ChaosReport:
    """The full sweep: ``seeds`` x ``plans`` x ``schemes`` trials.

    ``seeds`` may be a count (``20`` means seeds ``0..19``) or an explicit
    iterable.  Unknown scheme names raise
    :class:`~repro.errors.ReproError` up front rather than failing trials
    one by one.
    """
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    scheme_list = list(schemes) if schemes is not None else list(SCHEME_NAMES)
    for name in scheme_list:
        scheme_factory(name)
    plan_map = plans if plans is not None else standard_plans()
    report = ChaosReport()
    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-", dir=root_dir
    ) as directory:
        for seed in seed_list:
            for plan_name, plan in plan_map.items():
                for scheme_name in scheme_list:
                    trial = run_chaos_trial(
                        scheme_name,
                        plan_name,
                        plan,
                        seed,
                        directory,
                        max_ops=max_ops,
                        base_labels=base_labels,
                        config=config,
                    )
                    report.trials.append(trial)
                    if progress is not None:
                        progress(trial)
    return report
