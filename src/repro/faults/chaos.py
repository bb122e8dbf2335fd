"""Seeded chaos sweeps: crash, recover, verify against a twin oracle.

One *trial* is the full crash-recovery story for a single
``(scheme, fault plan, seed)`` triple:

1. Build the scheme on a fresh :class:`~repro.storage.FileBackend` in a
   throwaway directory, bulk load a base document, checkpoint it.
2. Install a :class:`~repro.faults.FaultInjector` built from the plan and
   seed, then run a deterministic mixed insert/delete tape
   (:func:`~repro.workloads.crash_recovery_tape`) until the injected
   fault kills the backend — or the tape ends (latency plans don't kill).
3. Reopen the page file with :func:`~repro.persist.open_file_scheme`,
   which runs WAL recovery.
4. Replay the *committed prefix* of the same tape on a twin scheme over
   the memory backend and compare **every** LID's label: the recovered
   structure must agree exactly.  The committed prefix is the ops that
   finished before the crash, plus the in-flight op if (and only if) its
   commit record reached the log (``recovery_report`` says so).

:func:`run_chaos_sweep` runs the full cross product and aggregates a
:class:`ChaosReport`; the ``repro chaos`` CLI subcommand is a thin shell
around it.  Everything is deterministic in the seed list: tapes, firing
points, and short-write cut points all come from ``random.Random`` seeded
per trial.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..config import BoxConfig
from ..core.registry import scheme_factory
from ..errors import (
    CrashError,
    FsyncFailedError,
    RecoveryError,
    ServiceClosedError,
    ServiceDegradedError,
    TransientIOError,
    WriterCrashError,
)
from ..persist import (
    checkpoint_scheme,
    create_sharded_backends,
    open_file_scheme,
    open_sharded_schemes,
)
from ..storage import BlockStore, FileBackend, default_page_bytes
from ..workloads.sequences import apply_tape_step, crash_recovery_tape
from .plan import WRITER_CRASH, FaultInjector, FaultPlan, FaultSpec

#: The scheme variants every sweep covers (CLI names).
SCHEME_NAMES = ("wbox", "wboxo", "bbox", "bbox-o", "naive-8", "ancestry-dyn")

#: Exceptions that mean "the machine died here" for sweep purposes.
_CRASH_ERRORS = (CrashError, FsyncFailedError, TransientIOError)


def standard_plans() -> dict[str, FaultPlan]:
    """The standard sweep plan set: one plan per crash window class.

    Firing points are seeded (``at=None``) where the window is wide, so
    different seeds crash at different protocol offsets — the sweep walks
    the crash point through WAL records, page images, the superblock, and
    the fsync boundaries without anyone enumerating write budgets.
    """
    return {
        "torn-write": FaultPlan.torn_write(at=None, window=(1, 48)),
        "short-write": FaultPlan.short_write(at=None, window=(1, 48)),
        "fsync-fail": FaultPlan.fsync_failure(at=None, window=(1, 12)),
        "superblock-torn": FaultPlan.superblock_crash(at=None, window=(1, 8)),
        "latency": FaultPlan.latency_spike(0.0002, at=None, window=(1, 48)),
        # Shard-targeted: kill exactly shard 1's writer of a 2-shard
        # service at a seeded apply, then recover *all* shards.  The
        # ``@shard1`` scope suffix routes the fault through shard 1's
        # scoped injector view only; the sweep dispatches this plan to
        # the sharded trial runner automatically.
        "shard-writer-crash": FaultPlan(
            [
                FaultSpec(
                    WRITER_CRASH, "service.writer_apply@shard1", at=None, window=(1, 16)
                )
            ],
            name="shard-writer-crash",
        ),
    }


def standard_plan_names() -> list[str]:
    return list(standard_plans())


@dataclass
class ChaosTrial:
    """Outcome of one (scheme, plan, seed) crash-recovery trial."""

    scheme: str
    plan: str
    seed: int
    crashed: bool = False
    #: What the injector actually fired, as ``hook:kind`` strings.
    faults_fired: list[str] = field(default_factory=list)
    #: Tape steps that completed before the fault struck.
    completed_ops: int = 0
    #: Committed prefix length the twin replayed (ops, not transactions).
    committed_ops: int = 0
    #: Whether recovery replayed the in-flight op's committed transaction.
    replayed: bool = False
    checked_lids: int = 0
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


def _bulk(scheme: Any, count: int) -> list[int]:
    # Sibling start/end pairing: W-BOX-O needs it, the rest ignore it.
    return scheme.bulk_load(count, [i ^ 1 for i in range(count)])


def _plan_needs_fsync(plan: FaultPlan) -> bool:
    return any(spec.hook == "backend.fsync" for spec in plan)


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
    """Run one crash-recovery trial in ``directory`` (caller-owned)."""
    trial = ChaosTrial(scheme=scheme_name, plan=plan_name, seed=seed)
    if config is None:
        from ..config import TINY_CONFIG

        config = TINY_CONFIG
    factory = scheme_factory(scheme_name)
    path = os.path.join(directory, f"{scheme_name}-{plan_name}-{seed}.pages")
    backend = FileBackend(
        path,
        page_bytes=default_page_bytes(config.block_bytes),
        fsync=_plan_needs_fsync(plan),
    )
    scheme = factory(config, BlockStore(config, backend=backend))
    lids = _bulk(scheme, base_labels)
    checkpoint_scheme(scheme)

    injector = FaultInjector(plan, seed=seed)
    backend.install_faults(injector)
    tape = crash_recovery_tape(max_ops, seed=seed)
    try:
        for step in tape:
            apply_tape_step(scheme, lids, step)
            trial.completed_ops += 1
    except _CRASH_ERRORS:
        trial.crashed = True
    trial.faults_fired = [f"{f.hook}:{f.kind}" for f in injector.fired]
    backend.close()

    try:
        reopened = open_file_scheme(path)
    except RecoveryError as error:
        trial.error = f"recovery failed: {error}"
        return trial
    try:
        report = reopened.store.backend.recovery_report
        trial.replayed = bool(report.get("replayed_transactions"))
        trial.committed_ops = trial.completed_ops
        if trial.crashed and trial.replayed:
            # The in-flight op's commit record made the log: recovery
            # replayed it, so the twin must apply that op too.
            trial.committed_ops += 1

        twin = factory(config, None)
        twin_lids = _bulk(twin, base_labels)
        for step in tape[: trial.committed_ops]:
            apply_tape_step(twin, twin_lids, step)
        trial.checked_lids = len(twin_lids)
        for lid in twin_lids:
            if reopened.lookup(lid) != twin.lookup(lid):
                trial.mismatches += 1
        # The recovered structure must also keep working.
        reopened.insert_before(twin_lids[0])
        if hasattr(reopened, "check_invariants"):
            reopened.check_invariants()
    except Exception as error:  # noqa: BLE001 - a trial must not kill the sweep
        trial.error = f"{type(error).__name__}: {error}"
    finally:
        reopened.store.backend.close()
    return trial


def _plan_is_sharded(plan: FaultPlan) -> bool:
    """Whether any spec targets a shard-scoped hook (``hook@shardN``)."""
    return any("@" in spec.hook for spec in plan)


def run_shard_chaos_trial(
    scheme_name: str,
    plan_name: str,
    plan: FaultPlan,
    seed: int,
    directory: str,
    max_ops: int = 120,
    base_labels: int = 24,
    config: BoxConfig | None = None,
    n_shards: int = 2,
) -> ChaosTrial:
    """One crash-recovery trial against a live sharded service.

    The tape drives a running :class:`~repro.service.ShardedLabelService`
    (one writer thread per shard) over file-backed shards, one synchronous
    ticket per step, until the plan's shard-scoped fault kills one shard's
    writer.  Because the standard shard plan fires at
    ``service.writer_apply`` — *before* the batch touches the structure —
    the committed state is exactly the completed tape prefix: the twin
    oracle replays precisely the steps whose tickets resolved.  Recovery
    then reopens **all** shards (:func:`~repro.persist.open_sharded_schemes`)
    and every global LID is compared against the per-shard memory twins;
    finally each recovered shard must accept a fresh insert.
    """
    from ..core.batch import BatchOp
    from ..service import ShardedLabelService
    from ..service.router import ShardRouter

    trial = ChaosTrial(scheme=f"{scheme_name}x{n_shards}", plan=plan_name, seed=seed)
    if config is None:
        from ..config import TINY_CONFIG

        config = TINY_CONFIG
    factory = scheme_factory(scheme_name)
    router = ShardRouter(n_shards)
    root = os.path.join(directory, f"{scheme_name}-{plan_name}-{seed}.shards")
    backends = create_sharded_backends(
        root,
        n_shards,
        page_bytes=default_page_bytes(config.block_bytes),
        fsync=_plan_needs_fsync(plan),
    )
    schemes = [
        factory(config, BlockStore(config, backend=backend)) for backend in backends
    ]
    glids = _bulk_sharded(schemes, router, base_labels)
    for scheme in schemes:
        checkpoint_scheme(scheme)

    injector = FaultInjector(plan, seed=seed)
    for shard, backend in enumerate(backends):
        backend.install_faults(injector.scoped(f"shard{shard}"))
    tape = crash_recovery_tape(max_ops, seed=seed)
    service = ShardedLabelService(schemes, group_size=8, fault_injector=injector)
    service.start()
    try:
        for step in tape:
            kind, draw = step
            if kind == "delete" and len(glids) > 12:
                glid = glids.pop(draw % len(glids))
                service.submit_ops([BatchOp("delete", (glid,))]).wait(10)
            else:
                anchor = glids[draw % len(glids)]
                ticket = service.submit_ops([BatchOp("insert_before", (anchor,))])
                glids.append(ticket.wait(10).results[0])
            trial.completed_ops += 1
    except _CRASH_ERRORS + (WriterCrashError, ServiceDegradedError, ServiceClosedError):
        trial.crashed = True
    trial.faults_fired = [f"{f.hook}:{f.kind}" for f in injector.fired]
    service.close()
    for backend in backends:
        backend.close()

    try:
        reopened = open_sharded_schemes(root)
    except RecoveryError as error:
        trial.error = f"recovery failed: {error}"
        return trial
    try:
        trial.replayed = any(
            bool(scheme.store.backend.recovery_report.get("replayed_transactions"))
            for scheme in reopened
        )
        # The writer-apply fault fires before its batch mutates anything,
        # so the committed prefix is exactly the completed steps — no
        # in-flight-transaction correction, unlike the single-scheme trial.
        trial.committed_ops = trial.completed_ops

        twins = [factory(config, None) for _ in range(n_shards)]
        twin_glids = _bulk_sharded(twins, router, base_labels)
        for step in tape[: trial.committed_ops]:
            kind, draw = step
            if kind == "delete" and len(twin_glids) > 12:
                glid = twin_glids.pop(draw % len(twin_glids))
                twins[router.shard_of(glid)].delete(router.to_local(glid))
            else:
                anchor = twin_glids[draw % len(twin_glids)]
                shard = router.shard_of(anchor)
                local = twins[shard].insert_before(router.to_local(anchor))
                twin_glids.append(router.to_global(local, shard))
        trial.checked_lids = len(twin_glids)
        for glid in twin_glids:
            shard, local = router.shard_of(glid), router.to_local(glid)
            if reopened[shard].lookup(local) != twins[shard].lookup(local):
                trial.mismatches += 1
        # Every recovered shard — including the killed one — must keep
        # working: accept an insert anchored at its first live LID.
        for shard in range(n_shards):
            anchored = next(
                (g for g in twin_glids if router.shard_of(g) == shard), None
            )
            if anchored is not None:
                reopened[shard].insert_before(router.to_local(anchored))
            if hasattr(reopened[shard], "check_invariants"):
                reopened[shard].check_invariants()
    except Exception as error:  # noqa: BLE001 - a trial must not kill the sweep
        trial.error = f"{type(error).__name__}: {error}"
    finally:
        for scheme in reopened:
            scheme.store.backend.close()
    return trial


def _bulk_sharded(schemes: list, router: Any, count: int) -> list[int]:
    """Paired bulk load split into contiguous per-shard chunks, returning
    global LIDs in document order (chunk sizes forced even so sibling
    start/end pairs never straddle a chunk)."""
    per = count // len(schemes)
    per -= per % 2
    glids: list[int] = []
    for shard, scheme in enumerate(schemes):
        chunk = count - per * (len(schemes) - 1) if shard == len(schemes) - 1 else per
        locals_ = scheme.bulk_load(chunk, [i ^ 1 for i in range(chunk)])
        glids.extend(router.to_global(local, shard) for local in locals_)
    return glids


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
                runner = (
                    run_shard_chaos_trial if _plan_is_sharded(plan) else run_chaos_trial
                )
                for scheme_name in scheme_list:
                    trial = runner(
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
