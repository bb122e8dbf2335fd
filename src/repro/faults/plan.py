"""Declarative, deterministic, seedable fault injection.

A :class:`FaultPlan` is a list of :class:`FaultSpec` items, each naming a
*hook point* (a stable string like ``backend.raw_write``), a fault
*kind*, and *when* to fire (the 1-based invocation index of that hook).
A :class:`FaultInjector` holds one plan plus per-hook invocation counters
and an optional seeded RNG.  Production code calls
``injector.hit(hook, ...)`` at every hook point, and :meth:`FaultInjector.hit`
is the one interpreter of what a fault kind does: it fires the plan
(:meth:`FaultInjector.fire`, ``None`` almost always) and carries the
action out — sleeps, or raises the kind's error.  The one thing it hands
back is what only the site can do: a torn or short write at a site that
passed the ``size`` of the bytes it holds.  The site tears those bytes,
keeping :meth:`FaultAction.keep` of them.

Hook points currently wired (see DESIGN.md section 10 for the table):

=====================  ==========================================================
hook                   fires
=====================  ==========================================================
``backend.raw_write``  every physical write of a :class:`FileBackend` (WAL
                       records, pages, directory — the single write funnel)
``backend.page_write`` one page image about to be written (checkpoints only)
``backend.superblock`` the directory image about to be written (checkpoints
                       only; the hook keeps its format-version-1 name)
``backend.fsync``      an ``os.fsync`` about to be issued (only when the
                       backend was opened with ``fsync=True``): one per
                       commit, two per checkpoint
``backend.commit``     entry of :meth:`StorageBackend.commit` (any backend,
                       including :class:`MemoryBackend` — no bytes moved yet)
``wal.append``         entry of :meth:`WALWriter.append_transaction`
``wal.truncate``       entry of :meth:`WALWriter.seal_to`, a checkpoint's
                       last step — *after* pages + directory are synced,
                       *before* the log is sealed away; the replayed-log
                       window (the hook keeps its pre-segment name)
``service.writer_apply``   writer, before applying one wake-up's batches
``service.group_commit``   after a wake-up's one commit, before its epoch publishes
``repl.follower``      chaos driver, after each completed tape step: kill the
                       follower mid-stream, tear its local log, reopen it
``repl.primary``       chaos driver, after each completed tape step: tear the
                       primary's live log, let the follower mirror the tear,
                       kill and reopen the primary
=====================  ==========================================================

The two ``repl.*`` hooks are fired by :func:`~repro.faults.run_chaos_trial`
itself, not by production code; a plan naming one makes the trial run a
network front end and a follower.

Any hook may carry a shard-scope suffix (``service.writer_apply@shard2``):
a sharded service hands each shard a :meth:`FaultInjector.scoped` view, and
an invocation through that view matches both the suffixed spec (that shard
only) and the plain spec (any shard), each against its own deterministic
counter.

Fault kinds:

* ``torn_write`` — write the first half of the granted bytes, then crash
  (:class:`~repro.errors.CrashError`); the backend refuses further writes
  until reopened.  Exactly what a power loss mid-sector produces.  At a
  hook that moves no bytes it is a plain crash.
* ``short_write`` — like ``torn_write`` but the cut point is chosen by the
  seeded RNG (or ``spec.cut``) anywhere in ``[0, len)``, so the torn image
  can be empty, nearly complete, or anything between.
* ``io_error`` — raise :class:`~repro.errors.TransientIOError` *before*
  any side effect.  Retry-safe by construction; the service's retry
  policy exists for this.
* ``fsync_fail`` — the ``backend.fsync`` hook reports failure; the
  backend treats it as fatal (fsyncgate semantics) and crashes.
* ``latency`` — sleep ``spec.delay`` seconds, then proceed normally.
* ``writer_crash`` — raise :class:`~repro.errors.WriterCrashError`; the
  label service's writer dies and the service degrades to read-only.

Determinism: a spec with a concrete ``at`` fires on exactly that
invocation of its hook, every run.  A spec with ``at=None`` draws its
firing point once from ``random.Random(seed)`` uniformly over
``spec.window`` — same seed, same firing point.  Nothing else consults
the clock or global RNG state.

Every injected fault is counted in the process metrics registry as
``repro_faults_injected_total{kind=...,hook=...}`` and recorded on
``injector.fired`` for test assertions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Iterable, Iterator

from ..errors import (
    CrashError,
    FsyncFailedError,
    ReproError,
    TransientIOError,
    WriterCrashError,
)
from ..obs.metrics import get_registry

# Fault kinds.
TORN_WRITE = "torn_write"
SHORT_WRITE = "short_write"
IO_ERROR = "io_error"
FSYNC_FAIL = "fsync_fail"
LATENCY = "latency"
WRITER_CRASH = "writer_crash"

KINDS = frozenset(
    (TORN_WRITE, SHORT_WRITE, IO_ERROR, FSYNC_FAIL, LATENCY, WRITER_CRASH)
)

#: What :meth:`FaultInjector.hit` raises for each kind it does not return
#: or sleep on: the message's noun and the error type.
_RAISED = {
    IO_ERROR: ("transient I/O error", TransientIOError),
    FSYNC_FAIL: ("fsync failure", FsyncFailedError),
    WRITER_CRASH: ("writer crash", WriterCrashError),
    TORN_WRITE: ("crash", CrashError),
    SHORT_WRITE: ("crash", CrashError),
}

#: Hook-point names (kept in one place so tests and docs can't drift).
HOOKS = frozenset(
    (
        "backend.raw_write",
        "backend.page_write",
        "backend.superblock",
        "backend.fsync",
        "backend.commit",
        "wal.append",
        "wal.truncate",
        "service.writer_apply",
        "service.group_commit",
        "repl.follower",
        "repl.primary",
    )
)


class FaultPlanError(ReproError):
    """A fault plan or spec is malformed (unknown kind/hook, bad window)."""


def split_hook(hook: str) -> tuple[str, str | None]:
    """Split ``"service.writer_apply@shard2"`` into ``(base, scope)``.

    A plain hook name has scope ``None``.  The base must always be one of
    :data:`HOOKS`; the scope suffix addresses one shard's injector view
    (see :meth:`FaultInjector.scoped`), so chaos plans can target a single
    shard of a sharded service deterministically.
    """
    base, sep, scope = hook.partition("@")
    return base, (scope if sep else None)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: *what* to inject, *where*, and *when*.

    ``at`` is the 1-based invocation index of ``hook`` on which the fault
    fires; ``None`` means "draw once from the injector's seeded RNG,
    uniformly over ``window``".  ``times`` bounds how often the spec fires
    (transient faults may repeat on consecutive invocations; crash faults
    are naturally one-shot).
    """

    kind: str
    hook: str
    at: int | None = 1
    times: int = 1
    #: Inclusive (lo, hi) invocation range for a seeded ``at=None`` draw.
    window: tuple[int, int] = (1, 64)
    #: ``short_write`` cut point in bytes; None = seeded draw in [0, len).
    cut: int | None = None
    #: ``latency`` sleep in seconds.
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        base, scope = split_hook(self.hook)
        if base not in HOOKS:
            raise FaultPlanError(f"unknown hook point {self.hook!r}")
        if scope is not None and not scope:
            raise FaultPlanError(f"empty shard scope in hook {self.hook!r}")
        if self.at is not None and self.at < 1:
            raise FaultPlanError(f"at must be >= 1 (1-based), got {self.at}")
        if self.times < 1:
            raise FaultPlanError(f"times must be >= 1, got {self.times}")
        lo, hi = self.window
        if not 1 <= lo <= hi:
            raise FaultPlanError(f"bad window {self.window}")


@dataclass(frozen=True)
class FaultAction:
    """What a hook site must do right now, resolved from a matched spec."""

    kind: str
    spec: FaultSpec
    hook: str
    invocation: int
    #: Resolved cut point for short writes (None until sized by the site).
    cut: int | None = None
    delay: float = 0.0

    def keep(self, length: int) -> int:
        """How many bytes of a ``length``-byte write this tear leaves on
        disk: half for a torn write, the resolved cut for a short one."""
        return length // 2 if self.kind == TORN_WRITE else min(self.cut or 0, length)


class FaultPlan:
    """An ordered, immutable collection of :class:`FaultSpec` items.

    Plans are declarative data: installing one costs nothing until an
    injector built from it is attached to a backend or service.  The
    class-method factories cover the standard crash matrix; arbitrary
    combinations are just ``FaultPlan([...], name=...)``.
    """

    def __init__(self, specs: Iterable[FaultSpec], name: str = "custom") -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.name = name

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.name!r}, {len(self.specs)} spec(s))"

    # -- standard plans -------------------------------------------------

    @classmethod
    def torn_write(cls, at: int | None = None, window: tuple[int, int] = (1, 64)) -> "FaultPlan":
        """Tear the ``at``-th physical write in half, then crash."""
        return cls(
            [FaultSpec(TORN_WRITE, "backend.raw_write", at=at, window=window)],
            name=f"torn-write@{at if at is not None else 'seeded'}",
        )

    @classmethod
    def short_write(
        cls,
        at: int | None = None,
        cut: int | None = None,
        window: tuple[int, int] = (1, 64),
    ) -> "FaultPlan":
        """Cut the ``at``-th physical write at a seeded point, then crash."""
        return cls(
            [FaultSpec(SHORT_WRITE, "backend.raw_write", at=at, cut=cut, window=window)],
            name=f"short-write@{at if at is not None else 'seeded'}",
        )

    @classmethod
    def fsync_failure(cls, at: int | None = 1, window: tuple[int, int] = (1, 16)) -> "FaultPlan":
        """Fail the ``at``-th fsync; the backend crashes (fsyncgate)."""
        return cls(
            [FaultSpec(FSYNC_FAIL, "backend.fsync", at=at, window=window)],
            name=f"fsync-fail@{at if at is not None else 'seeded'}",
        )

    @classmethod
    def superblock_crash(cls, at: int | None = 1, window: tuple[int, int] = (1, 16)) -> "FaultPlan":
        """Tear the ``at``-th directory image write (one per checkpoint)."""
        return cls(
            [FaultSpec(TORN_WRITE, "backend.superblock", at=at, window=window)],
            name=f"superblock-torn@{at if at is not None else 'seeded'}",
        )

    @classmethod
    def transient_io_error(
        cls, hook: str = "backend.commit", at: int = 1, times: int = 1
    ) -> "FaultPlan":
        """Raise a retryable :class:`TransientIOError` ``times`` times."""
        return cls(
            [FaultSpec(IO_ERROR, hook, at=at, times=times)],
            name=f"io-error@{hook}x{times}",
        )

    @classmethod
    def latency_spike(
        cls, delay: float, hook: str = "backend.raw_write", at: int | None = None,
        window: tuple[int, int] = (1, 64),
    ) -> "FaultPlan":
        """Sleep ``delay`` seconds at one hook invocation, then proceed."""
        return cls(
            [FaultSpec(LATENCY, hook, at=at, delay=delay, window=window)],
            name=f"latency@{hook}",
        )

    @classmethod
    def writer_crash(cls, at: int = 1, hook: str = "service.group_commit") -> "FaultPlan":
        """Kill the service writer at its ``at``-th wake-up commit."""
        return cls(
            [FaultSpec(WRITER_CRASH, hook, at=at)], name=f"writer-crash@{hook}"
        )

    @classmethod
    def crash_after_writes(cls, budget: int) -> "FaultPlan":
        """The semantics of the retired ``crash_after_n_writes`` counter.

        ``budget`` physical writes are granted; the final granted write is
        torn in half.  ``budget=0`` crashes on (before) the very first
        write.  Kept as a factory so historical crash sweeps translate
        one-to-one.
        """
        if budget <= 0:
            # Fire on invocation 1 with a zero-byte short write: nothing
            # reaches the file, exactly like the exhausted-budget branch.
            return cls(
                [FaultSpec(SHORT_WRITE, "backend.raw_write", at=1, cut=0)],
                name="crash-after-0-writes",
            )
        return cls(
            [FaultSpec(TORN_WRITE, "backend.raw_write", at=budget)],
            name=f"crash-after-{budget}-writes",
        )


@dataclass
class FiredFault:
    """One injected fault, recorded for assertions and diagnostics."""

    hook: str
    kind: str
    invocation: int
    spec: FaultSpec = field(repr=False, default=None)  # type: ignore[assignment]


class FaultInjector:
    """Runtime half of a plan: counters, seeded draws, firing decisions.

    One injector serves one backend/service pairing for one run; after a
    simulated crash, build a fresh injector for the reopened backend (the
    per-hook counters restart, like the machine did).

    ``hit`` (through ``fire``) is the only hot call.  With no matching
    armed spec it is a dict lookup plus an integer increment; hook sites
    additionally guard the call behind ``injector is None``, so an
    uninstalled subsystem costs one attribute check.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self.rng = Random(seed)
        self.fired: list[FiredFault] = []
        self._invocations: dict[str, int] = {}
        # Resolve seeded firing points once, up front, in spec order —
        # the draw sequence depends only on (plan, seed).
        armed: dict[str, list[list[Any]]] = {}
        for spec in plan:
            at = spec.at
            if at is None:
                lo, hi = spec.window
                at = self.rng.randint(lo, hi)
            armed.setdefault(spec.hook, []).append([spec, at, spec.times])
        self._armed = armed

    def invocations(self, hook: str) -> int:
        """How many times ``hook`` has fired so far (for diagnostics)."""
        return self._invocations.get(hook, 0)

    def fire(
        self, hook: str, size: int | None = None, scope: str | None = None
    ) -> FaultAction | None:
        """Count one invocation of ``hook``; returns the action scheduled
        for it, or ``None`` (no fault here and now).  :meth:`hit` calls
        this and carries the action out; only the chaos driver's
        ``repl.*`` hooks call it directly.

        ``size`` is the byte length available at write-type hooks, used to
        resolve a seeded ``short_write`` cut point.  ``scope`` is the shard
        tag a :meth:`scoped` view adds: the invocation then counts against
        both the scoped name (``hook@scope``, matching shard-targeted
        specs) and the plain hook (matching unscoped specs across all
        shards), scoped specs winning ties.
        """
        count = self._invocations.get(hook, 0) + 1
        self._invocations[hook] = count
        if scope is not None:
            scoped_name = f"{hook}@{scope}"
            scoped_count = self._invocations.get(scoped_name, 0) + 1
            self._invocations[scoped_name] = scoped_count
            action = self._match(scoped_name, scoped_count, size)
            if action is not None:
                return action
        return self._match(hook, count, size)

    def hit(
        self, hook: str, size: int | None = None, scope: str | None = None
    ) -> FaultAction | None:
        """Fire ``hook`` and carry out the action — the one interpreter of
        what a fault kind does.

        ``latency`` sleeps, then returns ``None`` like a silent hook;
        ``io_error``, ``fsync_fail`` and ``writer_crash`` raise
        :class:`~repro.errors.TransientIOError`,
        :class:`~repro.errors.FsyncFailedError` and
        :class:`~repro.errors.WriterCrashError`.  A torn or short write is
        returned to a write site — one that passed ``size`` — which tears
        the bytes it holds; at any other site it raises
        :class:`~repro.errors.CrashError`.
        """
        action = self.fire(hook, size, scope)
        if action is None:
            return None
        kind = action.kind
        if kind == LATENCY:
            time.sleep(action.delay)
            return None
        if size is not None and kind in (TORN_WRITE, SHORT_WRITE):
            return action
        noun, error = _RAISED[kind]
        raise error(f"injected {noun} at {action.hook} (invocation {action.invocation})")

    def _match(self, name: str, count: int, size: int | None) -> FaultAction | None:
        entries = self._armed.get(name)
        if not entries:
            return None
        for entry in entries:
            spec, at, remaining = entry
            if remaining <= 0 or count < at:
                continue
            if count > at and spec.times == 1:
                continue
            # Repeating specs fire on consecutive invocations from `at`.
            if count >= at + spec.times:
                continue
            entry[2] = remaining - 1
            return self._action(spec, name, count, size)
        return None

    def scoped(self, scope: str) -> "ScopedFaultInjector":
        """A shard-tagged view over this injector (shared counters/specs).

        Hook sites fire the view exactly like the parent; every invocation
        is additionally counted under ``hook@scope`` so plans can address
        one shard by suffix (``service.writer_apply@shard2``)."""
        return ScopedFaultInjector(self, scope)

    def _action(
        self, spec: FaultSpec, hook: str, invocation: int, size: int | None
    ) -> FaultAction:
        cut = spec.cut
        if spec.kind == SHORT_WRITE and cut is None:
            cut = self.rng.randrange(size) if size else 0
        self.fired.append(FiredFault(hook, spec.kind, invocation, spec))
        get_registry().counter(
            "repro_faults_injected_total",
            help="faults injected by the fault-injection subsystem",
            labels={"kind": spec.kind, "hook": hook},
        ).inc()
        return FaultAction(
            kind=spec.kind,
            spec=spec,
            hook=hook,
            invocation=invocation,
            cut=cut,
            delay=spec.delay,
        )

    def with_fresh_counters(self) -> "FaultInjector":
        """A new injector over the same plan and seed (post-reopen)."""
        return FaultInjector(self.plan, self.seed)


class ScopedFaultInjector:
    """A shard-tagged facade over one :class:`FaultInjector`.

    Duck-type compatible with the parent at every hook site (``fire`` plus
    the diagnostic surface), so backends and services take either.  State
    — counters, armed specs, the ``fired`` record — lives on the parent;
    the facade only contributes its scope tag, which makes one parent
    injector shared across N shards behave as one fault *budget* with
    per-shard addressing.
    """

    __slots__ = ("parent", "scope")

    def __init__(self, parent: FaultInjector, scope: str) -> None:
        self.parent = parent
        self.scope = scope

    @property
    def plan(self) -> FaultPlan:
        return self.parent.plan

    @property
    def fired(self) -> list[FiredFault]:
        return self.parent.fired

    def invocations(self, hook: str) -> int:
        return self.parent.invocations(hook)

    def fire(self, hook: str, size: int | None = None) -> FaultAction | None:
        return self.parent.fire(hook, size=size, scope=self.scope)

    def hit(self, hook: str, size: int | None = None) -> FaultAction | None:
        return self.parent.hit(hook, size, self.scope)

    def scoped(self, scope: str) -> "ScopedFaultInjector":
        return ScopedFaultInjector(self.parent, scope)
