"""The label service: N >= 1 single-writer shards behind one label space.

:class:`ShardedLabelService` is the one service type the layers above
``repro.service`` (network front end, replication, query streams, chaos
and stress drivers, CLI) accept.  It runs N independent
:class:`~repro.service.service.LabelService` units — each with its own
scheme, store, WAL, write queue and single-writer thread — behind one
global label space bound together by a :class:`~repro.service.router.ShardRouter`.
Write batches are routed into per-shard sub-batches (order-preserving, so
each shard's group-commit I/O coalescing survives) and applied by the
shards' writers concurrently; a :class:`ShardedWriteTicket` joins the
per-shard tickets and reassembles submission-order results with global
LIDs.

Snapshot consistency generalizes from one epoch to an **epoch vector**:
each shard publishes epochs independently (under its own exclusive
latch), and a :class:`ShardedReaderSession` pins one
:class:`~repro.service.epoch.Epoch` per shard.  Every read is one
:meth:`ShardedReaderSession.lookup_many`: one
:meth:`~repro.service.service.ReaderSession.resolve` per involved shard,
each shard's group resolved once (a batch of compares included).  A
shard's pin moves only inside its own ``resolve``, and every
value that call returns is exact at the pin it holds at return, so the
cross-shard read matches the session's pinned vector with no retry.

The shard partition follows contiguous document-order chunks (see
:class:`~repro.service.router.ShardRouter`), so cross-shard ``compare``
reduces to comparing shard indices and cross-shard ancestor tests are
always false; cross-shard *element pairs* (a start LID on one shard, its
end on another) cannot exist under the partition invariant and are
rejected with :class:`~repro.errors.CrossShardError`.

``n_shards == 1`` is the plain single-writer stack under the same types:
the codec is the identity, the epoch vector has one component, stats stay
unlabeled, the fault injector is not scoped, and the on-disk file is
byte-identical to a bare per-shard unit's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from ..core.batch import BatchOp, BatchResult
from ..core.cachelog import LABEL_CHANNEL
from ..core.interface import Label, LabelingScheme
from ..errors import CrossShardError, ServiceError
from .epoch import Epoch, WriteTicket
from .router import ShardRouter, ShardRouting
from .service import LabelService, RetryPolicy

__all__ = [
    "EpochVector",
    "ShardedLabelService",
    "ShardedReaderSession",
    "ShardedWriteTicket",
    "bulk_load_sharded",
]


@dataclass(frozen=True)
class EpochVector:
    """One published epoch per shard, in shard order."""

    components: tuple[Epoch, ...]

    @property
    def numbers(self) -> tuple[int, ...]:
        """The per-shard epoch numbers (the vector most tests compare)."""
        return tuple(epoch.number for epoch in self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, shard: int) -> Epoch:
        return self.components[shard]


def bulk_load_sharded(
    schemes: Sequence[LabelingScheme], count: int
) -> list[int]:
    """Bulk-load ``count`` labels as contiguous chunks across ``schemes``.

    Shard ``i`` receives the ``i``-th document-order chunk (near-even
    split); the returned list holds *global* LIDs in document order.
    A scheme that cannot load without a tag pairing (W-BOX-O:
    ``bulk_needs_pairing``) gets its chunk as sibling leaf elements — tags
    ``2k`` / ``2k+1`` are one element's start and end; the tag left over
    in an odd chunk is its own partner, which W-BOX-O leaves unpaired like
    any freshly inserted label.  Every other scheme loads exactly as it
    does without a pairing.
    Call this before constructing the :class:`ShardedLabelService` —
    bulk load is an offline build step, the paper's Section 5, and the
    services' epoch 0 then reflects the loaded state.
    """
    router = ShardRouter(len(schemes))
    glids: list[int] = []
    for shard, chunk in enumerate(router.split_bulk(count)):
        if chunk == 0:
            continue
        pairing = None
        if schemes[shard].bulk_needs_pairing:
            pairing = [min(index ^ 1, chunk - 1) for index in range(chunk)]
        glids += router.to_global_many(schemes[shard].bulk_load(chunk, pairing), shard)
    return glids


def _order(first: Any, second: Any) -> int:
    """-1, 0 or +1 as ``first`` sorts before, with or after ``second``."""
    return (first > second) - (first < second)


def _remaining(deadline: float | None) -> float | None:
    """Seconds left until a monotonic ``deadline`` (``None`` = unbounded)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _join_results(
    router: ShardRouter,
    routing: ShardRouting,
    shard_results: Sequence[tuple[int, BatchResult]],
) -> BatchResult:
    """Per-shard :class:`BatchResult` items (shard order) → one result in
    submission order with global LIDs and concatenated group accounting."""
    group_costs: list = []
    group_sizes: list[int] = []
    for _shard, result in shard_results:
        group_costs.extend(result.group_costs)
        group_sizes.extend(result.group_sizes)
    return BatchResult(
        results=router.merge(
            routing, {shard: result.results for shard, result in shard_results}
        ),
        group_costs=group_costs,
        group_sizes=group_sizes,
        backend_commits=sum(result.backend_commits for _shard, result in shard_results),
    )


class ShardedWriteTicket:
    """Joins the per-shard tickets of one routed submission.

    ``wait`` blocks until every involved shard's writer committed its
    sub-batch, then reassembles a single :class:`BatchResult` whose
    ``results`` are in submission order with global LIDs.  If any shard
    failed, the first failure (in shard order) re-raises.
    """

    __slots__ = ("_tickets", "_join")

    def __init__(
        self,
        tickets: list[tuple[int, WriteTicket]],
        join: Callable[[list[tuple[int, BatchResult]]], BatchResult],
    ) -> None:
        self._tickets = tickets
        self._join = join

    @property
    def done(self) -> bool:
        """Whether every involved shard's sub-batch has been applied (or
        failed)."""
        return all(ticket.done for _shard, ticket in self._tickets)

    def wait(self, timeout: float | None = None) -> BatchResult:
        """Block for all shards; merged, globalized result or first error.

        ``timeout`` bounds the whole join: one deadline, each shard's
        ticket waits for what is left of it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        return self._join(
            [(shard, ticket.wait(_remaining(deadline))) for shard, ticket in self._tickets]
        )


class ShardedLabelService:
    """N per-shard label services behind one global label space.

    Parameters mirror :class:`LabelService` and apply to every shard;
    ``latches`` and ``epoch_hooks`` are optional per-shard lists (the
    deterministic harness injects scheduler-aware latches and per-shard
    oracles), ``yield_hook`` is shared.  ``fault_injector`` is scoped per
    shard (``service.writer_apply@shard1``) when ``n_shards > 1``, so
    chaos plans can target a single shard deterministically.
    """

    def __init__(
        self,
        schemes: Sequence[LabelingScheme],
        *,
        log_capacity: int = 1024,
        queue_capacity: int = 64,
        group_size: int = 64,
        latches: Sequence[Any] | None = None,
        yield_hook: Callable[[str], None] | None = None,
        epoch_hooks: Sequence[Callable[[Epoch], None]] | None = None,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        fault_injector: Any = None,
        replica: bool = False,
    ) -> None:
        if not schemes:
            raise ServiceError("a sharded service needs at least one scheme")
        if latches is not None and len(latches) != len(schemes):
            raise ServiceError("latches must match schemes one-to-one")
        if epoch_hooks is not None and len(epoch_hooks) != len(schemes):
            raise ServiceError("epoch_hooks must match schemes one-to-one")
        self.router = ShardRouter(len(schemes))
        self.schemes = list(schemes)
        self.fault_injector = fault_injector
        sharded = len(schemes) > 1
        self.shards: list[LabelService] = []
        for shard, scheme in enumerate(schemes):
            injector = fault_injector
            if injector is not None and sharded and hasattr(injector, "scoped"):
                injector = injector.scoped(f"shard{shard}")
            self.shards.append(
                LabelService(
                    scheme,
                    log_capacity=log_capacity,
                    queue_capacity=queue_capacity,
                    group_size=group_size,
                    latch=latches[shard] if latches is not None else None,
                    yield_hook=yield_hook,
                    epoch_hook=epoch_hooks[shard] if epoch_hooks is not None else None,
                    retry_policy=retry_policy,
                    fault_injector=injector,
                    shard_name=f"shard{shard}" if sharded else None,
                    replica=replica,
                )
            )

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ShardedLabelService":
        """Start every shard's writer thread (idempotent)."""
        for shard in self.shards:
            shard.start()
        return self

    def stop(self, timeout: float | None = None) -> None:
        """Drain and join every shard's writer."""
        for shard in self.shards:
            shard.stop(timeout)

    @property
    def replica(self) -> bool:
        """Whether every shard is in replica (read-only follower) mode."""
        return all(shard.replica for shard in self.shards)

    def promote(self) -> "ShardedLabelService":
        """Promote every shard out of replica mode (failover handoff)."""
        for shard in self.shards:
            shard.promote()
        return self

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedLabelService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- epochs / health -----------------------------------------------

    @property
    def current_epoch_vector(self) -> EpochVector:
        """The latest published epoch of every shard (one atomic reference
        read per shard; the components are mutually independent)."""
        return EpochVector(tuple(shard.current_epoch for shard in self.shards))

    @property
    def degraded(self) -> bool:
        """Whether *any* shard is in degraded read-only mode."""
        return any(shard.degraded for shard in self.shards)

    @property
    def degraded_shards(self) -> list[int]:
        """Indices of shards whose writers have died."""
        return [i for i, shard in enumerate(self.shards) if shard.degraded]

    @property
    def queue_depth(self) -> int:
        """Accepted-but-unapplied batches summed over all shards."""
        return sum(shard.queue_depth for shard in self.shards)

    # -- write path ----------------------------------------------------

    def submit_ops(
        self, ops: Sequence[BatchOp], timeout: float | None = None
    ) -> ShardedWriteTicket:
        """Route a batch and queue each sub-batch on its shard's writer.

        Sub-batches are enqueued in shard order; the returned ticket joins
        them.  Refusals fail fast, before anything is queued: a cross-shard
        op raises :class:`~repro.errors.CrossShardError`, and a batch
        touching a degraded (or replica) shard raises
        :class:`~repro.errors.ServiceDegradedError` without committing its
        healthy shards' halves.  ``timeout`` bounds the total backpressure
        wait across all involved shards.
        """
        routing = self.router.route(ops)
        involved = sorted(routing.per_shard)
        for shard in involved:
            self.shards[shard]._check_writable()
        deadline = None if timeout is None else time.monotonic() + timeout
        tickets = [
            (shard, self.shards[shard].submit_ops(routing.per_shard[shard], _remaining(deadline)))
            for shard in involved
        ]
        return ShardedWriteTicket(tickets, partial(_join_results, self.router, routing))

    def apply_ops_sync(self, ops: Sequence[BatchOp]) -> BatchResult:
        """Writer-context application: route, apply shard by shard on the
        calling thread, reassemble.  (The deterministic harness's virtual
        writers use the per-shard services directly instead.)"""
        routing = self.router.route(ops)
        return _join_results(
            self.router,
            routing,
            [
                (shard, self.shards[shard].apply_ops_sync(routing.per_shard[shard]))
                for shard in sorted(routing.per_shard)
            ],
        )

    # -- read path -----------------------------------------------------

    def session(self) -> "ShardedReaderSession":
        """A reader session pinning the current epoch vector (one cheap
        per-shard session each; not itself thread-safe)."""
        return ShardedReaderSession(self)

    def query(
        self, elements: Any, session: "ShardedReaderSession | None" = None
    ) -> Any:
        """An ordered-axis :class:`~repro.query.streams.QueryEngine` over
        global-LID element pairs, reading through a pinned epoch vector.

        Cross-shard document order comes for free: the contiguous-chunk
        partition makes (shard index, label) lexicographic order global
        document order, which is the sort key the engine uses here.
        """
        from ..query.streams import QueryEngine

        return QueryEngine(session if session is not None else self.session(), elements)

    def describe(self) -> dict[str, Any]:
        """Diagnostic summary: global state plus one section per shard."""
        return {
            "n_shards": self.n_shards,
            "state": (
                "degraded" if self.degraded
                else "replica" if self.replica
                else "running"
            ),
            "degraded_shards": self.degraded_shards,
            "epoch_vector": list(self.current_epoch_vector.numbers),
            "queue_depth": self.queue_depth,
            "shards": [shard.describe() for shard in self.shards],
        }


class ShardedReaderSession:
    """A pinned-epoch-vector read view over a :class:`ShardedLabelService`.

    Wraps one per-shard :class:`~repro.service.service.ReaderSession`;
    every component pin only ever advances.  :meth:`lookup_many` is the
    one routed read: one ``resolve`` per involved shard.  Every other read
    is label arithmetic over one call to it; cross-shard order queries
    read nothing, by the contiguous-chunk partition invariant (shard index
    order IS document order across shards).
    """

    def __init__(self, service: ShardedLabelService) -> None:
        #: The service's :class:`ShardRouter` (global-LID codec and the
        #: document-order sort key query streams use).
        self.router = service.router
        sessions = [shard.session() for shard in service.shards]
        self._sessions = sessions
        #: The one session when N == 1, where the global-LID codec is the
        #: identity and a read skips routing.
        self._only = sessions[0] if len(sessions) == 1 else None

    @property
    def vector(self) -> EpochVector:
        """The session's currently pinned epoch vector."""
        return EpochVector(tuple(session.epoch for session in self._sessions))

    def refresh(self) -> EpochVector:
        """Advance every component pin to its shard's latest epoch."""
        for session in self._sessions:
            session.refresh()
        return self.vector

    # -- reads ---------------------------------------------------------

    def lookup(self, glid: int) -> Label:
        return self.lookup_many((glid,))[0]

    def lookup_pair(self, start_glid: int, end_glid: int) -> tuple[Label, Label]:
        """(start, end) labels of one element.  An element lives entirely
        on one shard (the partition cuts at subtree boundaries), so a
        split pair is a caller error."""
        self._element_shard((start_glid, end_glid))
        start, end = self.lookup_many((start_glid, end_glid))
        return start, end

    def compare(self, glid1: int, glid2: int) -> int:
        """Document-order comparison: -1, 0, or +1."""
        return self.compare_many(((glid1, glid2),))[0]

    def compare_many(self, pairs: Sequence[tuple[int, int]]) -> list[int]:
        """Document-order comparisons of several (glid, glid) pairs, all at
        the pinned vector: one read of the same-shard pairs' LIDs.
        Cross-shard pairs read nothing: the chunks are contiguous in
        document order, so shard index order is document order."""
        shard_of = self.router.shard_of
        signs: list[int | None] = []
        same: list[int] = []
        for a, b in pairs:
            s, t = shard_of(a), shard_of(b)
            if s == t:
                same += (a, b)
                signs.append(None)
            else:
                signs.append(_order(s, t))
        labels = iter(self.lookup_many(same))
        return [_order(next(labels), next(labels)) if sign is None else sign for sign in signs]

    def is_ancestor(
        self, ancestor: tuple[int, int], descendant: tuple[int, int]
    ) -> bool:
        """Ancestor-axis test between two (start, end) element pairs:
        ``l<(a) < l<(d)`` and ``l>(d) < l>(a)``.  Each pair must be
        same-shard; elements on different shards are never in an
        ancestor relation (the partition cuts at subtree boundaries)."""
        if self._element_shard(ancestor) != self._element_shard(descendant):
            return False
        if ancestor == descendant:
            return False
        a_start, d_start, d_end, a_end = self.lookup_many(
            (ancestor[0], descendant[0], descendant[1], ancestor[1])
        )
        return a_start < d_start and d_end < a_end

    def lookup_many(self, glids: Sequence[int], channel: str = LABEL_CHANNEL) -> list[Label]:
        """Values on ``channel`` (labels by default, or ordinals) for
        several global LIDs, all consistent with the pinned vector at
        return: one ``resolve`` per involved shard."""
        if self._only is not None:
            return self._only.resolve(glids, channel)
        router = self.router
        groups: dict[int, list[int]] = {}
        for glid in glids:
            groups.setdefault(router.shard_of(glid), []).append(router.to_local(glid))
        values = {
            shard: iter(self._sessions[shard].resolve(group, channel))
            for shard, group in groups.items()
        }
        return [next(values[router.shard_of(glid)]) for glid in glids]

    def _element_shard(self, element: tuple[int, int]) -> int:
        """The shard an element pair lives on (raises
        :class:`~repro.errors.CrossShardError` on a split pair)."""
        shard_of = self.router.shard_of
        start, end = shard_of(element[0]), shard_of(element[1])
        if start != end:
            raise CrossShardError(
                f"element pair {tuple(element)} spans shards {start} and {end}"
            )
        return start
