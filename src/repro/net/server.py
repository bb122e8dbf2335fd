"""Asyncio TCP front end over the label service.

One :class:`NetServer` exposes a
:class:`~repro.service.sharded.ShardedLabelService` (N >= 1 shards) to any
number of connections speaking the varint-framed protocol
(:mod:`repro.net.protocol`).

Connection model (DESIGN.md §14 gives the full argument):

* **Session pinning.**  Each connection pins its own
  :class:`~repro.service.sharded.ShardedReaderSession` at accept time;
  every read it issues is served at that epoch vector, and ``Refresh``
  advances the pin.
* **Reads on the loop, waits on a worker, in per-connection order.**
  The read loop queues every admitted frame of a received chunk on the
  connection's FIFO and answers its leading read frames in place, each
  under every shard latch taken shared without waiting
  (:meth:`~repro.storage.blockstore.ReaderWriterLatch.try_acquire_shared`);
  a run's replies go out in one ``write``.  ``Submit``, ``Query`` and
  ``ReplFetch`` (fsync, view rebuild, file read), and a read a writer
  holds up, start the connection's one drain task instead, which hands
  the run to a ``net-worker`` thread as one job; while it is out nothing
  of the connection runs inline, so replies keep request order.
* **Admission and backpressure.**  A request above the server-wide
  in-flight cap is shed at the door with a typed ``OVERLOADED`` frame; a
  connection whose send buffer is above its high-water mark is not read
  from until it drains.
* **Typed failure, clean close.**  Service failures map to per-request
  error frames and the connection lives on; a protocol violation gets
  one ``ERR_PROTOCOL`` frame and closes that connection only.

Tracing: each request runs inside a ``net.request`` span opened on the
thread that executes it, so the service's apply spans — carried across
the writer thread hop by ``Tracer.attach`` — land under it.
"""

from __future__ import annotations

import asyncio
import os
import queue
import threading
from collections import deque
from contextlib import suppress
from typing import Any, Callable

from ..core.batch import BatchRef
from ..core.cachelog import ORDINAL_CHANNEL
from ..errors import (
    BackpressureTimeout,
    ProtocolError,
    ReplicationError,
    ServiceError,
    ServiceOverloadedError,
)
from ..obs import trace
from ..obs.metrics import get_registry
from ..query.streams import ElementCatalog, QueryEngine
from ..service.service import LabelService
from ..service.sharded import ShardedLabelService, ShardedReaderSession
from ..storage.walseg import checkpoint_image_path, segment_path
from . import protocol as proto
from .protocol import (
    Compare,
    Epochs,
    ErrorFrame,
    Frame,
    FrameDecoder,
    Hello,
    Lookup,
    Ordinal,
    Orders,
    Ping,
    Pong,
    Query,
    QueryChunk,
    Refresh,
    ReplChunk,
    ReplFetch,
    ReplManifest,
    ReplState,
    Results,
    ServerHello,
    Submit,
    Values,
    encode_frame,
)

#: Default cap on requests admitted but not yet answered, server-wide.
DEFAULT_MAX_INFLIGHT = 64

#: Default bound on how long a submit may wait for write-queue space
#: before it is shed with a typed ``OVERLOADED`` frame.
DEFAULT_SUBMIT_TIMEOUT = 2.0

#: Hard cap on one ``ReplChunk``'s data, comfortably under the frame
#: limit with headers to spare.  Fetch limits above this are clamped.
REPL_CHUNK_CAP = 256 * 1024

#: Default elements per ``QueryChunk`` when the client leaves the chunk
#: size unset; the hard cap keeps any chunk well under the frame limit.
DEFAULT_QUERY_CHUNK = 256
QUERY_CHUNK_CAP = 8192

#: Worker threads running the blocking service calls.
MAX_WORKERS = 8

#: Requests that can wait on something other than CPU: each is a run of
#: one on a worker.  Every other request is a read, answered inline.
RUNS_ALONE = frozenset({Submit, Query, ReplFetch})

#: Every counter the front end keeps (``NetServer._count``): name -> help.
COUNTERS = {
    "repro_net_requests_total": "requests answered by the network front end, by outcome",
    "repro_net_shed_total": "requests shed at the admission door with OVERLOADED frames",
    "repro_net_protocol_errors_total": "connections closed for protocol violations",
    "repro_net_connections_total": "connections accepted by the network front end",
    "repro_repl_chunks_shipped_total": "replication chunks served to followers",
    "repro_repl_bytes_shipped_total": "replication payload bytes served to followers",
    "repro_net_query_chunks_total": "query stream chunks sent to clients",
}


def _settle(done: asyncio.Future, resolve: Callable[[Any], None], outcome: Any) -> None:
    """Event-loop half of a worker's hand-back: resolve the job's future."""
    if not done.done():  # else the waiter was cancelled meanwhile
        resolve(outcome)


class _Connection:
    """Per-connection state: the pinned session, the FIFO of admitted
    requests and the one task draining it."""

    __slots__ = ("reader", "writer", "session", "decoder", "engine", "queue", "drainer")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session: ShardedReaderSession,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.session = session
        self.decoder = FrameDecoder()
        self.engine: QueryEngine | None = None
        self.queue: deque[Frame] = deque()
        self.drainer: asyncio.Task | None = None


class NetServer:
    """The network front end.  Construct, then :meth:`start` /
    :meth:`serve_forever`; or drive the lifecycle with ``async with``.

    Parameters
    ----------
    service:
        A started :class:`~repro.service.sharded.ShardedLabelService`.
        The server does not own it (caller starts/closes it).
    host / port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`).
    max_inflight:
        Server-wide admission cap; requests beyond it are shed with
        typed ``OVERLOADED`` frames instead of queueing.
    submit_timeout:
        Longest a write submission may block on the service's bounded
        write queue before shedding.
    catalog:
        The :class:`~repro.query.streams.ElementCatalog` query streams
        range over, shared by every connection.  Defaults to a fresh
        empty catalog; the server grows it from acked
        ``insert_element_before`` results and shrinks it on
        ``delete_element``, so elements written through the server are
        queryable through the server.
    """

    def __init__(
        self,
        service: ShardedLabelService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        submit_timeout: float = DEFAULT_SUBMIT_TIMEOUT,
        catalog: ElementCatalog | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self.max_inflight = max_inflight
        self.submit_timeout = submit_timeout
        self.catalog = catalog if catalog is not None else ElementCatalog()
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        #: Every latch a read frame may fall through on, tried before it runs inline.
        self._latches = [shard._latch for shard in service.shards]
        #: The dispatch table: each request frame class is handled by the
        #: method named after it in the schema (``Lookup`` -> ``_lookup``),
        #: ``(conn, frame) -> [reply, ...]`` on the loop or a worker.  A
        #: request frame without a handler fails here, at construction.
        self._handlers = {
            row.cls: getattr(self, f"_{row.name}")
            for row in proto.SCHEMA.values()
            if row.code in proto.REQUEST_NAMES
        }
        self._server: asyncio.base_events.Server | None = None
        self._inflight = 0
        self._connections: set[asyncio.StreamWriter] = set()
        registry = get_registry()
        self._count = {name: registry.counter(name, help=text) for name, text in COUNTERS.items()}

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound port (meaningful after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def inflight(self) -> int:
        """Requests admitted but not yet answered (the visible backlog)."""
        return self._inflight

    async def start(self) -> "NetServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        for index in range(MAX_WORKERS):
            threading.Thread(target=self._work, name=f"net-worker_{index}", daemon=True).start()
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            for _ in range(MAX_WORKERS):
                self._jobs.put(None)  # each worker exits after the jobs queued so far
        for writer in list(self._connections):
            writer.close()

    async def __aenter__(self) -> "NetServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._count["repro_net_connections_total"].inc()
        conn = _Connection(reader, writer, self.service.session())
        self._connections.add(writer)
        try:
            await self._read_loop(conn)
        except (ConnectionError, OSError, asyncio.CancelledError):
            # The peer vanished, or server shutdown cancelled this handler:
            # finish the cleanup below and end the task normally, so the
            # loop's teardown does not log the handler as crashed.
            pass
        finally:
            if conn.drainer is not None:
                await asyncio.gather(conn.drainer, return_exceptions=True)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        overloaded = f"server at {self.max_inflight} in-flight requests"
        alive = True
        while alive:
            # Backpressure: a peer whose replies pile up unread is not read
            # from until they drain (module docstring gives the bound).
            await conn.writer.drain()
            data = await conn.reader.read(1 << 16)
            if not data:
                # Orderly EOF.  A partial frame left behind is a protocol
                # violation, but there is nobody left to answer — count it
                # and close.
                try:
                    conn.decoder.close()
                except ProtocolError:
                    self._count["repro_net_protocol_errors_total"].inc()
                return
            conn.decoder.feed(data)
            refused: list[Frame] = []
            try:
                for frame in conn.decoder.frames():
                    if self._inflight < self.max_inflight:
                        self._inflight += 1
                        conn.queue.append(frame)
                        continue
                    # Shed at the door: typed, immediate, nothing queued.
                    self._count["repro_net_shed_total"].inc()
                    refused.append(ErrorFrame(frame.request_id, proto.ERR_OVERLOADED, overloaded))
            except ProtocolError as error:
                # One typed error frame, then (once what was admitted is
                # answered) the connection dies.  The request id is unknowable
                # for a malformed frame: 0 marks a connection-level failure.
                self._count["repro_net_protocol_errors_total"].inc()
                refused.append(ErrorFrame(0, proto.ERR_PROTOCOL, str(error)))
                alive = False
            if refused:
                conn.writer.write(b"".join(map(encode_frame, refused)))
            if conn.drainer is None:  # else a job is out: the drain task answers next
                self._answer_inline(conn)
                if conn.queue:
                    conn.drainer = asyncio.ensure_future(self._drain(conn))

    def _answer_inline(self, conn: _Connection) -> None:
        """Run the queue's leading read frames on the loop thread, each under
        every shard latch taken shared without waiting, and send their
        replies in one ``write``.  Stops at the first frame that must go to
        a worker: a run-alone request, or a read a writer holds up."""
        pending, latches = conn.queue, self._latches
        wire: list[bytes] = []
        while pending and type(pending[0]) not in RUNS_ALONE:
            taken = [latch for latch in latches if latch.try_acquire_shared()]
            try:
                if len(taken) < len(latches):
                    break
                wire.append(self._execute(conn, pending.popleft()))
            finally:
                for latch in taken:
                    latch.release_shared()
        if wire:
            self._inflight -= len(wire)
            self._count["repro_net_requests_total"].inc(len(wire))
            if not conn.writer.is_closing():  # else the peer is gone
                conn.writer.write(b"".join(wire))

    async def _drain(self, conn: _Connection) -> None:
        """The connection's one drain task, started when the queue's head
        must go to a worker: one run at a time, one job and one ``write``
        per run, then whatever can be answered inline.  It never waits on
        the peer — a slot is released once its reply is computed — so a
        peer that stops reading (the read loop's problem) pins no server
        capacity."""
        run: list[Frame] = []
        try:
            while conn.queue and self._server is not None:  # stopped: no worker would take it
                run = [conn.queue.popleft()]
                if type(run[0]) not in RUNS_ALONE:
                    while conn.queue and type(conn.queue[0]) not in RUNS_ALONE:
                        run.append(conn.queue.popleft())
                done = asyncio.get_running_loop().create_future()
                self._jobs.put((conn, run, done))
                wire = await done
                self._inflight -= len(run)
                run = []
                if not conn.writer.is_closing():  # else the peer is gone
                    conn.writer.write(wire)
                self._answer_inline(conn)
        finally:
            # Shutdown (stopped or cancelled) with requests unanswered: release them.
            self._inflight -= len(run) + len(conn.queue)
            conn.queue.clear()
            conn.drainer = None

    # -- request execution (loop thread for reads, else a worker) ------

    def _work(self) -> None:
        """Body of one ``net-worker`` thread: serve queued runs, handing
        each outcome back to its event loop in one ``call_soon_threadsafe``."""
        while (job := self._jobs.get()) is not None:
            conn, run, done = job
            try:
                outcome = done.set_result, b"".join([self._execute(conn, frame) for frame in run])
                self._count["repro_net_requests_total"].inc(len(run))
            except BaseException as error:  # noqa: BLE001 — re-raised by the waiter
                outcome = done.set_exception, error
            with suppress(RuntimeError):  # loop closed under the job (shutdown): nobody waits
                done.get_loop().call_soon_threadsafe(_settle, done, *outcome)

    def _execute(self, conn: _Connection, frame: Frame) -> bytes:
        """Run one request, returning its encoded replies
        (one frame; a run of chunks for a query).  Any failure — a reply the
        wire cannot carry included (a label integer past
        MAX_VALUE_VARINT_BYTES, a body past MAX_FRAME_BYTES) — collapses the
        answer to a single typed error frame and the connection lives on.

        The ``net.request`` span opened here is the root of the request's
        trace tree; ``submit_ops`` captures it as the cross-thread parent
        for the writer's apply spans, and the ticket resolves only after
        those spans close — so the tree is complete before the reply."""
        kind = type(frame)
        with trace.span("net.request", kind=proto.SCHEMA[kind].name) as span:
            if span.recording:
                span.set("request_id", frame.request_id)
            try:
                handler = self._handlers.get(kind)
                if handler is None:
                    raise ProtocolError(f"{kind.__name__} is not a request frame")
                return b"".join(map(encode_frame, handler(conn, frame)))
            except BaseException as error:  # noqa: BLE001 — typed frame, conn lives
                reply = proto.error_frame(frame.request_id, error)
                if span.recording:
                    span.set("error", reply.code_name)
                return encode_frame(reply)

    def _hello(self, conn: _Connection, frame: Hello) -> list[Frame]:
        if frame.version != proto.PROTOCOL_VERSION:
            raise ProtocolError(
                f"peer speaks protocol {frame.version}, "
                f"server speaks {proto.PROTOCOL_VERSION}"
            )
        return [
            ServerHello(
                frame.request_id,
                proto.PROTOCOL_VERSION,
                self.service.n_shards,
                self.service.schemes[0].name,
                conn.session.vector.numbers,
            )
        ]

    def _ping(self, conn: _Connection, frame: Ping) -> list[Frame]:
        return [Pong(frame.request_id)]

    def _refresh(self, conn: _Connection, frame: Refresh) -> list[Frame]:
        return [Epochs(frame.request_id, conn.session.refresh().numbers)]

    def _lookup(self, conn: _Connection, frame: Lookup) -> list[Frame]:
        return [Values(frame.request_id, tuple(conn.session.lookup_many(frame.lids)))]

    def _ordinal(self, conn: _Connection, frame: Ordinal) -> list[Frame]:
        ordinals = conn.session.lookup_many(frame.lids, ORDINAL_CHANNEL)
        return [Orders(frame.request_id, tuple(ordinals))]

    def _compare(self, conn: _Connection, frame: Compare) -> list[Frame]:
        return [Orders(frame.request_id, tuple(conn.session.compare_many(frame.pairs)))]

    def _query(self, conn: _Connection, frame: Query) -> list[Frame]:
        """Evaluate one query stream.  The whole answer is materialised
        from a single :class:`~repro.query.streams.EpochView` before the
        first chunk is framed, so every chunk of the stream carries the
        same epoch vector — the wire form of "no torn results"."""
        if conn.engine is None:
            conn.engine = QueryEngine(conn.session, self.catalog)
        view = conn.engine.view()
        element = (frame.start_lid, frame.end_lid)
        if frame.axis == proto.AXIS_DESCENDANTS:
            elements = list(view.descendants(element))
        elif frame.axis == proto.AXIS_FOLLOWING:
            elements = list(view.following(element))
        elif frame.axis == proto.AXIS_ANCESTORS:
            elements = list(view.ancestors(element))
        elif frame.axis == proto.AXIS_ANCESTOR_AT_DEPTH:
            ancestor = view.ancestor_at_depth(element, frame.depth)
            elements = [] if ancestor is None else [ancestor]
        else:
            raise ProtocolError(f"unknown query axis {frame.axis}")
        size = frame.chunk if frame.chunk else DEFAULT_QUERY_CHUNK
        size = max(1, min(size, QUERY_CHUNK_CAP))
        chunks: list[Frame] = [
            QueryChunk(
                frame.request_id,
                offset + size >= len(elements),
                view.epochs,
                tuple(elements[offset : offset + size]),
            )
            # An empty result still answers: one empty last chunk.
            for offset in range(0, len(elements), size) or [0]
        ]
        self._count["repro_net_query_chunks_total"].inc(len(chunks))
        return chunks

    def _submit(self, conn: _Connection, frame: Submit) -> list[Frame]:
        ops = list(frame.ops)
        self._untrack_deletes(ops)
        try:
            ticket = self.service.submit_ops(ops, timeout=self.submit_timeout)
        except BackpressureTimeout as error:
            raise ServiceOverloadedError(
                f"write queue full for {self.submit_timeout}s: {error}"
            ) from error
        results = tuple(ticket.wait().results)
        self._track_submit(ops, results)
        return [Results(frame.request_id, results)]

    def _untrack_deletes(self, ops: list[Any]) -> None:
        """Catalog half 1, *before* the batch commits: drop every element
        a ``delete_element`` op names directly.  Remove-before-commit is
        the discipline that lets concurrent view builds retry instead of
        tripping over dead LIDs (``BatchRef`` args name same-batch insert
        results, which were never added, so they need no removal)."""
        for op in ops:
            if op.kind == "delete_element" and not any(
                isinstance(arg, BatchRef) for arg in op.args
            ):
                self.catalog.remove(op.args[0], op.args[1])

    def _track_submit(self, ops: list[Any], results: tuple[Any, ...]) -> None:
        """Catalog half 2, after the batch acks: add every element an
        ``insert_element_before`` created — unless the same batch also
        deleted it (by ref or by value).

        Only element-level ops maintain the catalog (tag-level and range
        ops carry no element pairing, and a W-BOX-O subtree op's is not
        catalogued); callers seeding richer catalogs pass one to the constructor."""

        def resolve(arg: Any) -> Any:
            if isinstance(arg, BatchRef):
                value = results[arg.index]
                if arg.item is not None:
                    value = value[arg.item]
                return value
            return arg

        deleted = {
            (resolve(op.args[0]), resolve(op.args[1])) for op in ops if op.kind == "delete_element"
        }
        for op, result in zip(ops, results):
            if (
                op.kind == "insert_element_before"
                and result is not None
                and (result[0], result[1]) not in deleted
            ):
                self.catalog.add(result[0], result[1])

    # -- replication (WAL shipping) ------------------------------------

    def _repl_shard(self, shard: int) -> tuple[LabelService, Any]:
        """``(shard service, file backend)`` for one shard index."""
        services = self.service.shards
        if not 0 <= shard < len(services):
            raise ReplicationError(
                f"shard {shard} out of range (service has {len(services)})"
            )
        shard_service = services[shard]
        backend = shard_service.scheme.store.backend
        if getattr(backend, "wal_manifest", None) is None:
            raise ReplicationError(f"shard {shard} is not file-backed (no WAL to ship)")
        return shard_service, backend

    def _repl_state(self, conn: _Connection, frame: ReplState) -> list[Frame]:
        shard_service, backend = self._repl_shard(frame.shard)
        manifest = backend.wal_manifest
        checkpoints = manifest["checkpoints"]
        newest = checkpoints[-1] if checkpoints else None
        try:
            tail_bytes = os.path.getsize(backend.wal_path)
        except OSError:
            tail_bytes = 0
        return [
            ReplManifest(
                frame.request_id,
                frame.shard,
                manifest["next_segment"],
                tuple(manifest["segments"]),
                newest["segment"] if newest else 0,
                newest["bytes"] if newest else 0,
                shard_service.current_epoch.number,
                tail_bytes,
            )
        ]

    def _repl_fetch(self, conn: _Connection, frame: ReplFetch) -> list[Frame]:
        _shard_service, backend = self._repl_shard(frame.shard)
        manifest = backend.wal_manifest
        if frame.kind == proto.REPL_FETCH_IMAGE:
            if not any(
                record["segment"] == frame.segment
                for record in manifest["checkpoints"]
            ):
                raise ReplicationError(
                    f"no checkpoint image recorded at segment {frame.segment}"
                )
            path = checkpoint_image_path(backend.path, frame.segment)
            sealed = True
        elif frame.kind == proto.REPL_FETCH_WAL:
            if frame.segment in manifest["segments"]:
                path = segment_path(backend.path, frame.segment)
                sealed = True
            elif frame.segment == manifest["next_segment"]:
                # The live tail.  The WAL handle is flushed at every
                # commit, so the file always ends on a whole committed
                # transaction boundary (plus, at worst, bytes of one the
                # writer is mid-append on — the follower applies only the
                # committed prefix).
                path = backend.wal_path
                sealed = False
            else:
                raise ReplicationError(
                    f"segment {frame.segment} is neither sealed nor the "
                    f"live tail (next is {manifest['next_segment']})"
                )
        else:
            raise ReplicationError(f"unknown replication fetch kind {frame.kind}")
        limit = min(frame.limit, REPL_CHUNK_CAP) if frame.limit else REPL_CHUNK_CAP
        try:
            with open(path, "rb") as handle:
                total = os.fstat(handle.fileno()).st_size
                handle.seek(frame.offset)
                data = handle.read(limit)
        except FileNotFoundError:
            if sealed:
                raise ReplicationError(f"replication source {path} vanished") from None
            total, data = 0, b""  # live tail not created yet: empty
        self._count["repro_repl_chunks_shipped_total"].inc()
        self._count["repro_repl_bytes_shipped_total"].inc(len(data))
        return [ReplChunk(frame.request_id, sealed, total, data)]


def run_server(
    service: ShardedLabelService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: threading.Event | None = None,
    holder: dict | None = None,
    **kwargs: Any,
) -> None:
    """Blocking convenience: run a :class:`NetServer` on a fresh event
    loop until stopped.  ``ready`` (set once listening) and ``holder``
    (receives ``server``, ``loop`` and a thread-safe ``stop`` callable)
    let a host thread coordinate — tests and the CLI use this to run the
    server off the main thread."""

    async def _main() -> None:
        server = NetServer(service, host, port, **kwargs)
        await server.start()
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if holder is not None:
            holder["server"] = server
            holder["loop"] = loop
            holder["stop"] = lambda: loop.call_soon_threadsafe(task.cancel)
        if ready is not None:
            ready.set()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            # Swallowing the stop-callable's cancellation is the clean
            # exit; uncancel so the runner does not re-raise it.
            task.uncancel()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except asyncio.CancelledError:
        pass


def serve_in_thread(
    service: ShardedLabelService, host: str = "127.0.0.1", port: int = 0, **kwargs: Any
) -> tuple[dict, threading.Thread]:
    """:func:`run_server` on a daemon thread.  Returns its ``holder``
    (``server`` / ``loop`` / ``stop``) and the thread once the server is
    listening; stop it with ``holder["stop"]()`` then ``thread.join()``."""
    ready = threading.Event()
    holder: dict = {}
    thread = threading.Thread(
        target=run_server,
        args=(service, host, port),
        kwargs={"ready": ready, "holder": holder, **kwargs},
        daemon=True,
    )
    thread.start()
    if not ready.wait(10):
        raise ServiceError("network front end did not come up within 10s")
    return holder, thread
