"""Synchronous, pipelining client for the network front end.

:class:`NetClient` is a plain-socket client usable from ordinary threads
(no asyncio): a background reader thread decodes response frames and
matches them to outstanding requests by request id, so any number of
requests can be in flight on one connection.  The blocking convenience
methods (:meth:`lookup`, :meth:`compare`, :meth:`submit`, ...) are
``begin_*().wait()``; the ``begin_*`` forms are what the open-loop load
generator drives so arrivals never wait for earlier departures.

Typed error frames come back as the exceptions they encode —
:class:`~repro.errors.ServiceOverloadedError` for shed requests,
:class:`~repro.errors.ServiceDegradedError` when the writer has died, and
so on — so a networked caller handles failures exactly like an in-process
one.  A connection-level failure (protocol-violation close, peer gone)
fails every outstanding request with :class:`ConnectionError` or
:class:`~repro.errors.ProtocolError`; the client is then dead and a new
one must be connected.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import warnings
from typing import Any, Sequence

from ..core.batch import BatchOp
from ..errors import ProtocolError, ReproError
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


def exception_for_frame(frame: ErrorFrame) -> ReproError:
    """The typed exception an :class:`ErrorFrame` decodes to (the
    ``raises`` column of :data:`repro.net.protocol.ERRORS`)."""
    kind = proto.ERRORS.get(frame.code)
    cls = kind.raises if kind else ReproError
    return cls(f"[{frame.code_name}] {frame.message}")


def _expect(pending: "Pending", cls: type, timeout: float | None) -> Any:
    """The frame ``pending`` resolves to, which must be a ``cls`` reply."""
    frame = pending.wait(timeout)
    if not isinstance(frame, cls):
        raise ProtocolError(f"{type(frame).__name__} answered a request expecting {cls.__name__}")
    return frame


class Pending:
    """One outstanding request: resolves to a frame or an exception."""

    __slots__ = ("request_id", "completed_at", "_event", "_frame", "_error")

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        #: ``time.monotonic()`` at response delivery, stamped on the reader
        #: thread — so latency measured against a scheduled arrival time is
        #: not inflated by how long the caller took to get around to
        #: :meth:`wait` (the load generator's coordinated-omission guard).
        self.completed_at: float | None = None
        self._event = threading.Event()
        self._frame: Frame | None = None
        self._error: BaseException | None = None

    def _resolve(self, frame: Frame) -> None:
        self._frame = frame
        self.completed_at = time.monotonic()
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.completed_at = time.monotonic()
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> Frame:
        """Block for the response frame; raises the typed exception for
        an error frame, :class:`TimeoutError` on timeout."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"no response to request {self.request_id} within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._frame is not None
        return self._frame


class PendingStream(Pending):
    """One outstanding query stream: accumulates :class:`QueryChunk`
    frames on the reader thread and resolves when the last one lands.

    The epochs stamped on every chunk must be identical — a mismatch
    means the stream mixed epochs mid-flight, which the server's design
    makes impossible, so :meth:`result` treats it as a protocol error
    rather than silently splicing torn results."""

    __slots__ = ("chunks",)

    def __init__(self, request_id: int) -> None:
        super().__init__(request_id)
        self.chunks: list[QueryChunk] = []

    def result(
        self, timeout: float | None = None
    ) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        """Block for the whole stream; ``(epochs, elements)``."""
        self.wait(timeout)
        assert self.chunks, "stream resolved without chunks"
        epochs = self.chunks[0].epochs
        elements: list[tuple[int, int]] = []
        for chunk in self.chunks:
            if chunk.epochs != epochs:
                raise ProtocolError(
                    f"torn query stream {self.request_id}: chunk at epochs "
                    f"{chunk.epochs} after {epochs}"
                )
            elements.extend(chunk.elements)
        return epochs, elements


class NetClient:
    """A connection to a :class:`~repro.net.server.NetServer`.

    Thread-safe: sends are serialized by a lock, responses are matched by
    id on the reader thread, and every public method may be called from
    any thread.  Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 10.0,
        handshake: bool = True,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, Pending] = {}
        self._ids = itertools.count(1)
        self._dead: BaseException | None = None
        self._closed = False
        self._decoder = FrameDecoder()
        self._reader = threading.Thread(
            target=self._read_loop, name="net-client-reader", daemon=True
        )
        self._reader.start()
        #: Topology from the handshake (None when ``handshake=False``).
        self.server_info: ServerHello | None = None
        if handshake:
            self.server_info = self.hello()

    # -- lifecycle ------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Close the connection.  Idempotent and deterministic:

        * every still-pending request fails with :class:`ConnectionError`
          *now* (not whenever the reader thread notices the dead socket),
          and later ``begin_*`` calls raise the same error immediately;
        * a second ``close`` is a no-op — it does not ``shutdown`` an
          already-closed socket;
        * if the reader thread fails to exit within ``timeout`` a
          :class:`RuntimeWarning` is emitted instead of silently leaking
          the thread.
        """
        with self._pending_lock:
            if self._closed:
                return
            self._closed = True
        self._fail_all(ConnectionError("client closed while request in flight"))
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone; the socket still needs closing
        self._sock.close()
        self._reader.join(timeout=timeout)
        if self._reader.is_alive():
            warnings.warn(
                f"net-client reader thread still alive {timeout}s after close "
                "(stuck in recv?); it is daemonic and will not block exit",
                RuntimeWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reader thread --------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                data = self._sock.recv(1 << 16)
                if not data:
                    self._decoder.close()  # ProtocolError on partial frame
                    raise ConnectionError("server closed the connection")
                self._decoder.feed(data)
                for frame in self._decoder.frames():
                    self._deliver(frame)
        except BaseException as error:  # noqa: BLE001 — fail all pending, typed
            self._fail_all(error)

    def _deliver(self, frame: Frame) -> None:
        if isinstance(frame, ErrorFrame) and frame.request_id == 0:
            # Connection-level failure: the server is about to close us.
            raise exception_for_frame(frame)
        with self._pending_lock:
            pending = self._pending.get(frame.request_id)
            if (
                isinstance(pending, PendingStream)
                and isinstance(frame, QueryChunk)
                and not frame.last
            ):
                # Mid-stream chunk: stay registered for the rest.
                pending.chunks.append(frame)
                return
            self._pending.pop(frame.request_id, None)
        if pending is None:
            return  # response to a request nobody is waiting on anymore
        if isinstance(frame, ErrorFrame):
            pending._fail(exception_for_frame(frame))
        elif isinstance(pending, PendingStream) and isinstance(frame, QueryChunk):
            pending.chunks.append(frame)
            pending._resolve(frame)
        else:
            pending._resolve(frame)

    def _fail_all(self, error: BaseException) -> None:
        with self._pending_lock:
            if self._dead is None:
                self._dead = error
            pending = list(self._pending.values())
            self._pending.clear()
        for item in pending:
            item._fail(error)

    # -- request submission ---------------------------------------------

    def _begin(
        self, frame_cls: type, *fields: Any, factory: type[Pending] = Pending
    ) -> Pending:
        request_id = next(self._ids)
        # Encode first: a frame the wire refuses raises here and never
        # registers a pending entry nobody would resolve.
        wire = encode_frame(frame_cls(request_id, *fields))
        pending = factory(request_id)
        with self._pending_lock:
            if self._dead is not None:
                raise ConnectionError(f"connection is dead: {self._dead}")
            self._pending[request_id] = pending
        try:
            with self._send_lock:
                self._sock.sendall(wire)
        except OSError as error:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ConnectionError(f"send failed: {error}") from error
        return pending

    # pipelined forms ----------------------------------------------------

    def begin_hello(self) -> Pending:
        return self._begin(Hello, proto.PROTOCOL_VERSION)

    def begin_ping(self) -> Pending:
        return self._begin(Ping)

    def begin_refresh(self) -> Pending:
        return self._begin(Refresh)

    def begin_lookup(self, lids: Sequence[int]) -> Pending:
        return self._begin(Lookup, tuple(lids))

    def begin_ordinal(self, lids: Sequence[int]) -> Pending:
        return self._begin(Ordinal, tuple(lids))

    def begin_compare(self, pairs: Sequence[tuple[int, int]]) -> Pending:
        return self._begin(Compare, tuple((a, b) for a, b in pairs))

    def begin_submit(self, ops: Sequence[BatchOp]) -> Pending:
        return self._begin(Submit, tuple(ops))

    def begin_query(
        self,
        axis: int,
        start_lid: int,
        end_lid: int,
        *,
        depth: int = 0,
        chunk: int = 0,
    ) -> PendingStream:
        """Start a query stream; :meth:`PendingStream.result` collects it."""
        pending = self._begin(
            Query, axis, start_lid, end_lid, depth, chunk, factory=PendingStream
        )
        assert isinstance(pending, PendingStream)
        return pending

    def begin_repl_state(self, shard: int = 0) -> Pending:
        return self._begin(ReplState, shard)

    def begin_repl_fetch(
        self, shard: int, kind: int, segment: int, offset: int = 0, limit: int = 0
    ) -> Pending:
        return self._begin(ReplFetch, shard, kind, segment, offset, limit)

    # blocking forms -----------------------------------------------------

    def hello(self, timeout: float | None = 30.0) -> ServerHello:
        return _expect(self.begin_hello(), ServerHello, timeout)

    def ping(self, timeout: float | None = 30.0) -> None:
        _expect(self.begin_ping(), Pong, timeout)

    def refresh(self, timeout: float | None = 30.0) -> tuple[int, ...]:
        """Advance the connection's pinned session; new epoch numbers."""
        return _expect(self.begin_refresh(), Epochs, timeout).numbers

    def lookup(self, lids: Sequence[int], timeout: float | None = 30.0) -> list[Any]:
        """Labels for ``lids`` at the connection's pinned epoch(s)."""
        return list(_expect(self.begin_lookup(lids), Values, timeout).values)

    def ordinal(self, lids: Sequence[int], timeout: float | None = 30.0) -> list[int]:
        return list(_expect(self.begin_ordinal(lids), Orders, timeout).orders)

    def compare(
        self, pairs: Sequence[tuple[int, int]], timeout: float | None = 30.0
    ) -> list[int]:
        """Signed document-order comparisons for LID pairs."""
        return list(_expect(self.begin_compare(pairs), Orders, timeout).orders)

    def submit(
        self, ops: Sequence[BatchOp], timeout: float | None = 30.0
    ) -> list[Any]:
        """Apply a write tape through the service; positional results."""
        return list(_expect(self.begin_submit(ops), Results, timeout).values)

    def query(
        self,
        axis: int,
        start_lid: int,
        end_lid: int,
        *,
        depth: int = 0,
        chunk: int = 0,
        timeout: float | None = 30.0,
    ) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        """Evaluate one ordered-axis stream against the server's element
        catalog at the connection's pinned epoch(s).

        ``axis`` is one of the ``AXIS_*`` codes in
        :mod:`repro.net.protocol`; ``depth`` applies only to
        ``AXIS_ANCESTOR_AT_DEPTH``.  Returns ``(epochs, elements)`` where
        every chunk of the stream carried the same ``epochs`` (verified
        client-side)."""
        return self.begin_query(
            axis, start_lid, end_lid, depth=depth, chunk=chunk
        ).result(timeout)

    def repl_state(self, shard: int = 0, timeout: float | None = 30.0) -> ReplManifest:
        """One shard's replication position (segment manifest + epoch)."""
        return _expect(self.begin_repl_state(shard), ReplManifest, timeout)

    def repl_fetch(
        self,
        shard: int,
        kind: int,
        segment: int,
        offset: int = 0,
        limit: int = 0,
        timeout: float | None = 30.0,
    ) -> ReplChunk:
        """One windowed read of a replication source (image or WAL)."""
        pending = self.begin_repl_fetch(shard, kind, segment, offset, limit)
        return _expect(pending, ReplChunk, timeout)
