"""Outside-in span tracing: wrappers around the layers' public entry points.

Nothing in ``src/`` is edited.  :func:`install` replaces each target *at the
name where callers look it up* (a class attribute, or a module global that a
``from x import y`` bound) with a wrapper that records one in-memory span per
call — ``(name, t0, t1, parent, value)`` with ``time.monotonic_ns`` stamps
(``CLOCK_MONOTONIC``, shared by every process on the host, so client and
server spans sit on one timeline) and the parent taken from a per-thread
stack.  Spans are kept in memory and written out once, by :func:`dump`.

A target that no longer exists is skipped and listed under ``missing`` in
the dump: the benchmark must keep running when a later change renames an
entry point, reporting zero calls for it rather than crashing.

Layers are the repo's module names; the table is :data:`TARGETS`.  A layer's
*self time* is its spans' duration minus the part their child spans cover
(:func:`layer_totals`).  ``WAIT`` spans (a client blocked on a reply, a
submitter blocked on its ticket) are recorded for the timeline but their
self time is not attributed: while they block, another thread's spans
cover the same interval.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

#: The 12 layers, in request-path order (outside in).
LAYERS = (
    "net.client",
    "net.protocol",
    "net.server",
    "service",
    "core.batch",
    "core.scheme",
    "storage.blockstore",
    "storage.codec",
    "storage.filebackend",
    "storage.wal",
    "persist",
    "query.streams",
)

#: Hard cap on recorded spans per thread; beyond it calls run unrecorded
#: and are counted in ``dropped`` (which must read 0 for a valid trace).
MAX_SPANS_PER_THREAD = 4_000_000

CALL, WAIT, GENERATOR, CONTEXT = "call", "wait", "generator", "context"

_SCHEME_OPS = (
    "lookup", "lookup_pair", "compare", "batch_lookup",
    "insert_before", "insert_element_before", "delete", "delete_element",
)


def _frame_rid(args: tuple, result: Any) -> Any:
    return getattr(args[0], "request_id", None)


def _result_rid(args: tuple, result: Any) -> Any:
    return getattr(result, "request_id", None)


def _ops_len(args: tuple, result: Any) -> Any:
    return len(args[1])


def _txn_bytes(args: tuple, result: Any) -> Any:
    # One WAL transaction: which writer, its cumulative byte counter after
    # the append, and the page-image bytes and page count among them (the
    # rest of the transaction's bytes is commit metadata).
    writer, puts = args[0], args[1]
    return [id(writer), getattr(writer, "bytes_written", 0), sum(map(len, puts.values())), len(puts)]


#: (layer, module, class or None, attribute(s), kind, value extractor).
#: The value extractor sees ``(args, result)`` after the call returned.
TARGETS: tuple[tuple[str, str, str | None, tuple[str, ...], str, Any], ...] = (
    ("net.client", "repro.net.client", "NetClient",
     ("begin_ping", "begin_refresh", "begin_lookup", "begin_compare",
      "begin_submit", "begin_query"), CALL, _result_rid),
    ("net.client", "repro.net.client", "Pending", ("wait",), WAIT, _frame_rid),
    ("net.protocol", "repro.net.client", None, ("encode_frame",), CALL, _frame_rid),
    ("net.protocol", "repro.net.server", None, ("encode_frame",), CALL, _frame_rid),
    ("net.protocol", "repro.net.protocol", None, ("decode_payload",), CALL, _result_rid),
    ("net.protocol", "repro.net.protocol", "FrameDecoder", ("feed",), CALL, None),
    ("net.protocol", "repro.net.protocol", "FrameDecoder", ("frames",), GENERATOR, None),
    ("service", "repro.service.sharded", "ShardedReaderSession",
     ("lookup_many", "compare", "refresh"), CALL, None),
    ("service", "repro.service.sharded", "ShardedLabelService",
     ("submit_ops", "query"), CALL, None),
    ("service", "repro.service.sharded", "ShardedWriteTicket", ("wait",), WAIT, None),
    ("core.batch", "repro.core.batch", "BatchExecutor", ("execute",), CALL, _ops_len),
    ("core.batch", "repro.service.router", None, ("route_ops",), CALL, None),
    ("core.scheme", "repro.core.interface", "LabelingScheme", _SCHEME_OPS, CALL, None),
    ("core.scheme", "repro.core.wbox.tree", "WBox", _SCHEME_OPS, CALL, None),
    ("core.scheme", "repro.core.wbox.pairs", "WBoxO", _SCHEME_OPS, CALL, None),
    ("core.scheme", "repro.core.bbox.tree", "BBox", _SCHEME_OPS, CALL, None),
    ("storage.blockstore", "repro.storage.blockstore", "BlockStore",
     ("read", "write", "allocate", "free"), CALL, None),
    ("storage.blockstore", "repro.storage.blockstore", "BlockStore",
     ("operation",), CONTEXT, None),
    ("storage.codec", "repro.storage.filebackend", None,
     ("encode_block_payload", "decode_block_payload"), CALL, None),
    ("storage.codec", "repro.persist", None, ("_encode_payload",), CALL, None),
    ("storage.filebackend", "repro.storage.filebackend", "FileBackend",
     ("read", "write", "commit", "checkpoint"), CALL, None),
    ("storage.wal", "repro.storage.wal", "WALWriter", ("append_transaction",), CALL, _txn_bytes),
    ("storage.wal", "repro.storage.wal", "WALWriter", ("truncate",), CALL, None),
    ("storage.wal", "os", None, ("fsync",), CALL, None),
    ("persist", "repro.persist", None,
     ("scheme_metadata_header", "open_sharded_schemes", "checkpoint_sharded",
      "checkpoint_scheme", "save_scheme"), CALL, None),
    ("persist", "repro.cli", None, ("checkpoint_scheme",), CALL, None),
    ("query.streams", "repro.query.streams", "QueryEngine", ("view",), CALL, None),
    ("query.streams", "repro.query.streams", "EpochView", ("descendants",), GENERATOR, None),
    ("query.streams", "repro.query.streams", "ElementCatalog", ("snapshot",), CALL, None),
)


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack", "dropped")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        #: ``[name_id, t0, t1, parent_index, value]`` in start order.
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.dropped = 0


class Recorder:
    """Per-process span store: one append-only log per thread."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str, str]] = []  # (layer, name, kind)
        self.missing: list[str] = []
        #: ``(owner, attribute, original)`` of every patch, for :meth:`uninstall`.
        self._patched: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
            self._local.log = log
            return log

    def enter(self, name_id: int) -> tuple[_ThreadLog, int]:
        log = self._log()
        spans = log.spans
        index = len(spans)
        if index >= MAX_SPANS_PER_THREAD:
            log.dropped += 1
            return log, -1
        stack = log.stack
        spans.append([name_id, 0, 0, stack[-1] if stack else -1, None])
        stack.append(index)
        spans[index][1] = time.monotonic_ns()
        return log, index

    @staticmethod
    def exit(log: _ThreadLog, index: int, value: Any = None) -> None:
        now = time.monotonic_ns()
        if index < 0:
            return
        span = log.spans[index]
        span[2] = now
        span[4] = value
        log.stack.pop()

    # -- wrapper factories ---------------------------------------------

    def wrap(self, layer: str, name: str, kind: str, fn: Callable, value_of: Any) -> Callable:
        name_id = len(self.names)
        self.names.append((layer, name, kind))
        enter, exit_ = self.enter, self.exit

        if kind == GENERATOR:
            def generator_wrapper(*args: Any, **kwargs: Any):
                # One span per resume: the time the generator itself runs,
                # not the time its consumer spends between items.
                iterator = fn(*args, **kwargs)
                while True:
                    log, index = enter(name_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        exit_(log, index)
                    yield item

            wrapper: Callable = generator_wrapper
        elif kind == CONTEXT:
            @contextmanager
            def context_wrapper(*args: Any, **kwargs: Any):
                log, index = enter(name_id)
                try:
                    with fn(*args, **kwargs) as value:
                        yield value
                finally:
                    exit_(log, index)

            wrapper = context_wrapper
        elif value_of is None:
            def call_wrapper(*args: Any, **kwargs: Any):
                log, index = enter(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(log, index)

            wrapper = call_wrapper
        else:
            def value_wrapper(*args: Any, **kwargs: Any):
                log, index = enter(name_id)
                value = None
                try:
                    result = fn(*args, **kwargs)
                    value = value_of(args, result)
                    return result
                finally:
                    exit_(log, index, value)

            wrapper = value_wrapper
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Patch every :data:`TARGETS` entry that still exists."""
        for layer, module_name, class_name, attrs, kind, value_of in TARGETS:
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{class_name or '*'}")
                continue
            for attr in attrs:
                # vars(): patch only what this class/module itself defines,
                # so an inherited method is wrapped once, on its definer.
                fn = vars(owner).get(attr)
                label = f"{class_name or module_name}.{attr}"
                if fn is None:
                    if layer != "core.scheme":  # schemes inherit most ops
                        self.missing.append(label)
                    continue
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(layer, label, kind, fn, value_of))

    def uninstall(self) -> None:
        """Put back what :meth:`install` replaced, so that nothing run in
        this process afterwards is traced (or wrapped a second time)."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- output ----------------------------------------------------------

    def export(self) -> dict[str, Any]:
        with self._lock:
            logs = list(self._logs)
        return {
            "pid": os.getpid(),
            "names": self.names,
            "missing": self.missing,
            "dropped": sum(log.dropped for log in logs),
            "threads": [
                {"thread": log.thread, "spans": log.spans} for log in logs
            ],
        }


def dump(recorder: Recorder, path: str, extra: dict[str, Any] | None = None) -> None:
    """Write the trace atomically (a reader never sees a partial file)."""
    data = recorder.export()
    data.update(extra or {})
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# analysis (runs in the harness, over one or more exported traces)
# ----------------------------------------------------------------------


class Span:
    __slots__ = ("layer", "name", "kind", "t0", "t1", "value", "thread", "top", "child_ns")

    def __init__(self, layer, name, kind, t0, t1, value, thread, top) -> None:
        self.layer, self.name, self.kind = layer, name, kind
        self.t0, self.t1, self.value = t0, t1, value
        self.thread, self.top = thread, top
        self.child_ns = 0

    @property
    def self_ns(self) -> int:
        return self.t1 - self.t0 - self.child_ns


def load_spans(traces: Iterable[dict[str, Any]]) -> list[Span]:
    """Flatten exported traces into :class:`Span` objects with child time
    resolved.  A span still open at export time (``t1 == 0``) is dropped
    and its children count as top-level."""
    out: list[Span] = []
    for trace in traces:
        names = trace["names"]
        for thread in trace["threads"]:
            tag = f"{trace['pid']}:{thread['thread']}"
            loaded: list[Span | None] = []
            for name_id, t0, t1, parent, value in thread["spans"]:
                if not t1:
                    loaded.append(None)
                    continue
                layer, name, kind = names[name_id]
                owner = loaded[parent] if parent >= 0 else None
                span = Span(layer, name, kind, t0, t1, value, tag, owner is None)
                if owner is not None:
                    owner.child_ns += t1 - t0
                loaded.append(span)
                out.append(span)
    return out


def in_windows(spans: Iterable[Span], windows: list[tuple[int, int]]) -> list[Span]:
    """Spans that start inside one of the ``(t0, t1)`` windows."""
    kept = []
    for span in spans:
        for lo, hi in windows:
            if lo <= span.t0 < hi:
                kept.append(span)
                break
    return kept


def layer_totals(spans: Iterable[Span]) -> dict[str, tuple[int, int]]:
    """``layer -> (self ns, calls)``; ``WAIT`` spans add calls but no time."""
    totals = {layer: [0, 0] for layer in LAYERS}
    for span in spans:
        entry = totals.setdefault(span.layer, [0, 0])
        entry[1] += 1
        if span.kind != WAIT:
            entry[0] += span.self_ns
    return {layer: (ns, calls) for layer, (ns, calls) in totals.items()}
