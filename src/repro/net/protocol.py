"""The wire protocol: compact varint-framed binary messages.

Every message on the wire is one *frame*::

    uvarint(payload_length) ++ payload
    payload = uvarint(frame_type) ++ uvarint(request_id) ++ body

Varints are unsigned LEB128 (zigzag for signed), the integer encoding
the storage codec uses for block payloads and WAL records.
``request_id`` is chosen by the client and echoed verbatim in the
response, which is what makes pipelining work: a client may have any
number of requests in flight and match responses by id (responses to one
connection additionally arrive in request order).

What a frame *is* is declared once, by :func:`wire` on its class: type
code, trace/metric name, one codec per body field.  :data:`SCHEMA` is the
resulting table, and each row carries the encoder and decoder
:func:`wire` composed from its field codecs at import.  Adding a frame is
one decorated class here, one ``NetServer`` handler and one ``NetClient``
method.

Label values (which are scheme-specific: ints for W-BOX, component
tuples for B-BOX/ORDPATH) travel as a small self-describing tagged
encoding (:func:`encode_value` / :func:`_get_value`) with a nesting
depth cap, so every scheme's labels round-trip without per-scheme wire
knowledge.

Decoding discipline — the property the fuzz suite pins:

* Decoding is by offset: a field reader is ``get(buf, pos, end) ->
  (value, next_pos)`` and never reads outside ``buf[pos:end]``, so
  :class:`FrameDecoder` decodes each frame in place from its buffer.
* :func:`decode_payload` either returns a frame object or raises
  :class:`~repro.errors.ProtocolError`.  Nothing else, ever: truncated
  varints, element counts exceeding the bytes that could hold them,
  unknown frame types or tags, trailing garbage, and over-deep value
  nesting are all typed errors, detected in time linear in the payload.
* The encoder raises the same typed error for every integer the decoder
  would refuse, so an unsendable value fails its own request instead of
  killing the peer's connection.
* :class:`FrameDecoder` (the incremental stream side) bounds the length
  prefix (10 varint bytes, ``max_frame_bytes`` total) *before* buffering
  a frame, so a hostile length prefix cannot balloon memory and an
  oversized frame is rejected as soon as its header is readable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterator, NamedTuple, Union

from ..core.batch import MAX_VARINT_BYTES, BatchOp, decode_op, encode_op
from ..core.batch import get_byte as _get_byte
from ..core.batch import get_count as _get_count
from ..core.batch import get_uvarint as _get_uvarint
from ..core.batch import put_uvarint as _append_uvarint
from ..errors import (
    BackpressureTimeout,
    CrossShardError,
    LabelingError,
    ProtocolError,
    ReproError,
    ServiceDegradedError,
    ServiceError,
    ServiceOverloadedError,
    UnknownLIDError,
    WriterCrashError,
)

#: Protocol version spoken by this module (bumped on incompatible change).
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload (requests and responses alike).
MAX_FRAME_BYTES = 1 << 20

#: The bound on value integers (tagged label ints, :class:`Orders`
#: entries), shared by encoder and decoder: 224 zigzag bits, wider than
#: any registered scheme's labels (``naive-80`` needs ~91).
MAX_VALUE_VARINT_BYTES = 32

#: Maximum nesting depth of an encoded value (labels are flat or nearly
#: so; anything deeper is an encoding bomb, not a label).
MAX_VALUE_DEPTH = 8

#: :class:`Query` axis kinds (wire codes; append only).
AXIS_DESCENDANTS = 0
AXIS_FOLLOWING = 1
AXIS_ANCESTORS = 2
AXIS_ANCESTOR_AT_DEPTH = 3

#: :class:`ReplFetch` source kinds.
REPL_FETCH_IMAGE = 0  # a checkpoint image (page-file copy)
REPL_FETCH_WAL = 1  # a WAL segment (sealed file, or the live tail)

# -- typed error-frame codes -------------------------------------------

ERR_PROTOCOL = 1  # malformed frame; the server closes the connection
ERR_OVERLOADED = 2  # typed shedding: admission or write queue full
ERR_DEGRADED = 3  # service is read-only (writer died); pinned reads OK
ERR_CROSS_SHARD = 4  # op spans shard boundaries
ERR_UNKNOWN_LID = 5  # a referenced LID does not exist
ERR_BAD_REQUEST = 6  # well-formed frame, semantically invalid request
ERR_INTERNAL = 7  # unexpected server-side failure


class ErrorKind(NamedTuple):
    """One error code: its name, the exception the client raises for it
    and the server-side exceptions that are answered with it."""

    code: int
    name: str
    raises: type[ReproError]
    catches: tuple[type[BaseException], ...]


#: The error catalogue both ends read, keyed by code.  The server answers
#: an exception with the *first* row that catches it, so the order is
#: specific classes, then the ``ReproError`` catch-all, then INTERNAL.
#: (A ``WriterCrashError`` failing an in-flight ticket IS the moment the
#: service degrades; both tell the client the same thing.)
ERRORS = {
    kind.code: kind
    for kind in (
        ErrorKind(ERR_DEGRADED, "degraded", ServiceDegradedError,
                  (ServiceDegradedError, WriterCrashError)),
        ErrorKind(ERR_OVERLOADED, "overloaded", ServiceOverloadedError,
                  (ServiceOverloadedError, BackpressureTimeout)),
        ErrorKind(ERR_CROSS_SHARD, "cross_shard", CrossShardError, (CrossShardError,)),
        ErrorKind(ERR_UNKNOWN_LID, "unknown_lid", UnknownLIDError, (UnknownLIDError,)),
        ErrorKind(ERR_PROTOCOL, "protocol", ProtocolError, (ProtocolError,)),
        ErrorKind(ERR_BAD_REQUEST, "bad_request", ReproError,
                  (LabelingError, ReproError, ValueError, TypeError)),
        ErrorKind(ERR_INTERNAL, "internal", ServiceError, (BaseException,)),
    )
}


# ----------------------------------------------------------------------
# low-level byte readers/writers (the unsigned ones are the op row's,
# :mod:`repro.core.batch`)
# ----------------------------------------------------------------------


def _append_svarint(out: bytearray, value: int) -> None:
    # Zigzag in its arbitrary-precision form: ``value >> 63`` is the sign
    # only for 64-bit values, and labels are not bounded by a word.
    zigzag = ~(value << 1) if value < 0 else value << 1
    if zigzag < 0x80:
        out.append(zigzag)
    else:
        _append_uvarint(out, zigzag, MAX_VALUE_VARINT_BYTES)


def _get_svarint(buf: Any, pos: int, end: int) -> tuple[int, int]:
    raw, pos = _get_uvarint(buf, pos, end, MAX_VALUE_VARINT_BYTES)
    return (raw >> 1) ^ -(raw & 1), pos


# ----------------------------------------------------------------------
# field codecs: how one field of a frame travels
# ----------------------------------------------------------------------


class Codec(NamedTuple):
    """``put(out, value)`` appends a field; ``get(buf, pos, end)`` reads it
    back as ``(value, next_pos)``; ``run(buf, pos, end, n)``, where given,
    reads ``n`` of them in one loop as ``(tuple, next_pos)`` (:func:`seq`)."""

    put: Callable[[bytearray, Any], None]
    get: Callable[[Any, int, int], tuple[Any, int]]
    run: Callable[[Any, int, int, int], tuple[tuple, int]] | None = None


def _put_bytes(out: bytearray, raw: bytes) -> None:
    _append_uvarint(out, len(raw))
    out += raw


def _get_bytes(buf: Any, pos: int, end: int) -> tuple[bytes, int]:
    n, pos = _get_count(buf, pos, end)
    return bytes(buf[pos:pos + n]), pos + n


def _put_string(out: bytearray, text: str) -> None:
    _put_bytes(out, text.encode("utf-8"))


def _get_string(buf: Any, pos: int, end: int) -> tuple[str, int]:
    n, pos = _get_count(buf, pos, end)
    try:
        return buf[pos:pos + n].decode("utf-8"), pos + n
    except UnicodeDecodeError as error:
        raise ProtocolError(f"bad utf-8 in string: {error}") from None


def _put_flag(out: bytearray, flag: bool) -> None:
    out.append(1 if flag else 0)


def _get_flag(buf: Any, pos: int, end: int) -> tuple[bool, int]:
    raw, pos = _get_uvarint(buf, pos, end)
    if raw > 1:
        raise ProtocolError(f"bad flag value {raw}")
    return bool(raw), pos


def _varint_run(max_bytes: int, signed: bool) -> Callable[[Any, int, int, int], tuple[tuple, int]]:
    """The ``run`` of UVARINT / SVARINT: varints of up to three bytes (LIDs
    below 2**21) decoded inline, longer ones and the payload's last bytes
    by :func:`_get_uvarint`."""

    def run(buf: Any, pos: int, end: int, n: int) -> tuple[tuple, int]:
        values = []
        append = values.append
        for _ in range(n):
            if end - pos < 3:
                value, pos = _get_uvarint(buf, pos, end, max_bytes)
            elif (b0 := buf[pos]) < 0x80:
                value, pos = b0, pos + 1
            elif (b1 := buf[pos + 1]) < 0x80:
                value, pos = b0 & 0x7F | b1 << 7, pos + 2
            elif (b2 := buf[pos + 2]) < 0x80:
                value, pos = b0 & 0x7F | (b1 & 0x7F) << 7 | b2 << 14, pos + 3
            else:
                value, pos = _get_uvarint(buf, pos, end, max_bytes)
            append((value >> 1) ^ -(value & 1) if signed else value)
        return tuple(values), pos

    return run


# -- tagged values (labels, submit results) ------------------------------

_V_NONE = 0
_V_INT = 1
_V_TUPLE = 2
_V_LIST = 3
_V_STR = 4
_V_BOOL = 5


def encode_value(out: bytearray, value: Any, depth: int = 0) -> None:
    """Append one self-describing value (label, result component)."""
    if depth > MAX_VALUE_DEPTH:
        raise ProtocolError(f"value nesting exceeds depth {MAX_VALUE_DEPTH}")
    if type(value) is int:  # the common label first (a bool is not ``int`` here)
        out.append(_V_INT)
        _append_uvarint(out, ~(value << 1) if value < 0 else value << 1, MAX_VALUE_VARINT_BYTES)
    elif value is None:
        out.append(_V_NONE)
    elif value is True or value is False:
        out.append(_V_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):  # an int subclass
        out.append(_V_INT)
        _append_svarint(out, value)
    elif isinstance(value, (tuple, list)):
        out.append(_V_TUPLE if isinstance(value, tuple) else _V_LIST)
        _append_uvarint(out, len(value))
        for item in value:
            encode_value(out, item, depth + 1)
    elif isinstance(value, str):
        out.append(_V_STR)
        _put_string(out, value)
    else:
        raise ProtocolError(f"value of type {type(value).__name__} is not encodable")


def _get_value(buf: Any, pos: int, end: int, depth: int = 0) -> tuple[Any, int]:
    if depth > MAX_VALUE_DEPTH:
        raise ProtocolError(f"value nesting exceeds depth {MAX_VALUE_DEPTH}")
    tag, pos = _get_byte(buf, pos, end)
    if tag == _V_INT:
        return _get_svarint(buf, pos, end)
    if tag == _V_NONE:
        return None, pos
    if tag == _V_BOOL:
        raw, pos = _get_byte(buf, pos, end)
        if raw > 1:
            raise ProtocolError(f"bad bool byte {raw}")
        return bool(raw), pos
    if tag in (_V_TUPLE, _V_LIST):
        n, pos = _get_count(buf, pos, end)
        items = []
        for _ in range(n):
            item, pos = _get_value(buf, pos, end, depth + 1)
            items.append(item)
        return (tuple(items) if tag == _V_TUPLE else items), pos
    if tag == _V_STR:
        return _get_string(buf, pos, end)
    raise ProtocolError(f"unknown value tag {tag}")


def _value_run(buf: Any, pos: int, end: int, n: int) -> tuple[tuple, int]:
    values = []
    append = values.append
    for _ in range(n):
        if pos < end and buf[pos] == _V_INT:  # an int label: no tag dispatch
            value, pos = _get_svarint(buf, pos + 1, end)
        else:
            value, pos = _get_value(buf, pos, end)
        append(value)
    return tuple(values), pos


# -- the codecs a frame declaration names --------------------------------

UVARINT = Codec(_append_uvarint, _get_uvarint, _varint_run(MAX_VARINT_BYTES, False))
SVARINT = Codec(_append_svarint, _get_svarint, _varint_run(MAX_VALUE_VARINT_BYTES, True))
STRING = Codec(_put_string, _get_string)
BYTES = Codec(_put_bytes, _get_bytes)
FLAG = Codec(_put_flag, _get_flag)
VALUE = Codec(encode_value, _get_value, _value_run)
OP = Codec(encode_op, decode_op)


def seq(item: Codec) -> Codec:
    """A counted tuple of ``item``, read by its ``run`` where it has one;
    the count is checked against the bytes remaining before any read."""
    put_item, get_item, run = item

    def put(out: bytearray, values: Any) -> None:
        _append_uvarint(out, len(values))
        for value in values:
            put_item(out, value)

    def get(buf: Any, pos: int, end: int) -> tuple[tuple, int]:
        n, pos = _get_count(buf, pos, end)
        if run is not None:
            return run(buf, pos, end, n)
        values = []
        for _ in range(n):
            value, pos = get_item(buf, pos, end)
            values.append(value)
        return tuple(values), pos

    return Codec(put, get)


def pair(item: Codec) -> Codec:
    """Two ``item`` values back to back, as a 2-tuple.  A run of ``n``
    pairs is a run of ``2n`` items, paired up."""
    put_item, get_item, run_items = item

    def put(out: bytearray, value: Any) -> None:
        first, second = value
        put_item(out, first)
        put_item(out, second)

    def get(buf: Any, pos: int, end: int) -> tuple[tuple, int]:
        first, pos = get_item(buf, pos, end)
        second, pos = get_item(buf, pos, end)
        return (first, second), pos

    def run(buf: Any, pos: int, end: int, n: int) -> tuple[tuple, int]:
        items, pos = run_items(buf, pos, end, 2 * n)
        pairs = iter(items)
        return tuple(zip(pairs, pairs)), pos

    return Codec(put, get, run if run_items is not None else None)


# ----------------------------------------------------------------------
# the schema: every frame declared once
# ----------------------------------------------------------------------


class FrameType(NamedTuple):
    """One row of the wire schema, with the codec :func:`wire` built for it."""

    code: int
    name: str
    cls: type
    #: ``(attribute, codec)`` per body field, in wire order.
    fields: tuple[tuple[str, Codec], ...]
    #: ``encode(out, frame)`` appends the payload: type code, request id, body.
    encode: Callable[[bytearray, Any], None]
    #: ``decode(buf, pos, end, request_id)`` reads the body at ``buf[pos:end]``.
    decode: Callable[[Any, int, int, int], Any]


#: The wire schema: one row per frame class, filled by :func:`wire`.
SCHEMA: dict[type, FrameType] = {}
_BY_CODE: dict[int, FrameType] = {}


def wire(code: int, name: str, *codecs: Codec) -> Callable[[type], type]:
    """Declare the decorated dataclass as frame type ``code``, a row of
    :data:`SCHEMA`, and compose the row's encoder and decoder from its
    field codecs once.

    ``name`` labels its spans and metrics; ``codecs`` encode its fields
    in declaration order after ``request_id`` (which travels in the frame
    header).  Requests take codes 0x01.., responses 0x81.."""
    head = bytearray()
    _append_uvarint(head, code)

    def register(cls: type) -> type:
        names = [field.name for field in dataclasses.fields(cls)]
        if names[0] != "request_id" or len(names) != len(codecs) + 1 or code in _BY_CODE:
            raise TypeError(f"bad wire declaration for {cls.__name__}")
        puts = [(attrgetter(field), codec.put) for field, codec in zip(names[1:], codecs)]
        gets = [codec.get for codec in codecs]

        def encode(out: bytearray, frame: Any) -> None:
            out += head
            _append_uvarint(out, frame.request_id)
            for field, put in puts:
                put(out, field(frame))

        def decode(buf: Any, pos: int, end: int, request_id: int) -> Any:
            values = [request_id]
            for get in gets:
                value, pos = get(buf, pos, end)
                values.append(value)
            if pos != end:
                raise ProtocolError(f"{end - pos} trailing garbage byte(s) after frame")
            return cls(*values)

        SCHEMA[cls] = _BY_CODE[code] = FrameType(
            code, name, cls, tuple(zip(names[1:], codecs)), encode, decode
        )
        return cls

    return register


@wire(0x01, "hello", UVARINT)
@dataclass(frozen=True)
class Hello:
    """Client handshake: the protocol version it speaks."""

    request_id: int
    version: int = PROTOCOL_VERSION


@wire(0x02, "ping")
@dataclass(frozen=True)
class Ping:
    request_id: int


@wire(0x03, "refresh")
@dataclass(frozen=True)
class Refresh:
    """Advance the connection's pinned session to the latest epochs."""

    request_id: int


@wire(0x04, "lookup", seq(UVARINT))
@dataclass(frozen=True)
class Lookup:
    """Batched label lookup, served at the connection's pinned epoch(s)."""

    request_id: int
    lids: tuple[int, ...]


@wire(0x05, "ordinal", seq(UVARINT))
@dataclass(frozen=True)
class Ordinal:
    """Batched ordinal lookup at the pinned epoch(s)."""

    request_id: int
    lids: tuple[int, ...]


@wire(0x06, "compare", seq(pair(UVARINT)))
@dataclass(frozen=True)
class Compare:
    """Batched document-order comparison of LID pairs."""

    request_id: int
    pairs: tuple[tuple[int, int], ...]


@wire(0x07, "submit", seq(OP))
@dataclass(frozen=True)
class Submit:
    """A write tape: batch ops applied through the service's writer."""

    request_id: int
    ops: tuple[BatchOp, ...]


@wire(0x08, "repl_state", UVARINT)
@dataclass(frozen=True)
class ReplState:
    """A follower asking one shard's replication position (manifest)."""

    request_id: int
    shard: int


@wire(0x09, "repl_fetch", UVARINT, UVARINT, UVARINT, UVARINT, UVARINT)
@dataclass(frozen=True)
class ReplFetch:
    """A follower pulling bytes of one replication source.

    ``kind`` selects the source (:data:`REPL_FETCH_IMAGE` /
    :data:`REPL_FETCH_WAL`); ``segment`` names it — for WAL fetches a
    sealed segment id, or the manifest's ``next_segment`` for the live
    tail.  ``offset``/``limit`` window the read so one fetch never
    exceeds a frame.
    """

    request_id: int
    shard: int
    kind: int
    segment: int
    offset: int
    limit: int


@wire(0x0A, "query", UVARINT, UVARINT, UVARINT, UVARINT, UVARINT)
@dataclass(frozen=True)
class Query:
    """An ordered-axis stream request over the server's element catalog.

    ``axis`` is one of the ``AXIS_*`` codes; the anchor element is the
    ``(start_lid, end_lid)`` pair; ``depth`` is the target depth for
    :data:`AXIS_ANCESTOR_AT_DEPTH` (ignored otherwise); ``chunk`` caps
    elements per response chunk (0 = server default).  The response is a
    *stream*: one or more :class:`QueryChunk` frames sharing this
    request id, the final one flagged ``last`` — or a single
    :class:`ErrorFrame`.
    """

    request_id: int
    axis: int
    start_lid: int
    end_lid: int
    depth: int = 0
    chunk: int = 0


@wire(0x81, "server_hello", UVARINT, UVARINT, STRING, seq(UVARINT))
@dataclass(frozen=True)
class ServerHello:
    """Server handshake reply: topology plus the session's initial pin."""

    request_id: int
    version: int
    n_shards: int
    scheme: str
    epochs: tuple[int, ...]


@wire(0x82, "pong")
@dataclass(frozen=True)
class Pong:
    request_id: int


@wire(0x83, "epochs", seq(UVARINT))
@dataclass(frozen=True)
class Epochs:
    """The session's pinned epoch numbers, one per shard."""

    request_id: int
    numbers: tuple[int, ...]


@wire(0x84, "values", seq(VALUE))
@dataclass(frozen=True)
class Values:
    """Label values answering a :class:`Lookup`."""

    request_id: int
    values: tuple[Any, ...]


@wire(0x85, "orders", seq(SVARINT))
@dataclass(frozen=True)
class Orders:
    """Signed comparison results answering a :class:`Compare` (or the
    integer ordinals answering an :class:`Ordinal`)."""

    request_id: int
    orders: tuple[int, ...]


@wire(0x86, "results", seq(VALUE))
@dataclass(frozen=True)
class Results:
    """Positional results answering a :class:`Submit` tape."""

    request_id: int
    values: tuple[Any, ...]


@wire(0x87, "error", UVARINT, STRING)
@dataclass(frozen=True)
class ErrorFrame:
    """A typed failure: one of the ``ERR_*`` codes plus a message."""

    request_id: int
    code: int
    message: str

    @property
    def code_name(self) -> str:
        kind = ERRORS.get(self.code)
        return kind.name if kind else f"code{self.code}"


@wire(0x88, "repl_manifest", UVARINT, UVARINT, seq(UVARINT), UVARINT, UVARINT, UVARINT, UVARINT)
@dataclass(frozen=True)
class ReplManifest:
    """One shard's replication position, answering :class:`ReplState`.

    ``segments`` are the sealed segment ids; ``next_segment`` is the id
    the live tail will take when sealed; ``tail_bytes`` its current
    length.  ``checkpoint_segment``/``checkpoint_bytes`` describe the
    newest checkpoint image (0/0 when none is recorded — segment ids
    start at 1).  ``epoch`` is the shard service's current epoch number,
    the follower's lag-in-epochs reference.
    """

    request_id: int
    shard: int
    next_segment: int
    segments: tuple[int, ...]
    checkpoint_segment: int
    checkpoint_bytes: int
    epoch: int
    tail_bytes: int


@wire(0x89, "repl_chunk", FLAG, UVARINT, BYTES)
@dataclass(frozen=True)
class ReplChunk:
    """One windowed read answering a :class:`ReplFetch`.

    ``total`` is the source's current byte length; ``sealed`` says the
    source can no longer grow (a sealed segment or checkpoint image —
    the live tail ships with ``sealed=False``).  ``data`` may be empty
    when the offset is at (or past) the current end.
    """

    request_id: int
    sealed: bool
    total: int
    data: bytes


@wire(0x8A, "query_chunk", FLAG, seq(UVARINT), seq(pair(UVARINT)))
@dataclass(frozen=True)
class QueryChunk:
    """One slice of a :class:`Query` result stream.

    ``epochs`` is the pinned epoch number(s) the whole stream was
    evaluated at — identical on every chunk of one stream, which is the
    wire form of the "no torn results" guarantee; ``elements`` are
    ``(start_lid, end_lid)`` pairs in document order; ``last`` marks the
    stream's final chunk (an empty result set is one empty last chunk).
    """

    request_id: int
    last: bool
    epochs: tuple[int, ...]
    elements: tuple[tuple[int, int], ...]


# -- derived from the schema, never written beside it ---------------------

#: ``T_HELLO`` .. ``T_QUERY_CHUNK``: each frame's type code by name.
globals().update({f"T_{row.name.upper()}": row.code for row in SCHEMA.values()})

#: Request kind names by type code (metric and span labels).
REQUEST_NAMES = {row.code: row.name for row in SCHEMA.values() if row.code < 0x80}

Frame = Union[tuple(SCHEMA)]  # type: ignore[valid-type]


def error_frame(request_id: int, error: BaseException) -> ErrorFrame:
    """The typed frame that answers ``error`` (see :data:`ERRORS`)."""
    code = next(kind.code for kind in ERRORS.values() if isinstance(error, kind.catches))
    return ErrorFrame(request_id, code, str(error))


# ----------------------------------------------------------------------
# frame encode / decode
# ----------------------------------------------------------------------


def _encode(frame: Frame) -> bytearray:
    row = SCHEMA.get(type(frame))
    if row is None:
        raise ProtocolError(f"cannot encode frame of type {type(frame).__name__}")
    out = bytearray()
    row.encode(out, frame)
    return out


def encode_payload(frame: Frame) -> bytes:
    """The frame's payload bytes (everything after the length prefix)."""
    return bytes(_encode(frame))


def encode_frame(frame: Frame) -> bytes:
    """Full wire bytes: the length prefix put in front of the payload's own buffer."""
    out = _encode(frame)
    if len(out) < 0x80:  # a one-byte prefix
        out.insert(0, len(out))
        return bytes(out)
    if len(out) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload of {len(out)} bytes exceeds {MAX_FRAME_BYTES}")
    prefix = bytearray()
    _append_uvarint(prefix, len(out))
    out[:0] = prefix
    return bytes(out)


def decode_payload(payload: Any, pos: int = 0, end: int | None = None) -> Frame:
    """Decode the payload at ``payload[pos:end]`` (default: all of it)
    into its frame, or raise :class:`ProtocolError`.

    Total function: every possible byte string either decodes or raises
    the one typed error — never hangs, never escapes another exception.
    """
    if end is None:
        end = len(payload)
    code, pos = _get_uvarint(payload, pos, end)
    request_id, pos = _get_uvarint(payload, pos, end)
    row = _BY_CODE.get(code)
    if row is None:
        raise ProtocolError(f"unknown frame type {code:#x}")
    return row.decode(payload, pos, end, request_id)


class FrameDecoder:
    """Incremental frame extraction over an arbitrary byte stream.

    Feed received chunks with :meth:`feed`; iterate :meth:`frames` for
    every complete decoded frame, read in place from the decoder's own
    buffer.  The length prefix is validated as soon as its bytes arrive —
    a prefix longer than :data:`MAX_VARINT_BYTES` varint bytes or
    announcing more than ``max_frame_bytes`` raises
    :class:`ProtocolError` *before* any body is buffered.  A final
    partial frame at connection close is reported by :meth:`close`.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        self._pos = 0  # consumed prefix of _buf

    def feed(self, data: bytes) -> None:
        self._buf += data

    @property
    def buffered(self) -> int:
        """Unconsumed bytes currently buffered."""
        return len(self._buf) - self._pos

    def frames(self) -> Iterator[Frame]:
        """Yield every complete frame currently buffered."""
        buf = self._buf
        while (start := self._pos) < len(buf):
            try:
                length, offset = _get_uvarint(buf, start, len(buf))
            except ProtocolError:
                if len(buf) - start < MAX_VARINT_BYTES:
                    break  # the rest of the length prefix is still to come
                raise
            if length > self.max_frame_bytes:
                raise ProtocolError(
                    f"announced frame of {length} bytes exceeds "
                    f"limit {self.max_frame_bytes}"
                )
            end = offset + length
            if len(buf) < end:
                break
            self._pos = end
            frame = decode_payload(buf, offset, end)
            # Periodically drop the consumed prefix to bound the buffer.
            if end > 1 << 16:
                del buf[:end]
                self._pos = 0
            yield frame

    def close(self) -> None:
        """Signal end of stream; a buffered partial frame is a violation."""
        if self.buffered:
            raise ProtocolError(
                f"connection closed mid-frame with {self.buffered} byte(s) pending"
            )
