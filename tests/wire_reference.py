"""The generic wire walk: reference oracle for the generated frame codecs.

This is the frame codec :mod:`repro.net.protocol` used before each
``@wire`` row composed its own encoder and decoder — a ``_Reader``
object stepping through one ``bytes`` payload, and a loop over
``(field, codec)`` pairs per frame — kept as the oracle the production
codec is compared against (``tests/test_wire_reference.py``).  It shares
no code with the production codec: the varint, value and batch-op codecs
are its own, and :data:`LAYOUT` declares each frame's field codecs
again, so a drift in either shows up as a byte or frame difference.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.core.batch import BatchOp, BatchRef
from repro.errors import ProtocolError
from repro.net import protocol as proto

MAX_VARINT_BYTES = 10
MAX_VALUE_VARINT_BYTES = 32
MAX_VALUE_DEPTH = 8
WIRE_KINDS = (
    "lookup",
    "ordinal_lookup",
    "lookup_pair",
    "compare",
    "insert_before",
    "insert_element_before",
    "delete",
    "delete_element",
    "insert_subtree_before",
    "delete_range",
)
_KIND_CODE = {kind: code for code, kind in enumerate(WIRE_KINDS)}


def _append_uvarint(out: bytearray, value: int, max_bytes: int = MAX_VARINT_BYTES) -> None:
    if value >> (7 * max_bytes):  # negative, or wider than the decoder reads
        raise ProtocolError(
            f"cannot encode {value} as a uvarint of at most {max_bytes} bytes"
        )
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _append_svarint(out: bytearray, value: int) -> None:
    # Zigzag in its arbitrary-precision form: ``value >> 63`` is the sign
    # only for 64-bit values, and labels are not bounded by a word.
    zigzag = ~(value << 1) if value < 0 else value << 1
    _append_uvarint(out, zigzag, MAX_VALUE_VARINT_BYTES)


def _scan_uvarint(
    buf: Any, pos: int, end: int, max_bytes: int = MAX_VARINT_BYTES
) -> tuple[int, int] | None:
    """``(value, next_pos)`` of the uvarint at ``buf[pos:end]``, or None
    when the buffer ends inside it; :class:`ProtocolError` once
    ``max_bytes`` bytes have gone by without a terminator."""
    limit = pos + max_bytes
    value = shift = 0
    while pos < end:
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        if pos >= limit:
            raise ProtocolError(f"varint longer than {max_bytes} bytes")
        shift += 7
    return None


class _Reader:
    """Bounds-checked sequential reads over one payload buffer."""

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0
        self.end = len(buf)

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def uvarint(self, max_bytes: int = MAX_VARINT_BYTES) -> int:
        scanned = _scan_uvarint(self.buf, self.pos, self.end, max_bytes)
        if scanned is None:
            raise ProtocolError("truncated varint")
        value, self.pos = scanned
        return value

    def svarint(self) -> int:
        raw = self.uvarint(MAX_VALUE_VARINT_BYTES)
        return (raw >> 1) ^ -(raw & 1)

    def byte(self) -> int:
        if self.pos >= self.end:
            raise ProtocolError("truncated payload")
        self.pos += 1
        return self.buf[self.pos - 1]

    def count(self) -> int:
        """An element count; each element costs >= 1 byte, so any count
        exceeding the remaining bytes is an encoding bomb, not data."""
        n = self.uvarint()
        if n > self.remaining:
            raise ProtocolError(
                f"element count {n} exceeds {self.remaining} remaining payload bytes"
            )
        return n

    def take(self, n: int) -> bytes:
        if n > self.remaining:
            raise ProtocolError("truncated payload")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return bytes(chunk)

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise ProtocolError(f"{self.remaining} trailing garbage byte(s) after frame")


# ----------------------------------------------------------------------
# field codecs: how one field of a frame travels
# ----------------------------------------------------------------------


class Codec(NamedTuple):
    """``put(out, value)`` appends a field; ``get(reader)`` reads it back."""

    put: Callable[[bytearray, Any], None]
    get: Callable[[_Reader], Any]


def _put_bytes(out: bytearray, raw: bytes) -> None:
    _append_uvarint(out, len(raw))
    out += raw


def _get_bytes(reader: _Reader) -> bytes:
    return reader.take(reader.count())


def _put_string(out: bytearray, text: str) -> None:
    _put_bytes(out, text.encode("utf-8"))


def _get_string(reader: _Reader) -> str:
    try:
        return _get_bytes(reader).decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(f"bad utf-8 in string: {error}") from None


def _put_flag(out: bytearray, flag: bool) -> None:
    out.append(1 if flag else 0)


def _get_flag(reader: _Reader) -> bool:
    raw = reader.uvarint()
    if raw > 1:
        raise ProtocolError(f"bad flag value {raw}")
    return bool(raw)


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
    if value is None:
        out.append(_V_NONE)
    elif value is True or value is False:
        out.append(_V_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
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


def _decode_value(reader: _Reader, depth: int = 0) -> Any:
    if depth > MAX_VALUE_DEPTH:
        raise ProtocolError(f"value nesting exceeds depth {MAX_VALUE_DEPTH}")
    tag = reader.byte()
    if tag == _V_NONE:
        return None
    if tag == _V_BOOL:
        raw = reader.byte()
        if raw > 1:
            raise ProtocolError(f"bad bool byte {raw}")
        return bool(raw)
    if tag == _V_INT:
        return reader.svarint()
    if tag in (_V_TUPLE, _V_LIST):
        items = [_decode_value(reader, depth + 1) for _ in range(reader.count())]
        return tuple(items) if tag == _V_TUPLE else items
    if tag == _V_STR:
        return _get_string(reader)
    raise ProtocolError(f"unknown value tag {tag}")


# -- batch ops (the Submit tape) -----------------------------------------

_A_INT = 0
_A_REF = 1
_A_INTS = 2


def _encode_op(out: bytearray, op: BatchOp) -> None:
    code = _KIND_CODE.get(op.kind)
    if code is None:
        raise ProtocolError(f"batch op kind {op.kind!r} has no wire code")
    _append_uvarint(out, code)
    _append_uvarint(out, len(op.args))
    for arg in op.args:
        if isinstance(arg, BatchRef):
            out.append(_A_REF)
            _append_uvarint(out, arg.index)
            _append_uvarint(out, 0 if arg.item is None else arg.item + 1)
        elif isinstance(arg, int):
            out.append(_A_INT)
            _append_uvarint(out, arg)
        elif isinstance(arg, (list, tuple)) and all(isinstance(item, int) for item in arg):
            out.append(_A_INTS)
            _append_uvarint(out, len(arg))
            for item in arg:
                _append_uvarint(out, item)
        else:
            raise ProtocolError(
                f"batch op argument of type {type(arg).__name__} is not encodable"
            )


def _decode_op(reader: _Reader) -> BatchOp:
    code = reader.uvarint()
    if code >= len(WIRE_KINDS):
        raise ProtocolError(f"unknown batch op code {code}")
    args: list[Any] = []
    for _ in range(reader.count()):
        tag = reader.byte()
        if tag == _A_INT:
            args.append(reader.uvarint())
        elif tag == _A_REF:
            index = reader.uvarint()
            item = reader.uvarint()
            args.append(BatchRef(index, None if item == 0 else item - 1))
        elif tag == _A_INTS:
            args.append(tuple(reader.uvarint() for _ in range(reader.count())))
        else:
            raise ProtocolError(f"unknown batch op argument tag {tag}")
    return BatchOp(WIRE_KINDS[code], tuple(args))


# -- the codecs a frame declaration names --------------------------------

UVARINT = Codec(_append_uvarint, _Reader.uvarint)
SVARINT = Codec(_append_svarint, _Reader.svarint)
STRING = Codec(_put_string, _get_string)
BYTES = Codec(_put_bytes, _get_bytes)
FLAG = Codec(_put_flag, _get_flag)
VALUE = Codec(encode_value, _decode_value)
OP = Codec(_encode_op, _decode_op)


def seq(item: Codec) -> Codec:
    """A counted tuple of ``item``.  The count is checked against the
    bytes remaining (:meth:`_Reader.count`) before anything is built."""
    put_item, get_item = item

    def put(out: bytearray, values: Any) -> None:
        _append_uvarint(out, len(values))
        for value in values:
            put_item(out, value)

    def get(reader: _Reader) -> tuple:
        return tuple([get_item(reader) for _ in range(reader.count())])

    return Codec(put, get)


def pair(item: Codec) -> Codec:
    """Two ``item`` values back to back, as a 2-tuple."""
    put_item, get_item = item

    def put(out: bytearray, value: Any) -> None:
        first, second = value
        put_item(out, first)
        put_item(out, second)

    def get(reader: _Reader) -> tuple:
        return get_item(reader), get_item(reader)

    return Codec(put, get)




#: Every frame's body fields, in wire order (the ``@wire`` codecs).
LAYOUT: dict[type, tuple[Codec, ...]] = {
    proto.Hello: (UVARINT,),
    proto.Ping: (),
    proto.Refresh: (),
    proto.Lookup: (seq(UVARINT),),
    proto.Ordinal: (seq(UVARINT),),
    proto.Compare: (seq(pair(UVARINT)),),
    proto.Submit: (seq(OP),),
    proto.ReplState: (UVARINT,),
    proto.ReplFetch: (UVARINT,) * 5,
    proto.Query: (UVARINT,) * 5,
    proto.ServerHello: (UVARINT, UVARINT, STRING, seq(UVARINT)),
    proto.Pong: (),
    proto.Epochs: (seq(UVARINT),),
    proto.Values: (seq(VALUE),),
    proto.Orders: (seq(SVARINT),),
    proto.Results: (seq(VALUE),),
    proto.ErrorFrame: (UVARINT, STRING),
    proto.ReplManifest: (UVARINT, UVARINT, seq(UVARINT), UVARINT, UVARINT, UVARINT, UVARINT),
    proto.ReplChunk: (FLAG, UVARINT, BYTES),
    proto.QueryChunk: (FLAG, seq(UVARINT), seq(pair(UVARINT))),
}
_BY_CODE = {proto.SCHEMA[cls].code: cls for cls in LAYOUT}


def _fields(cls: type) -> list[tuple[str, Codec]]:
    names = [name for name, _codec in proto.SCHEMA[cls].fields]
    return list(zip(names, LAYOUT[cls]))


def encode_payload(frame: Any) -> bytes:
    """The frame's payload bytes, field by field."""
    out = bytearray()
    _append_uvarint(out, proto.SCHEMA[type(frame)].code)
    _append_uvarint(out, frame.request_id)
    for name, codec in _fields(type(frame)):
        codec.put(out, getattr(frame, name))
    return bytes(out)


def decode_payload(payload: bytes) -> Any:
    """Decode one payload into its frame, or raise :class:`ProtocolError`."""
    reader = _Reader(payload)
    code = reader.uvarint()
    request_id = reader.uvarint()
    cls = _BY_CODE.get(code)
    if cls is None:
        raise ProtocolError(f"unknown frame type {code:#x}")
    frame = cls(request_id, *[codec.get(reader) for _name, codec in _fields(cls)])
    reader.expect_end()
    return frame
