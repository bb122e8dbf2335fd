"""The block codec: how a live node becomes bytes.

One varint container round-trips every payload the trees actually
allocate — ``WNode`` (basic and W-BOX-O pair leaves), ``BNode``, and LIDF
record lists (ints, naive-k ``(value, gap)`` pairs, ORDPATH component
vectors).  It is the format of the
:class:`~repro.storage.filebackend.FileBackend`'s pages and write-ahead
log and of :mod:`repro.persist` snapshot bodies — one codec, three
consumers.  Varints (unsigned LEB128; signed values zigzag-encoded) keep
it correct for values that outgrow fixed-width fields (naive-k label
values with large k, W-BOX range origins after many root splits).

Rows of LIDs and block pointers are delta rows: a W-BOX leaf's LIDs, a
B-BOX leaf's LIDs and a B-BOX internal node's child pointers are written
as the first value, then each next value's zigzag delta from the one
before.  An LIDF record is one head varint with its slot tag in the low
two bits; an INT record's head carries the zigzag delta from the
previous INT record, so a run of LIDs in one leaf costs a byte a record
however wide the pointer.  A bulk-loaded leaf's consecutive LIDs cost a
byte each too.

The codec moves whole rows at a time: the encoder flattens a node's
child arrays into one list of ints and appends their varints to a
``bytearray`` in one pass; the decoder scans varints straight out of the
buffer (``bytes`` or a ``memoryview``) by index.  Two uniform-width tiers
use C-level batch packing — ``bytes(seq)`` when every value is a
single-byte varint, ``array('H')`` word packing when every value is
exactly two bytes — and mixed-width rows fall back to a tight per-value
loop.  A delta row whose deltas all fit one byte is mapped through a
128-entry zigzag table and summed with ``itertools.accumulate``, both at
C speed, and so is an LIDF block whose every record is a one-byte INT
head or an empty slot; other rows take the per-value loop.  Values that
overflow a tier are exactly the values the generic loop encodes, so the
bytes never depend on the tier.

The byte-at-a-time streaming implementation this replaced lives on as
the byte-identity oracle in ``tests/codec_reference.py``; the bit-packed
layout images that prove ``BoxConfig``'s capacities fit a block are
test-only too (``tests/layout_images.py``).

Everything decoded here may come from an untrusted file, so every
element count is checked against the bytes that remain (each element
costs at least one byte) before anything is allocated, a delta that
steps below zero is refused, and every malformed input surfaces as
:class:`~repro.errors.PersistError`.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from operator import sub
from typing import Any

from ..errors import PersistError

# ----------------------------------------------------------------------
# varint rows
# ----------------------------------------------------------------------

#: Two-byte varints packed as native u16 words; swapped on big-endian
#: hosts so the emitted byte order is always (low 7 bits | 0x80, high 7).
_NEEDS_BYTESWAP = sys.byteorder == "big"

#: Payload classes, resolved once (repro.core imports repro.storage at
#: module load, so these cannot be imported at the top of this module —
#: and re-running the import machinery per block is measurable).
_PAYLOAD_CLASSES: tuple[Any, ...] | None = None


def _payload_classes() -> tuple[Any, ...]:
    global _PAYLOAD_CLASSES
    classes = _PAYLOAD_CLASSES
    if classes is None:
        from ..core.bbox.node import BNode
        from ..core.wbox.node import PairRecord, WEntry, WNode

        classes = _PAYLOAD_CLASSES = (WNode, BNode, WEntry, PairRecord)
    return classes


#: Precomputed one/two-byte varint images for values < 2**14, built on
#: first use (the mixed-width tier joins these at C speed).
_VARINT_TABLE: list[bytes] | None = None


def _varint_table() -> list[bytes]:
    global _VARINT_TABLE
    table = _VARINT_TABLE
    if table is None:
        table = [bytes((v,)) for v in range(0x80)]
        table += [
            bytes(((v & 0x7F) | 0x80, v >> 7)) for v in range(0x80, 0x4000)
        ]
        _VARINT_TABLE = table
    return table


def uvarint_bytes(value: int) -> bytes:
    """One value's uvarint encoding as a byte string."""
    if value < 0:
        raise PersistError(f"uvarint cannot encode negative value {value}")
    if value < 0x80:
        return bytes((value,))
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def append_uvarints(out: bytearray, values: Any) -> None:
    """Append the uvarint encoding of every int in ``values`` to ``out``.

    Byte-identical to appending :func:`uvarint_bytes` of each value.
    """
    if not values:
        return
    lo = min(values)
    if lo < 0:
        raise PersistError(f"uvarint cannot encode negative value {lo}")
    hi = max(values)
    if hi < 0x80:
        # Every varint is one byte: the value itself.
        out += bytes(values)
        return
    if hi < 0x4000:
        if lo >= 0x80:
            # Every varint is exactly two bytes: pack as u16 words.
            words = array(
                "H", [(v & 0x7F) | 0x80 | ((v >> 7) << 8) for v in values]
            )
            if _NEEDS_BYTESWAP:
                words.byteswap()
            out += words.tobytes()
            return
        # Mixed one/two-byte rows: join precomputed images.
        out += b"".join(map(_varint_table().__getitem__, values))
        return
    append = out.append
    for value in values:
        while value > 0x7F:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)


def scan_uvarint(buf: Any, pos: int) -> tuple[int, int]:
    """Decode one uvarint at ``buf[pos]``; returns ``(value, new_pos)``.

    Raises :class:`PersistError` when the varint runs off the buffer."""
    try:
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            return byte, pos
        value = byte & 0x7F
        shift = 7
        while True:
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value, pos
            shift += 7
    except IndexError:
        raise PersistError("truncated varint") from None


def check_count(buf: Any, pos: int, count: int) -> None:
    """Refuse an element count the rest of ``buf`` cannot hold.

    Every element costs at least one byte, so a larger count is corrupt
    (or hostile) — and must be rejected *before* a row is preallocated
    from it."""
    if count > len(buf) - pos:
        raise PersistError(
            f"element count {count} exceeds the {len(buf) - pos} bytes remaining"
        )


def scan_uvarints(buf: Any, pos: int, count: int) -> tuple[list[int], int]:
    """Decode ``count`` consecutive uvarints; preallocates the row once.

    Raises :class:`PersistError` on an impossible ``count`` or a row that
    runs off the buffer."""
    check_count(buf, pos, count)
    values = [0] * count
    try:
        for i in range(count):
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                values[i] = byte
                continue
            value = byte & 0x7F
            shift = 7
            while True:
                byte = buf[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            values[i] = value
    except IndexError:
        raise PersistError("truncated varint") from None
    return values, pos


# ----------------------------------------------------------------------
# delta rows: a row of LIDs or block pointers as zigzag deltas
# ----------------------------------------------------------------------


# Zigzag coding maps a signed delta to an unsigned int (0, -1, 1, -2, ...
# -> 0, 1, 2, 3, ...) at any magnitude: ``d << 1``, or ``~(d << 1)`` below 0.

#: One-byte zigzag images: a delta in [-64, 64) to its byte, and back.
_ZIGZAG_BYTE = {(raw >> 1) ^ -(raw & 1): raw for raw in range(0x80)}
_UNZIGZAG_BYTE = [(raw >> 1) ^ -(raw & 1) for raw in range(0x80)]


def _append_delta_row(out: bytearray, values: list) -> None:
    """Append a row of non-negative ints as its first value's uvarint,
    then each next value's zigzag delta from the one before as a uvarint.

    A run of consecutive LIDs (a bulk-loaded leaf) or of one pointer
    costs a byte per value, whatever the values' width."""
    if not values:
        return
    lo = min(values)
    if lo < 0:
        raise PersistError(f"uvarint cannot encode negative value {lo}")
    out += uvarint_bytes(values[0])
    try:
        # Every delta one byte: a C-level map through the table.
        out += bytes(map(_ZIGZAG_BYTE.__getitem__, map(sub, values[1:], values)))
    except KeyError:
        append = out.append
        for delta in map(sub, values[1:], values):
            raw = delta << 1 if delta >= 0 else ~(delta << 1)
            while raw > 0x7F:
                append((raw & 0x7F) | 0x80)
                raw >>= 7
            append(raw)


def _scan_delta_row(buf: Any, pos: int, count: int) -> tuple[list[int], int]:
    """Decode a row :func:`_append_delta_row` wrote with ``count`` values.

    Raises :class:`PersistError` on an impossible ``count``, a row that
    runs off the buffer, or a delta that takes a value below zero."""
    check_count(buf, pos, count)
    if not count:
        return [], pos
    first, pos = scan_uvarint(buf, pos)
    end = pos + count - 1
    deltas = bytes(buf[pos:end])
    if len(deltas) == count - 1 and deltas.isascii():
        # Every delta one byte: a table lookup and a running sum in C.
        values = list(accumulate(map(_UNZIGZAG_BYTE.__getitem__, deltas), initial=first))
        pos = end
    else:
        # Multi-byte deltas: decode, unzigzag and sum in one pass.
        values = [first] * count
        value = first
        try:
            for i in range(1, count):
                raw = buf[pos]
                pos += 1
                if raw >= 0x80:  # inline: a call per jump is measurable
                    byte = buf[pos]
                    pos += 1
                    raw = (raw & 0x7F) | (byte & 0x7F) << 7
                    shift = 14
                    while byte >= 0x80:
                        byte = buf[pos]
                        pos += 1
                        raw |= (byte & 0x7F) << shift
                        shift += 7
                value += (raw >> 1) ^ -(raw & 1)
                values[i] = value
        except IndexError:
            raise PersistError("truncated varint") from None
    if min(values) < 0:
        raise PersistError("a delta row steps below zero")
    return values, pos


# ----------------------------------------------------------------------
# block payloads (pages, WAL, snapshots)
# ----------------------------------------------------------------------

# Block payload kind tags.
_K_WLEAF = 1
_K_WINT = 2
_K_WPAIRLEAF = 3
_K_BLEAF = 4
_K_BINT = 5
_K_LIDF = 6

# LIDF slot tags.
_S_EMPTY = 0
_S_INT = 1
_S_PAIR = 2
_S_SEQ = 3  # arbitrary-length signed component vector (ORDPATH labels)


def _encode_wnode(out: bytearray, node: Any) -> None:
    PairRecord = _payload_classes()[3]

    if node.is_leaf:
        pair_leaf = bool(node.entries) and isinstance(node.entries[0], PairRecord)
        out += uvarint_bytes(_K_WPAIRLEAF if pair_leaf else _K_WLEAF)
        out += uvarint_bytes(node.range_lo or 0)
        out += uvarint_bytes(node.range_len)
        out += uvarint_bytes(node.weight)
        out += uvarint_bytes(len(node.entries))
        if pair_leaf:
            flat: list[int] = []
            extend = flat.extend
            for record in node.entries:
                partner_lid = record.partner_lid
                end_value = record.end_value
                extend(
                    (
                        record.lid,
                        1 if record.is_start else 0,
                        0 if partner_lid is None else partner_lid + 1,
                        record.partner_block,
                        0 if end_value is None else end_value + 1,
                    )
                )
            append_uvarints(out, flat)
        else:
            _append_delta_row(out, node.entries)
        return
    out += uvarint_bytes(_K_WINT)
    out += uvarint_bytes(node.level)
    out += uvarint_bytes(node.range_lo or 0)
    out += uvarint_bytes(node.range_len)
    out += uvarint_bytes(node.weight)
    out += uvarint_bytes(len(node.entries))
    append_uvarints(out, node.entry_rows())


def _encode_bnode(out: bytearray, node: Any) -> None:
    out += uvarint_bytes(_K_BLEAF if node.leaf else _K_BINT)
    out += uvarint_bytes(node.parent)
    out += uvarint_bytes(len(node.entries))
    _append_delta_row(out, node.entries)
    if not node.leaf:
        if node.sizes is None:
            out += uvarint_bytes(0)
        else:
            out += uvarint_bytes(1)
            append_uvarints(out, node.sizes)


def _encode_lidf_records(out: bytearray, records: list) -> None:
    """Each record is a head uvarint, its slot tag in the low two bits:
    an empty slot is head 0; an INT record's head carries the zigzag
    delta from the previous INT record (from 0 for the first); a PAIR's
    carries its first value, the second follows; a SEQ's carries its
    length, the zigzagged components follow."""
    flat: list[int] = [_K_LIDF, len(records)]
    append = flat.append
    extend = flat.extend
    previous = 0
    for record in records:
        if record is None:
            append(_S_EMPTY)
        elif isinstance(record, int):
            if record < 0:
                raise PersistError(f"uvarint cannot encode negative value {record}")
            delta = record - previous
            previous = record
            append((delta << 3 if delta >= 0 else ~(delta << 1) << 2) | _S_INT)
        elif (
            isinstance(record, tuple)
            and len(record) == 2
            and all(isinstance(x, int) and x >= 0 for x in record)
        ):
            extend(((record[0] << 2) | _S_PAIR, record[1]))
        elif isinstance(record, tuple) and all(isinstance(x, int) for x in record):
            append((len(record) << 2) | _S_SEQ)
            extend(c << 1 if c >= 0 else ~(c << 1) for c in record)
        else:
            raise PersistError(f"unsupported LIDF record {record!r}")
    append_uvarints(out, flat)


#: An LIDF head byte to its INT record's delta (0 for an empty slot), and
#: the one-byte heads that table covers: empty slots and INT records.
_LIDF_HEAD_DELTA = [
    _UNZIGZAG_BYTE[head >> 2] if head & 3 == _S_INT else 0 for head in range(0x80)
]
_ONE_BYTE_HEADS = bytes(
    head for head in range(0x80) if head == _S_EMPTY or head & 3 == _S_INT
)


def _scan_lidf_records(buf: Any, pos: int, count: int) -> tuple[list, int]:
    check_count(buf, pos, count)
    heads = bytes(buf[pos : pos + count])
    if len(heads) == count and not heads.translate(None, _ONE_BYTE_HEADS):
        # Every record one byte, an empty slot or an INT record (a block
        # of pointers): a table lookup and a running sum in C.
        records: list = list(accumulate(map(_LIDF_HEAD_DELTA.__getitem__, heads)))
        if records and min(records) < 0:
            raise PersistError("an LIDF delta steps below zero")
        if _S_EMPTY in heads:
            records = [value if head else None for head, value in zip(heads, records)]
        return records, pos + count
    records = [None] * count
    previous = 0
    for i in range(count):
        head = buf[pos]
        pos += 1
        if head >= 0x80:  # inline: a churned block's heads are two bytes
            byte = buf[pos]
            pos += 1
            head = (head & 0x7F) | (byte & 0x7F) << 7
            shift = 14
            while byte >= 0x80:
                byte = buf[pos]
                pos += 1
                head |= (byte & 0x7F) << shift
                shift += 7
        tag = head & 3
        if tag == _S_INT:
            raw = head >> 2
            previous += (raw >> 1) ^ -(raw & 1)
            if previous < 0:
                raise PersistError("an LIDF delta steps below zero")
            records[i] = previous
        elif tag == _S_PAIR:
            second, pos = scan_uvarint(buf, pos)
            records[i] = (head >> 2, second)
        elif tag == _S_SEQ:
            raws, pos = scan_uvarints(buf, pos, head >> 2)
            records[i] = tuple([(raw >> 1) ^ -(raw & 1) for raw in raws])
        elif head:
            raise PersistError(f"LIDF empty slot with head {head}")
    return records, pos


def decode_block_payload_at(buf: Any, pos: int) -> tuple[Any, int]:
    """Decode the payload starting at ``buf[pos]``; returns it with the
    offset one past its last byte (snapshot bodies are walked with this)."""
    WNode, BNode, WEntry, PairRecord = _payload_classes()

    try:
        kind, pos = scan_uvarint(buf, pos)
        if kind in (_K_WLEAF, _K_WPAIRLEAF):
            range_lo, pos = scan_uvarint(buf, pos)
            range_len, pos = scan_uvarint(buf, pos)
            weight, pos = scan_uvarint(buf, pos)
            count, pos = scan_uvarint(buf, pos)
            if kind == _K_WPAIRLEAF:
                flat, pos = scan_uvarints(buf, pos, 5 * count)
                it = iter(flat)
                entries: list = []
                append = entries.append
                for lid, is_start, partner, partner_block, end_value in zip(
                    it, it, it, it, it
                ):
                    record = PairRecord(lid)
                    record.is_start = bool(is_start)
                    record.partner_lid = None if partner == 0 else partner - 1
                    record.partner_block = partner_block
                    record.end_value = None if end_value == 0 else end_value - 1
                    append(record)
            else:
                entries, pos = _scan_delta_row(buf, pos, count)
            return WNode(0, range_lo, range_len, weight, entries), pos
        if kind == _K_WINT:
            level, pos = scan_uvarint(buf, pos)
            range_lo, pos = scan_uvarint(buf, pos)
            range_len, pos = scan_uvarint(buf, pos)
            weight, pos = scan_uvarint(buf, pos)
            count, pos = scan_uvarint(buf, pos)
            flat, pos = scan_uvarints(buf, pos, 4 * count)
            it = iter(flat)
            entries = [
                WEntry(child, slot, w, size)
                for child, slot, w, size in zip(it, it, it, it)
            ]
            return WNode(level, range_lo, range_len, weight, entries), pos
        if kind in (_K_BLEAF, _K_BINT):
            parent, pos = scan_uvarint(buf, pos)
            count, pos = scan_uvarint(buf, pos)
            entries, pos = _scan_delta_row(buf, pos, count)
            sizes = None
            if kind == _K_BINT:
                flag, pos = scan_uvarint(buf, pos)
                if flag:
                    sizes, pos = scan_uvarints(buf, pos, count)
            node = BNode(
                leaf=kind == _K_BLEAF, parent=parent, entries=entries, sizes=sizes
            )
            return node, pos
        if kind == _K_LIDF:
            count, pos = scan_uvarint(buf, pos)
            return _scan_lidf_records(buf, pos, count)
    except IndexError:
        raise PersistError("truncated varint") from None
    raise PersistError(f"unknown block kind {kind}")


def encode_block_payload(payload: Any) -> bytes:
    """One block payload as a self-contained byte string (page/WAL image;
    snapshot bodies concatenate them)."""
    WNode, BNode = _payload_classes()[:2]
    out = bytearray()
    if isinstance(payload, WNode):
        _encode_wnode(out, payload)
    elif isinstance(payload, BNode):
        _encode_bnode(out, payload)
    elif isinstance(payload, list):
        _encode_lidf_records(out, payload)
    else:
        raise PersistError(f"unsupported block payload {type(payload).__name__}")
    return bytes(out)


def decode_block_payload(data: Any) -> Any:
    """Inverse of :func:`encode_block_payload`.

    ``data`` may be ``bytes`` or a ``memoryview``; decoded payloads are
    always fully materialized Python objects holding no reference into
    ``data``.  Trailing bytes are ignored.
    """
    return decode_block_payload_at(data, 0)[0]
