"""The streaming reference codec: byte-identity oracle for the packed codec.

This is the original block-payload codec — one ``stream.write`` /
``stream.read(1)`` round trip per *byte* — kept as the oracle
:mod:`repro.storage.codec`'s packed-row encoder and index-scanning
decoder are compared against (``tests/test_codec_fastpath.py``,
``benchmarks/bench_hotpath.py``).  It shares no code with the production
codec, kind and slot tags included, so a drift in either shows up as a
byte difference.

Rows of LIDs and block pointers (W-BOX leaves, B-BOX leaves and child
pointers) are delta rows: the first value, then each next one as the
signed varint of its difference from the one before.  An LIDF record is
a head varint whose low two bits are its slot tag: 0 is an empty slot,
an INT head carries the signed difference from the previous INT record,
a PAIR head its first value, a SEQ head its length.  Both are written
and read one value at a time here, with no tier.
"""

from __future__ import annotations

from typing import Any, BinaryIO

from repro.errors import PersistError

# ----------------------------------------------------------------------
# varint primitives (unsigned LEB128; signed values are zigzag-encoded)
# ----------------------------------------------------------------------


def write_uvarint(stream: BinaryIO, value: int) -> None:
    if value < 0:
        raise PersistError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            stream.write(bytes((byte | 0x80,)))
        else:
            stream.write(bytes((byte,)))
            return


def read_uvarint(stream: BinaryIO) -> int:
    shift = 0
    value = 0
    while True:
        raw = stream.read(1)
        if not raw:
            raise PersistError("truncated varint")
        byte = raw[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7


def _zigzag(value: int) -> int:
    return 2 * value if value >= 0 else -2 * value - 1


def _unzigzag(raw: int) -> int:
    return raw // 2 if raw % 2 == 0 else -(raw + 1) // 2


def write_svarint(stream: BinaryIO, value: int) -> None:
    write_uvarint(stream, _zigzag(value))


def read_svarint(stream: BinaryIO) -> int:
    return _unzigzag(read_uvarint(stream))


def write_delta_row(stream: BinaryIO, values: list) -> None:
    previous = None
    for value in values:
        if value < 0:
            raise PersistError(f"uvarint cannot encode negative value {value}")
        if previous is None:
            write_uvarint(stream, value)
        else:
            write_svarint(stream, value - previous)
        previous = value


def read_delta_row(stream: BinaryIO, count: int) -> list:
    values: list = []
    for _ in range(count):
        if values:
            values.append(values[-1] + read_svarint(stream))
        else:
            values.append(read_uvarint(stream))
        if values[-1] < 0:
            raise PersistError("a delta row steps below zero")
    return values


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


def encode_payload(stream: BinaryIO, payload: Any) -> None:
    """Append one block payload (a live tree/LIDF object) to ``stream``."""
    # Imported lazily: repro.core imports repro.storage at module load.
    from repro.core.bbox.node import BNode
    from repro.core.wbox.node import WNode

    if isinstance(payload, WNode):
        _encode_wnode(stream, payload)
    elif isinstance(payload, BNode):
        _encode_bnode(stream, payload)
    elif isinstance(payload, list):
        _encode_lidf_records(stream, payload)
    else:
        raise PersistError(f"unsupported block payload {type(payload).__name__}")


def _encode_wnode(stream: BinaryIO, node: Any) -> None:
    from repro.core.wbox.pairs import PairRecord

    if node.is_leaf:
        pair_leaf = bool(node.entries) and isinstance(node.entries[0], PairRecord)
        write_uvarint(stream, _K_WPAIRLEAF if pair_leaf else _K_WLEAF)
        write_uvarint(stream, node.range_lo or 0)
        write_uvarint(stream, node.range_len)
        write_uvarint(stream, node.weight)
        write_uvarint(stream, len(node.entries))
        if not pair_leaf:
            write_delta_row(stream, node.entries)
        for record in node.entries if pair_leaf else ():
            write_uvarint(stream, record.lid)
            write_uvarint(stream, 1 if record.is_start else 0)
            write_uvarint(stream, 0 if record.partner_lid is None else record.partner_lid + 1)
            write_uvarint(stream, record.partner_block)
            write_uvarint(stream, 0 if record.end_value is None else record.end_value + 1)
        return
    write_uvarint(stream, _K_WINT)
    write_uvarint(stream, node.level)
    write_uvarint(stream, node.range_lo or 0)
    write_uvarint(stream, node.range_len)
    write_uvarint(stream, node.weight)
    write_uvarint(stream, len(node.entries))
    for entry in node.entries:
        write_uvarint(stream, entry.child)
        write_uvarint(stream, entry.slot)
        write_uvarint(stream, entry.weight)
        write_uvarint(stream, entry.size)


def _encode_bnode(stream: BinaryIO, node: Any) -> None:
    write_uvarint(stream, _K_BLEAF if node.leaf else _K_BINT)
    write_uvarint(stream, node.parent)
    write_uvarint(stream, len(node.entries))
    write_delta_row(stream, node.entries)
    if not node.leaf:
        if node.sizes is None:
            write_uvarint(stream, 0)
        else:
            write_uvarint(stream, 1)
            for size in node.sizes:
                write_uvarint(stream, size)


def _encode_lidf_records(stream: BinaryIO, records: list) -> None:
    write_uvarint(stream, _K_LIDF)
    write_uvarint(stream, len(records))
    previous = 0
    for record in records:
        if record is None:
            write_uvarint(stream, _S_EMPTY)
        elif isinstance(record, int):
            if record < 0:
                raise PersistError(f"uvarint cannot encode negative value {record}")
            write_uvarint(stream, 4 * _zigzag(record - previous) + _S_INT)
            previous = record
        elif (
            isinstance(record, tuple)
            and len(record) == 2
            and all(isinstance(x, int) and x >= 0 for x in record)
        ):
            write_uvarint(stream, 4 * record[0] + _S_PAIR)
            write_uvarint(stream, record[1])
        elif isinstance(record, tuple) and all(isinstance(x, int) for x in record):
            write_uvarint(stream, 4 * len(record) + _S_SEQ)
            for component in record:
                write_svarint(stream, component)
        else:
            raise PersistError(f"unsupported LIDF record {record!r}")


def decode_payload(stream: BinaryIO) -> Any:
    """Read back one block payload written by :func:`encode_payload`."""
    from repro.core.bbox.node import BNode
    from repro.core.wbox.node import WEntry, WNode
    from repro.core.wbox.pairs import PairRecord

    kind = read_uvarint(stream)
    if kind in (_K_WLEAF, _K_WPAIRLEAF):
        range_lo = read_uvarint(stream)
        range_len = read_uvarint(stream)
        weight = read_uvarint(stream)
        count = read_uvarint(stream)
        if kind == _K_WLEAF:
            return WNode(0, range_lo, range_len, weight, read_delta_row(stream, count))
        entries: list = []
        for _ in range(count):
            record = PairRecord(read_uvarint(stream))
            record.is_start = bool(read_uvarint(stream))
            partner = read_uvarint(stream)
            record.partner_lid = None if partner == 0 else partner - 1
            record.partner_block = read_uvarint(stream)
            end_value = read_uvarint(stream)
            record.end_value = None if end_value == 0 else end_value - 1
            entries.append(record)
        return WNode(0, range_lo, range_len, weight, entries)
    if kind == _K_WINT:
        level = read_uvarint(stream)
        range_lo = read_uvarint(stream)
        range_len = read_uvarint(stream)
        weight = read_uvarint(stream)
        count = read_uvarint(stream)
        entries = [
            WEntry(
                read_uvarint(stream),
                read_uvarint(stream),
                read_uvarint(stream),
                read_uvarint(stream),
            )
            for _ in range(count)
        ]
        return WNode(level, range_lo, range_len, weight, entries)
    if kind in (_K_BLEAF, _K_BINT):
        parent = read_uvarint(stream)
        count = read_uvarint(stream)
        entries = read_delta_row(stream, count)
        sizes = None
        if kind == _K_BINT and read_uvarint(stream):
            sizes = [read_uvarint(stream) for _ in range(count)]
        return BNode(leaf=kind == _K_BLEAF, parent=parent, entries=entries, sizes=sizes)
    if kind == _K_LIDF:
        count = read_uvarint(stream)
        records: list = []
        previous = 0
        for _ in range(count):
            head = read_uvarint(stream)
            tag, payload = head % 4, head // 4
            if tag == _S_EMPTY and payload == 0:
                records.append(None)
            elif tag == _S_INT:
                previous += _unzigzag(payload)
                if previous < 0:
                    raise PersistError("an LIDF delta steps below zero")
                records.append(previous)
            elif tag == _S_PAIR:
                records.append((payload, read_uvarint(stream)))
            elif tag == _S_SEQ:
                length = payload
                # Preallocate and fill once: a generator inside tuple() pays
                # a frame resume per component, which dominates on the long
                # ORDPATH component vectors.
                components = [0] * length
                for i in range(length):
                    components[i] = read_svarint(stream)
                records.append(tuple(components))
            else:
                raise PersistError(f"LIDF empty slot with head {head}")
        return records
    raise PersistError(f"unknown block kind {kind}")
