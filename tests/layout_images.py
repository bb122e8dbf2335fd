"""Bit-packed layout images: the proof behind ``BoxConfig`` capacities.

The hot paths keep nodes as Python objects and only *count* block I/Os,
but the block-size-derived capacities in :class:`~repro.config.BoxConfig`
are honest exactly when a maximally full node really fits in a block.
The bit-packed encoders/decoders for every node layout provide the
proof; the test suite uses them to assert

* a node at maximum capacity encodes to ``<= block_bytes`` bytes, and
* encodings round-trip losslessly.

The encoders are deliberately simple fixed-width packers; they match the
field widths declared in :class:`BoxConfig` plus the declared node
header.  Nothing in ``src/`` reads or writes this layout — the on-disk
format is the varint block codec of :mod:`repro.storage.codec` — which
is why the images live with the tests that use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import BoxConfig
from repro.errors import BlockOverflowError


class BitWriter:
    """Append-only bit buffer with fixed-width integer writes."""

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as an unsigned ``width``-bit integer."""
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nbits += width

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def getvalue(self) -> bytes:
        """The buffer, padded with zero bits to a whole number of bytes."""
        pad = (-self._nbits) % 8
        return ((self._acc << pad)).to_bytes((self._nbits + pad) // 8 or 1, "big")


class BitReader:
    """Sequential fixed-width integer reads over a byte buffer."""

    def __init__(self, data: bytes) -> None:
        self._value = int.from_bytes(data, "big")
        self._remaining = len(data) * 8

    def read(self, width: int) -> int:
        """Consume and return the next ``width`` bits as an unsigned int."""
        if width > self._remaining:
            raise ValueError("read past end of buffer")
        self._remaining -= width
        return (self._value >> self._remaining) & ((1 << width) - 1)


# ----------------------------------------------------------------------
# plain-data node images
# ----------------------------------------------------------------------


@dataclass
class WBoxLeafImage:
    """Encodable image of a basic W-BOX leaf: LIDs + deleted flags.

    The leaf's assigned-range origin lives in the node header; labels are
    implicit (origin + position)."""

    range_lo: int
    lids: list[int] = field(default_factory=list)
    deleted: list[bool] = field(default_factory=list)


@dataclass
class WBoxInternalImage:
    """Encodable image of an internal W-BOX node: per-child (pointer, slot,
    weight, size) tuples plus the node's own range origin."""

    range_lo: int
    children: list[tuple[int, int, int, int]] = field(default_factory=list)


@dataclass
class BBoxLeafImage:
    """Encodable image of a B-BOX leaf: back-link plus LIDs."""

    back_link: int
    lids: list[int] = field(default_factory=list)


@dataclass
class BBoxInternalImage:
    """Encodable image of an internal B-BOX node: back-link plus per-child
    (pointer, size) tuples."""

    back_link: int
    children: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class LidfBlockImage:
    """Encodable image of one LIDF block: per-slot (live, pointer_or_value,
    aux) records.  BOX schemes use ``pointer_or_value`` as the leaf block
    pointer; naive-k uses it as the label value and ``aux`` as the gap."""

    slots: list[tuple[bool, int, int]] = field(default_factory=list)


# ----------------------------------------------------------------------
# encoders
# ----------------------------------------------------------------------

_COUNT_WIDTH = 16  # entry counters within the header
_LEVEL_WIDTH = 8
_RANGE_WIDTH = 64  # range origins can exceed label_bits transiently; header pays


def _header(writer: BitWriter, config: BoxConfig, kind: int, count: int, extra: int) -> None:
    """Write the declared node header (padded to config.node_header_bits)."""
    writer.write(kind, _LEVEL_WIDTH)
    writer.write(count, _COUNT_WIDTH)
    writer.write(extra & ((1 << _RANGE_WIDTH) - 1), _RANGE_WIDTH)
    used = _LEVEL_WIDTH + _COUNT_WIDTH + _RANGE_WIDTH
    if used > config.node_header_bits:
        raise BlockOverflowError(
            f"declared node_header_bits={config.node_header_bits} cannot hold "
            f"the {used}-bit header"
        )
    writer.write(0, config.node_header_bits - used)


def _check_fits(writer: BitWriter, config: BoxConfig, what: str) -> bytes:
    if writer.bit_length > config.block_bits:
        raise BlockOverflowError(
            f"{what} needs {writer.bit_length} bits but the block holds "
            f"{config.block_bits}"
        )
    return writer.getvalue()


def encode_wbox_leaf(image: WBoxLeafImage, config: BoxConfig) -> bytes:
    """Encode a basic W-BOX leaf; raises BlockOverflowError if oversized."""
    writer = BitWriter()
    _header(writer, config, kind=1, count=len(image.lids), extra=image.range_lo)
    for lid, dead in zip(image.lids, image.deleted):
        writer.write(lid, config.lid_bits)
        writer.write(1 if dead else 0, 1)
    return _check_fits(writer, config, "W-BOX leaf")


def decode_wbox_leaf(data: bytes, config: BoxConfig) -> WBoxLeafImage:
    reader = BitReader(data)
    reader.read(_LEVEL_WIDTH)
    count = reader.read(_COUNT_WIDTH)
    range_lo = reader.read(_RANGE_WIDTH)
    reader.read(config.node_header_bits - _LEVEL_WIDTH - _COUNT_WIDTH - _RANGE_WIDTH)
    lids, deleted = [], []
    for _ in range(count):
        lids.append(reader.read(config.lid_bits))
        deleted.append(bool(reader.read(1)))
    return WBoxLeafImage(range_lo=range_lo, lids=lids, deleted=deleted)


def encode_wbox_internal(image: WBoxInternalImage, config: BoxConfig) -> bytes:
    """Encode an internal W-BOX node; raises BlockOverflowError if oversized."""
    writer = BitWriter()
    _header(writer, config, kind=2, count=len(image.children), extra=image.range_lo)
    for pointer, slot, weight, size in image.children:
        writer.write(pointer, config.pointer_bits)
        writer.write(slot, 8)
        writer.write(weight, config.weight_bits)
        writer.write(size, config.size_bits)
    return _check_fits(writer, config, "W-BOX internal node")


def decode_wbox_internal(data: bytes, config: BoxConfig) -> WBoxInternalImage:
    reader = BitReader(data)
    reader.read(_LEVEL_WIDTH)
    count = reader.read(_COUNT_WIDTH)
    range_lo = reader.read(_RANGE_WIDTH)
    reader.read(config.node_header_bits - _LEVEL_WIDTH - _COUNT_WIDTH - _RANGE_WIDTH)
    children = []
    for _ in range(count):
        pointer = reader.read(config.pointer_bits)
        slot = reader.read(8)
        weight = reader.read(config.weight_bits)
        size = reader.read(config.size_bits)
        children.append((pointer, slot, weight, size))
    return WBoxInternalImage(range_lo=range_lo, children=children)


def encode_bbox_leaf(image: BBoxLeafImage, config: BoxConfig) -> bytes:
    """Encode a B-BOX leaf; raises BlockOverflowError if oversized."""
    writer = BitWriter()
    _header(writer, config, kind=3, count=len(image.lids), extra=image.back_link)
    for lid in image.lids:
        writer.write(lid, config.lid_bits)
    return _check_fits(writer, config, "B-BOX leaf")


def decode_bbox_leaf(data: bytes, config: BoxConfig) -> BBoxLeafImage:
    reader = BitReader(data)
    reader.read(_LEVEL_WIDTH)
    count = reader.read(_COUNT_WIDTH)
    back_link = reader.read(_RANGE_WIDTH)
    reader.read(config.node_header_bits - _LEVEL_WIDTH - _COUNT_WIDTH - _RANGE_WIDTH)
    return BBoxLeafImage(back_link=back_link, lids=[reader.read(config.lid_bits) for _ in range(count)])


def encode_bbox_internal(image: BBoxInternalImage, config: BoxConfig) -> bytes:
    """Encode an internal B-BOX node; raises BlockOverflowError if oversized."""
    writer = BitWriter()
    _header(writer, config, kind=4, count=len(image.children), extra=image.back_link)
    for pointer, size in image.children:
        writer.write(pointer, config.pointer_bits)
        writer.write(size, config.size_bits)
    return _check_fits(writer, config, "B-BOX internal node")


def decode_bbox_internal(data: bytes, config: BoxConfig) -> BBoxInternalImage:
    reader = BitReader(data)
    reader.read(_LEVEL_WIDTH)
    count = reader.read(_COUNT_WIDTH)
    back_link = reader.read(_RANGE_WIDTH)
    reader.read(config.node_header_bits - _LEVEL_WIDTH - _COUNT_WIDTH - _RANGE_WIDTH)
    children = []
    for _ in range(count):
        pointer = reader.read(config.pointer_bits)
        size = reader.read(config.size_bits)
        children.append((pointer, size))
    return BBoxInternalImage(back_link=back_link, children=children)


def encode_lidf_block(image: LidfBlockImage, config: BoxConfig) -> bytes:
    """Encode one LIDF block; raises BlockOverflowError if oversized."""
    writer = BitWriter()
    _header(writer, config, kind=5, count=len(image.slots), extra=0)
    value_width = max(config.pointer_bits, config.label_bits)
    aux_width = config.lidf_record_bits - value_width - 1  # 1 bit: live flag
    for live, value, aux in image.slots:
        writer.write(1 if live else 0, 1)
        writer.write(value, value_width)
        writer.write(aux, max(1, aux_width))
    return _check_fits(writer, config, "LIDF block")


def decode_lidf_block(data: bytes, config: BoxConfig) -> LidfBlockImage:
    reader = BitReader(data)
    reader.read(_LEVEL_WIDTH)
    count = reader.read(_COUNT_WIDTH)
    reader.read(_RANGE_WIDTH)
    reader.read(config.node_header_bits - _LEVEL_WIDTH - _COUNT_WIDTH - _RANGE_WIDTH)
    value_width = max(config.pointer_bits, config.label_bits)
    aux_width = max(1, config.lidf_record_bits - value_width - 1)
    slots = []
    for _ in range(count):
        live = bool(reader.read(1))
        value = reader.read(value_width)
        aux = reader.read(aux_width)
        slots.append((live, value, aux))
    return LidfBlockImage(slots=slots)
