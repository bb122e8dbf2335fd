"""Bit-level codecs: round trips and the fits-in-a-block proof for the
capacities BoxConfig derives."""

import pytest

from repro.config import BENCH_CONFIG, BoxConfig
from repro.errors import BlockOverflowError
from .layout_images import (
    BBoxInternalImage,
    BBoxLeafImage,
    BitReader,
    BitWriter,
    LidfBlockImage,
    WBoxInternalImage,
    WBoxLeafImage,
    decode_bbox_internal,
    decode_bbox_leaf,
    decode_lidf_block,
    decode_wbox_internal,
    decode_wbox_leaf,
    encode_bbox_internal,
    encode_bbox_leaf,
    encode_lidf_block,
    encode_wbox_internal,
    encode_wbox_leaf,
)

CONFIGS = [BoxConfig(), BENCH_CONFIG]


class TestBitPacking:
    def test_round_trip_values(self):
        writer = BitWriter()
        writer.write(5, 3)
        writer.write(1023, 10)
        writer.write(0, 7)
        reader = BitReader(writer.getvalue())
        assert reader.read(3) == 5
        assert reader.read(10) == 1023
        assert reader.read(7) == 0

    def test_overflowing_value_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(8, 3)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_read_past_end_rejected(self):
        reader = BitReader(b"\x00")
        reader.read(8)
        with pytest.raises(ValueError):
            reader.read(1)

    def test_bit_length_tracks_writes(self):
        writer = BitWriter()
        writer.write(1, 5)
        writer.write(1, 11)
        assert writer.bit_length == 16


@pytest.mark.parametrize("config", CONFIGS, ids=["8KB", "1KB"])
class TestWBoxCodecs:
    def test_full_leaf_fits_block(self, config):
        capacity = config.wbox_leaf_capacity
        image = WBoxLeafImage(
            range_lo=capacity,
            lids=list(range(capacity)),
            deleted=[index % 2 == 0 for index in range(capacity)],
        )
        encoded = encode_wbox_leaf(image, config)
        assert len(encoded) <= config.block_bytes

    def test_leaf_round_trip(self, config):
        image = WBoxLeafImage(range_lo=77, lids=[3, 1, 4], deleted=[False, True, False])
        assert decode_wbox_leaf(encode_wbox_leaf(image, config), config) == image

    def test_full_internal_fits_block(self, config):
        fanout = config.wbox_max_fanout
        image = WBoxInternalImage(
            range_lo=0,
            children=[(index + 1, index % 250, index, index) for index in range(fanout)],
        )
        encoded = encode_wbox_internal(image, config)
        assert len(encoded) <= config.block_bytes

    def test_internal_round_trip(self, config):
        image = WBoxInternalImage(range_lo=5, children=[(9, 0, 7, 7), (12, 3, 2, 1)])
        assert decode_wbox_internal(encode_wbox_internal(image, config), config) == image

    def test_oversized_leaf_rejected(self, config):
        capacity = config.wbox_leaf_capacity
        image = WBoxLeafImage(
            range_lo=0,
            lids=list(range(capacity * 3)),
            deleted=[False] * (capacity * 3),
        )
        with pytest.raises(BlockOverflowError):
            encode_wbox_leaf(image, config)


@pytest.mark.parametrize("config", CONFIGS, ids=["8KB", "1KB"])
class TestBBoxCodecs:
    def test_full_leaf_fits_block(self, config):
        image = BBoxLeafImage(back_link=9, lids=list(range(config.bbox_leaf_capacity)))
        assert len(encode_bbox_leaf(image, config)) <= config.block_bytes

    def test_leaf_round_trip(self, config):
        image = BBoxLeafImage(back_link=4, lids=[10, 20, 30])
        assert decode_bbox_leaf(encode_bbox_leaf(image, config), config) == image

    def test_full_internal_fits_block(self, config):
        image = BBoxInternalImage(
            back_link=2,
            children=[(index + 1, index * 3) for index in range(config.bbox_fanout)],
        )
        assert len(encode_bbox_internal(image, config)) <= config.block_bytes

    def test_internal_round_trip(self, config):
        image = BBoxInternalImage(back_link=1, children=[(5, 100), (6, 200)])
        assert decode_bbox_internal(encode_bbox_internal(image, config), config) == image

    def test_oversized_internal_rejected(self, config):
        image = BBoxInternalImage(
            back_link=0,
            children=[(index, index) for index in range(config.bbox_fanout * 3)],
        )
        with pytest.raises(BlockOverflowError):
            encode_bbox_internal(image, config)


@pytest.mark.parametrize("config", CONFIGS, ids=["8KB", "1KB"])
class TestLidfCodec:
    def test_full_block_fits(self, config):
        image = LidfBlockImage(
            slots=[(True, index, index % 7) for index in range(config.lidf_records_per_block)]
        )
        assert len(encode_lidf_block(image, config)) <= config.block_bytes

    def test_round_trip(self, config):
        image = LidfBlockImage(slots=[(True, 42, 3), (False, 0, 0), (True, 7, 1)])
        assert decode_lidf_block(encode_lidf_block(image, config), config) == image
