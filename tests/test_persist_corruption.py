"""Persistence robustness: malformed files must fail cleanly with
PersistError, never with silent corruption."""

import io

import pytest

from repro import TINY_CONFIG, WBox
from repro.persist import (
    MAGIC,
    PersistError,
    checkpoint_scheme,
    load_scheme,
    open_file_scheme,
    save_scheme,
)
from repro.storage import BlockStore, FileBackend
from repro.storage.codec import uvarint_bytes


@pytest.fixture
def saved(tmp_path):
    scheme = WBox(TINY_CONFIG)
    scheme.bulk_load(30)
    path = tmp_path / "good.box"
    save_scheme(scheme, str(path))
    return scheme, path


class TestCorruption:
    def test_truncated_header(self, saved, tmp_path):
        _, path = saved
        data = path.read_bytes()
        bad = tmp_path / "trunc.box"
        bad.write_bytes(data[: len(MAGIC) + 4])
        with pytest.raises((PersistError, ValueError, OSError)):
            load_scheme(str(bad))

    def test_truncated_body(self, saved, tmp_path):
        _, path = saved
        data = path.read_bytes()
        bad = tmp_path / "cut.box"
        bad.write_bytes(data[: len(data) - 10])
        with pytest.raises(PersistError):
            load_scheme(str(bad))

    def test_garbage_header_json(self, saved, tmp_path):
        _, path = saved
        bad = tmp_path / "json.box"
        junk = b"{not json"
        bad.write_bytes(MAGIC + len(junk).to_bytes(8, "big") + junk)
        with pytest.raises(Exception):
            load_scheme(str(bad))

    def test_unknown_block_kind(self, tmp_path):
        bad = tmp_path / "kind.box"
        header = (
            b'{"scheme": "WBox", "config": {}, '
            b'"meta": {"clock": 0, "root_id": 1, "height": 0, "root_weight": 0, '
            b'"live": 0, "deletions": 0, "ordinal": false, "balance": "weight"}, '
            b'"lidf": {"block_ids": [], "free": [], "tail": 0, "live": 0}, '
            b'"store": {"next_id": 2, "free_ids": []}}'
        )
        body = io.BytesIO()
        from .codec_reference import write_uvarint

        write_uvarint(body, 1)  # one block
        write_uvarint(body, 1)  # block id
        write_uvarint(body, 99)  # bogus kind tag
        bad.write_bytes(MAGIC + len(header).to_bytes(8, "big") + header + body.getvalue())
        with pytest.raises(PersistError):
            load_scheme(str(bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scheme(str(tmp_path / "never-written.box"))

    def test_original_untouched_by_failed_load(self, saved, tmp_path):
        scheme, path = saved
        count = scheme.label_count()
        bad = tmp_path / "bad.box"
        bad.write_bytes(b"junkjunk")
        with pytest.raises(PersistError):
            load_scheme(str(bad))
        assert scheme.label_count() == count  # in-memory structure untouched

    def test_unsupported_scheme_type_rejected_on_save(self, tmp_path):
        class NotAScheme:
            pass

        with pytest.raises(PersistError):
            save_scheme(NotAScheme(), str(tmp_path / "x.box"))


class TestCountBombs:
    """An untrusted file can claim any element count; the decoder must
    refuse one the file cannot hold instead of preallocating from it."""

    #: LIDF block, one record, an _S_SEQ vector of 2**40 components (the
    #: length rides in the record head, above the two tag bits).
    BOMB = bytes([6, 1]) + uvarint_bytes(1 << 42 | 3)

    def test_snapshot_payload_count_bomb(self, saved, tmp_path):
        _, path = saved
        data = path.read_bytes()
        body_start = len(MAGIC) + 8 + int.from_bytes(data[len(MAGIC) :][:8], "big")
        bad = tmp_path / "bomb.box"
        # One block (id 1) whose payload is the bomb.
        bad.write_bytes(data[:body_start] + bytes([1, 1]) + self.BOMB)
        with pytest.raises(PersistError):
            load_scheme(str(bad))

    def test_snapshot_block_count_bomb(self, saved, tmp_path):
        _, path = saved
        data = path.read_bytes()
        body_start = len(MAGIC) + 8 + int.from_bytes(data[len(MAGIC) :][:8], "big")
        bad = tmp_path / "blocks.box"
        bad.write_bytes(data[:body_start] + uvarint_bytes(1 << 40))
        with pytest.raises(PersistError, match="exceeds"):
            load_scheme(str(bad))

    def test_page_image_count_bomb(self, tmp_path):
        path = str(tmp_path / "bomb.pages")
        backend = FileBackend(path)
        scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
        lids = scheme.bulk_load(8)
        checkpoint_scheme(scheme)
        store = scheme.store
        lidf_block = next(b for b in store.block_ids() if isinstance(store.peek(b), list))
        offset, length = backend._table.extent(lidf_block)
        assert length >= len(self.BOMB)
        backend.close()
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(self.BOMB)
        reopened = open_file_scheme(path)
        try:
            with pytest.raises(PersistError):
                reopened.lookup(lids[0])
        finally:
            reopened.store.backend.close()
