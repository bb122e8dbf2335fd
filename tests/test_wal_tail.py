"""Fault injection for the WAL recovery scan's torn-tail handling.

Regression target: :func:`repro.storage.wal.scan_wal` decodes DELTA
bodies with :func:`~repro.storage.codec.scan_uvarint`, which raises
:class:`~repro.errors.PersistError` on a truncated varint.  A crash can
tear a DELTA record so that its length header survives but the LSN
varint inside the body does not — the record is by construction
uncommitted, yet the scan used to let the exception escape and fail
recovery of the perfectly good committed prefix.  The scan must instead
classify every malformed tail as torn, report *why* through
``WALScan.tail_reason``, and publish the skip to the metrics registry.
"""

from __future__ import annotations

import struct

import pytest

from repro.errors import WALError
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.storage.codec import uvarint_bytes
from repro.storage.disk import Disk
from repro.storage.wal import (
    _HEADER,
    MAGIC,
    REC_COMMIT,
    REC_DELTA,
    REC_OPS,
    WALWriter,
    scan_wal,
)


@pytest.fixture()
def fresh_registry():
    previous = get_registry()
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def write_transactions(path, count=2):
    """Append ``count`` committed transactions and return the writer."""
    writer = WALWriter(str(path), Disk(fsync=False))
    for index in range(count):
        writer.append_transaction({REC_OPS: b"A" * 40, REC_DELTA: uvarint_bytes(index + 1)})
    writer.close()
    return writer


def test_clean_log_scans_with_no_tail(tmp_path, fresh_registry):
    path = tmp_path / "clean.wal"
    write_transactions(path, count=3)
    scan = scan_wal(str(path))
    assert scan.committed == 3
    assert not scan.torn_tail
    assert scan.tail_reason == ""
    assert scan.transactions[0].ops == b"A" * 40
    assert all(
        sample.name != "repro_wal_torn_tail_skipped_total"
        for sample in fresh_registry.collect()
    )


@pytest.mark.parametrize("cut", range(1, 20))
def test_mid_record_truncation_keeps_committed_prefix(tmp_path, cut, fresh_registry):
    """Truncate the log ``cut`` bytes into the second transaction: the
    first transaction must survive, the remainder is a torn tail."""
    path = tmp_path / "torn.wal"
    write_transactions(path, count=1)
    boundary = path.stat().st_size
    write_transactions_path = WALWriter(str(path), Disk(fsync=False))
    write_transactions_path.append_transaction({REC_OPS: b"C" * 40, REC_DELTA: uvarint_bytes(2)})
    write_transactions_path.close()
    data = path.read_bytes()
    path.write_bytes(data[: boundary + cut])

    scan = scan_wal(str(path))
    assert scan.committed == 1
    assert scan.transactions[0].lsn == 1
    assert scan.torn_tail
    assert scan.tail_bytes == cut
    assert scan.tail_reason in ("torn record header", "torn record body")
    assert fresh_registry.value(
        "repro_wal_torn_tail_skipped_total", {"reason": scan.tail_reason}
    ) == 1.0


def test_corrupt_delta_is_torn_tail(tmp_path, fresh_registry):
    """The masked-crash regression: a DELTA whose framing is intact but
    whose LSN varint runs off the body (every byte has the continuation
    bit set) must scan as a torn tail, not raise PersistError."""
    path = tmp_path / "delta.wal"
    write_transactions(path, count=1)
    with open(path, "ab") as handle:
        handle.write(_HEADER.pack(REC_DELTA, 4) + b"\xff\xfe\x80\x80")

    scan = scan_wal(str(path))
    assert scan.committed == 1
    assert scan.torn_tail
    assert scan.tail_reason == "corrupt DELTA body"
    assert fresh_registry.value(
        "repro_wal_torn_tail_skipped_total", {"reason": "corrupt DELTA body"}
    ) == 1.0


def test_commit_crc_mismatch_is_torn_tail(tmp_path, fresh_registry):
    path = tmp_path / "crc.wal"
    write_transactions(path, count=1)
    with open(path, "ab") as handle:
        handle.write(_HEADER.pack(REC_OPS, 3) + b"\x07xy")
        handle.write(_HEADER.pack(REC_COMMIT, 4) + struct.pack(">I", 0xDEADBEEF))

    scan = scan_wal(str(path))
    assert scan.committed == 1
    assert scan.torn_tail
    assert scan.tail_reason == "commit CRC mismatch"


def test_torn_magic_is_reported(tmp_path, fresh_registry):
    path = tmp_path / "magic.wal"
    path.write_bytes(MAGIC[:3])
    scan = scan_wal(str(path))
    assert scan.committed == 0
    assert scan.torn_tail
    assert scan.tail_reason == "torn magic"


def test_impossible_record_type_still_raises(tmp_path, fresh_registry):
    """Structural impossibility (not crash damage) must stay loud: the
    narrow except added for torn tails must not swallow WALError."""
    path = tmp_path / "bad.wal"
    write_transactions(path, count=1)
    with open(path, "ab") as handle:
        handle.write(_HEADER.pack(99, 0))
    with pytest.raises(WALError):
        scan_wal(str(path))


def test_a_zero_filled_record_header_is_torn_tail(tmp_path, fresh_registry):
    """A crash that lost an unsynced write but kept a later one leaves
    zeros where the lost record's header was: crash damage, not a
    structural impossibility, so the committed prefix survives."""
    path = tmp_path / "hole.wal"
    write_transactions(path, count=1)
    with open(path, "ab") as handle:
        handle.write(bytes(_HEADER.size + 12) + _HEADER.pack(REC_COMMIT, 4) + bytes(4))
    scan = scan_wal(str(path))
    assert scan.committed == 1
    assert scan.torn_tail and scan.tail_reason == "zero-filled record header"
