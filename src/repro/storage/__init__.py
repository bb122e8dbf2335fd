"""I/O-counting block storage substrate.

This package replaces the paper's TPIE layer with a composable stack:
pluggable backends (in-memory live objects, or a real fixed-size-page file
with write-ahead logging and crash recovery), per-operation scratch
buffering (the paper's measurement methodology), an optional LRU/SLRU
cache, an I/O counter, and the LIDF heap file of Section 3.
"""

from .stats import IOStats, OperationCost
from .backend import MemoryBackend, StorageBackend
from .cache import BlockCache
from .blockstore import BlockStore, OperationBuffer, ReaderWriterLatch
from .filebackend import FileBackend, default_page_bytes, read_directory
from .heapfile import HeapFile
from .shardlayout import (
    MANIFEST_NAME,
    is_sharded_root,
    read_manifest,
    shard_page_path,
    write_manifest,
)
from .wal import WALScan, scan_wal, scan_wal_bytes
from .walseg import (
    checkpoint_image_path,
    manifest_path,
    read_wal_manifest,
    segment_path,
    write_json_atomic,
)

__all__ = [
    "MANIFEST_NAME",
    "is_sharded_root",
    "read_manifest",
    "shard_page_path",
    "write_manifest",
    "IOStats",
    "OperationCost",
    "StorageBackend",
    "MemoryBackend",
    "FileBackend",
    "default_page_bytes",
    "read_directory",
    "BlockCache",
    "OperationBuffer",
    "BlockStore",
    "ReaderWriterLatch",
    "HeapFile",
    "WALScan",
    "scan_wal",
    "scan_wal_bytes",
    "checkpoint_image_path",
    "manifest_path",
    "read_wal_manifest",
    "segment_path",
    "write_json_atomic",
]
