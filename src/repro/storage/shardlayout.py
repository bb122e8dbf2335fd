"""On-disk layout of a sharded label store.

A sharded store is a *directory* holding one ordinary page file per shard
plus a small JSON manifest:

.. code-block:: text

    mystore/
        SHARDS.json          <- {"version": 1, "n_shards": 2, ...}
        shard-000.pages      <- ordinary FileBackend page file
        shard-000.pages.wal
        shard-001.pages
        shard-001.pages.wal

Each shard file is a completely normal, self-describing page file (the
same format ``open_file_scheme`` reads), so every existing recovery,
inspection and corruption-handling path applies per shard unchanged.  The
manifest records only what cannot be derived from the shard files: how
many shards there are and the global-LID codec that binds them together.

``n_shards == 1`` sharded deployments intentionally do NOT use this
layout — the sharded service over a single plain page file degenerates to
today's on-disk format byte for byte (the acceptance criterion), and this
directory layout only appears when a caller explicitly creates one.
"""

from __future__ import annotations

import json
import os

from ..errors import PersistError
from .walseg import write_json_atomic

__all__ = [
    "MANIFEST_NAME",
    "is_sharded_root",
    "read_manifest",
    "shard_page_path",
    "write_manifest",
]

#: Manifest filename inside a sharded store directory.
MANIFEST_NAME = "SHARDS.json"

#: Manifest format version this code writes and understands.
MANIFEST_VERSION = 1


def shard_page_path(root: str, shard: int) -> str:
    """Path of shard ``shard``'s page file under ``root``."""
    return os.path.join(root, f"shard-{shard:03d}.pages")


def is_sharded_root(path: str) -> bool:
    """Whether ``path`` is a sharded store directory (has a manifest)."""
    return os.path.isdir(path) and os.path.isfile(os.path.join(path, MANIFEST_NAME))


def write_manifest(
    root: str, n_shards: int, *, page_bytes: int | None = None, fsync: bool = False
) -> dict:
    """Create ``root`` (if needed) and write its shard manifest.

    The write is atomic (:func:`~repro.storage.walseg.write_json_atomic`)
    so a crash mid-write never leaves a directory that half-claims to be
    sharded; with ``fsync`` (the store's own policy) it is also durable
    before the shard files are trusted to it.
    """
    if n_shards < 1:
        raise PersistError(f"n_shards must be >= 1, got {n_shards}")
    manifest = {
        "version": MANIFEST_VERSION,
        "n_shards": n_shards,
        "codec": "interleave",  # shard = glid % n, local = glid // n
        "page_bytes": page_bytes,
    }
    os.makedirs(root, exist_ok=True)
    write_json_atomic(os.path.join(root, MANIFEST_NAME), manifest, fsync=fsync)
    return manifest


def read_manifest(root: str) -> dict:
    """Read and validate the manifest of a sharded store directory."""
    path = os.path.join(root, MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise PersistError(f"{root} is not a sharded store (no {MANIFEST_NAME})") from None
    except (OSError, ValueError) as error:
        raise PersistError(f"unreadable shard manifest {path}: {error}") from error
    if not isinstance(manifest, dict) or "n_shards" not in manifest:
        raise PersistError(f"malformed shard manifest {path}")
    if manifest.get("version") != MANIFEST_VERSION:
        raise PersistError(
            f"shard manifest {path} has unsupported version {manifest.get('version')!r}"
        )
    n_shards = manifest["n_shards"]
    if not isinstance(n_shards, int) or n_shards < 1:
        raise PersistError(f"shard manifest {path} has invalid n_shards {n_shards!r}")
    missing = [
        shard for shard in range(n_shards) if not os.path.isfile(shard_page_path(root, shard))
    ]
    if missing:
        raise PersistError(
            f"sharded store {root} is missing page files for shards {missing}"
        )
    return manifest
