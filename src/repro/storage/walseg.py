"""WAL segmentation: the on-disk vocabulary of a page file's log history.

Every :class:`~repro.storage.FileBackend` ends each checkpoint by
**sealing** its live log: atomically renaming it to a numbered *segment*
file next to the page file.  Segment ids are monotonic and never reused;
a small JSON manifest (:func:`write_json_atomic`, which the shard
manifest shares) records what exists:

.. code-block:: text

    mystore.pages               <- the page file
    mystore.pages.wal           <- live log (the tail; becomes segment 5)
    mystore.pages.seg-000002.wal
    mystore.pages.seg-000003.wal
    mystore.pages.seg-000004.wal
    mystore.pages.ckpt-000002   <- checkpoint image: replay segments >= 2
    mystore.pages.ckpt-000004   <- checkpoint image: replay segments >= 4
    mystore.pages.walseg.json   <- {"next_segment": 5, "segments": [2, 3, 4],
                                    "checkpoints": [{"segment": 2, ...}, ...]}

Every segment file is an ordinary write-ahead log (magic + records), so
:func:`~repro.storage.wal.scan_wal` and the whole recovery path apply to
each one unchanged.  A *checkpoint record* pairs a copy of the page file
with the id of the first segment NOT reflected in it: restoring that
image and replaying segments ``>= record["segment"]`` (in id order)
reproduces any later state — that is the point-in-time-recovery
contract, and exactly what a replication follower does at bootstrap.

**Retention** (:func:`apply_retention`, run after every seal and every
recorded image) keeps the two newest checkpoint images and every segment
from the older one's id on, and deletes all older history.  A store that
never recorded an image keeps no sealed segment at all: on disk its
checkpoint empties the log, as a truncate would.  Two images, not one:
a caught-up follower is reading the very segment a full checkpoint
seals, and a one-image horizon would delete it under every attached
follower at every full checkpoint.  A follower whose cursor falls below
the horizon anyway is told so (:class:`~repro.errors.ReplicationError`)
and re-bootstraps from the newest image.

The manifest is advisory bookkeeping over files that are individually
self-describing; it is written *after* the renames it records and
*before* the deletions it implies, so a crash between the two leaves a
sealed segment the next seal re-records, or expired files the next
retention pass sweeps — never a manifest naming files that don't exist.
"""

from __future__ import annotations

import json
import os
import re

from ..errors import PersistError

__all__ = [
    "apply_retention",
    "checkpoint_image_path",
    "fresh_manifest",
    "manifest_path",
    "read_wal_manifest",
    "segment_path",
    "write_json_atomic",
]

#: Manifest filename suffix (next to the page file).
MANIFEST_SUFFIX = ".walseg.json"

#: Manifest format version this code writes and understands.
MANIFEST_VERSION = 1


def manifest_path(page_path: str) -> str:
    """Path of the segment manifest for page file ``page_path``."""
    return page_path + MANIFEST_SUFFIX


def segment_path(page_path: str, segment: int) -> str:
    """Path of sealed segment ``segment`` of page file ``page_path``."""
    return f"{page_path}.seg-{segment:06d}.wal"


def checkpoint_image_path(page_path: str, segment: int) -> str:
    """Path of the checkpoint image whose replay starts at ``segment``."""
    return f"{page_path}.ckpt-{segment:06d}"


def fresh_manifest() -> dict:
    """The manifest of a store with no sealed history yet.

    The live log will become segment 1 when first sealed.
    """
    return {
        "version": MANIFEST_VERSION,
        "next_segment": 1,
        "segments": [],
        "checkpoints": [],
    }


def read_wal_manifest(page_path: str) -> dict:
    """Read the segment manifest, defaulting to a fresh one when absent."""
    path = manifest_path(page_path)
    if not os.path.exists(path):
        return fresh_manifest()
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise PersistError(f"unreadable WAL manifest {path}: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("version") != MANIFEST_VERSION:
        raise PersistError(
            f"WAL manifest {path} has unsupported version "
            f"{manifest.get('version') if isinstance(manifest, dict) else manifest!r}"
        )
    for key in ("next_segment", "segments", "checkpoints"):
        if key not in manifest:
            raise PersistError(f"malformed WAL manifest {path}: missing {key!r}")
    return manifest


def write_json_atomic(path: str, data: dict, *, fsync: bool = False) -> None:
    """Atomically replace ``path`` with ``data`` as JSON (temp file +
    rename); every manifest in a store is written here.

    With ``fsync`` the temp file is synced before the rename and the
    directory after it, so the manifest update itself cannot be lost to
    a crash that the files it describes survived.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def apply_retention(page_path: str, manifest: dict, *, fsync: bool = False) -> None:
    """The one retention rule: prune ``manifest`` to the horizon in place,
    persist it (:func:`write_json_atomic`), then delete the history files
    of ``page_path`` below the horizon.

    The horizon is the older of the two newest checkpoint images' segment
    (none recorded: the next segment, so every sealed one expires).  The
    files are found by listing the directory, not the manifest, so a
    file a crash left behind after the manifest dropped it expires too.
    """
    kept = manifest["checkpoints"][-2:]
    horizon = kept[0]["segment"] if kept else manifest["next_segment"]
    manifest["checkpoints"] = kept
    manifest["segments"] = [seg for seg in manifest["segments"] if seg >= horizon]
    write_json_atomic(manifest_path(page_path), manifest, fsync=fsync)
    directory, base = os.path.split(page_path)
    history = re.compile(re.escape(base) + r"\.(?:seg-(\d+)\.wal|ckpt-(\d+))")
    for name in os.listdir(directory or "."):
        match = history.fullmatch(name)
        if match and int(match.group(1) or match.group(2)) < horizon:
            os.remove(os.path.join(directory, name))
