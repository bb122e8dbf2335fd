"""Every crash state of one automatic checkpoint recovers to a state the
store was in.

:class:`~tests.test_disk_trace.RecordingDisk` records, with each write's
bytes, the commit that fires an automatic checkpoint: the commit's log
append, the checkpoint's page images, directory and header slot, its
seal and its retention.  Each crash state is rebuilt from the files as
they stood before that commit plus a prefix of the recorded operations,
in three ways:

* **clean** — every operation of the prefix persisted;
* **torn** — the prefix's last write persisted only its first half;
* **reordered** — the prefix's last operation persisted, but every
  write the prefix did not fsync before it is lost: the disk may persist
  unsynced writes in any order, which is what the protocol's barriers
  are for.

Each state is reopened through :func:`repro.persist.open_store` and must
be exactly the state before the commit (only while the commit's log
append is not synced yet) or after it; every LID live in that state must
resolve to its label, the structure must check out, and the store must
take a new commit.
"""

from __future__ import annotations

import os

import pytest

from repro import BatchOp, WBox
from repro.config import TINY_CONFIG
from repro.persist import checkpoint_scheme, open_store
from repro.storage import BlockStore, FileBackend
from repro.storage import filebackend as filebackend_module

from . import taped
from .test_disk_trace import RecordingDisk

LABELS = 120
#: A submit deletes the element inserted this many submits before it.
DELETE_LAG = 8
#: Tape bytes between automatic checkpoints: small, so a reopen re-runs
#: few tapes and the sweep stays fast.
TAPE_BYTES = 512


class ContentRecorder(RecordingDisk):
    """A :class:`RecordingDisk` that keeps the bytes of each write."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch, root) -> None:
        super().__init__(monkeypatch, root)
        self.data: dict[int, bytes] = {}

    def _put(self, disk, handle, data):
        super()._put(disk, handle, data)
        self.data[len(self.ops) - 1] = bytes(data)

    def clear(self) -> None:
        self.ops, self.data = [], {}


def _files(root) -> dict[str, bytes]:
    files = {}
    for name in os.listdir(root):
        with open(os.path.join(root, name), "rb") as handle:
            files[name] = handle.read()
    return files


def _lost(ops: list[tuple], cut: int) -> set[int]:
    """The writes before the prefix's last operation that no fsync of
    their file follows within the prefix."""
    lost, synced = set(), set()
    for index in range(cut - 2, -1, -1):
        op, path = ops[index][:2]
        if op == "fsync":
            synced.add(path)
        elif op == "write" and path not in synced:
            lost.add(index)
    return lost


def crash_state(before, ops, data, cut, variant) -> dict[str, bytes]:
    """The files after the first ``cut`` operations persisted as
    ``variant`` says."""
    files = {name: bytearray(content) for name, content in before.items()}
    lost = _lost(ops, cut) if variant == "reordered" else set()
    for index in range(cut):
        op, path, offset, _length = ops[index]
        if index in lost:
            continue
        if op == "create":
            files[path] = bytearray()
        elif op == "open":
            files.setdefault(path, bytearray())
        elif op == "write":
            payload = data[index]
            if variant == "torn" and index == cut - 1:
                payload = payload[: len(payload) // 2]
            target = files.setdefault(path, bytearray())
            target.extend(bytes(max(0, offset - len(target))))
            target[offset : offset + len(payload)] = payload
        elif op == "truncate":
            del files[path][offset:]
        elif op == "rename":
            source, destination = path.split(" -> ")
            files[destination] = files.pop(source)
        elif op == "unlink":
            del files[path]
    return {name: bytes(content) for name, content in files.items()}


def _labels(scheme, lids):
    return {lid: scheme.lookup(lid) for lid in lids}


def record_one_checkpoint(tmp_path, monkeypatch):
    """Run write_small-shaped submits on an fsync store until one fires
    an automatic checkpoint.  Returns the files before that commit, the
    operations it recorded and their bytes, the live labels before and
    after it, and the index of the commit's log sync."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # record the syncs, skip the wait
    monkeypatch.setattr(filebackend_module, "CHECKPOINT_TAPE_BYTES", TAPE_BYTES)
    root = tmp_path / "store"
    root.mkdir()
    backend = FileBackend(str(root / "t.pages"), fsync=True)
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(LABELS, [i ^ 1 for i in range(LABELS)])
    checkpoint_scheme(scheme)
    recorder = ContentRecorder(monkeypatch, root)
    live, elements = list(lids), []
    for index in range(10_000):
        anchor = live[(7 * index) % len(live)]
        ops = [BatchOp("insert_element_before", (anchor,))]
        if index >= DELETE_LAG:
            ops.append(BatchOp("delete_element", elements[index - DELETE_LAG]))
        before, labels_before = _files(root), _labels(scheme, live)
        recorder.clear()
        segment = backend.wal_manifest["next_segment"]
        element = tuple(scheme.execute_batch(ops).results[0])
        elements.append(element)
        live += element
        if index >= DELETE_LAG:
            for lid in elements[index - DELETE_LAG]:
                live.remove(lid)
        if backend.wal_manifest["next_segment"] != segment:
            break
    labels_after = _labels(scheme, live)
    backend.close()
    monkeypatch.undo()  # stop recording: the sweep's own commits are not the trace
    ops, data = list(recorder.ops), dict(recorder.data)
    logged = ops.index(("fsync", "t.pages.wal", None, None))
    assert any(op[:2] == ("write", "t.pages") for op in ops), "no checkpoint recorded"
    return before, ops, data, labels_before, labels_after, logged


def _matches(scheme, labels) -> bool:
    if scheme.label_count() != len(labels):
        return False
    try:
        return _labels(scheme, labels) == labels
    except Exception:  # noqa: BLE001 - a LID that does not resolve
        return False


def test_every_crash_state_of_a_checkpoint_recovers(tmp_path, monkeypatch):
    before, ops, data, labels_before, labels_after, logged = record_one_checkpoint(
        tmp_path, monkeypatch
    )
    seen: set[tuple] = set()
    failures = []
    for cut in range(len(ops) + 1):
        for variant in ("clean", "torn", "reordered"):
            files = crash_state(before, ops, data, cut, variant)
            key = tuple(sorted(files.items()))
            if key in seen:
                continue
            seen.add(key)
            where = f"{variant} cut {cut}/{len(ops)} ({ops[cut - 1] if cut else 'nothing'})"
            directory = tmp_path / f"state-{len(seen)}"
            directory.mkdir()
            for name, content in files.items():
                (directory / name).write_bytes(content)
            try:
                (scheme,) = open_store(str(directory / "t.pages"))
            except Exception as error:  # noqa: BLE001 - collected, reported below
                failures.append(f"{where}: reopen raised {error!r}")
                continue
            try:
                allowed = [labels_after] + ([labels_before] if cut <= logged else [])
                state = next((labels for labels in allowed if _matches(scheme, labels)), None)
                if state is None:
                    failures.append(f"{where}: neither the state before nor after")
                    continue
                scheme.check_invariants()
                lsn = scheme.store.backend.lsn
                taped.insert_before(scheme, next(iter(state)))
                assert scheme.store.backend.lsn == lsn + 1
            except Exception as error:  # noqa: BLE001 - collected, reported below
                failures.append(f"{where}: {error!r}")
            finally:
                scheme.store.backend.close()
    assert not failures, "\n".join(failures[:10])
    assert len(seen) > len(ops)  # the torn and reordered states were distinct ones
