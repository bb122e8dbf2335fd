"""Format pin: committed snapshot, page-file and WAL-segment bytes.

``tests/data/golden_format/`` holds, for six scheme variants, the
on-disk artefacts of one small fixed tape — a :func:`save_scheme`
snapshot, the checkpoint image taken before the tape, the page file
after it, and the sealed WAL segment that holds the tape's commits.
Every change must reproduce them bit for bit (the header slots, the
directory and its page table, the page images in their extents, the
DELTA record bodies, the WAL record framing and the snapshot body all
live in those bytes) and must still *load* them into a working scheme
whose every LID agrees with a memory twin.  The page files and segments
were last regenerated when checkpoints began writing each image once,
into an extent, and stopped logging (page file version 4, WAL version
5); the snapshot when rows of LIDs and block pointers became zigzag
deltas (version 2).  The tape runs one batch per step, so the segment
holds one OPS record per step, and nothing else.

Regenerate (only when the format is changed on purpose)::

    PYTHONPATH=src python -m tests.test_format_pin
"""

import filecmp
import os
import shutil

import pytest

from repro import BatchOp, BBox, NaiveScheme, OrdPath, WBox, WBoxO
from repro.cli import main
from repro.config import TINY_CONFIG
from repro.core.ancestry import AncestryDynamic
from repro.errors import PersistError, WALError
from repro.persist import (
    checkpoint_scheme,
    full_checkpoint,
    load_scheme,
    open_file_scheme,
    save_scheme,
)
from repro.storage import (
    BlockStore,
    FileBackend,
    checkpoint_image_path,
    scan_wal,
    segment_path,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden_format")

BASE_LABELS = 16

#: ``(kind, draw)`` steps, interpreted like ``apply_tape_step``: a draw
#: indexes the live-LID list modulo its length.
TAPE = [
    ("insert_before", 3),
    ("insert_before", 3),
    ("insert_before", 0),
    ("delete", 5),
    ("insert_before", 17),
    ("insert_before", 17),
    ("insert_before", 9),
    ("delete", 2),
    ("insert_before", 4),
    ("insert_before", 4),
    ("insert_before", 4),
    ("insert_before", 11),
    ("delete", 0),
    ("insert_before", 7),
    ("insert_before", 1),
    ("insert_before", 4),
    ("insert_before", 4),
    ("delete", 13),
    ("insert_before", 4),
    ("insert_before", 20),
]

FACTORIES = {
    "wbox": lambda store: WBox(TINY_CONFIG, store=store),
    "wboxo": lambda store: WBoxO(TINY_CONFIG, store=store),
    "bbox-o": lambda store: BBox(TINY_CONFIG, store=store, ordinal=True),
    "naive-8": lambda store: NaiveScheme(8, TINY_CONFIG, store=store),
    "ordpath": lambda store: OrdPath(TINY_CONFIG, store=store),
    "ancestry-dyn": lambda store: AncestryDynamic(TINY_CONFIG, store=store),
}


def _bulk(scheme):
    return scheme.bulk_load(BASE_LABELS, [i ^ 1 for i in range(BASE_LABELS)])


def _apply_tape(scheme, lids):
    """One batch per step: on a page file, one logged tape each."""
    for kind, draw in TAPE:
        if kind == "delete":
            scheme.execute_batch([BatchOp("delete", (lids.pop(draw % len(lids)),))])
        else:
            op = BatchOp("insert_before", (lids[draw % len(lids)],))
            lids.append(scheme.execute_batch([op]).results[0])


def build_artefacts(name, workdir):
    """Run the tape on a fresh page file under ``workdir``; returns the
    path of each artefact it produced."""
    page_path = os.path.join(workdir, "work.pages")
    snapshot_path = os.path.join(workdir, "snapshot")
    backend = FileBackend(page_path)
    scheme = FACTORIES[name](BlockStore(TINY_CONFIG, backend=backend))
    lids = _bulk(scheme)
    # Seals the bulk load; the tape gets its own segment, which the
    # image keeps from being deleted.
    image = full_checkpoint(scheme)["segment"]
    _apply_tape(scheme, lids)
    segment = checkpoint_scheme(scheme).wal_manifest["segments"][-1]
    save_scheme(scheme, snapshot_path)
    backend.close()
    return {
        "snapshot": snapshot_path,
        "base.pages": checkpoint_image_path(page_path, image),
        "pages": page_path,
        "segment.wal": segment_path(page_path, segment),
    }


def _twin(name):
    twin = FACTORIES[name](None)
    lids = _bulk(twin)
    _apply_tape(twin, lids)
    return twin, lids


def _assert_matches_twin(scheme, name):
    twin, lids = _twin(name)
    assert scheme.label_count() == twin.label_count() == len(lids)
    assert [scheme.lookup(lid) for lid in lids] == [twin.lookup(lid) for lid in lids]
    # A loaded structure must keep working, not just answer lookups.
    scheme.insert_before(lids[0])
    if hasattr(scheme, "check_invariants"):
        scheme.check_invariants()


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_rebuilt_artefacts_are_byte_identical(tmp_path, name):
    for artefact, rebuilt in build_artefacts(name, str(tmp_path)).items():
        golden = os.path.join(GOLDEN_DIR, name, artefact)
        assert filecmp.cmp(golden, rebuilt, shallow=False), (
            f"{name}/{artefact} differs from the committed format"
        )


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_committed_snapshot_loads(name):
    scheme = load_scheme(os.path.join(GOLDEN_DIR, name, "snapshot"))
    _assert_matches_twin(scheme, name)


@pytest.mark.parametrize("replay_segment", [False, True], ids=["clean", "replay"])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_committed_page_file_opens(tmp_path, name, replay_segment):
    """The committed page file opens into a working scheme on its own;
    the committed checkpoint image from before the tape does with the
    committed segment placed as its log — a segment holds tapes only, so
    it is the log a crash before the sealing checkpoint leaves standing —
    which sends every tape back through WAL scan + replay."""
    path = str(tmp_path / "copy.pages")
    pages = "base.pages" if replay_segment else "pages"
    shutil.copyfile(os.path.join(GOLDEN_DIR, name, pages), path)
    if replay_segment:
        shutil.copyfile(os.path.join(GOLDEN_DIR, name, "segment.wal"), path + ".wal")
    scheme = open_file_scheme(path)
    try:
        report = scheme.store.backend.recovery_report
        replayed = report["replayed_transactions"]
        assert (replayed > 0) == replay_segment
        assert not report["discarded_tail_bytes"]
        _assert_matches_twin(scheme, name)
    finally:
        scheme.store.backend.close()


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_segment_already_in_the_page_file_is_skipped(tmp_path, name):
    """The page file *after* the tape with the tape's segment as its log
    (a checkpoint that crashed before its seal): every transaction's
    LSN is at or below the directory's, so nothing replays twice."""
    path = str(tmp_path / "copy.pages")
    shutil.copyfile(os.path.join(GOLDEN_DIR, name, "pages"), path)
    shutil.copyfile(os.path.join(GOLDEN_DIR, name, "segment.wal"), path + ".wal")
    scheme = open_file_scheme(path)
    try:
        report = scheme.store.backend.recovery_report
        assert report["replayed_transactions"] == 0
        assert report["checkpoint_lsn"] == report["lsn"] > len(TAPE)
        _assert_matches_twin(scheme, name)
    finally:
        scheme.store.backend.close()


#: The magic of the version each format had before — for page files and
#: logs the one before checkpoints wrote each image once, and the one
#: before that, before rows became zigzag deltas — how a reader names
#: it, the reader and what it raises.
PREVIOUS_VERSIONS = {
    "page file": (b"BOXPAGE3", "format-version-3 page file", FileBackend, PersistError),
    "page file v2": (b"BOXPAGE2", "format-version-2 page file", FileBackend, PersistError),
    "write-ahead log": (
        b"BOXWAL04", "format-version-4 write-ahead log", scan_wal, WALError
    ),
    "write-ahead log v3": (
        b"BOXWAL03", "format-version-3 write-ahead log", scan_wal, WALError
    ),
    "snapshot": (b"BOXS0001", "format-version-1 snapshot", load_scheme, PersistError),
}


@pytest.mark.parametrize("name", sorted(PREVIOUS_VERSIONS))
def test_the_previous_version_is_refused_by_name(tmp_path, name, capsys):
    """A file of an earlier version is refused with its version named,
    never decoded as the current layout; ``repro info`` names it too."""
    magic, message, reader, error = PREVIOUS_VERSIONS[name]
    path = tmp_path / "old"
    path.write_bytes(magic + bytes(8192))
    with pytest.raises(error, match=message):
        reader(str(path))
    if reader is not scan_wal:
        assert main(["info", str(path)]) == 1
        assert message in capsys.readouterr().err


if __name__ == "__main__":
    import tempfile

    for _name in sorted(FACTORIES):
        _target = os.path.join(GOLDEN_DIR, _name)
        os.makedirs(_target, exist_ok=True)
        with tempfile.TemporaryDirectory() as _workdir:
            for _artefact, _built in build_artefacts(_name, _workdir).items():
                shutil.copyfile(_built, os.path.join(_target, _artefact))
                print(_name, _artefact, os.path.getsize(_built))
