"""Architecture guard: one owner per page file.

``FileBackend`` keeps blocks and allocation; the tail of every directory
image and every DELTA belongs to its one ``owner`` (see
``repro.storage.owner``): a ``FoldedOwner`` until ``repro.persist``
attaches a scheme's journal.  What a scheme's persistent state is — the
LIDF directory, the scheme's integers and metadata, replication's stamp
— is therefore known outside ``storage/filebackend.py`` and
``storage/wal.py``.  The ways the old arrangement could grow back are
checked here:

* either module naming the owner's state or importing the LIDF;
* a second owner-facing attribute on a backend;
* a removed name reappearing in ``src/``;
* a follower applying a shipped transaction any other way than the one
  replay recovery runs, or reaching for a whole-structure header to do
  it;
* an interpreter of the LIDF journal's op codes besides the test
  reference (a replay compares journals, it never folds one).

A bare backend (no scheme attached) must still write the bytes it wrote
before the owner existed; the digests below were recorded then, and
recorded again when the log went to version 3 (a bare backend's commits,
which carry no tape, became checkpoints).
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import os
import re
import shutil
from pathlib import Path

import pytest

from repro.storage import FileBackend, scan_wal

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
OWNER_WORDS = re.compile(r"\b(lidf|scalars|annotation|persist_state)\b", re.IGNORECASE)
REMOVED_ATTRIBUTES = ("metadata", "scalars", "lidf_state", "journal", "annotation")
REMOVED_NAMES = (
    "restore_journaled_scalars",
    "directory_view",
    "adopt_view",
    "allocate_pair",
)
LIDF_OP_CODES = {"_J_TAIL", "_J_POP", "_J_FREE", "_J_BLOCK"}


@pytest.mark.parametrize("module", ["filebackend.py", "wal.py"])
def test_storage_modules_know_nothing_of_the_owner(module):
    text = (SRC / "storage" / module).read_text(encoding="utf-8")
    words = [
        f"{module}:{number}: {match.group(0)}"
        for number, line in enumerate(text.splitlines(), 1)
        for match in OWNER_WORDS.finditer(line)
    ]
    assert words == []
    imported = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "heapfile" in name] == []


def test_a_backend_has_one_owner_facing_attribute(tmp_path):
    backend = FileBackend(str(tmp_path / "bare.pages"))
    try:
        assert backend.owner is not None
        assert [name for name in REMOVED_ATTRIBUTES if hasattr(backend, name)] == []
    finally:
        backend.close()


def test_removed_names_stay_out_of_src():
    hits = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in REMOVED_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert hits == []


def test_the_follower_applies_through_the_one_replay():
    from repro.persist import replay_transaction
    from repro.repl.follower import ShardFollower

    assert not hasattr(FileBackend, "apply_shipped")
    assert list(inspect.signature(replay_transaction).parameters) == ["scheme", "txn"]
    assert "replay_transaction(self.scheme, txn)" in inspect.getsource(ShardFollower._apply_txn)


def test_one_function_compares_against_the_lidf_journal_op_codes():
    """The one interpreter is the test reference: a replay compares the
    journals it re-creates, so no function in ``src/`` reads the ops."""
    reference = Path(__file__).resolve().parent / "lidf_reference.py"
    found = []
    for path in sorted(SRC.rglob("*.py")) + [reference]:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(compare, ast.Compare)
                and {name.id for name in ast.walk(compare) if isinstance(name, ast.Name)}
                & LIDF_OP_CODES
                for compare in ast.walk(node)
            ):
                found.append(f"{path.relative_to(SRC.parent.parent).as_posix()}:{node.name}")
    assert found == ["tests/lidf_reference.py:fold_lidf_journal"]


@pytest.mark.parametrize("name", ["wbox", "naive-8"])
def test_a_shipped_delta_folds_straight_into_the_live_scheme(tmp_path, monkeypatch, name):
    """A follower's apply: the committed checkpoint image from before the
    tape takes the tape's segment transaction by transaction — each tape
    re-run — without a whole-structure header either way, and ends up
    the memory twin."""
    from repro import persist

    from .test_format_pin import GOLDEN_DIR, _assert_matches_twin

    path = str(tmp_path / "replica.pages")
    shutil.copyfile(os.path.join(GOLDEN_DIR, name, "base.pages"), path)
    scheme = persist.open_file_scheme(path)
    backend = scheme.store.backend

    def refuse(*args):
        raise AssertionError("an O(structure) call on the apply path")

    monkeypatch.setattr(persist, "scheme_metadata_header", refuse)
    monkeypatch.setattr(persist, "restore_scheme_state", refuse)
    segment = scan_wal(os.path.join(GOLDEN_DIR, name, "segment.wal"))
    assert all(persist.replay_transaction(scheme, txn) for txn in segment.transactions)
    monkeypatch.undo()
    try:
        _assert_matches_twin(scheme, name)
    finally:
        backend.close()


def _digest(path):
    digest = hashlib.sha256()
    for name in (path, path + ".wal"):
        if os.path.exists(name):
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def test_a_bare_backend_writes_the_bytes_it_always_did(tmp_path):
    """Commits (each a checkpoint: no tape), a checkpoint, a reopen and an
    unattached checkpoint of the reopened state, with no scheme anywhere."""
    path = str(tmp_path / "bare.pages")
    backend = FileBackend(path)
    ids = [backend.allocate([i] * (i + 1)) for i in range(6)]
    backend.commit(ids)
    backend.free(ids[2])
    backend.commit([ids[0]])
    digests = [_digest(path)]
    backend.checkpoint()
    digests.append(_digest(path))
    backend.commit([backend.allocate([i]) for i in range(3)])
    backend.close()
    reopened = FileBackend(path)
    reopened.commit([reopened.allocate([7, 7])])
    digests.append(_digest(path))
    reopened.checkpoint()
    digests.append(_digest(path))
    reopened.close()
    # Restated with page-file version 4 (shadow extents, two header
    # slots): a checkpoint with nothing dirty still writes a fresh
    # directory extent and flips a slot, so every digest differs.
    assert digests == [
        "1b4f732304172704",
        "ae6136114984ff57",
        "cb3ff8ff793c19e5",
        "9f09d28a6a16c754",
    ]
