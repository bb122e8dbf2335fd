"""Architecture guard: one on-disk representation, scheme-owned state.

How a node becomes bytes, how a page is read, and what a scheme's
persistent state is are each known in exactly one place:

* ``repro.storage.codec`` is the only block codec (no toggle, no second
  payload encoder/decoder) and ``FileBackend`` the only page-file backend
  (no ``backend_cls`` selection, no mmap variant, no remap hook);
* ``repro.persist`` knows no concrete scheme: no ``isinstance`` on a
  scheme, no import of a scheme module, no reach into a scheme's or the
  LIDF's private fields — each scheme supplies ``persist_state`` /
  ``restore_state`` / ``from_persisted``;
* a scheme name becomes a constructor call in ``repro.core.registry``
  and nowhere else in ``src/``.

The second half proves the point of that arrangement: a scheme defined
*in this file* joins the registry and is saved, loaded, crashed and
recovered by the unmodified program.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro import NaiveScheme
from repro.config import TINY_CONFIG
from repro.core import register_scheme, scheme_factory
from repro.errors import CrashError
from repro.faults import FaultInjector, FaultPlan
from repro.persist import (
    checkpoint_scheme,
    load_scheme,
    open_file_scheme,
    save_scheme,
)
from repro.storage import BlockStore, FileBackend

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

REMOVED_NAMES = re.compile(
    r"set_fast_codec|fast_codec_enabled|backend_cls|MmapBackend|register_remap_listener"
)
CONCRETE_SCHEMES = {
    "WBox",
    "WBoxO",
    "BBox",
    "NaiveScheme",
    "OrdPath",
    "AncestryScheme",
    "AncestryDynamic",
}
#: ``repro.core`` modules persist.py may import: the scheme interface and
#: registry, the document binding its ``save_document`` section stores,
#: and the batch module whose op rows are the tapes a log replays.
PERSIST_CORE_IMPORTS = {"core.interface", "core.registry", "core.document", "core.batch"}


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path, path.relative_to(SRC.parent).as_posix()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_removed_options_stay_removed():
    found = [
        f"{where}:{number}: {line.strip()}"
        for path, where in _sources()
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if REMOVED_NAMES.search(line)
    ]
    assert found == []


def test_codec_has_one_payload_encoder_and_one_decoder():
    tree = _parse(SRC / "storage" / "codec.py")
    names = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    encoders = [n for n in names if "encode" in n and "payload" in n]
    assert encoders == ["encode_block_payload"]
    # One decoder; decode_block_payload is its start-at-zero shorthand.
    decoders = [n for n in names if "decode" in n and "payload" in n]
    assert decoders == ["decode_block_payload_at", "decode_block_payload"]
    assert not (SRC / "storage" / "mmapbackend.py").exists()


def test_persist_knows_no_concrete_scheme():
    tree = _parse(SRC / "persist.py")
    found = []
    for node in ast.walk(tree):
        where = f"persist.py:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("core"):
            if node.module not in PERSIST_CORE_IMPORTS:
                found.append(f"{where} imports {node.module}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
        ):
            subject, classes = node.args
            named = {n.id for n in ast.walk(classes) if isinstance(n, ast.Name)}
            if ast.unparse(subject) == "scheme" or named & CONCRETE_SCHEMES:
                found.append(f"{where} {ast.unparse(node)}")
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and ast.unparse(node.value) in ("scheme", "lidf", "scheme.lidf")
        ):
            found.append(f"{where} reaches into {ast.unparse(node)}")
    assert found == []


def test_schemes_are_constructed_only_by_the_registry():
    found = []
    for path, where in _sources():
        if where == "repro/core/registry.py":
            continue
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in CONCRETE_SCHEMES
            ):
                found.append(f"{where}:{node.lineno} constructs {node.func.id}")
    assert found == []


# ----------------------------------------------------------------------
# extensibility: a scheme the program has never heard of
# ----------------------------------------------------------------------


class CountingNaive(NaiveScheme):
    """naive-k plus one extra piece of persistent state: how many
    ``insert_before`` calls this structure has ever served."""

    def __init__(self, config=None, store=None, gap_bits=8):
        super().__init__(gap_bits, config, store)
        self.inserts_served = 0

    def insert_before(self, lid_old):
        with self.store.operation():  # the counter commits with its insert
            self.inserts_served += 1
            return super().insert_before(lid_old)

    def persist_state(self):
        return {**super().persist_state(), "inserts_served": self.inserts_served}

    def restore_state(self, meta):
        super().restore_state(meta)
        self.inserts_served = meta["inserts_served"]

    @classmethod
    def from_persisted(cls, config, meta):
        return cls(config, gap_bits=meta["gap_bits"])


register_scheme(CountingNaive, {"counting-naive-4": {"gap_bits": 4}})


def _twin_labels(inserts):
    twin = NaiveScheme(4, TINY_CONFIG)
    lids = twin.bulk_load(12)
    for step in range(inserts):
        lids.append(twin.insert_before(lids[(step * 5) % len(lids)]))
    return [twin.lookup(lid) for lid in lids]


def _build(store=None):
    scheme = scheme_factory("counting-naive-4")(TINY_CONFIG, store)
    assert type(scheme) is CountingNaive and scheme.gap_bits == 4
    return scheme, scheme.bulk_load(12)


def test_toy_scheme_round_trips_a_snapshot(tmp_path):
    scheme, lids = _build()
    for step in range(9):
        lids.append(scheme.insert_before(lids[(step * 5) % len(lids)]))
    path = str(tmp_path / "toy.snapshot")
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert type(loaded) is CountingNaive
    assert loaded.inserts_served == 9 and loaded.gap_bits == 4
    assert [loaded.lookup(lid) for lid in lids] == _twin_labels(9)
    loaded.insert_before(lids[0])
    assert loaded.inserts_served == 10


@pytest.mark.parametrize("torn_write", range(40, 48))
def test_toy_scheme_recovers_from_a_crash(tmp_path, torn_write):
    path = str(tmp_path / "toy.pages")
    backend = FileBackend(path)
    scheme, lids = _build(BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    backend.install_faults(FaultInjector(FaultPlan.torn_write(at=torn_write), seed=0))
    completed, acked = 0, backend.lsn
    with pytest.raises(CrashError):
        for step in range(200):
            lids.append(scheme.insert_before(lids[(step * 5) % len(lids)]))
            completed, acked = completed + 1, backend.lsn
    backend.close()

    reopened = open_file_scheme(path)
    try:
        assert type(reopened) is CountingNaive
        # The torn write may have landed after the in-flight insert's
        # commit record reached the log; recovery then folds it, and the
        # LSN is past the last acknowledged one.
        served = completed + (reopened.store.backend.lsn > acked)
        assert reopened.inserts_served == served > 0
        labels = _twin_labels(served)
        assert [reopened.lookup(lid) for lid in lids] == labels[: len(lids)]
        reopened.insert_before(lids[0])
        assert reopened.inserts_served == served + 1
    finally:
        reopened.store.backend.close()
