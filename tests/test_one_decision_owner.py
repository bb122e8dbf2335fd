"""Architecture guard: one owner per decision.

Each decision below has one owner, and the copies that used to sit
beside them are gone.  The ways they could grow back are checked by
walking ``src/repro`` with ``ast``:

* **What an injected fault kind does** belongs to
  ``FaultInjector.hit`` in ``repro/faults/plan.py``.  No module outside
  ``repro/faults/`` names a kind that a hook site would act on
  (``LATENCY``, ``IO_ERROR``, ``FSYNC_FAIL``, ``WRITER_CRASH``), and only
  the interpreter itself and the chaos driver's ``repl.*`` hooks call
  ``.fire(``; every hook site calls ``.hit(``.
* **The global-LID codec and batch routing** belong to
  ``repro/service/router.py``.  Nothing under ``repro/core/`` mentions
  shards, and no other module computes ``glid % n`` / ``glid // n`` /
  ``local * n + shard``.
* **Which counters a layer keeps** is declared once, as field names on
  a subclass of ``CounterSet`` (``repro/obs/metrics.py``), which alone
  zeroes, adds, resets and copies them.  No other class defines
  ``add`` / ``reset`` / ``snapshot`` over counter fields, and only
  ``obs/metrics.py`` keeps a live-instance set or registers a collector.
* **How a manifest reaches disk** belongs to ``write_json_atomic``: no
  other function calls ``json.dump``.
* **Every durable effect on a file** — opening it for writing, fsync,
  rename, truncate, unlink, copy — belongs to the file-system boundary,
  ``Disk`` in ``repro/storage/disk.py``.  No other module calls
  ``os.fsync`` / ``os.replace`` / ``os.rename`` / ``os.remove`` /
  ``os.unlink`` / ``shutil.copy*``, calls ``.truncate(`` on anything
  but a disk, or calls ``open(`` with a mode that writes, except the one
  simulator named in ``BOUNDARY_EXCEPTIONS``.
* **What a single-element edit checks** belongs to
  ``LabeledDocument.apply_edits``: ``insert_before``, ``append_child``
  and ``delete_element`` are one-edit calls to it and never reach the
  scheme themselves.
* **Repointing moved records' LIDF entries** belongs to
  ``HeapFile.write_many``, one read and one write per LIDF block: no
  ``lidf.write(`` call under ``repro/core/`` sits inside a loop or a
  comprehension, where it would cost a block read and write per record.
* **How a store is created and reopened** belongs to ``repro/persist.py``
  (``create_store`` / ``open_store``): no other module under ``src/``
  calls ``FileBackend(`` or ``open_file_scheme(``, and the CLI's old
  open/close helpers and persist's second attach/open entry points stay
  out of ``src/`` and ``benchmarks/`` (``benchmarks/e2e/`` excepted: its
  tracer's target table names functions it may outlive, and it is edited
  only with the benchmark).
* **Options no caller set** stay deleted: the removed names below are
  absent from ``src/``, and no query operator takes a ``fetch``.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

from repro.core.batch import BatchExecutor
from repro.core.cachelog import ModificationLog
from repro.obs.metrics import CounterSet
from repro.query import (
    containment_count,
    containment_join,
    containment_semijoin,
    twig_match,
    xpath,
)
from repro.repl.follower import Follower
from repro.service import (
    LabelService,
    ReaderSession,
    ServiceStats,
    ShardedLabelService,
    ShardedReaderSession,
)
from repro.storage import IOStats
from repro.storage.blockstore import BlockStore
from repro.workloads import read_op_stream

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ACTED_ON_KINDS = {"LATENCY", "IO_ERROR", "FSYNC_FAIL", "WRITER_CRASH"}
FIRE_CALLERS = {"faults/plan.py", "faults/chaos.py"}
BOUNDARY = "storage/disk.py"
#: Functions outside the boundary that may write a file, and why.
BOUNDARY_EXCEPTIONS = {
    ("faults/chaos.py", "_torn_append"): (
        "fakes the torn tail a kill leaves; a simulated crash, not a durable write"
    ),
}
FS_CALLS = {"os.fsync", "os.replace", "os.rename", "os.remove", "os.unlink"}
ROUTER = "service/router.py"
REMOVED_NAMES = (
    "apply_simple_action",
    "_fire_fault",
    "_fault_point",
    "_perform_fsync_fault",
    "_perform_write_fault",
    "_hook_write_site",
    "_fire_service_fault",
    "locality_grouping",
    "vectorized=",
    "self.vectorized",
    "reconnect_interval",
    "merge_routed_results",
    "globalize_results",
    "unregister_collector",
    "_splice_position",
    "iter_entries",
    "recompute_weight",
    "collect_service_samples",
    "collect_io_samples",
    "_LIVE_STATS",
    "add_default_collector",
    "_sync_raw",
    "_sync_dir",
    "_raw_write_at",
    "_persist(",
    "_trim_local",
    "_get_consistent",
    "self._get(",
    "_fallthrough(",
    "observe_lag",
    "batch_lookup",
    "batch_ordinal_lookup",
    '"batch_" +',
    "memoized_path_prefixes",
    '"commits", 0)',
    "reconnect_attempts",
    "def _exclusive",
    "replay_window",
    "_unflushed",
    "CHECKPOINT_LOG_BYTES",
    "fold_transaction",
    "apply_shipped",
    # The query operators read their labels once, into EpochView.
    "query.axes",
    "from .axes",
    "LabelInterval",
    "label_interval",
    "IntervalFetcher",
    "default_fetcher",
    "_Candidates",
    "brute_force_",
)
STORE_OPENER = "persist.py"
BENCHMARKS = SRC.parent.parent / "benchmarks"
REMOVED_STORE_OPENERS = (
    "attach_scheme_to_backend",
    "open_sharded_schemes",
    "make_scheme_on_store",
    "_open_schemes",
    "_open_service",
    "_finish_scheme",
    "_close_service",
)
COUNTER_METHODS = {"add", "reset", "snapshot"}
METRICS = "obs/metrics.py"
SINGLE_EDITS = ("insert_before", "append_child", "delete_element")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        yield path.relative_to(SRC).as_posix(), text, ast.parse(text, filename=str(path))


def _fault_violations() -> list[str]:
    found = []
    for rel, _text, tree in _modules():
        inside_faults = rel.startswith("faults/")
        for node in ast.walk(tree):
            where = f"{rel}:{getattr(node, 'lineno', 0)}"
            if not inside_faults:
                if isinstance(node, ast.Name) and node.id in ACTED_ON_KINDS:
                    found.append(f"{where} names {node.id}")
                elif isinstance(node, ast.Attribute) and node.attr in ACTED_ON_KINDS:
                    found.append(f"{where} names {node.attr}")
                elif isinstance(node, ast.alias) and node.name in ACTED_ON_KINDS:
                    found.append(f"{where} imports {node.name}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fire"
                and rel not in FIRE_CALLERS
            ):
                found.append(f"{where} calls .fire( instead of .hit(")
    return found


def _codec_violations() -> list[str]:
    found = []
    for rel, text, tree in _modules():
        if rel.startswith("core/"):
            found += [
                f"{rel}:{number} mentions shards"
                for number, line in enumerate(text.splitlines(), 1)
                if re.search("shard", line, re.IGNORECASE)
            ]
        if rel == ROUTER:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Mod, ast.FloorDiv, ast.Mult)):
                continue
            operands = [ast.unparse(node.left), ast.unparse(node.right)]
            if any("shard" in operand.lower() for operand in operands) or (
                not isinstance(node.op, ast.Mult) and "glid" in operands[0]
            ):
                found.append(f"{rel}:{node.lineno} computes the codec: {ast.unparse(node)}")
    return found


def _self_attrs(node: ast.AST) -> set[str]:
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "self"
    }


def _counter_method_violations() -> list[str]:
    """A method named add/reset/snapshot outside ``CounterSet`` that
    touches a declared counter, or bumps two attributes of ``self``."""
    declared = {
        name
        for kind in CounterSet.__subclasses__()
        for name in kind.COUNTERS + kind.MAXIMA
    }
    found = []
    for rel, _text, tree in _modules():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if rel == METRICS and cls.name == "CounterSet":
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name not in COUNTER_METHODS:
                    continue
                bumped = set().union(
                    *(_self_attrs(aug.target) for aug in ast.walk(method)
                      if isinstance(aug, ast.AugAssign))
                )
                touched = _self_attrs(method) & declared
                if touched or len(bumped) > 1:
                    where = f"{rel}:{method.lineno} {cls.name}.{method.name}"
                    found.append(f"{where} keeps counters {sorted(touched | bumped)}")
    return found


def _collector_violations() -> list[str]:
    found = []
    for rel, _text, tree in _modules():
        if rel == METRICS:
            continue
        for node in ast.walk(tree):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name in ("WeakSet", "register_collector"):
                found.append(f"{rel}:{getattr(node, 'lineno', 0)} uses {name}")
    return found


def _json_writer_violations() -> list[str]:
    found = []
    for rel, _text, tree in _modules():
        writer = [
            (f.lineno, f.end_lineno)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "write_json_atomic"
        ]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "json.dump"
                and not any(lo <= node.lineno <= hi for lo, hi in writer)
            ):
                found.append(f"{rel}:{node.lineno} writes JSON outside write_json_atomic")
    return found


def _writes_a_file(call: ast.Call) -> bool:
    """Whether a builtin ``open(`` call's mode writes (or is not a literal)."""
    if ast.unparse(call.func) != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r")
    )
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def _file_system_violations() -> list[str]:
    found = []
    for rel, _text, tree in _modules():
        if rel == BOUNDARY:
            continue
        exempt = [
            (f.lineno, f.end_lineno)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (rel, f.name) in BOUNDARY_EXCEPTIONS
        ]
        for node in ast.walk(tree):
            where = f"{rel}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module in ("os", "shutil"):
                found += [
                    f"{where} imports {alias.name}"
                    for alias in node.names
                    if f"os.{alias.name}" in FS_CALLS or alias.name.startswith("copy")
                ]
            if not isinstance(node, ast.Call) or any(
                lo <= node.lineno <= hi for lo, hi in exempt
            ):
                continue
            name = ast.unparse(node.func)
            if (
                name in FS_CALLS
                or name.startswith("shutil.copy")
                or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "truncate"
                    and not ast.unparse(node.func.value).endswith("disk")
                )
                or _writes_a_file(node)
            ):
                found.append(f"{where} calls {ast.unparse(node)} outside the Disk")
    return found


def _single_edit_violations() -> list[str]:
    tree = ast.parse((SRC / "core" / "document.py").read_text(encoding="utf-8"))
    (document,) = [
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LabeledDocument"
    ]
    methods = {n.name: n for n in document.body if isinstance(n, ast.FunctionDef)}
    found = []
    for name in SINGLE_EDITS:
        calls = {
            ast.unparse(node.func)
            for node in ast.walk(methods[name])
            if isinstance(node, ast.Call)
        }
        if calls != {"self.apply_edits"} or "scheme" in _self_attrs(methods[name]):
            found.append(f"LabeledDocument.{name} calls {sorted(calls)}")
    return found


LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _per_record_repoint_violations() -> list[str]:
    found = []
    for rel, _text, tree in _modules():
        if not rel.startswith("core/"):
            continue
        for loop in ast.walk(tree):
            if not isinstance(loop, LOOPS):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("lidf.write"):
                    found.append(f"{rel}:{node.lineno}: lidf.write in a loop")
    return sorted(set(found))


def _store_opener_violations() -> list[str]:
    found = [
        f"{rel}:{node.lineno} calls {name}("
        for rel, _text, tree in _modules()
        if rel != STORE_OPENER
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in ("FileBackend", "open_file_scheme")
        if ast.unparse(node.func).endswith(name)
    ]
    sources = [(f"src/repro/{rel}", text) for rel, text, _tree in _modules()]
    sources += [
        (path.relative_to(BENCHMARKS.parent).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(BENCHMARKS.rglob("*.py"))
        if "e2e" not in path.relative_to(BENCHMARKS).parts
    ]
    found += [
        f"{rel} names {name}"
        for rel, text in sources
        for name in REMOVED_STORE_OPENERS
        if name in text
    ]
    return found


def test_one_fault_interpreter():
    assert _fault_violations() == []


def test_core_knows_no_shards_and_only_the_router_computes_the_codec():
    assert _codec_violations() == []


def test_removed_names_stay_out_of_src():
    hits = [
        f"{rel}: {name}"
        for rel, text, _tree in _modules()
        for name in REMOVED_NAMES
        if name in text
    ]
    assert hits == []


def test_removed_options_and_accessors_are_gone():
    def params(cls):
        return set(inspect.signature(cls.__init__).parameters)

    assert {"locality_grouping", "vectorized"}.isdisjoint(params(BatchExecutor))
    assert "locality_grouping" not in params(LabelService)
    assert "locality_grouping" not in params(ShardedLabelService)
    assert "reconnect_interval" not in params(Follower)
    assert "mix" not in inspect.signature(read_op_stream).parameters
    legacy = ("_lru", "_protected", "_protected_capacity", "_probation_capacity")
    assert [name for name in legacy if hasattr(BlockStore, name)] == []
    # Sessions read through ``resolve`` only: an ordinal is
    # ``lookup_many(lids, ORDINAL_CHANNEL)``.
    sessions = (ReaderSession, ShardedReaderSession)
    assert [kind for kind in sessions if hasattr(kind, "ordinal_lookup")] == []
    # One replay: the live log is read through the snapshot type the
    # service publishes.
    assert not hasattr(ModificationLog, "replay")
    # Query operators read labels into one EpochView, never per element.
    operators = (containment_join, containment_semijoin, containment_count, twig_match, xpath)
    assert [op for op in operators if "fetch" in inspect.signature(op).parameters] == []


def test_counters_are_declared_once():
    assert _counter_method_violations() == []
    for kind in (IOStats, ServiceStats):
        assert {"__init__", "add", "reset", "snapshot", "__slots__"}.isdisjoint(vars(kind))


def test_only_the_metrics_module_collects_live_instances():
    assert _collector_violations() == []


def test_one_json_manifest_writer():
    assert _json_writer_violations() == []


def test_one_file_system_boundary():
    assert _file_system_violations() == []


def test_single_element_edits_go_through_apply_edits():
    assert _single_edit_violations() == []


def test_one_store_opener():
    assert _store_opener_violations() == []


def test_lidf_repointing_is_per_block():
    assert _per_record_repoint_violations() == []
