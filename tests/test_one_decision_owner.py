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
* **What a single-element edit checks** belongs to
  ``LabeledDocument.apply_edits``: ``insert_before``, ``append_child``
  and ``delete_element`` are one-edit calls to it and never reach the
  scheme themselves.
* **Options no caller set** stay deleted: the removed names below are
  absent from ``src/``.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

from repro.core.batch import BatchExecutor
from repro.obs.metrics import CounterSet
from repro.repl.follower import Follower
from repro.service import LabelService, ServiceStats, ShardedLabelService
from repro.storage import IOStats
from repro.storage.blockstore import BlockStore

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ACTED_ON_KINDS = {"LATENCY", "IO_ERROR", "FSYNC_FAIL", "WRITER_CRASH"}
FIRE_CALLERS = {"faults/plan.py", "faults/chaos.py"}
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
    legacy = ("_lru", "_protected", "_protected_capacity", "_probation_capacity")
    assert [name for name in legacy if hasattr(BlockStore, name)] == []


def test_counters_are_declared_once():
    assert _counter_method_violations() == []
    for kind in (IOStats, ServiceStats):
        assert {"__init__", "add", "reset", "snapshot", "__slots__"}.isdisjoint(vars(kind))


def test_only_the_metrics_module_collects_live_instances():
    assert _collector_violations() == []


def test_one_json_manifest_writer():
    assert _json_writer_violations() == []


def test_single_element_edits_go_through_apply_edits():
    assert _single_edit_violations() == []
