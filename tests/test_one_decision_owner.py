"""Architecture guard: one owner per decision.

Three decisions each have one owner, and the copies that used to sit
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
* **Options no caller set** stay deleted: the removed names below are
  absent from ``src/``.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

from repro.core.batch import BatchExecutor
from repro.repl.follower import Follower
from repro.service import LabelService, ShardedLabelService
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
)


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
