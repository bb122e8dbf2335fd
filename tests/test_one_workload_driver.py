"""Architecture guard: one workload layer under ``repro/workloads/``.

A sequence is a tape (``concentrated_tape`` ...) and ``run_tape`` is the
only code that executes one; one-by-one measurement is the tape at
``group_size=1``, not a second runner.  ``run_stress`` is the only load
generator: one ``ShardedLabelService`` (N >= 1), readers beside writers.
The ways the old twins could grow back are checked by walking the source:

* a removed name (``run_concentrated_batched``, ``BatchedWorkloadResult``,
  ``run_service_stress``, ``--total-ops`` ...) reappearing in ``src/`` or
  ``benchmarks/``;
* a second function under ``repro/workloads/`` starting threads, building
  a service, or calling ``execute_batch(``;
* ``cli.py`` forking on ``args.shards`` inside ``cmd_stress`` or on
  ``args.sequence`` anywhere but the one name -> runner table;
* the runners drifting from one-by-one execution: at ``group_size=1`` each
  must cost exactly what a loop of direct scheme calls under
  ``store.measured()`` costs (the reference loops live here, as
  ``tests/codec_reference.py`` does for the codec).
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from repro import TINY_CONFIG
from repro.cli import SEQUENCES, build_parser
from repro.core import scheme_factory
from repro.workloads import (
    run_churn,
    run_concentrated,
    run_scattered,
    run_xmark_build,
    two_level_pairing,
)
from repro.xml.xmark import xmark_document

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = SRC / "repro" / "workloads"
REMOVED_NAMES = (
    "run_concentrated_batched",
    "run_scattered_batched",
    "run_xmark_build_batched",
    "BatchedWorkloadResult",
    "run_service_stress",
    "run_sharded_write_stress",
    "run_query_stress",
    "ServiceStressResult",
    "ShardedStressResult",
    "QueryStressResult",
    "_start_stress_service",
    "_stress_writers",
    "_stress_readers",
    "total_ops",
    "total-ops",
    "subtree_tags_and_pairing",
    "element_insert_order",
)
REMOVED_BENCHES = ("service_throughput", "shard_scaling", "query_streams")


def _functions_calling(name: str) -> list[str]:
    """Outermost functions/methods under ``repro/workloads/`` whose body
    calls ``name(...)`` (a nested helper counts towards its enclosing
    function)."""
    found = []
    for path in sorted(WORKLOADS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = list(tree.body)
        while scopes:
            node = scopes.pop()
            if isinstance(node, ast.ClassDef):
                scopes.extend(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
                for call in ast.walk(node)
            ):
                found.append(f"{path.name}:{node.name}")
    return found


def _is_args_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    )


def test_removed_names_stay_out_of_src_and_benchmarks():
    sources = sorted(SRC.rglob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    hits = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sources
        for name in REMOVED_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert hits == []
    leftovers = [
        path.name
        for path in sorted((ROOT / "benchmarks").rglob("*"))
        if any(bench in path.name for bench in REMOVED_BENCHES)
    ]
    assert leftovers == []
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stress", "--total-ops", "10"])


@pytest.mark.parametrize(
    "call,owner",
    [
        ("Thread", "sequences.py:run_stress"),
        ("ShardedLabelService", "sequences.py:run_stress"),
        ("execute_batch", "sequences.py:run_tape"),
    ],
)
def test_one_function_owns_each_mechanism(call, owner):
    assert _functions_calling(call) == [owner]


def test_cli_does_not_fork_on_shards_or_sequence():
    tree = ast.parse((SRC / "repro" / "cli.py").read_text(encoding="utf-8"))
    (cmd_stress,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_stress"
    ]
    shard_forks = [
        node.lineno
        for node in ast.walk(cmd_stress)
        if isinstance(node, (ast.Compare, ast.If, ast.IfExp, ast.Match))
        and any(_is_args_attr(sub, "shards") for sub in ast.walk(node))
    ]
    assert shard_forks == []
    # ``args.sequence`` is read exactly once, as the key into SEQUENCES.
    uses = [node for node in ast.walk(tree) if _is_args_attr(node, "sequence")]
    lookups = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and getattr(node.value, "id", None) == "SEQUENCES"
        and _is_args_attr(node.slice, "sequence")
    ]
    assert len(uses) == 1 and len(lookups) == 1
    parser = build_parser()
    for name in SEQUENCES:
        assert parser.parse_args(["workload", name]).sequence == name
    with pytest.raises(SystemExit):
        parser.parse_args(["workload", "bogus"])


# -- the one-by-one reference: direct scheme calls, one measured scope each --


def _measured(scheme, method, *lids):
    with scheme.store.measured() as op:
        result = getattr(scheme, method)(*lids)
    return result, op.total


def _two_level(scheme, n_children):
    return scheme.bulk_load(2 * (n_children + 1), two_level_pairing(n_children))


def reference_concentrated(scheme, base_elements, insert_elements):
    lids = _two_level(scheme, base_elements)
    (_, anchor), cost = _measured(scheme, "insert_element_before", lids[-1])
    costs = [cost]
    for index in range(1, insert_elements):
        (start_lid, _), cost = _measured(scheme, "insert_element_before", anchor)
        costs.append(cost)
        if index % 2 == 0:
            anchor = start_lid
    return costs


def reference_scattered(scheme, base_elements, insert_elements):
    lids = _two_level(scheme, base_elements)
    step = base_elements / insert_elements
    return [
        _measured(scheme, "insert_element_before", lids[1 + 2 * int(index * step)])[1]
        for index in range(insert_elements)
    ]


def reference_xmark_build(scheme, document, prime_fraction):
    elements = list(document.iter())
    prime_count = int(len(elements) * prime_fraction)
    end_lids = {document: scheme.bulk_load(2, [1, 0])[1]}
    costs = []
    for index, element in enumerate(elements[1:], start=1):
        (_, end_lid), cost = _measured(
            scheme, "insert_element_before", end_lids[element.parent]
        )
        end_lids[element] = end_lid
        if index >= prime_count:
            costs.append(cost)
    return costs


def reference_churn(scheme, base_elements, operations, delete_fraction, seed):
    lids = _two_level(scheme, base_elements)
    rng = random.Random(seed)
    elements = [(lids[1 + 2 * i], lids[2 + 2 * i]) for i in range(base_elements)]
    costs = []
    for _ in range(operations):
        if rng.random() < delete_fraction and len(elements) > base_elements // 4:
            pair = elements.pop(rng.randrange(len(elements)))
            _, cost = _measured(scheme, "delete_element", *pair)
        else:
            anchor_start, _ = elements[rng.randrange(len(elements))]
            pair, cost = _measured(scheme, "insert_element_before", anchor_start)
            elements.append(pair)
        costs.append(cost)
    return costs


@pytest.mark.parametrize("scheme_name", ["wbox", "bbox", "naive-8", "ordpath"])
def test_group_size_one_is_one_by_one_execution(scheme_name):
    def fresh():
        return scheme_factory(scheme_name)(TINY_CONFIG, None)

    document = xmark_document(3, seed=5)
    pairs = [
        (run_concentrated(fresh(), 60, 50), reference_concentrated(fresh(), 60, 50)),
        (run_scattered(fresh(), 60, 40), reference_scattered(fresh(), 60, 40)),
        (
            run_xmark_build(fresh(), 3, prime_fraction=0.6, document=document),
            reference_xmark_build(fresh(), document, 0.6),
        ),
        (
            run_xmark_build(fresh(), 3, prime_fraction=0.0, document=document),
            reference_xmark_build(fresh(), document, 0.0),
        ),
        (run_churn(fresh(), 40, 120, 0.5, seed=4), reference_churn(fresh(), 40, 120, 0.5, 4)),
    ]
    for result, reference in pairs:
        assert result.group_size == 1 and result.costs == reference, result.workload
        assert result.op_count == result.group_count == len(reference)
        assert result.total == sum(reference)


@pytest.mark.parametrize("group_size", [1, 7, 64])
def test_priming_drops_exactly_the_groups_that_start_in_the_prefix(group_size):
    document = xmark_document(3, seed=5)

    def build(prime_fraction):
        scheme = scheme_factory("bbox")(TINY_CONFIG, None)
        return run_xmark_build(
            scheme, 3, prime_fraction, document=document, group_size=group_size
        )

    whole, primed = build(0.0), build(0.6)
    first_measured_op = int((whole.op_count + 1) * 0.6) - 1
    starts = [sum(whole.batch.group_sizes[:g]) for g in range(whole.group_count)]
    kept = [g for g, start in enumerate(starts) if start >= first_measured_op]
    assert kept and kept[0] > 0
    assert primed.costs == whole.costs[kept[0]:]
    assert primed.batch.group_sizes == whole.batch.group_sizes[kept[0]:]
    assert primed.op_count == whole.op_count - starts[kept[0]]
    assert primed.final_labels == whole.final_labels
