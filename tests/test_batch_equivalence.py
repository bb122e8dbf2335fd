"""Equivalence oracle: batched execution must be observationally identical
to one-by-one execution.

Group commit only moves commit points; it must never change a single label.
For arbitrary generated op sequences (element inserts anchored anywhere,
element deletes, lookups, pair lookups) the oracle runs the same sequence
twice — once through :class:`BatchExecutor` with a generated group size,
once interpreted op-by-op with no added scoping — on fresh schemes, then
demands identical op results, identical final labels for every live LID,
identical label counts, and clean structure invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import BatchExecutor, BatchOp, BatchRef, BBox, NaiveScheme, WBox, WBoxO
from repro.config import TINY_CONFIG
from repro.workloads import two_level_pairing

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEME_FACTORIES = {
    "W-BOX": lambda: WBox(TINY_CONFIG),
    "W-BOX-O": lambda: WBoxO(TINY_CONFIG),
    "B-BOX": lambda: BBox(TINY_CONFIG),
    "B-BOX-O": lambda: BBox(TINY_CONFIG, ordinal=True),
    "naive-4": lambda: NaiveScheme(4, TINY_CONFIG),
}

ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "lookup", "pair"]),
        st.integers(0, 2**20),
    ),
    min_size=1,
    max_size=40,
)


def build_ops(base_lids: list[int], base_children: int, actions) -> list[BatchOp]:
    """Translate an abstract action trace into a concrete BatchOp list.

    Anchors and delete targets are picked (by the action's index, modulo
    the live population) from elements alive at that point of the
    sequence; elements created earlier in the batch are addressed through
    BatchRefs, exactly as a client chaining edits would."""
    ops: list[BatchOp] = []
    # key -> (start anchor, end anchor); anchors are lids or BatchRefs.
    alive = {
        ("base", i): (base_lids[1 + 2 * i], base_lids[2 + 2 * i])
        for i in range(base_children)
    }
    root_end = base_lids[-1]
    for action, pick in actions:
        keys = sorted(alive)  # deterministic order
        if action == "insert":
            # Anchor before some live element's start tag, or the root end.
            anchor_pool = [alive[key][0] for key in keys] + [root_end]
            anchor = anchor_pool[pick % len(anchor_pool)]
            position = len(ops)
            ops.append(BatchOp("insert_element_before", (anchor,)))
            alive[("ins", position)] = (BatchRef(position, 0), BatchRef(position, 1))
        elif action == "delete":
            if not alive:
                continue
            key = keys[pick % len(keys)]
            start, end = alive.pop(key)
            ops.append(BatchOp("delete_element", (start, end)))
        elif action == "lookup":
            anchor_pool = [lid for key in keys for lid in alive[key]] + [root_end]
            ops.append(BatchOp("lookup", (anchor_pool[pick % len(anchor_pool)],)))
        else:  # pair
            if not alive:
                continue
            start, end = alive[keys[pick % len(keys)]]
            ops.append(BatchOp("lookup_pair", (start, end)))
    return ops


def run_one_by_one(scheme, ops: list[BatchOp]) -> list:
    """The oracle's reference interpreter: direct method calls, refs
    resolved by hand, no batch machinery in sight."""
    results: list = []
    for op in ops:
        args = []
        for arg in op.args:
            if isinstance(arg, BatchRef):
                value = results[arg.index]
                if arg.item is not None:
                    value = value[arg.item]
                args.append(value)
            else:
                args.append(arg)
        results.append(getattr(scheme, op.kind)(*args))
    return results


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
@given(
    base_children=st.integers(2, 10),
    actions=ACTIONS,
    group_size=st.integers(2, 16),
)
@RELAXED
def test_batched_equals_one_by_one(scheme_name, base_children, actions, group_size):
    factory = SCHEME_FACTORIES[scheme_name]
    n_tags = 2 * (base_children + 1)
    pairing = two_level_pairing(base_children)

    batched_scheme = factory()
    batched_lids = batched_scheme.bulk_load(n_tags, pairing)
    sequential_scheme = factory()
    sequential_lids = sequential_scheme.bulk_load(n_tags, pairing)
    assert batched_lids == sequential_lids

    ops = build_ops(batched_lids, base_children, actions)
    executor = BatchExecutor(batched_scheme, group_size=group_size)
    batched = executor.execute(ops)
    sequential = run_one_by_one(sequential_scheme, ops)

    # Same results op for op (lids allocated, labels read, pairs read).
    assert batched.results == sequential

    # Same structure afterwards: every live LID resolves to the same label.
    assert batched_scheme.label_count() == sequential_scheme.label_count()
    live_lids: set[int] = set(batched_lids)
    for op, result in zip(ops, batched.results):
        if op.kind == "insert_element_before":
            live_lids.update(result)
    deleted: set[int] = set()
    for op, result in zip(ops, sequential):
        if op.kind == "delete_element":
            resolved = []
            for arg in op.args:
                if isinstance(arg, BatchRef):
                    value = sequential[arg.index]
                    if arg.item is not None:
                        value = value[arg.item]
                    resolved.append(value)
                else:
                    resolved.append(arg)
            deleted.update(resolved)
    for lid in sorted(live_lids - deleted):
        assert batched_scheme.lookup(lid) == sequential_scheme.lookup(lid), lid

    if hasattr(batched_scheme, "check_invariants"):
        batched_scheme.check_invariants()
        sequential_scheme.check_invariants()
