"""Batch execution engine: planning, BatchRef resolution, cost reporting,
and the element-level apply_edits wrapper."""

import pytest

from repro import (
    BatchExecutor,
    BatchOp,
    BatchRef,
    BBox,
    Element,
    LabeledDocument,
    parse,
    serialize,
)
from repro.config import TINY_CONFIG
from repro.core.batch import AmortizedCost, BatchResult
from repro.errors import LabelingError
from repro.storage.stats import OperationCost


def make_scheme():
    return BBox(TINY_CONFIG)


class TestBatchOp:
    def test_unknown_kind_rejected(self):
        with pytest.raises(LabelingError, match="unsupported batch op kind"):
            BatchOp("relabel_everything", (1,))

    def test_known_kinds_accepted(self):
        assert BatchOp("lookup", (0,)).kind == "lookup"
        assert BatchOp("insert_element_before", (BatchRef(0, 1),)).args[0].item == 1


class TestPlanning:
    def test_group_size_cap(self):
        scheme = make_scheme()
        scheme.bulk_load(10)
        executor = BatchExecutor(scheme, group_size=3)
        ops = [BatchOp("lookup", (0,))] * 8
        assert executor.plan(ops) == [[0, 1, 2], [3, 4, 5], [6, 7]]

    def test_invalid_group_size(self):
        with pytest.raises(LabelingError):
            BatchExecutor(make_scheme(), group_size=0)

    def test_locality_cut_on_block_change(self):
        scheme = make_scheme()
        scheme.bulk_load(10 * scheme.config.lidf_records_per_block)
        per_block = scheme.config.lidf_records_per_block
        executor = BatchExecutor(scheme, group_size=100)
        ops = [
            BatchOp("lookup", (0,)),
            BatchOp("lookup", (1,)),  # same LIDF block: same group
            BatchOp("lookup", (5 * per_block,)),  # far block: new group
        ]
        assert executor.plan(ops) == [[0, 1], [2]]

    def test_batchref_anchor_extends_group(self):
        scheme = make_scheme()
        scheme.bulk_load(10 * scheme.config.lidf_records_per_block)
        executor = BatchExecutor(scheme, group_size=100)
        ops = [
            BatchOp("insert_element_before", (1,)),
            BatchOp("insert_element_before", (BatchRef(0, 1),)),
            BatchOp("insert_element_before", (BatchRef(1, 0),)),
        ]
        assert executor.plan(ops) == [[0, 1, 2]]


class TestExecution:
    def test_results_in_submission_order(self):
        scheme = make_scheme()
        lids = scheme.bulk_load(20)
        executor = BatchExecutor(scheme, group_size=4)
        ops = [BatchOp("lookup", (lid,)) for lid in lids[:6]]
        result = executor.execute(ops)
        assert result.results == [scheme.lookup(lid) for lid in lids[:6]]
        assert result.op_count == 6
        assert sum(result.group_sizes) == 6

    def test_batchref_resolution_chain(self):
        scheme = make_scheme()
        lids = scheme.bulk_load(6)
        executor = BatchExecutor(scheme, group_size=64)
        ops = [
            BatchOp("insert_element_before", (lids[1],)),
            # Anchor on the previous op's end LID, then on that op's start.
            BatchOp("insert_element_before", (BatchRef(0, 1),)),
            BatchOp("lookup", (BatchRef(1, 0),)),
        ]
        result = executor.execute(ops)
        start_lid = result.results[1][0]
        assert result.results[2] == scheme.lookup(start_lid)
        scheme.check_invariants()

    def test_forward_ref_rejected(self):
        scheme = make_scheme()
        scheme.bulk_load(4)
        executor = BatchExecutor(scheme, group_size=64)
        ops = [
            BatchOp("lookup", (BatchRef(1),)),
            BatchOp("lookup", (0,)),
        ]
        with pytest.raises(LabelingError, match="refs must point backwards"):
            executor.execute(ops)

    def test_self_ref_rejected(self):
        scheme = make_scheme()
        scheme.bulk_load(4)
        executor = BatchExecutor(scheme, group_size=64)
        with pytest.raises(LabelingError, match="refs must point backwards"):
            executor.execute([BatchOp("lookup", (BatchRef(0),))])

    def test_group_costs_cover_all_io(self):
        scheme = make_scheme()
        lids = scheme.bulk_load(50)
        executor = BatchExecutor(scheme, group_size=8)
        before = scheme.stats.snapshot()
        ops = [BatchOp("insert_element_before", (lids[1],)) for _ in range(20)]
        result = executor.execute(ops)
        spent = scheme.stats.snapshot() - before
        assert result.total_cost == spent
        assert result.group_count == len(result.group_costs)

    def test_grouping_coalesces_io(self):
        """The point of the exercise: one commit scope per group means ops
        sharing blocks share I/O."""
        grouped, lids_g = make_scheme(), None
        single = make_scheme()
        lids_g = grouped.bulk_load(50)
        lids_s = single.bulk_load(50)
        ops_g = [BatchOp("insert_element_before", (lids_g[1],)) for _ in range(32)]
        ops_s = [BatchOp("insert_element_before", (lids_s[1],)) for _ in range(32)]
        cost_grouped = BatchExecutor(grouped, group_size=32).execute(ops_g).total_cost
        cost_single = BatchExecutor(single, group_size=1).execute(ops_s).total_cost
        assert cost_grouped.total < cost_single.total

    def test_execute_batch_on_scheme(self):
        scheme = make_scheme()
        lids = scheme.bulk_load(10)
        result = scheme.execute_batch([BatchOp("lookup", (lids[0],))])
        assert result.results == [scheme.lookup(lids[0])]


class TestCosts:
    def test_empty_batch(self):
        result = BatchResult()
        assert result.total_cost == OperationCost(0, 0)
        assert result.amortized_cost == AmortizedCost(0.0, 0.0)
        assert result.amortized_cost.total == 0.0

    def test_amortized_is_total_over_ops(self):
        result = BatchResult(
            results=[None] * 4,
            group_costs=[OperationCost(6, 2), OperationCost(2, 2)],
            group_sizes=[2, 2],
        )
        assert result.total_cost == OperationCost(8, 4)
        assert result.amortized_cost == AmortizedCost(2.0, 1.0)
        assert result.amortized_cost.total == 3.0


class TestApplyEdits:
    def doc(self):
        return LabeledDocument(BBox(TINY_CONFIG), parse("<r><a/><b/><c/></r>"))

    def test_matches_one_at_a_time_editing(self):
        batched = self.doc()
        stepwise = self.doc()
        b_new = [Element("x"), Element("y"), Element("z")]
        s_new = [Element("x"), Element("y"), Element("z")]

        a, b, c = batched.root.children
        batched.apply_edits(
            [
                ("insert_before", b_new[0], b),
                ("append_child", b_new[1], b_new[0]),
                ("delete", c),
                ("append_child", b_new[2], batched.root),
            ],
            group_size=8,
        )
        a2, b2, c2 = stepwise.root.children
        stepwise.insert_before(s_new[0], b2)
        stepwise.append_child(s_new[1], s_new[0])
        stepwise.delete_element(c2)
        stepwise.append_child(s_new[2], stepwise.root)

        assert serialize(batched.root) == serialize(stepwise.root)
        assert [batched.labels(e) for e in batched.root.iter()] == [
            stepwise.labels(e) for e in stepwise.root.iter()
        ]
        batched.verify_order()
        batched.scheme.check_invariants()

    def test_insert_then_delete_same_element(self):
        doc = self.doc()
        ghost = Element("ghost")
        before = serialize(doc.root)
        doc.apply_edits(
            [
                ("append_child", ghost, doc.root),
                ("delete", ghost),
            ]
        )
        assert serialize(doc.root) == before
        doc.verify_order()

    def test_rejects_sibling_of_root(self):
        doc = self.doc()
        with pytest.raises(LabelingError, match="sibling of the root"):
            doc.apply_edits([("insert_before", Element("x"), doc.root)])

    def test_rejects_non_atomic_new_element(self):
        doc = self.doc()
        new = parse("<x><inner/></x>")
        with pytest.raises(LabelingError, match="insert_subtree"):
            doc.apply_edits([("append_child", new, doc.root)])

    def test_rejects_unknown_anchor(self):
        doc = self.doc()
        with pytest.raises(LabelingError, match="not part of this document"):
            doc.apply_edits([("append_child", Element("x"), Element("stranger"))])

    def test_rejects_unknown_action(self):
        doc = self.doc()
        with pytest.raises(LabelingError, match="unknown edit action"):
            doc.apply_edits([("rename", doc.root.children[0])])

    def test_rejects_delete_of_unlabeled(self):
        doc = self.doc()
        with pytest.raises(LabelingError, match="unlabeled"):
            doc.apply_edits([("delete", Element("stranger"))])

    def test_failed_validation_leaves_document_untouched(self):
        doc = self.doc()
        before = serialize(doc.root)
        labels = [doc.labels(e) for e in doc.root.iter()]
        with pytest.raises(LabelingError):
            doc.apply_edits(
                [
                    ("append_child", Element("x"), doc.root),
                    ("insert_before", Element("y"), doc.root),  # invalid
                ]
            )
        # Validation runs before any scheme op executes, so nothing changed.
        assert serialize(doc.root) == before
        assert [doc.labels(e) for e in doc.root.iter()] == labels
