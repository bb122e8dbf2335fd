"""Coverage for axis answers on label values alone (the query index) and
the achievable label-width estimators used by the label-bits benchmark."""

from repro import BBox, BoxConfig, LabeledDocument, TINY_CONFIG, WBox
from repro.config import BENCH_CONFIG
from repro.core.bits import bbox_bulk_label_bits, wbox_bulk_label_bits
from repro.query import EpochView, document_view
from repro.xml.generator import two_level_document


class TestAxisFunctions:
    def test_contains_function(self):
        view = EpochView.build([(1, 2), (3, 4)], [0, 9, 3, 4])
        assert list(view.descendants((1, 2))) == [(3, 4)]
        assert list(view.ancestors((3, 4))) == [(1, 2)]
        assert list(view.ancestors((1, 2))) == []

    def test_precedes_function(self):
        view = EpochView.build([(1, 2), (3, 4)], [0, 2, 5, 7])
        assert list(view.following((1, 2))) == [(3, 4)]
        assert list(view.following((3, 4))) == []
        # Nested intervals precede in neither direction.
        nested = EpochView.build([(1, 2), (3, 4)], [0, 9, 3, 4])
        assert list(nested.following((1, 2))) == []
        assert list(nested.following((3, 4))) == []

    def test_label_interval_matches_scheme(self):
        doc = LabeledDocument(WBox(TINY_CONFIG), two_level_document(5))
        view, element_of = document_view(doc, doc.elements())
        ordered = sorted(doc.elements(), key=lambda element: doc.labels(element))
        assert [element_of[pair] for pair in view.pairs] == ordered

    def test_intervals_from_tuple_labels(self):
        doc = LabeledDocument(BBox(TINY_CONFIG), two_level_document(5))
        child = doc.root.children[2]
        view, element_of = document_view(doc, [child, doc.root])
        root_pair, child_pair = view.pairs
        assert element_of[root_pair] is doc.root
        assert list(view.descendants(root_pair)) == [child_pair]


class TestBulkLabelWidthEstimators:
    def test_wbox_estimate_matches_fresh_bulk_load(self):
        for n_labels in (50, 400, 2000):
            scheme = WBox(BENCH_CONFIG)
            scheme.bulk_load(n_labels)
            assert scheme.label_bit_length() == wbox_bulk_label_bits(
                n_labels, BENCH_CONFIG
            )

    def test_bbox_estimate_matches_fresh_bulk_load(self):
        for n_labels in (50, 400, 2000):
            scheme = BBox(BENCH_CONFIG)
            scheme.bulk_load(n_labels)
            assert scheme.label_bit_length() == bbox_bulk_label_bits(
                n_labels, BENCH_CONFIG
            )

    def test_estimates_grow_logarithmically(self):
        small = wbox_bulk_label_bits(10_000, BENCH_CONFIG)
        large = wbox_bulk_label_bits(10_000_000, BENCH_CONFIG)
        assert small < large <= small + 32

    def test_degenerate_sizes(self):
        assert wbox_bulk_label_bits(0, BENCH_CONFIG) >= 1
        assert wbox_bulk_label_bits(1, BENCH_CONFIG) >= 1
        assert bbox_bulk_label_bits(0, BENCH_CONFIG) >= 1
        assert bbox_bulk_label_bits(1, BENCH_CONFIG) >= 1

    def test_paper_scale_fits_machine_word(self):
        # The projection the label-bits table relies on.
        assert wbox_bulk_label_bits(4_000_000, BENCH_CONFIG) <= 32
        assert bbox_bulk_label_bits(4_000_000, BENCH_CONFIG) <= 32

    def test_eight_kb_blocks_also_fit(self):
        config = BoxConfig()  # the paper's 8 KB blocks
        assert wbox_bulk_label_bits(4_000_000, config) <= 32
        assert bbox_bulk_label_bits(4_000_000, config) <= 32
