"""Soak tests: realistic block sizes, thousands of operations, every
invariant checked at the end.  These run in seconds but cover orders of
magnitude more state transitions than the unit tests."""

import random

import pytest

from repro import BBox, BoxConfig, LabeledDocument, NaiveScheme, WBox, WBoxO
from repro.xml.xmark import xmark_document
from benchmarks.churn import run_churn

from .conftest import verify_document

SOAK_CONFIG = BoxConfig(block_bytes=512)

FACTORIES = {
    "wbox": lambda: WBox(SOAK_CONFIG),
    "wbox-ordinal": lambda: WBox(SOAK_CONFIG, ordinal=True),
    "wboxo": lambda: WBoxO(SOAK_CONFIG),
    "bbox": lambda: BBox(SOAK_CONFIG),
    "bbox-ordinal": lambda: BBox(SOAK_CONFIG, ordinal=True),
    "naive-8": lambda: NaiveScheme(8, SOAK_CONFIG),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_churn_soak(name):
    scheme = FACTORIES[name]()
    result = run_churn(scheme, base_elements=800, operations=2500, seed=3)
    assert len(result.costs) == 2500
    assert result.final_labels == scheme.label_count() > 0
    if hasattr(scheme, "check_invariants"):
        scheme.check_invariants()


@pytest.mark.parametrize("name", ["wbox", "bbox", "wboxo"])
def test_xmark_editing_soak(name):
    scheme = FACTORIES[name]()
    doc = LabeledDocument(scheme, xmark_document(40, seed=8))
    rng = random.Random(21)
    from repro.xml.generator import random_document
    from repro.xml.model import Element

    elements = [element for element in doc.elements() if element is not doc.root]
    subtrees = []
    for step in range(600):
        roll = rng.random()
        if roll < 0.45:
            anchor = rng.choice(elements)
            new = Element(f"s{step}")
            doc.insert_before(new, anchor)
            elements.append(new)
        elif roll < 0.7 and len(elements) > 50:
            victim = elements.pop(rng.randrange(len(elements)))
            if victim in doc._start_lids:
                doc.delete_element(victim)
        elif roll < 0.85:
            subtree = random_document(rng.randint(3, 25), seed=step)
            doc.append_subtree(subtree, rng.choice(elements))
            subtrees.append(subtree)
        elif subtrees:
            subtree = subtrees.pop(rng.randrange(len(subtrees)))
            if subtree in doc._start_lids:
                doc.delete_subtree(subtree)
                for descendant in subtree.iter():
                    if descendant in elements:
                        elements.remove(descendant)
    verify_document(doc)


def test_deep_structure_soak():
    """Enough labels for height >= 3 at 512-byte blocks, then heavy edits."""
    scheme = BBox(SOAK_CONFIG)
    lids = list(scheme.bulk_load(30_000))
    assert scheme.height >= 2
    rng = random.Random(9)
    for _ in range(1500):
        if rng.random() < 0.5 and len(lids) > 1000:
            scheme.delete(lids.pop(rng.randrange(len(lids))))
        else:
            lids.append(scheme.insert_before(rng.choice(lids)))
    scheme.check_invariants()
    sample = sorted(rng.sample(range(len(lids)), 50))
    # Spot-check a strict order over a sample via compare().
    for first, second in zip(sample, sample[1:]):
        assert scheme.compare(lids[first], lids[first]) == 0
    labels = [scheme.lookup(lid) for lid in lids[:200]]
    assert len(set(labels)) == 200
