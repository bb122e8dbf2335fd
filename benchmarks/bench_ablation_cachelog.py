"""Ablation for Section 6: caching + logging effectiveness vs. log length.

The paper proposes the technique ("a log with k entries gives roughly a
k-fold boost in the effectiveness of caching") and defers measurements to
future work; this bench supplies them.  A read-heavy consumer resolves a
working set of label references while a writer streams single-element
updates; we sweep the log capacity k and report the cache hit rate and the
I/O spent per read.
"""

import random

import pytest

from repro import CachedLabelStore, LabeledDocument, WBox
from repro.xml.generator import two_level_document
from repro.xml.model import Element

from benchmarks.conftest import BENCH_CONFIG, SCALE, fmt, record_table

LOG_CAPACITIES = [0, 1, 8, 64, 512]
READS_PER_UPDATE = 4


def run_mix(log_capacity: int, rounds: int):
    scheme = WBox(BENCH_CONFIG)
    doc = LabeledDocument(scheme, two_level_document(SCALE["base"] // 4))
    cache = CachedLabelStore(scheme, log_capacity=log_capacity)
    rng = random.Random(7)
    working_set = rng.sample(list(doc.elements()), 100)
    refs = [cache.reference(doc.start_lid(element)) for element in working_set]
    # A steady single-location update stream: only one in ~Theta(B) updates
    # splits a leaf (the paper's premise for invalidations being rare).  A
    # writer that scattered over the freshly bulk-loaded document would
    # split a full leaf on nearly every update instead.
    anchor = doc.root.children[len(doc.root.children) // 2]

    read_io = 0
    reads = 0
    for round_number in range(rounds):
        anchor = doc.insert_before(Element(f"u{round_number}"), anchor)
        before = scheme.stats.snapshot()
        for _ in range(READS_PER_UPDATE):
            ref = rng.choice(refs)
            value = cache.get(ref)
            assert value == scheme.lookup(ref.lid)  # correctness while measuring
            reads += 1
        # Subtract the verification lookups (constant 2 I/Os each).
        read_io += (scheme.stats.snapshot() - before).total - 2 * READS_PER_UPDATE
    return cache.counters.repair_hit_ratio, read_io / reads


@pytest.mark.parametrize("capacity", LOG_CAPACITIES)
def test_cache_hit_rate_grows_with_log(benchmark, capacity):
    hit_rate, io_per_read = benchmark.pedantic(
        lambda: run_mix(capacity, rounds=300), rounds=1, iterations=1
    )
    benchmark.extra_info["hit_rate"] = hit_rate
    benchmark.extra_info["io_per_read"] = io_per_read
    assert 0.0 <= hit_rate <= 1.0


def test_cachelog_table(benchmark):
    def build():
        rows = []
        for capacity in LOG_CAPACITIES:
            hit_rate, io_per_read = run_mix(capacity, rounds=300)
            rows.append([capacity, fmt(hit_rate, 3), fmt(io_per_read, 3)])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    record_table(
        "ablation_cachelog",
        "Section 6 ablation: read-heavy mix (4 reads per update, 100-ref "
        "working set) — cache hit rate and extra I/O per read vs. log "
        "capacity k (k=0 is the basic single-timestamp approach)",
        ["log capacity k", "hit rate", "I/O per read"],
        rows,
    )
    by_capacity = {row[0]: (float(row[1]), float(row[2])) for row in rows}
    # Monotone improvement: larger logs keep more cached labels repairable.
    assert by_capacity[512][0] > by_capacity[8][0] > by_capacity[0][0]
    assert by_capacity[512][1] < by_capacity[0][1]
    # With a large log, reads are almost free.
    assert by_capacity[512][0] > 0.9
