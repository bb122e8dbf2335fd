"""Linearizability-style trace equivalence for the live (real-thread) service.

One writer feeds deterministic churn batches through the bounded queue,
one submitted batch at a time, while reader threads record a trace of
(operation, arguments, result, session pin after the read).  Afterwards
the same batches replay on a fresh scheme through a plain
:class:`BatchExecutor` with identical group parameters, snapshotting every
tracked label after each batch — batch ``k``'s snapshot is the ground
truth for epoch ``k``, because a batch submitted alone is one writer
wake-up, and the service publishes exactly one epoch per wake-up however
many groups the batch has.

Equivalence demanded, per scheme variant (W-BOX, W-BOX-O, B-BOX,
B-BOX-O, naive-k):

* every recorded read matches the oracle's row for the session's pin —
  regardless of how the OS actually interleaved the threads;
* every write ticket's results equal the oracle executor's results
  (same LIDs allocated, same labels);
* the final structure agrees with the oracle on every base LID.

The interleaving sweep (test_interleavings) proves the protocol over
*enumerated* schedules; this test checks the *real* locks, queue, and
writer thread under genuine preemption.
"""

from __future__ import annotations

import random
import threading

from repro import BatchExecutor, BatchOp, BatchRef, BBox, NaiveScheme, WBox, WBoxO
from repro.config import TINY_CONFIG
from repro.service import LabelService
from repro.workloads import two_level_pairing

import pytest

SCHEME_FACTORIES = {
    "W-BOX": lambda: WBox(TINY_CONFIG),
    "W-BOX-O": lambda: WBoxO(TINY_CONFIG),
    "B-BOX": lambda: BBox(TINY_CONFIG),
    "B-BOX-O": lambda: BBox(TINY_CONFIG, ordinal=True),
    "naive-4": lambda: NaiveScheme(4, TINY_CONFIG),
}

BASE_CHILDREN = 6
GROUP_SIZE = 4
N_BATCHES = 6
READERS = 2
READS_PER_READER = 80


def churn_batch(anchor_lid: int) -> list[BatchOp]:
    """4 element inserts before ``anchor_lid``, then delete 2 of them:
    the structure both grows and frees LIDs, base elements stay live."""
    ops = [BatchOp("insert_element_before", (anchor_lid,)) for _ in range(4)]
    ops.append(BatchOp("delete_element", (BatchRef(0, 0), BatchRef(0, 1))))
    ops.append(BatchOp("delete_element", (BatchRef(2, 0), BatchRef(2, 1))))
    return ops


def order(label1, label2) -> int:
    return (label1 > label2) - (label1 < label2)


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
def test_concurrent_trace_matches_single_threaded_oracle(scheme_name):
    factory = SCHEME_FACTORIES[scheme_name]
    n_tags = 2 * (BASE_CHILDREN + 1)
    pairing = two_level_pairing(BASE_CHILDREN)

    # ---- live run: real threads, real latch, real queue ----------------
    scheme = factory()
    lids = scheme.bulk_load(n_tags, pairing)
    batches = [churn_batch(lids[3]) for _ in range(N_BATCHES)]

    observations: list[list[tuple]] = [[] for _ in range(READERS)]
    writer_done = threading.Event()

    service = LabelService(scheme, log_capacity=256, group_size=GROUP_SIZE)

    def reader(index: int) -> None:
        session = service.session()
        rng = random.Random(index)
        recorded = 0
        while recorded < READS_PER_READER or not writer_done.is_set():
            kind = rng.choice(("lookup", "pair", "compare", "refresh"))
            if kind == "refresh":
                session.refresh()
                continue
            if kind == "lookup":
                lid = lids[rng.randrange(len(lids))]
                (value,) = session.resolve((lid,))
                observations[index].append(("lookup", (lid,), value, session.epoch.number))
            elif kind == "pair":
                child = rng.randrange(BASE_CHILDREN)
                start_lid, end_lid = lids[1 + 2 * child], lids[2 + 2 * child]
                value = tuple(session.resolve((start_lid, end_lid)))
                observations[index].append(
                    ("pair", (start_lid, end_lid), value, session.epoch.number)
                )
            else:
                lid1 = lids[rng.randrange(len(lids))]
                lid2 = lids[rng.randrange(len(lids))]
                value = order(*session.resolve((lid1, lid2)))
                observations[index].append(
                    ("compare", (lid1, lid2), value, session.epoch.number)
                )
            recorded += 1
            if recorded >= READS_PER_READER and writer_done.is_set():
                break

    threads = [
        threading.Thread(target=reader, args=(i,), daemon=True) for i in range(READERS)
    ]
    ticket_results = []
    with service:
        for thread in threads:
            thread.start()
        for batch in batches:
            ticket = service.submit_ops(batch, timeout=30)
            ticket_results.append(ticket.wait(timeout=30))
        writer_done.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "reader thread hung"

    # ---- oracle: same batches, single thread, plain executor -----------
    oracle = factory()
    oracle_lids = oracle.bulk_load(n_tags, pairing)
    assert oracle_lids == lids

    history: dict[int, dict[int, object]] = {
        0: {lid: oracle.lookup(lid) for lid in lids}
    }

    executor = BatchExecutor(oracle, group_size=GROUP_SIZE)
    oracle_results = []
    for batch in batches:
        oracle_results.append(executor.execute(batch))
        history[len(history)] = {lid: oracle.lookup(lid) for lid in lids}

    # Writes: the service allocated and labeled exactly as the oracle did.
    for live, reference in zip(ticket_results, oracle_results):
        assert live.results == reference.results
        assert live.group_sizes == reference.group_sizes

    # The service published one epoch per batch (plus epoch 0), though
    # each batch ran as several groups.
    assert all(len(r.group_sizes) > 1 for r in oracle_results)
    assert service.current_epoch.number == N_BATCHES
    assert set(history) == set(range(N_BATCHES + 1))

    # Reads: every observation equals the oracle's truth at its pin.
    checked = 0
    for trace in observations:
        for kind, args, value, pin in trace:
            truth = history[pin]
            if kind == "lookup":
                assert value == truth[args[0]], (scheme_name, kind, args, pin)
            elif kind == "pair":
                expected = (truth[args[0]], truth[args[1]])
                assert value == expected, (scheme_name, kind, args, pin)
            else:
                expected = order(truth[args[0]], truth[args[1]])
                assert value == expected, (scheme_name, kind, args, pin)
            checked += 1
    assert checked >= READERS * READS_PER_READER

    # Final structure: base labels agree.
    for lid in lids:
        assert scheme.lookup(lid) == oracle.lookup(lid), lid
