"""One scheme read entry: ``LabelingScheme.lookup_many(lids, channel)``.

Every read of several labels — a batch's lookup run, a session's
fall-through, the Section 6 cache's refresh — is one ``lookup_many``
call.  These tests pin, for every scheme, that it answers exactly what the
per-LID ``lookup`` / ``ordinal_lookup`` answer (and raises what they
raise) for no more counted reads; that a cold B-BOX session read pays
for each shared block once; and that a read which raises leaves the
session's refs as it found them.
"""

from __future__ import annotations

import random
import statistics

import pytest

from repro import BENCH_CONFIG, BBox, ShardedLabelService
from repro.core.cachelog import LABEL_CHANNEL, ORDINAL_CHANNEL
from repro.errors import OrdinalUnsupportedError, RecordNotFoundError

from .conftest import SCHEME_FACTORIES

CHANNELS = (LABEL_CHANNEL, ORDINAL_CHANNEL)


def _per_lid(scheme, lids, channel):
    read = scheme.ordinal_lookup if channel == ORDINAL_CHANNEL else scheme.lookup
    return [read(lid) for lid in lids]


def _raised(call):
    try:
        call()
    except Exception as error:  # the type is the result
        return type(error)
    return None


@pytest.fixture(params=sorted(SCHEME_FACTORIES))
def churned(request):
    """A scheme after element inserts and deletes, its live LIDs in
    document order, and the LIDs its deletes freed."""
    scheme = SCHEME_FACTORIES[request.param]()
    pairing = list(range(40))
    for index in range(0, 40, 2):
        pairing[index], pairing[index + 1] = index + 1, index
    live = scheme.bulk_load(40, pairing)
    rng = random.Random(request.param)
    inserted: list[tuple[int, int]] = []
    freed: list[int] = []
    for _ in range(60):
        if rng.random() < 0.75 or not inserted:
            start, end = scheme.insert_element_before(live[rng.randrange(len(live))])
            live += [start, end]
            inserted.append((start, end))
        else:
            start, end = inserted.pop(rng.randrange(len(inserted)))
            scheme.delete_element(start, end)
            live.remove(start)
            live.remove(end)
            freed += [start, end]
    live.sort(key=scheme.lookup)
    return scheme, live, freed


@pytest.mark.parametrize("channel", CHANNELS)
def test_lookup_many_equals_the_per_lid_reads(churned, channel):
    scheme, lids, _freed = churned
    assert scheme.lookup_many([], channel) == []
    # Arbitrary order, duplicates included.
    shuffled = lids[::-1] + lids[:7] + lids[10:3:-2]
    if channel == ORDINAL_CHANNEL and not scheme.supports_ordinal:
        with pytest.raises(OrdinalUnsupportedError):
            scheme.lookup_many(shuffled, channel)
        return
    assert scheme.lookup_many(shuffled, channel) == _per_lid(scheme, shuffled, channel)
    assert scheme.lookup_many(lids, channel) == _per_lid(scheme, lids, channel)


@pytest.mark.parametrize("channel", CHANNELS)
def test_unknown_and_freed_lids_raise_like_the_scalar_path(churned, channel):
    scheme, lids, freed = churned
    assert _raised(lambda: _per_lid(scheme, [999_999], channel)) is not None
    # A freed LID may since be recycled; either way lookup_many answers
    # or raises as the scalar path does.
    for bad in (999_999, *freed[:2]):
        scalar = _raised(lambda: _per_lid(scheme, [bad], channel))
        assert _raised(lambda: scheme.lookup_many([lids[0], bad, lids[1]], channel)) is scalar


@pytest.mark.parametrize("channel", CHANNELS)
def test_lookup_many_reads_no_more_than_the_per_lid_loop(churned, channel):
    scheme, lids, _freed = churned
    if channel == ORDINAL_CHANNEL and not scheme.supports_ordinal:
        return
    before = scheme.stats.reads
    _per_lid(scheme, lids, channel)
    per_lid = scheme.stats.reads - before
    before = scheme.stats.reads
    scheme.lookup_many(lids, channel)
    assert scheme.stats.reads - before <= per_lid


def test_cold_bbox_session_read_pays_each_shared_block_once():
    """64 cold LIDs over 20k B-BOX labels: read one at a time they cost
    192 counted reads (LIDF block, leaf, root each); read as one set the
    root and every shared LIDF block or leaf count once."""
    scheme = BBox(BENCH_CONFIG)
    lids = scheme.bulk_load(20_000)
    service = ShardedLabelService([scheme])
    costs = []
    try:
        for seed in range(20):
            wanted = random.Random(seed).sample(lids, 64)
            session = service.session()
            before = scheme.stats.reads
            values = session.lookup_many(wanted)
            costs.append(scheme.stats.reads - before)
            assert values == [scheme.lookup(lid) for lid in wanted]
    finally:
        service.close()
    assert statistics.mean(costs) <= 0.6 * 192


@pytest.mark.parametrize("channel", CHANNELS)
def test_a_failed_read_leaves_the_refs_as_it_found_them(channel):
    scheme = BBox(BENCH_CONFIG, ordinal=True)
    lids = scheme.bulk_load(2_000)
    service = ShardedLabelService([scheme])
    try:
        session = service.shards[0].session()
        session.resolve(lids[:10], channel)
        refs = session._refs[channel]
        kept = {lid: (ref.value, ref.last_cached) for lid, ref in refs.items()}
        unknown = list(range(10**6, 10**6 + 1_000))
        for _ in range(3):
            with pytest.raises(RecordNotFoundError):
                session.resolve(lids[5:15] + unknown, channel)
            assert {lid: (ref.value, ref.last_cached) for lid, ref in refs.items()} == kept
        # The session still reads.
        assert session.resolve(lids[:20], channel) == _per_lid(scheme, lids[:20], channel)
        assert len(refs) == 20
    finally:
        service.close()
