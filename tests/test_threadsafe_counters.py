"""Regression: shared storage-layer state must survive concurrent use.

Before the label service existed, :class:`IOStats` bumped its counters
with plain ``+=`` and :class:`BlockCache` mutated its ``OrderedDict``
segments bare — fine single-threaded, silently lossy (or corrupting) the
moment concurrent fallthrough readers hit the same store.  These tests
hammer both from many threads and assert *exact* totals, which plain
``+=`` fails under contention and the locked ``add()`` path must pass.

Thread counts and iteration counts are sized so a lost update is
overwhelmingly likely on a GIL build if the locking regresses (the GIL
does not make ``self.x += n`` atomic — the read-modify-write interleaves
across the bytecode boundary) while the test stays fast.
"""

from __future__ import annotations

import threading

from repro.service import ServiceStats
from repro.storage import IOStats
from repro.storage.cache import BlockCache

THREADS = 8
ITERATIONS = 2_000


def hammer(worker, n_threads=THREADS):
    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "worker hung"


def test_iostats_add_exact_totals_under_contention():
    stats = IOStats()

    def worker(_index):
        for _ in range(ITERATIONS):
            stats.add(reads=1, writes=2, cache_hits=1)
            stats.add(allocs=1, frees=1, cache_misses=3)

    hammer(worker)
    assert stats.reads == THREADS * ITERATIONS
    assert stats.writes == 2 * THREADS * ITERATIONS
    assert stats.cache_hits == THREADS * ITERATIONS
    assert stats.allocs == THREADS * ITERATIONS
    assert stats.frees == THREADS * ITERATIONS
    assert stats.cache_misses == 3 * THREADS * ITERATIONS


def test_iostats_snapshot_is_mutually_consistent():
    """reads and writes move in lockstep under the lock, so any snapshot
    must see them equal — a torn snapshot would catch one mid-update."""
    stats = IOStats()
    stop = threading.Event()
    torn: list[tuple[int, int]] = []

    def bumper(_index):
        while not stop.is_set():
            stats.add(reads=1, writes=1)

    def snapshotter(_index):
        for _ in range(ITERATIONS):
            snap = stats.snapshot()
            if snap.reads != snap.writes:
                torn.append((snap.reads, snap.writes))
        stop.set()

    threads = [threading.Thread(target=bumper, args=(i,), daemon=True) for i in range(4)]
    threads.append(threading.Thread(target=snapshotter, args=(0,), daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert torn == []


def test_service_stats_exact_totals_under_contention():
    stats = ServiceStats()

    def worker(index):
        for i in range(ITERATIONS):
            stats.add(reads=1, replay_hits=1)
            lag = index * ITERATIONS + i
            stats.add(lag_sum=lag, lag_samples=1, max_epoch_lag=lag)

    hammer(worker)
    counters = stats.snapshot()
    assert counters.reads == THREADS * ITERATIONS
    assert counters.replay_hits == THREADS * ITERATIONS
    assert counters.lag_samples == THREADS * ITERATIONS
    assert counters.max_epoch_lag == THREADS * ITERATIONS - 1
    assert counters.lag_sum == sum(
        index * ITERATIONS + i for index in range(THREADS) for i in range(ITERATIONS)
    )


def test_iostats_hit_ratio_survives_reset_races():
    """Four threads hammer add()/snapshot()/hit_ratio while another loops
    reset(): the ratio must always be a sane value in [0, 1] and never
    raise — a ZeroDivisionError here means the numerator and denominator
    were read outside the lock, catching reset() between them."""
    stats = IOStats()
    stop = threading.Event()
    failures: list[BaseException] = []

    def resetter(_index):
        for _ in range(ITERATIONS):
            stats.reset()
        stop.set()

    def prober(_index):
        try:
            while not stop.is_set():
                stats.add(cache_hits=1)
                stats.add(cache_misses=1)
                ratio = stats.hit_ratio
                assert 0.0 <= ratio <= 1.0, ratio
                snap = stats.snapshot()
                assert snap.reads >= 0 and snap.writes >= 0
        except BaseException as error:  # noqa: BLE001 - recorded for the main thread
            failures.append(error)
            stop.set()

    threads = [threading.Thread(target=prober, args=(i,), daemon=True) for i in range(4)]
    threads.append(threading.Thread(target=resetter, args=(0,), daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert failures == []


def test_service_stats_repair_ratio_survives_reset_races():
    """Same hammer for ServiceStats.repair_hit_ratio: reset() racing
    add()/snapshot() from four reader threads must never divide by zero
    and never produce a ratio outside [0, 1]."""
    stats = ServiceStats()
    stop = threading.Event()
    failures: list[BaseException] = []

    def resetter(_index):
        for _ in range(ITERATIONS):
            stats.reset()
        stop.set()

    def prober(_index):
        try:
            while not stop.is_set():
                stats.add(reads=1, fresh_hits=1)
                stats.add(reads=1, replay_hits=1)
                ratio = stats.repair_hit_ratio
                assert 0.0 <= ratio <= 1.0, ratio
                snap = stats.snapshot()
                assert 0.0 <= snap.repair_hit_ratio <= 1.0
                assert snap.mean_epoch_lag == 0.0
        except BaseException as error:  # noqa: BLE001 - recorded for the main thread
            failures.append(error)
            stop.set()

    threads = [threading.Thread(target=prober, args=(i,), daemon=True) for i in range(4)]
    threads.append(threading.Thread(target=resetter, args=(0,), daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert failures == []


def test_ratios_zero_probes_return_zero():
    """Division edges: both ratios are defined (0.0) with zero probes."""
    assert IOStats().hit_ratio == 0.0
    assert ServiceStats().repair_hit_ratio == 0.0
    counters = ServiceStats().snapshot()
    assert counters.repair_hit_ratio == 0.0
    assert counters.mean_epoch_lag == 0.0


def test_block_cache_concurrent_mutation_stays_bounded():
    """Concurrent insert/lookup/evict on both policies: no lost-update
    corruption (OrderedDict raises or deadlocks when torn), size bounds
    respected, and every surviving entry is findable."""
    for mode in ("lru", "slru"):
        cache = BlockCache(capacity=64, mode=mode)

        def worker(index, cache=cache):
            base = index * ITERATIONS
            for i in range(ITERATIONS):
                block = base + i
                cache.insert(block)
                cache.lookup(block)
                cache.lookup(base + ((i * 7) % ITERATIONS))
                if i % 3 == 0:
                    cache.evict(block)

        hammer(worker)
        assert len(cache) <= 64, mode
        # The structure is still coherent: every resident id probes true.
        resident = list(cache._probation) + list(cache._protected)
        for block in resident:
            assert cache.lookup(block), (mode, block)


def test_block_cache_eviction_exact_under_contention():
    """All threads evict a disjoint slice of a fully-populated cache;
    afterwards exactly the untouched ids remain."""
    cache = BlockCache(capacity=THREADS * 100 + 50, mode="lru")
    for block in range(THREADS * 100 + 50):
        cache.insert(block)

    def worker(index):
        for block in range(index * 100, (index + 1) * 100):
            cache.evict(block)

    hammer(worker)
    assert len(cache) == 50
    survivors = set(range(THREADS * 100, THREADS * 100 + 50))
    assert set(cache._probation) == survivors
