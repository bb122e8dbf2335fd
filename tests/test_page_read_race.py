"""Concurrent cold page reads must not swap pages.

Readers hold the *shared* latch, so two of them can miss the object
table at once and both go to the page file.  ``seek`` + ``read`` on the
one shared handle is two steps: a second reader's ``seek`` between them
makes the first decode some other block's page and install it in the
object table under the wrong id ("LID n not found in its leaf").  The
read path is therefore a single positioned ``os.pread``.

Two tests: a handle shim that forces the bad interleaving (one thread is
parked after its ``seek`` while another completes a whole read) — so the
two-step read fails every time, not one run in a thousand — and a
four-thread hammer that checks every cold-read payload against a
single-threaded decode.
"""

import sys
import threading

from repro import WBox
from repro.config import TINY_CONFIG
from repro.persist import checkpoint_scheme
from repro.storage import BlockStore, FileBackend
from repro.storage.codec import encode_block_payload


def _checkpointed_backend(tmp_path, labels=400):
    backend = FileBackend(str(tmp_path / "race.pages"))
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    scheme.bulk_load(labels)
    checkpoint_scheme(scheme)
    backend.drop_clean_objects()
    images = {
        block_id: encode_block_payload(backend.read(block_id))
        for block_id in backend.block_ids()
    }
    backend.drop_clean_objects()
    assert len(images) > 20 and len(set(images.values())) > 20
    return backend, images


class _ParkingHandle:
    """The page-file handle, except that the thread named ``parked``
    stops right after ``seek`` until the test lets it go."""

    def __init__(self, inner):
        self._inner = inner
        self.parked = threading.Event()
        self.resume = threading.Event()

    def seek(self, *args):
        result = self._inner.seek(*args)
        if threading.current_thread().name == "parked":
            self.parked.set()
            self.resume.wait(5)
        return result

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_reader_parked_between_seek_and_read_still_gets_its_page(tmp_path):
    backend, images = _checkpointed_backend(tmp_path)
    first, second = sorted(images)[3], sorted(images)[11]
    handle = backend._handle = _ParkingHandle(backend._handle)
    got = {}

    def read_first():
        got[first] = encode_block_payload(backend.read(first))

    reader = threading.Thread(target=read_first, name="parked")
    reader.start()
    # A two-step read parks here; a positioned read never seeks, and the
    # wait just times out.
    handle.parked.wait(1)
    got[second] = encode_block_payload(backend.read(second))
    handle.resume.set()
    reader.join(10)
    assert not reader.is_alive()
    backend._handle = handle._inner
    backend.close()
    assert got == {first: images[first], second: images[second]}


def test_four_threads_cold_reading_see_only_their_own_pages(tmp_path):
    backend, images = _checkpointed_backend(tmp_path)
    block_ids = sorted(images)
    rounds, n_threads = 60, 4
    # Every round starts cold: the last thread to arrive empties the
    # object table, then all four read every block, each in its own order.
    barrier = threading.Barrier(n_threads, action=backend.drop_clean_objects)
    wrong: list[tuple[int, int]] = []
    errors: list[BaseException] = []

    def reader(index):
        order = block_ids[index::n_threads] + block_ids
        try:
            for round_no in range(rounds):
                barrier.wait(30)
                for block_id in order:
                    if encode_block_payload(backend.read(block_id)) != images[block_id]:
                        wrong.append((round_no, block_id))
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    backend.close()
    assert errors == [] and wrong == []
    assert backend.page_reads >= rounds * len(block_ids)
