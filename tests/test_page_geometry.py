"""Page geometry: a page is ``u32 length + image`` in a slot sized by the
config's largest node, and nothing pads it back to a fixed 4 KB.

* every maximally full node of every fixed-width kind, at every block
  size the paper and the benchmarks use, fits ``default_page_bytes`` —
  each kind's widest node fills its own bound exactly (delta rows at
  their worst: alternating between 0 and the widest value), and the
  largest one fills the slot exactly, so the slot has no headroom guess;
* a scheme that stores label values in its LIDF (naive-k, the ancestry
  schemes) gets a slot for values of its own width, and every scheme's
  file store takes a bulk load of full blocks and reopens;
* a checkpoint's write-back costs exactly the framed images plus the
  directory, also with images that nearly fill their slots;
* a tear of the last byte of a page write is repaired from the log;
* a file keeps the geometry it was created with;
* an ORDPATH block past the bound is refused with a typed error, never
  truncated.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import BENCH_CONFIG, BoxConfig
from repro.core import scheme_page_bytes
from repro.core.bbox.node import BNode
from repro.core.wbox.node import WEntry, WNode
from repro.core.wbox.pairs import PairRecord
from repro.errors import CrashError, StorageError
from repro.faults import SHORT_WRITE, FaultInjector, FaultPlan, FaultSpec
from repro.persist import checkpoint_scheme, create_store, open_store
from repro.storage import FileBackend, default_page_bytes, read_directory
from repro.storage.codec import encode_block_payload, payload_bounds
from repro.storage.filebackend import _CRC, _HEADER, _PAGE_HEADER, MAGIC
from repro.storage.wal import MAGIC as WAL_MAGIC

BLOCK_SIZES = (512, 1024, 2048, 4096, 8192)

#: Node kinds of the fixed-width schemes: W-BOX (and W-BOX-ordinal)
#: leaves and internal nodes, W-BOX-O pair leaves, B-BOX leaves and
#: internal nodes, LIDF blocks of block pointers (the BOXes) and of
#: ``(value, gap)`` / ``(value, kind)`` pairs (naive-k, ancestry).
KINDS = (
    "wbox-leaf",
    "wboxo-leaf",
    "wbox-internal",
    "bbox-leaf",
    "bbox-internal",
    "lidf-pointer",
    "lidf-pair",
)


def full_node(kind, config, value, value_bits=None):
    """A node of ``kind`` at its capacity under ``config``; ``value(bits)``
    gives each field a value below ``2**bits``, an LIDF pair holds values
    ``value_bits`` wide (default the label width).  A delta-coded row (LIDs,
    block pointers) alternates between that value and 0, so every delta
    is as wide as the value."""
    c = config
    label, lid, ptr = c.label_bits, c.lid_bits, c.pointer_bits

    def deltas(bits, count):
        return [0 if i % 2 else value(bits) for i in range(count)]

    if kind in ("wbox-leaf", "wboxo-leaf", "wbox-internal"):
        header = (value(label), value(label) + 1, value(c.weight_bits))
    if kind == "wbox-leaf":
        return WNode(0, *header, deltas(lid, c.wbox_leaf_capacity))
    if kind == "wboxo-leaf":
        records = []
        for _ in range(c.wbox_pair_leaf_capacity):
            record = PairRecord(value(lid))
            record.is_start = bool(value(1))
            record.partner_lid = value(lid)
            record.partner_block = value(ptr)
            record.end_value = value(label)
            records.append(record)
        return WNode(0, *header, records)
    if kind == "wbox-internal":
        fanout = c.wbox_max_fanout
        entries = [
            WEntry(value(ptr), min(value((fanout - 1).bit_length()), fanout - 1),
                   value(c.weight_bits), value(c.size_bits))
            for _ in range(fanout)
        ]
        return WNode(1 + value(6), *header, entries)
    if kind == "bbox-leaf":
        return BNode(True, value(ptr), deltas(lid, c.bbox_leaf_capacity))
    if kind == "bbox-internal":
        fanout = c.bbox_fanout
        return BNode(False, value(ptr), deltas(ptr, fanout),
                     [value(c.size_bits) for _ in range(fanout)])
    records = c.lidf_records_per_block
    if kind == "lidf-pointer":
        return deltas(ptr, records)
    bits = label if value_bits is None else value_bits
    return [(value(bits), value(bits)) for _ in range(records)]


def _widest(bits):
    return (1 << bits) - 1


def _framed(node):
    return _PAGE_HEADER.size + len(encode_block_payload(node))


@settings(max_examples=60, deadline=None)
@given(
    block_bytes=st.sampled_from(BLOCK_SIZES),
    kind=st.sampled_from(KINDS),
    data=st.data(),
)
def test_a_full_node_fits_its_default_slot(block_bytes, kind, data):
    """Any field values within their declared widths: the ``raise
    page_bytes`` error is unreachable on default geometry."""
    config = BoxConfig(block_bytes=block_bytes)
    # One draw per field width, shared by every field and entry of that
    # width: a varint's length only grows with its value, and a delta's
    # with the value it alternates with 0.
    drawn = {}

    def value(bits):
        if bits not in drawn:
            drawn[bits] = data.draw(st.integers(0, _widest(bits)), label=f"{bits}-bit")
        return drawn[bits]

    assert _framed(full_node(kind, config, value)) <= default_page_bytes(config)


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
def test_each_kinds_widest_node_fills_its_bound_exactly(block_bytes):
    config = BoxConfig(block_bytes=block_bytes)
    bounds = payload_bounds(config)
    assert sorted(bounds) == sorted(KINDS)
    for kind in KINDS:
        assert len(encode_block_payload(full_node(kind, config, _widest))) == bounds[kind]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
def test_the_widest_node_fills_the_slot_exactly(block_bytes):
    config = BoxConfig(block_bytes=block_bytes)
    widest = max(_framed(full_node(kind, config, _widest)) for kind in KINDS)
    assert widest == default_page_bytes(config)
    assert widest < 2 * block_bytes  # the old slot: twice the block, 4 KB floor


def test_the_slot_follows_the_config_not_just_its_block_size():
    """Narrow LIDs put more entries in a leaf than the default widths do."""
    narrow = BoxConfig(block_bytes=1024, lid_bits=8)
    leaf = full_node("wbox-leaf", narrow, _widest)
    assert len(leaf.entries) > BoxConfig(block_bytes=1024).wbox_leaf_capacity
    assert _framed(leaf) <= default_page_bytes(narrow)


#: LIDF value width of each scheme that stores label values there: naive-k
#: holds values and gaps up to ``n * 2^k``; the ancestry layouts stay below
#: ``(2^lid_bits)^2``.  Pointer-LIDF schemes use the default width.
VALUE_SCHEMES = {
    "naive-1": lambda c: 1 + c.lid_bits,
    "naive-16": lambda c: 16 + c.lid_bits,
    "naive-64": lambda c: 64 + c.lid_bits,
    "ancestry": lambda c: 2 * c.lid_bits + 1,
    "ancestry-dyn": lambda c: 2 * c.lid_bits + 1,
    "wbox": lambda c: c.label_bits,
    "wboxo": lambda c: c.label_bits,
    "bbox": lambda c: c.label_bits,
}


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("name", sorted(VALUE_SCHEMES))
def test_a_full_lidf_block_fits_its_schemes_slot(name, block_bytes):
    config = BoxConfig(block_bytes=block_bytes)
    block = full_node("lidf-pair", config, _widest, VALUE_SCHEMES[name](config))
    assert _framed(block) <= scheme_page_bytes(name, config)
    assert scheme_page_bytes(name, config) >= default_page_bytes(config)


@pytest.mark.parametrize(
    "name", ["wbox", "wboxo", "bbox", "bbox-o", "naive-64", "ancestry", "ancestry-dyn", "ordpath"]
)
def test_every_scheme_bulk_loads_full_blocks_on_a_file_and_reopens(tmp_path, name):
    path = str(tmp_path / name)
    (scheme,), _ = create_store(path, name, config=BENCH_CONFIG)
    lids = scheme.bulk_load(1000, [i ^ 1 for i in range(1000)])
    labels = [scheme.lookup(lid) for lid in lids]
    checkpoint_scheme(scheme).close()
    (reopened,) = open_store(path)
    assert reopened.store.backend.page_bytes == scheme_page_bytes(name, BENCH_CONFIG)
    assert [reopened.lookup(lid) for lid in lids] == labels
    reopened.store.backend.close()


def test_ordpath_keeps_the_fixed_slot():
    """No width bounds a careted label, so ORDPATH keeps the slot every
    scheme had before slots were derived: twice the block, at least 4 KB."""
    assert scheme_page_bytes("ordpath", BENCH_CONFIG) == 4096
    assert scheme_page_bytes("ordpath", BoxConfig(block_bytes=4096)) == 8192


def _small_payloads(_slot):
    return [[i] * (7 * i + 1) for i in range(10)]


def _alternating(count, i=0):
    return [(1 << 31) + i if j % 2 == 0 else i for j in range(count)]


def _near_full_payloads(slot):
    """LIDF-style blocks of 5-byte heads (pointers alternating between
    2**31 and about 0), each as long as the slot allows: an image past
    its slot would run into the next page."""
    count = 1
    while _PAGE_HEADER.size + len(encode_block_payload(_alternating(count + 1))) <= slot:
        count += 1
    return [_alternating(count - i % 2, i) for i in range(10)]


GEOMETRIES = {
    "bare": ({}, _small_payloads),
    "bench-slot": ({"page_bytes": default_page_bytes(BENCH_CONFIG)}, _near_full_payloads),
}


def _loaded_backend(path, geometry="bare", **kwargs):
    options, make_payloads = GEOMETRIES[geometry]
    backend = FileBackend(path, **options, **kwargs)
    return backend, {backend.allocate(p): p for p in make_payloads(backend.page_bytes)}


def _committed_backend(path, geometry="bare", **kwargs):
    backend, payloads = _loaded_backend(path, geometry, **kwargs)
    backend.commit(payloads)
    return backend, payloads


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_a_checkpoint_writes_back_exactly_the_framed_images(tmp_path, geometry):
    """A commit without a tape is a checkpoint: past its log record (and
    the fresh log's magic) it writes the framed images and the directory."""
    path = str(tmp_path / "acct.pages")
    backend, payloads = _loaded_backend(path, geometry)
    framed = [_framed(p) for p in payloads.values()]
    if geometry == "bench-slot":
        assert backend.page_bytes - 12 < min(framed) <= max(framed) <= backend.page_bytes
    before, logged = backend.bytes_written, backend._wal.bytes_written
    backend.commit(payloads)
    written = backend.bytes_written - before - (backend._wal.bytes_written - logged)
    written -= len(WAL_MAGIC)
    with open(backend.path, "rb") as handle:
        handle.seek(len(MAGIC))
        _offset, directory, _crc = _HEADER.unpack(handle.read(_HEADER.size))
    assert written == sum(framed) + directory + _HEADER.size + _CRC.size
    assert backend.page_writes == len(payloads)
    backend.close()
    reopened = FileBackend(path)
    assert {block: reopened.read(block) for block in payloads} == payloads
    reopened.close()


def test_a_page_write_short_by_one_byte_is_repaired_from_the_log(tmp_path):
    path = str(tmp_path / "torn.pages")
    backend, payloads = _loaded_backend(path)
    first = next(iter(payloads))
    framed = _framed(payloads[first])
    injector = FaultInjector(
        FaultPlan([FaultSpec(SHORT_WRITE, "backend.page_write", cut=framed - 1)])
    )
    sizes = []
    real_hit = injector.hit

    def hit(hook, size=None, scope=None):
        sizes.append((hook, size))
        return real_hit(hook, size, scope)

    injector.hit = hit
    backend.install_faults(injector)
    with pytest.raises(CrashError, match=f"after {framed - 1} of {framed} bytes"):
        backend.commit(payloads)
    assert ("backend.page_write", framed) in sizes  # the hook sees the bytes written
    backend.close()
    reopened = FileBackend(path)
    assert {block: reopened.read(block) for block in payloads} == payloads
    reopened.checkpoint()
    reopened.drop_clean_objects()
    assert {block: reopened.read(block) for block in payloads} == payloads
    reopened.close()


def test_a_file_keeps_the_geometry_it_was_created_with(tmp_path):
    """A file made with the 4 KB slots earlier builds used reopens with
    them; a new file without ``page_bytes`` gets the derived size."""
    path = str(tmp_path / "old.pages")
    backend, payloads = _committed_backend(path, page_bytes=4096)
    backend.checkpoint()
    backend.close()
    reopened = FileBackend(path)
    assert reopened.page_bytes == read_directory(path)["page_bytes"] == 4096
    assert {block: reopened.read(block) for block in payloads} == payloads
    reopened.close()
    fresh = FileBackend(str(tmp_path / "new.pages"))
    assert fresh.page_bytes == default_page_bytes(BoxConfig())
    fresh.close()


def test_an_ordpath_block_past_the_bound_is_refused_not_truncated(tmp_path):
    """ORDPATH component vectors have no fixed width, so no slot bounds
    them: a block of long labels raises the typed error at commit and the
    store reopens at its last commit."""
    path = str(tmp_path / "ordpath.pages")
    backend = FileBackend(path, page_bytes=scheme_page_bytes("ordpath", BENCH_CONFIG))
    short = backend.allocate([(2 * i + 1,) for i in range(BENCH_CONFIG.lidf_records_per_block)])
    backend.commit([short])
    careted = tuple(range(-20, 20))  # the concentrated sequence's Ω(N)-bit labels
    long = backend.allocate([careted] * BENCH_CONFIG.lidf_records_per_block)
    with pytest.raises(StorageError, match="raise page_bytes"):
        backend.commit([long])
    backend.close()
    reopened = FileBackend(path)
    assert sorted(reopened.block_ids()) == [short]
    assert reopened.read(short)[:2] == [(1,), (3,)]
    reopened.close()
