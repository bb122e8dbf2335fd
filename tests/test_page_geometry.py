"""Page geometry: a page is an extent exactly as long as its image, found
through the directory's page table — no slot, no length header, nothing
pads it.

The bounds these tests name are the codec's: :func:`payload_bounds` (test
code — nothing in ``src/`` sizes storage by it any more) is the longest
image a full node of each kind encodes to, and where a test says "slot"
it now means the extent a checkpoint sizes to the image.

* every maximally full node of every fixed-width kind, at every block
  size the paper and the benchmarks use, stays within the config's bound
  — each kind's widest node fills its own bound exactly (delta rows at
  their worst: alternating between 0 and the widest value) — and goes
  into an extent exactly its length;
* an LIDF block of values as wide as each scheme stores round-trips
  through an extent, and every scheme's file store takes a bulk load of
  full blocks and reopens on exact extents;
* a checkpoint costs exactly the images plus the directory and one header
  slot, also with images near the old bench-slot size;
* a tear of the last byte of a page write is repaired from the log;
* a file keeps the extents it was created with;
* an ORDPATH block of long careted labels is stored whole.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import WBox
from repro.config import BENCH_CONFIG, TINY_CONFIG, BoxConfig
from repro.core.bbox.node import BNode
from repro.core.wbox.node import WEntry, WNode
from repro.core.wbox.pairs import PairRecord
from repro.errors import CrashError
from repro.faults import SHORT_WRITE, FaultInjector, FaultPlan, FaultSpec
from repro.persist import checkpoint_scheme, create_store, open_file_scheme, open_store
from repro.storage import BlockStore, FileBackend, read_directory
from repro.storage.codec import encode_block_payload
from repro.storage.filebackend import _CRC, _SLOT

from . import taped

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


def payload_bounds(config, value_bits=None):
    """The longest image :func:`encode_block_payload` gives a full node of
    each kind under ``config``, every field at the largest value its
    declared width holds (``ceil(bits/7)`` varint bytes).  In a delta row
    every value after the first is a zigzag delta, one bit wider than the
    field, so a row alternating between 0 and the widest value is the
    longest.  An LIDF record holds a block pointer or a pair of values up
    to ``value_bits`` wide (default ``config.label_bits``), its head two
    bits wider; ORDPATH vectors have no width and are not covered."""

    def var(bits):
        return max(1, -(-bits // 7))

    def row(count, each):
        return var(count.bit_length()) + count * each

    def deltas(count, bits):
        return var(count.bit_length()) + var(bits) + (count - 1) * var(bits + 1)

    c = config
    ptr, size = var(c.pointer_bits), var(c.size_bits)
    value, weight = var(c.label_bits), var(c.weight_bits)
    record = c.label_bits if value_bits is None else value_bits
    # kind, range origin, range length (up to 2**label_bits), weight
    wheader = 1 + value + var(c.label_bits + 1) + weight
    # lid, is_start, partner lid + 1, partner block, end value + 1
    pair = var(c.lid_bits) + 1 + var(c.lid_bits + 1) + ptr + var(c.label_bits + 1)
    entry = ptr + var((c.wbox_max_fanout - 1).bit_length()) + weight + size
    records = c.lidf_records_per_block
    return {
        "wbox-leaf": wheader + deltas(c.wbox_leaf_capacity, c.lid_bits),
        "wboxo-leaf": wheader + row(c.wbox_pair_leaf_capacity, pair),
        "wbox-internal": wheader + 1 + row(c.wbox_max_fanout, entry),  # + level
        "bbox-leaf": 1 + ptr + deltas(c.bbox_leaf_capacity, c.lid_bits),
        # + sizes flag, then the sizes row
        "bbox-internal": 2 + ptr + deltas(c.bbox_fanout, c.pointer_bits)
        + c.bbox_fanout * size,
        # a head with the tag in its low two bits: a pointer's zigzag
        # delta, or a pair's first value followed by its second
        "lidf-pointer": 1 + row(records, var(c.pointer_bits + 3)),
        "lidf-pair": 1 + row(records, var(record + 2) + var(record)),
    }


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


def _image(node):
    return len(encode_block_payload(node))


def _stored(tmp_path, payloads):
    """Checkpoint ``payloads`` into a fresh page file; returns the
    reopened backend and each block's id in payload order."""
    path = str(tmp_path / "stored.pages")
    backend = FileBackend(path)
    ids = [backend.allocate(payload) for payload in payloads]
    backend.commit(ids)  # no tape: the commit is a checkpoint
    backend.close()
    return FileBackend(path), ids


@settings(max_examples=60, deadline=None)
@given(
    block_bytes=st.sampled_from(BLOCK_SIZES),
    kind=st.sampled_from(KINDS),
    data=st.data(),
)
def test_a_full_node_fits_its_default_slot(block_bytes, kind, data):
    """Any field values within their declared widths: the image stays
    within the config's largest bound."""
    config = BoxConfig(block_bytes=block_bytes)
    # One draw per field width, shared by every field and entry of that
    # width: a varint's length only grows with its value, and a delta's
    # with the value it alternates with 0.
    drawn = {}

    def value(bits):
        if bits not in drawn:
            drawn[bits] = data.draw(st.integers(0, _widest(bits)), label=f"{bits}-bit")
        return drawn[bits]

    assert _image(full_node(kind, config, value)) <= max(payload_bounds(config).values())


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
def test_each_kinds_widest_node_fills_its_bound_exactly(block_bytes):
    config = BoxConfig(block_bytes=block_bytes)
    bounds = payload_bounds(config)
    assert sorted(bounds) == sorted(KINDS)
    for kind in KINDS:
        assert _image(full_node(kind, config, _widest)) == bounds[kind]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
def test_the_widest_node_fills_the_slot_exactly(tmp_path, block_bytes):
    """Each kind's widest node goes into an extent exactly its image's
    length, and reads back whole from it."""
    config = BoxConfig(block_bytes=block_bytes)
    nodes = [full_node(kind, config, _widest) for kind in KINDS]
    backend, ids = _stored(tmp_path, nodes)
    table = read_directory(backend.path)["table"]
    assert [table.length(block) for block in ids] == [_image(node) for node in nodes]
    assert max(table.lengths) == max(payload_bounds(config).values()) < 2 * block_bytes
    assert [encode_block_payload(backend.read(block)) for block in ids] == [
        encode_block_payload(node) for node in nodes
    ]
    backend.close()


def test_the_slot_follows_the_config_not_just_its_block_size():
    """Narrow LIDs put more entries in a leaf than the default widths do."""
    narrow = BoxConfig(block_bytes=1024, lid_bits=8)
    leaf = full_node("wbox-leaf", narrow, _widest)
    assert len(leaf.entries) > BoxConfig(block_bytes=1024).wbox_leaf_capacity
    assert _image(leaf) <= payload_bounds(narrow)["wbox-leaf"]


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
def test_a_full_lidf_block_fits_its_schemes_slot(tmp_path, name, block_bytes):
    """A full LIDF block of values as wide as the scheme stores is within
    its bound and round-trips through an extent of exactly its length."""
    config = BoxConfig(block_bytes=block_bytes)
    bits = VALUE_SCHEMES[name](config)
    block = full_node("lidf-pair", config, _widest, bits)
    assert _image(block) <= payload_bounds(config, bits)["lidf-pair"]
    backend, (block_id,) = _stored(tmp_path, [block])
    assert backend._table.length(block_id) == _image(block)
    assert backend.read(block_id) == block
    backend.close()


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
    backend = reopened.store.backend
    assert [reopened.lookup(lid) for lid in lids] == labels
    store = reopened.store
    assert all(
        backend._table.length(block) == _image(store.peek(block)) for block in store.block_ids()
    )
    backend.close()


def _alternating(count, i=0):
    return [(1 << 31) + i if j % 2 == 0 else i for j in range(count)]


def _small_payloads():
    return [[i] * (7 * i + 1) for i in range(10)]


def _near_full_payloads():
    """LIDF-style blocks of 5-byte heads (pointers alternating between
    2**31 and about 0), each about as long as the widest image the bench
    config bounds — the size of the fixed slot earlier page files kept."""
    bound = max(payload_bounds(BENCH_CONFIG).values())
    count = 1
    while len(encode_block_payload(_alternating(count + 1))) <= bound:
        count += 1
    return [_alternating(count - i % 2, i) for i in range(10)]


GEOMETRIES = {"bare": _small_payloads, "bench-slot": _near_full_payloads}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_a_checkpoint_writes_back_exactly_the_framed_images(tmp_path, geometry):
    """A commit without a tape is a checkpoint: it logs nothing and
    writes the images, the directory and one header slot — each once."""
    path = str(tmp_path / "acct.pages")
    backend = FileBackend(path)
    payloads = {backend.allocate(p): p for p in GEOMETRIES[geometry]()}
    images = [_image(p) for p in payloads.values()]
    before = backend.bytes_written
    backend.commit(payloads)
    assert backend._wal.bytes_written == 0
    directory = read_directory(path)["extent"][1]
    assert backend.bytes_written - before == sum(images) + directory + _SLOT.size + _CRC.size
    assert backend.page_writes == len(payloads)
    backend.close()
    reopened = FileBackend(path)
    assert {block: reopened.read(block) for block in payloads} == payloads
    reopened.close()


def test_a_page_write_short_by_one_byte_is_repaired_from_the_log(tmp_path):
    """A checkpoint whose first page write comes up one byte short never
    reaches its header: reopening takes the previous directory and
    re-runs the tapes the log still holds."""
    path = str(tmp_path / "torn.pages")
    backend = FileBackend(path)
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
    lids += [taped.insert_before(scheme, lids[index]) for index in (3, 3, 9)]
    labels = [scheme.lookup(lid) for lid in lids]
    first = min(backend._dirty)
    image = _image(backend._objects[first])
    injector = FaultInjector(
        FaultPlan([FaultSpec(SHORT_WRITE, "backend.page_write", cut=image - 1)])
    )
    sizes = []
    real_hit = injector.hit

    def hit(hook, size=None, scope=None):
        sizes.append((hook, size))
        return real_hit(hook, size, scope)

    injector.hit = hit
    backend.install_faults(injector)
    with pytest.raises(CrashError, match=f"after {image - 1} of {image} bytes"):
        backend.checkpoint()
    assert ("backend.page_write", image) in sizes  # the hook sees the bytes written
    backend.close()
    reopened = open_file_scheme(path)
    assert reopened.store.backend.recovery_report["replayed_transactions"] == 3
    assert [reopened.lookup(lid) for lid in lids] == labels
    checkpoint_scheme(reopened).drop_clean_objects()
    assert [reopened.lookup(lid) for lid in lids] == labels
    reopened.store.backend.close()


def test_a_file_keeps_the_geometry_it_was_created_with(tmp_path):
    """Reopening rebuilds the page table the file was written with:
    every extent where the checkpoint put it."""
    backend, ids = _stored(tmp_path, _small_payloads())
    extents = [backend._table.extent(block) for block in ids]
    backend.checkpoint()
    backend.close()
    reopened = FileBackend(backend.path)
    assert [reopened._table.extent(block) for block in ids] == extents
    assert [reopened.read(block) for block in ids] == _small_payloads()
    reopened.close()


def test_an_ordpath_block_of_long_labels_is_stored_whole(tmp_path):
    """ORDPATH component vectors have no fixed width, and no slot bounds
    them any more: a block of long careted labels, far past the bench
    config's widest fixed-width image, goes into an extent of its own
    length and reads back whole."""
    careted = tuple(range(-20, 20))  # the concentrated sequence's Ω(N)-bit labels
    block = [careted] * BENCH_CONFIG.lidf_records_per_block
    assert _image(block) > 2 * max(payload_bounds(BENCH_CONFIG).values())
    backend, (block_id,) = _stored(tmp_path, [block])
    assert backend.read(block_id) == block
    backend.close()
