"""A single-label operation that fails changes nothing.

Every scheme validates an operation's arguments — that its LIDs are
allocated, that a range's bounds are in order — before it touches the
modification clock, an LIDF record or a block.  An operation that raises
leaves ``clock``, every LIDF record and every block payload as they were,
and writes no counted block; otherwise a failed batch would journal a
clock step no re-run of its tape can tell apart from a real change.
"""

import pytest

from repro.storage.codec import encode_block_payload

from .conftest import SCHEME_FACTORIES

LABELS = 40


def _state(scheme):
    store = scheme.store
    payloads = {b: encode_block_payload(store.peek(b)) for b in sorted(store.block_ids())}
    return scheme.clock, sorted(scheme.lidf.peek_records()), payloads


def _loaded(name):
    scheme = SCHEME_FACTORIES[name]()
    lids = scheme.bulk_load(LABELS, [i ^ 1 for i in range(LABELS)])
    freed = lids[10]
    scheme.delete(freed)
    return scheme, lids, freed


def _calls(lids, freed, unallocated):
    """``(op, args)`` for each failing call: a freed LID, an unallocated
    LID, and (for ``delete_range``) bounds out of document order."""
    return {
        "delete-freed": ("delete", (freed,)),
        "delete-unallocated": ("delete", (unallocated,)),
        "insert_before-freed": ("insert_before", (freed,)),
        "insert_before-unallocated": ("insert_before", (unallocated,)),
        "delete_range-freed": ("delete_range", (lids[4], freed)),
        "delete_range-unallocated": ("delete_range", (unallocated, lids[20])),
        "delete_range-out-of-order": ("delete_range", (lids[30], lids[20])),
    }


CASES = sorted(_calls([0] * LABELS, 0, 0))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
def test_a_failed_op_changes_nothing(name, case):
    scheme, lids, freed = _loaded(name)
    unallocated = max(lids) + 1000
    op, args = _calls(lids, freed, unallocated)[case]
    before = _state(scheme)
    writes = scheme.stats.writes
    with pytest.raises(Exception):
        getattr(scheme, op)(*args)
    assert scheme.stats.writes == writes
    assert _state(scheme) == before
