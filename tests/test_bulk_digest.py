"""Bulk loads and subtree inserts write pinned block bytes.

A sha256 over every block payload (block id and codec image, in id
order), the scheme's counted I/O and the LIDs it returned, after a
``TINY_CONFIG`` bulk load of W-BOX and of W-BOX-O with a pairing, and
after W-BOX subtree inserts into a store whose freed blocks they reuse.
The bulk path's Python work may change; what it writes may not.
Regenerate only for a deliberate layout change:
``PYTHONPATH=src python -m tests.test_bulk_digest``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import TINY_CONFIG, WBox, WBoxO
from repro.storage.codec import encode_block_payload

N_LABELS = 2_000


def _pairing(count: int) -> list[int]:
    return [index ^ 1 for index in range(count)]


def _digest(scheme, lids) -> str:
    digest = hashlib.sha256()
    store = scheme.store
    for block_id in sorted(store.block_ids()):
        digest.update(block_id.to_bytes(8, "little"))
        digest.update(encode_block_payload(store.peek(block_id)))
    digest.update(repr((scheme.stats.snapshot(), scheme.root_id, scheme.height, lids)).encode())
    return digest.hexdigest()


def bulk_wbox() -> str:
    scheme = WBox(TINY_CONFIG)
    return _digest(scheme, scheme.bulk_load(N_LABELS))


def bulk_wboxo() -> str:
    scheme = WBoxO(TINY_CONFIG)
    return _digest(scheme, scheme.bulk_load(N_LABELS, _pairing(N_LABELS)))


def subtree_inserts() -> str:
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(N_LABELS)
    returned = [lids, scheme.delete_range(lids[100], lids[899])]
    free_before = len(scheme.store.backend.free_ids)
    for anchor, size in ((lids[1200], 300), (lids[N_LABELS - 1], 40), (lids[950], 600)):
        returned.append(scheme.insert_subtree_before(anchor, size))
    # The inserts took their blocks from the free list first.
    assert len(scheme.store.backend.free_ids) < free_before
    return _digest(scheme, returned)


CASES = {"bulk_wbox": bulk_wbox, "bulk_wboxo": bulk_wboxo, "subtree_inserts": subtree_inserts}

PINNED = {
    "bulk_wbox": "f09d4f14bdc81042acd9374b8f1725ed07c8a9785bee6304ab263694ca61e206",
    "bulk_wboxo": "a5e4be310bcca6b92d0ed8589aafcce55b33847b857404abfb3c33d70aedc8ea",
    "subtree_inserts": "ef413f214eab465a286461577d026930351f2694c88b6acab2da1587e34db9b5",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_bytes_are_pinned(case):
    assert CASES[case]() == PINNED[case]


if __name__ == "__main__":  # pragma: no cover
    for name, case in CASES.items():
        print(f'    "{name}": "{case()}",')
