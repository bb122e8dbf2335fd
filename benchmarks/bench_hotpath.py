"""Array-native hot paths: codec ns/node and batch label reconstruction.

Two measurements, one table (``BENCH_hotpath.json``):

* **Codec micro** — encode/decode ns per node, the production packed-row
  codec (:mod:`repro.storage.codec`) vs the streaming reference it
  replaced (``tests/codec_reference.py``, the byte-identity oracle), over
  representative node payloads, plus the long-ORDPATH-vector decode case
  the satellite fix (list preallocation inside ``_S_SEQ``) targets.
* **Batch reconstruction** — labels/second for ``BBox.lookup_many``
  (one memoized bottom-up walk) vs the scalar per-LID loop on a churned
  tree, with identical results and no extra counted reads.  The ratio
  keeps its ``batch_lookup`` key.

End-to-end timing is not measured here: that is ``benchmarks/e2e``'s job
(one production codec and one page-file backend leave no slow arm to
compare against).

Regression gate: with ``REPRO_BENCH_GATE=1`` the measured speedup
*ratios* are compared against the committed ``BENCH_hotpath.json`` — a
ratio that fell below 85% of the committed value fails the run.  Both
sides of every ratio run on the same host in the same process, so the
gate holds across machines; it only fires when the committed scale
matches.
"""

from __future__ import annotations

import gc
import io
import json
import os
import statistics
import time

from benchmarks.conftest import (
    BENCH_CONFIG,
    RESULTS_DIR,
    SCALE,
    SCALE_NAME,
    fmt,
    record_table,
)
from repro import BBox
from repro.storage.codec import decode_block_payload, encode_block_payload
from tests.codec_reference import decode_payload, encode_payload

GATE_TOLERANCE = 0.85  # >15% regression vs the committed ratio fails

JUDGE_THRESHOLDS = SCALE_NAME != "smoke"


def _reference_encode(payload) -> bytes:
    stream = io.BytesIO()
    encode_payload(stream, payload)
    return stream.getvalue()


def _reference_decode(image: bytes):
    return decode_payload(io.BytesIO(image))


# ----------------------------------------------------------------------
# codec micro: ns per node, packed vs reference
# ----------------------------------------------------------------------


def _codec_corpus():
    """Representative node payloads (shapes a 1 KB block actually holds)."""
    from repro.core.bbox.node import BNode
    from repro.core.wbox.node import WEntry, WNode

    leaf = WNode(0, 1 << 16, 1 << 10, 96, [(1 << 12) + 3 * i for i in range(96)])
    internal = WNode(
        2, 0, 1 << 20, 9000, [WEntry(200 + i, i, 90 + i, 1000 + 7 * i) for i in range(16)]
    )
    bleaf = BNode(leaf=True, parent=41, entries=[5000 + 3 * i for i in range(100)])
    bint = BNode(
        leaf=False,
        parent=2,
        entries=[300 + i for i in range(16)],
        sizes=[1000 + 13 * i for i in range(16)],
    )
    lidf = [
        (i % 7 and (3 + i, i % 5)) or None if i % 11 else 2**40 + i
        for i in range(128)
    ]
    return {
        "wbox leaf": leaf,
        "wbox internal": internal,
        "bbox leaf": bleaf,
        "bbox internal": bint,
        "lidf block": lidf,
    }


def _ordpath_block():
    """LIDF block of long signed component vectors (the _S_SEQ micro)."""
    return [
        tuple(((-1) ** j) * (j * 2 + i) for j in range(64)) for i in range(32)
    ]


#: Paired repeats per ratio.  This host's speed drifts 1-2x on every
#: timescale, so each repeat times the production side and the reference
#: side back to back and contributes one *ratio*; the median ratio is
#: what the gate judges (best-of times are reported beside it).
PAIRED_REPEATS = 9


def _loop_seconds(fn, items, loops: int) -> float:
    started = time.perf_counter()
    for _ in range(loops):
        for item in items:
            fn(item)
    return time.perf_counter() - started


def _paired(fast_fn, slow_fn, items, loops=10) -> tuple[float, float, float]:
    """``(fast ns/item, slow ns/item, median slow/fast ratio)``."""
    fast_times, slow_times = [], []
    for _ in range(PAIRED_REPEATS):
        fast_times.append(_loop_seconds(fast_fn, items, loops))
        slow_times.append(_loop_seconds(slow_fn, items, loops))
    scale = 1e9 / (loops * len(items))
    ratio = statistics.median(s / f for s, f in zip(slow_times, fast_times))
    return min(fast_times) * scale, min(slow_times) * scale, ratio


def _codec_micro() -> dict:
    corpus = _codec_corpus()
    payloads = list(corpus.values())
    payloads.append(_ordpath_block())
    images = [encode_block_payload(p) for p in payloads]
    assert images == [_reference_encode(p) for p in payloads]
    out = {}
    for stage, fast_fn, slow_fn, items, loops in (
        ("encode", encode_block_payload, _reference_encode, payloads, 10),
        ("decode", decode_block_payload, _reference_decode, images, 10),
        ("ordpath_decode", decode_block_payload, _reference_decode, images[-1:], 60),
    ):
        fast, slow, ratio = _paired(fast_fn, slow_fn, items, loops)
        out[f"{stage}_ns_fast"] = fast
        out[f"{stage}_ns_slow"] = slow
        out[f"{stage}_speedup"] = ratio
    return out


# ----------------------------------------------------------------------
# batch reconstruction throughput
# ----------------------------------------------------------------------


def _batch_reconstruction() -> dict:
    import random

    base = max(2000, SCALE["base"] // 20)
    scalar_walls, batch_walls = [], []
    for _ in range(PAIRED_REPEATS):
        # A fresh tree per repeat: lookup_many leaves position maps
        # cached on the nodes, which must not leak into the next pair.
        scheme = BBox(BENCH_CONFIG, ordinal=True)
        lids = scheme.bulk_load(base)
        rng = random.Random(42)
        for _ in range(base // 50):
            lids.append(scheme.insert_before(lids[rng.randrange(len(lids))]))
        before = scheme.stats.reads

        gc.collect()
        started = time.perf_counter()
        scalar = [scheme.lookup(lid) for lid in lids]
        scalar_walls.append(time.perf_counter() - started)
        scalar_reads = scheme.stats.reads - before

        started = time.perf_counter()
        batched = scheme.lookup_many(lids)
        batch_walls.append(time.perf_counter() - started)
        batch_reads = scheme.stats.reads - before - scalar_reads

        assert batched == scalar, "lookup_many diverged from the scalar loop"
    return {
        "labels": len(lids),
        "scalar_labels_per_s": len(lids) / min(scalar_walls),
        "batch_labels_per_s": len(lids) / min(batch_walls),
        "speedup": statistics.median(
            s / b for s, b in zip(scalar_walls, batch_walls)
        ),
        "scalar_reads": scalar_reads,
        "batch_reads": batch_reads,
    }


# ----------------------------------------------------------------------
# regression gate + table
# ----------------------------------------------------------------------


def _ratios(codec: dict, batch: dict) -> dict[str, float]:
    """The speedup ratios the gate judges."""
    return {
        "codec encode": codec["encode_speedup"],
        "codec decode": codec["decode_speedup"],
        "ordpath decode": codec["ordpath_decode_speedup"],
        "batch_lookup": batch["speedup"],
    }


def _apply_gate(measured: dict[str, float]) -> dict:
    """Compare measured speedup ratios against the committed baseline JSON."""
    gate = {"enabled": bool(int(os.environ.get("REPRO_BENCH_GATE", "0") or "0"))}
    baseline_path = RESULTS_DIR / "BENCH_hotpath.json"
    if not gate["enabled"]:
        return gate
    if not baseline_path.exists():
        gate["skipped"] = "no committed BENCH_hotpath.json"
        return gate
    committed = json.loads(baseline_path.read_text())
    if committed.get("scale") != SCALE_NAME:
        gate["skipped"] = (
            f"committed baseline is scale={committed.get('scale')!r}, "
            f"this run is {SCALE_NAME!r}"
        )
        return gate
    failures = []
    checked = {}
    for key, committed_ratio in committed.get("extra", {}).get("ratios", {}).items():
        if key not in measured:
            continue
        floor = committed_ratio * GATE_TOLERANCE
        checked[key] = {
            "committed": committed_ratio,
            "measured": measured[key],
            "floor": floor,
        }
        if measured[key] < floor:
            failures.append(
                f"{key}: speedup {measured[key]:.2f}x < {floor:.2f}x "
                f"(committed {committed_ratio:.2f}x - 15%)"
            )
    gate["checked"] = checked
    gate["failures"] = failures
    return gate


def test_hotpath_table(benchmark):
    codec = _codec_micro()
    batch = _batch_reconstruction()
    ratios = _ratios(codec, batch)
    gate = _apply_gate(ratios)

    rows = [
        [
            "codec encode (ns/node)",
            fmt(codec["encode_ns_slow"], 0),
            fmt(codec["encode_ns_fast"], 0),
            fmt(codec["encode_speedup"]) + "x",
            "bytes identical",
        ],
        [
            "codec decode (ns/node)",
            fmt(codec["decode_ns_slow"], 0),
            fmt(codec["decode_ns_fast"], 0),
            fmt(codec["decode_speedup"]) + "x",
            "",
        ],
        [
            "ordpath decode (ns/block)",
            fmt(codec["ordpath_decode_ns_slow"], 0),
            fmt(codec["ordpath_decode_ns_fast"], 0),
            fmt(codec["ordpath_decode_speedup"]) + "x",
            "",
        ],
        [
            f"batch_lookup ({batch['labels']} labels/s)",
            fmt(batch["scalar_labels_per_s"], 0),
            fmt(batch["batch_labels_per_s"], 0),
            fmt(batch["speedup"]) + "x",
            f"reads {batch['batch_reads']} <= {batch['scalar_reads']}",
        ],
    ]

    record_table(
        "hotpath",
        "Array-native hot paths: reference (streaming codec, scalar lookups) "
        "vs production (packed-row codec, batch_lookup)",
        ["path", "reference", "production", "speedup", "identity"],
        rows,
        extra={
            "scale": SCALE_NAME,
            "codec": codec,
            "batch_reconstruction": batch,
            "ratios": ratios,
            "thresholds_checked": JUDGE_THRESHOLDS,
            "gate": gate,
        },
    )

    assert batch["batch_reads"] <= batch["scalar_reads"]
    assert gate.get("failures", []) == [], "\n".join(gate.get("failures", []))
    # In gate mode the committed-ratio floor above is the judge; the
    # absolute floor is enforced when refreshing the baseline so a noisy
    # shared runner can't fail a run the gate already accepts.
    if JUDGE_THRESHOLDS and not gate["enabled"]:
        assert min(ratios.values()) > 1.0, ratios
