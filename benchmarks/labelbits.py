"""Label bit-length accounting for ``bench_table_label_bits.py`` (metric 1
of Section 3, and the machine-word discussion in Section 7, "Other
findings").

Implements the paper's analytical bounds:

* Theorem 4.4 — a W-BOX label takes no more than
  ``log N + 1 + ceil(log(2 + 4/a) * log_a(N/k) + log b)`` bits;
* Theorem 5.1 — a B-BOX label takes no more than
  ``log N + 1 + floor((log N - 1) / (log B - 1))`` bits;
* naive-k — ``log N + k`` bits (equal spacing of ``2^k``).

Alongside each bound, the schemes report their *measured* maximum label
width, which the label-bits benchmark compares against the 32-bit machine
word.
"""

from __future__ import annotations

import math

from repro.config import MACHINE_WORD_BITS, BoxConfig
from repro.core.ancestry import dynamic_ancestry_universe


def minimum_label_bits(n_labels: int) -> int:
    """``log N``: the information-theoretic minimum bits per label."""
    if n_labels <= 1:
        return 1
    return math.ceil(math.log2(n_labels))


def wbox_label_bits_bound_exact(n_labels: int, config: BoxConfig) -> float:
    """Theorem 4.4's bound as a real number (no ceilings):
    ``log N + 1 + log(2 + 4/a) * log_a(N/k) + log b``.  This smooth form is
    what the paper inverts for its "32-bit labels support >= 2.58 million
    labels" claim."""
    a = config.wbox_branching
    b = config.wbox_max_fanout
    k = config.wbox_leaf_parameter
    if n_labels <= 1:
        return 1 + math.log2(b)
    log_n = math.log2(n_labels)
    term = math.log2(2 + 4 / a) * math.log(max(2.0, n_labels / k), a) + math.log2(b)
    return log_n + 1 + term


def wbox_label_bits_bound(n_labels: int, config: BoxConfig) -> int:
    """Theorem 4.4's bound for a W-BOX over ``n_labels`` labels (rounded up
    to whole bits)."""
    return math.ceil(wbox_label_bits_bound_exact(n_labels, config))


def bbox_label_bits_bound(n_labels: int, config: BoxConfig) -> int:
    """Theorem 5.1's bound for a B-BOX over ``n_labels`` labels.

    The paper states it in terms of the abstract block parameter ``B``
    (minimum-size labels per block); we use the concrete fan-out."""
    if n_labels <= 1:
        return 1
    log_n = math.log2(n_labels)
    log_b = math.log2(max(4, config.bbox_fanout))
    return math.ceil(log_n) + 1 + math.floor((log_n - 1) / (log_b - 1))


def wbox_bulk_label_bits(n_labels: int, config: BoxConfig) -> int:
    """The label width a freshly bulk-loaded W-BOX of ``n_labels`` actually
    uses: ``log2(leaf_range * b^height)`` with the bulk builder's height
    (the lowest level whose weight target covers all labels).  Theorem
    4.4's bound is loose at large fan-outs; this is the achievable width a
    deployment would size its fields by."""
    if n_labels <= 1:
        return max(1, (config.wbox_leaf_capacity + 1).bit_length())
    a = config.wbox_branching
    k = config.wbox_leaf_parameter
    height = 0
    while a**height * k < n_labels:
        height += 1
    top = (config.wbox_leaf_capacity + 1) * config.wbox_max_fanout**height - 1
    return top.bit_length()


def bbox_bulk_label_bits(n_labels: int, config: BoxConfig) -> int:
    """The packed-label width of a freshly bulk-loaded B-BOX of
    ``n_labels``: one full-width component per level of the built tree."""
    capacity = config.bbox_leaf_capacity
    fanout = config.bbox_fanout
    count = -(-max(1, n_labels) // capacity)
    height = 0
    while count > 1:
        count = -(-count // fanout)
        height += 1
    leaf_bits = max(1, (capacity - 1).bit_length())
    internal_bits = max(1, (fanout - 1).bit_length())
    return leaf_bits + height * internal_bits


def naive_label_bits(n_labels: int, gap_bits: int) -> int:
    """naive-k needs ``log N + k`` bits right after a (re)labeling pass."""
    return minimum_label_bits(n_labels) + gap_bits


def ancestry_label_bits_bound(n_labels: int) -> int:
    """DKR's simple-optimal static ancestry bound, restated for this
    repo's two-LID interval encoding: ``lg N + 2 lg lg N + O(1)`` bits.

    The static scheme's heavy-path layout spends four slots per tag plus
    power-of-two rounding slack at light children only, so on the bushy
    trees XML documents actually are, the measured width sits at about
    ``lg N + 2`` — this bound is the analytical envelope the label-bits
    table prints next to it.  (Adversarially balanced binary trees can
    compound the rounding past this bound; DKR's single-string encoding
    avoids that with an explicit lg lg N-bit size field we do not need,
    so we keep the honest caveat here rather than a fake guarantee.)"""
    if n_labels <= 1:
        return 3
    log_n = math.ceil(math.log2(n_labels))
    return log_n + 2 * math.ceil(math.log2(max(2, log_n))) + 3


def ancestry_bulk_label_bits(n_labels: int) -> int:
    """Width the static ancestry layout reaches when bulk-loading the
    benchmark's wide two-level document: the root interval needs
    ``4 + 4 * n_elements`` slots (leaf slabs are already powers of two),
    so the largest label is ``~2 N`` and the width ``lg N + 2`` — the
    "about lg N + 2" figure :func:`ancestry_label_bits_bound` envelopes."""
    return max(3, (2 * max(1, n_labels) + 5).bit_length())


def dynamic_ancestry_bulk_label_bits(n_labels: int) -> int:
    """Width of a fresh dynamic-ancestry bulk load: labels are spaced
    ``G = Θ(lg n)`` apart in a power-of-two universe, so
    ``lg n + lg lg n + O(1)`` bits from the first label on."""
    return max(4, (dynamic_ancestry_universe(n_labels) - 1).bit_length())


def dynamic_ancestry_label_bits_bound(n_labels: int) -> int:
    """The bit-length invariant of the dynamic ancestry scheme:
    ``lg n + lg lg n + O(1)``.

    Holds at *every point* of any insert/delete sequence: gap-splitting
    inserts never raise the maximum value, dyadic respacing stays inside
    its range, and global renumbering only runs when the live count has
    left the universe's density band (growth at density > 1/4, shrink at
    4x oversize), so ``capacity <= 16 n G`` throughout — the constant
    here covers that hysteresis plus the 16-slot capacity floor.  The
    Hypothesis state machine asserts the scheme against this bound."""
    if n_labels <= 1:
        return 11
    log_n = math.ceil(math.log2(max(2, n_labels)))
    return log_n + math.ceil(math.log2(max(2, log_n))) + 7


def fits_machine_word(bits: int, word_bits: int = MACHINE_WORD_BITS) -> bool:
    """Whether a label of ``bits`` bits fits one machine word."""
    return bits <= word_bits


def wbox_supported_labels(word_bits: int, config: BoxConfig) -> int:
    """How many labels a W-BOX can maintain within ``word_bits``-bit labels
    (the paper: 32-bit labels with a = k = 64 support >= 2.58M labels).

    Inverts the smooth form of Theorem 4.4 numerically."""
    low, high = 1, 1 << word_bits
    while low < high:
        mid = (low + high + 1) // 2
        if wbox_label_bits_bound_exact(mid, config) <= word_bits:
            low = mid
        else:
            high = mid - 1
    return low
