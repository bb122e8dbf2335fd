"""The churn workload: a mixed insert/delete stream over a two-level base
document, run through the one tape runner.

Not one of the paper's three plotted sequences, but the workload its
deletion analysis speaks to: Theorem 4.6's O(1) amortized W-BOX delete
(global rebuilding) and Theorem 5.3's O(1) amortized mixed updates for
B-BOX.  The soak and churn tests run it.
"""

from __future__ import annotations

from repro.core.interface import LabelingScheme
from repro.workloads import WorkloadResult, churn_tape, run_tape, two_level_pairing


def run_churn(
    scheme: LabelingScheme,
    base_elements: int,
    operations: int,
    delete_fraction: float = 0.5,
    seed: int = 1,
    group_size: int = 1,
) -> WorkloadResult:
    """:func:`~repro.workloads.churn_tape` on a fresh ``scheme``, after
    bulk-loading a two-level document of ``base_elements`` children."""
    before = scheme.stats.snapshot()
    lids = scheme.bulk_load(2 * (base_elements + 1), two_level_pairing(base_elements))
    bulk_load_io = (scheme.stats.snapshot() - before).total
    tape = churn_tape(lids, base_elements, operations, delete_fraction, seed)
    return run_tape(scheme, "churn", tape, group_size, bulk_load_io=bulk_load_io)
