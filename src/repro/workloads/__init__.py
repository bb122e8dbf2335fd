"""The paper's experimental workloads (Section 7) and cost metrics.  Each
name imports its module on first use."""

from .._exports import lazy_exports

__all__ = lazy_exports(__name__, {
    ".sequences": (
        "apply_tape_step",
        "churn_edit_batches",
        "churn_tape",
        "concentrated_edit_batches",
        "concentrated_tape",
        "crash_recovery_tape",
        "read_op_stream",
        "run_concentrated",
        "run_scattered",
        "run_stress",
        "run_tape",
        "run_xmark_build",
        "scattered_tape",
        "two_level_pairing",
        "xmark_tape",
        "StressResult",
        "WorkloadResult",
    ),
    ".metrics": ("amortized_cost", "summarize"),
})
