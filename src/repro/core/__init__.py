"""Core labeling schemes: W-BOX, B-BOX, their variants, and the naive-k
baseline, plus the LID indirection and caching/logging layers.  Each name
imports its module on first use."""

from .._exports import lazy_exports

__all__ = lazy_exports(__name__, {
    ".interface": ("LabelingScheme", "LabelKind"),
    ".ancestry": ("AncestryDynamic", "AncestryScheme"),
    ".batch": ("AmortizedCost", "BatchExecutor", "BatchOp", "BatchRef", "BatchResult"),
    ".naive": ("NaiveScheme",),
    ".ordpath": ("OrdPath",),
    ".wbox.tree": ("WBox",),
    ".wbox.pairs": ("WBoxO",),
    ".bbox.tree": ("BBox",),
    ".document": ("LabeledDocument",),
    ".registry": ("register_scheme", "scheme_class", "scheme_factory"),
    ".cachelog": (
        "CachedLabelStore", "LogSnapshot", "ModificationLog", "RangeShift", "Invalidate",
    ),
})
