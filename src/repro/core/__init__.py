"""Core labeling schemes: W-BOX, B-BOX, their variants, and the naive-k
baseline, plus the LID indirection and caching/logging layers."""

from .interface import LabelingScheme, LabelKind
from .ancestry import AncestryDynamic, AncestryScheme
from .batch import AmortizedCost, BatchExecutor, BatchOp, BatchRef, BatchResult
from .naive import NaiveScheme
from .ordpath import OrdPath
from .wbox.tree import WBox
from .wbox.pairs import WBoxO
from .bbox.tree import BBox
from .document import LabeledDocument
from .registry import register_scheme, scheme_class, scheme_factory
from .cachelog import CachedLabelStore, LogSnapshot, ModificationLog, RangeShift, Invalidate

__all__ = [
    "LabelingScheme",
    "LabelKind",
    "AncestryDynamic",
    "AncestryScheme",
    "AmortizedCost",
    "BatchExecutor",
    "BatchOp",
    "BatchRef",
    "BatchResult",
    "NaiveScheme",
    "OrdPath",
    "WBox",
    "WBoxO",
    "BBox",
    "LabeledDocument",
    "register_scheme",
    "scheme_class",
    "scheme_factory",
    "CachedLabelStore",
    "LogSnapshot",
    "ModificationLog",
    "RangeShift",
    "Invalidate",
]
