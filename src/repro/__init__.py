"""BOXes: I/O-efficient maintenance of order-based labeling for dynamic XML
data — a reproduction of Silberstein, He, Yi & Yang (ICDE 2005).

Quickstart::

    from repro import BBox, LabeledDocument, parse

    doc = LabeledDocument(BBox(), parse("<site><regions/><people/></site>"))
    regions = doc.root.children[0]
    print(doc.labels(regions))            # (start, end) labels

See :mod:`repro.core` for the labeling schemes (W-BOX, W-BOX-O, B-BOX,
B-BOX-O, naive-k), :mod:`repro.storage` for the I/O-counting substrate,
:mod:`repro.xml` for the XML substrate, :mod:`repro.query` for label-based
query operators, and :mod:`repro.workloads` for the paper's insertion
sequences.
"""

from .config import BENCH_CONFIG, TINY_CONFIG, BoxConfig
from .core import (
    AncestryDynamic,
    AncestryScheme,
    BatchExecutor,
    BatchOp,
    BatchRef,
    BatchResult,
    BBox,
    CachedLabelStore,
    LabeledDocument,
    LabelingScheme,
    ModificationLog,
    NaiveScheme,
    OrdPath,
    WBox,
    WBoxO,
)
from .errors import ReproError
from .service import (
    Epoch,
    EpochVector,
    ServiceStats,
    ShardedLabelService,
    ShardedReaderSession,
)
from .storage import BlockStore, HeapFile, IOStats
from .xml import Element, parse, serialize

__version__ = "1.0.0"

__all__ = [
    "BoxConfig",
    "BENCH_CONFIG",
    "TINY_CONFIG",
    "LabelingScheme",
    "WBox",
    "WBoxO",
    "BBox",
    "NaiveScheme",
    "OrdPath",
    "AncestryScheme",
    "AncestryDynamic",
    "BatchExecutor",
    "BatchOp",
    "BatchRef",
    "BatchResult",
    "LabeledDocument",
    "CachedLabelStore",
    "ModificationLog",
    "ShardedLabelService",
    "ShardedReaderSession",
    "Epoch",
    "EpochVector",
    "ServiceStats",
    "BlockStore",
    "HeapFile",
    "IOStats",
    "Element",
    "parse",
    "serialize",
    "ReproError",
    "__version__",
]
