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
sequences.  Every public name is imported from its module the first time
it is read, so ``from repro import WBox`` loads W-BOX and what it needs,
not the rest of the package.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__all__ = lazy_exports(__name__, {
    ".config": ("BoxConfig", "BENCH_CONFIG", "TINY_CONFIG"),
    ".core.interface": ("LabelingScheme",),
    ".core.wbox.tree": ("WBox",),
    ".core.wbox.pairs": ("WBoxO",),
    ".core.bbox.tree": ("BBox",),
    ".core.naive": ("NaiveScheme",),
    ".core.ordpath": ("OrdPath",),
    ".core.ancestry": ("AncestryScheme", "AncestryDynamic"),
    ".core.batch": ("BatchExecutor", "BatchOp", "BatchRef", "BatchResult"),
    ".core.document": ("LabeledDocument",),
    ".core.cachelog": ("CachedLabelStore", "ModificationLog"),
    ".service.sharded": ("ShardedLabelService", "ShardedReaderSession", "EpochVector"),
    ".service.epoch": ("Epoch",),
    ".service.stats": ("ServiceStats",),
    ".storage.blockstore": ("BlockStore",),
    ".storage.heapfile": ("HeapFile",),
    ".storage.stats": ("IOStats",),
    ".xml.model": ("Element",),
    ".xml.parser": ("parse",),
    ".xml.writer": ("serialize",),
    ".errors": ("ReproError",),
}) + ["__version__"]
