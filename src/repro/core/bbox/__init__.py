"""B-BOX: back-linked keyless B-tree for ordering XML (Section 5)."""

from ..._exports import lazy_exports

__all__ = lazy_exports(__name__, {".tree": ("BBox",)})
