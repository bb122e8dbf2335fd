"""W-BOX: weight-balanced B-tree for ordering XML (Section 4)."""

from ..._exports import lazy_exports

__all__ = lazy_exports(__name__, {".tree": ("WBox",), ".pairs": ("WBoxO",)})
