"""XML substrate: tree model, parser, writer, and document generators.
Each name imports its module on first use."""

from .._exports import lazy_exports

__all__ = lazy_exports(__name__, {
    ".model": ("Element", "Tag", "TagKind", "document_tags", "element_count", "tree_depth"),
    ".parser": ("parse",),
    ".writer": ("serialize",),
    ".generator": ("two_level_document", "random_document"),
    ".xmark": ("xmark_document",),
})
