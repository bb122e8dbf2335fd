"""Label-based XML query operators.

Order-based labels exist to make these fast: an ancestor/descendant check
is two label comparisons.  :class:`EpochView` is the one structural index:
it holds a set of elements sorted by start label, so an element's
descendants are one bisected range, its span.  Joins, twig matching and
XPath's result order each read their labels once, with one
``lookup_many``, into a view (:func:`document_view`); served queries build
theirs through :class:`QueryEngine` at one pinned epoch.  Every label read
is I/O-accounted.
"""

from .._exports import lazy_exports

__all__ = lazy_exports(__name__, {
    ".streams": ("ElementCatalog", "EpochView", "QueryEngine", "document_view"),
    ".containment": ("containment_join", "containment_join_by_name",
                     "containment_semijoin", "containment_count"),
    ".twig": ("TwigNode", "twig_match"),
    ".xpath": ("xpath=evaluate", "XPathError"),
})
