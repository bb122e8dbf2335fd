"""The scheme registry: the one place a scheme name becomes a constructor.

Two kinds of name reach the program from outside: a **user-facing name**
(``--scheme wbox-ordinal``, a chaos sweep's ``schemes=["bbox-o"]``), which
:func:`scheme_factory` resolves to a ``(config, store) -> scheme``
callable, and a **persisted class name** (the ``"scheme"`` field of a
snapshot header or of a page file's commit metadata), which
:func:`scheme_class` resolves to the class whose ``from_persisted`` /
``restore_state`` rebuild the instance.  A scheme defined elsewhere joins
with :func:`register_scheme`; the CLI, the chaos sweeps and the
persistence layer then handle it without naming its class.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..config import BoxConfig
from ..errors import ReproError
from ..storage import BlockStore
from .ancestry import AncestryDynamic, AncestryScheme
from .bbox.tree import BBox
from .interface import LabelingScheme
from .naive import NaiveScheme
from .ordpath import OrdPath
from .wbox.pairs import WBoxO
from .wbox.tree import WBox

SchemeFactory = Callable[[BoxConfig | None, BlockStore | None], LabelingScheme]

_CLASSES: dict[str, type[LabelingScheme]] = {}
_VARIANTS: dict[str, tuple[type[LabelingScheme], Mapping[str, Any]]] = {}


def register_scheme(
    cls: type[LabelingScheme],
    names: Mapping[str, Mapping[str, Any]] | None = None,
) -> None:
    """Register ``cls`` under its class name (for persistence) and under
    each user-facing name in ``names``, which maps a name to the
    constructor keyword arguments of that variant."""
    _CLASSES[cls.__name__] = cls
    for name, kwargs in (names or {}).items():
        _VARIANTS[name] = (cls, kwargs)


def scheme_class(type_name: str) -> type[LabelingScheme] | None:
    """The registered class named ``type_name`` (``None`` if there is none)."""
    return _CLASSES.get(type_name)


def _variant(name: str) -> tuple[type[LabelingScheme], Mapping[str, Any]]:
    variant = _VARIANTS.get(name)
    if variant is not None:
        return variant
    family, _, gap_bits = name.partition("-")
    if family == "naive" and gap_bits.isdigit():
        return NaiveScheme, {"gap_bits": int(gap_bits)}
    raise ReproError(
        f"unknown scheme {name!r}; choose from "
        f"{', '.join(sorted(_VARIANTS))}, naive-<k>"
    )


def scheme_factory(name: str) -> SchemeFactory:
    """Resolve a user-facing scheme name to a ``(config, store)`` factory
    (``store=None`` means the scheme's default in-memory store).  Raises
    :class:`~repro.errors.ReproError` for a name nobody registered."""
    cls, kwargs = _variant(name)
    return lambda config, store: cls(config=config, store=store, **kwargs)


register_scheme(WBox, {"wbox": {}, "wbox-ordinal": {"ordinal": True}})
register_scheme(WBoxO, {"wboxo": {}})
register_scheme(BBox, {"bbox": {}, "bbox-o": {"ordinal": True}})
register_scheme(NaiveScheme)
register_scheme(OrdPath, {"ordpath": {}})
register_scheme(AncestryScheme, {"ancestry": {}})
register_scheme(AncestryDynamic, {"ancestry-dyn": {}})
