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

The built-in schemes are registered by module, not by class
(:data:`BUILTIN`): a name imports its scheme's module the first time it is
resolved, so a W-BOX server never loads B-BOX, naive-k, ORDPATH or the
ancestry schemes.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping

from ..config import BoxConfig
from ..errors import ReproError
from ..storage import BlockStore
from .interface import LabelingScheme

SchemeFactory = Callable[[BoxConfig | None, BlockStore | None], LabelingScheme]

#: Built-in class name -> (its module, user-facing name -> constructor kwargs).
BUILTIN: dict[str, tuple[str, Mapping[str, Mapping[str, Any]]]] = {
    "WBox": (".wbox.tree", {"wbox": {}, "wbox-ordinal": {"ordinal": True}}),
    "WBoxO": (".wbox.pairs", {"wboxo": {}}),
    "BBox": (".bbox.tree", {"bbox": {}, "bbox-o": {"ordinal": True}}),
    "NaiveScheme": (".naive", {}),
    "OrdPath": (".ordpath", {"ordpath": {}}),
    "AncestryScheme": (".ancestry", {"ancestry": {}}),
    "AncestryDynamic": (".ancestry", {"ancestry-dyn": {}}),
}

#: Class name -> the class, or the module that defines it until first use.
_CLASSES: dict[str, type[LabelingScheme] | str] = {}
#: User-facing name -> (class name, constructor kwargs).
_VARIANTS: dict[str, tuple[str, Mapping[str, Any]]] = {}


def _register(type_name: str, cls: type[LabelingScheme] | str,
              names: Mapping[str, Mapping[str, Any]] | None) -> None:
    _CLASSES[type_name] = cls
    for name, kwargs in (names or {}).items():
        _VARIANTS[name] = (type_name, kwargs)


def register_scheme(
    cls: type[LabelingScheme],
    names: Mapping[str, Mapping[str, Any]] | None = None,
) -> None:
    """Register ``cls`` under its class name (for persistence) and under
    each user-facing name in ``names``, which maps a name to the
    constructor keyword arguments of that variant."""
    _register(cls.__name__, cls, names)


def scheme_class(type_name: str) -> type[LabelingScheme] | None:
    """The registered class named ``type_name`` (``None`` if there is none)."""
    cls = _CLASSES.get(type_name)
    if isinstance(cls, str):
        cls = _CLASSES[type_name] = getattr(import_module(cls, __package__), type_name)
    return cls


def _variant(name: str) -> tuple[type[LabelingScheme], Mapping[str, Any]]:
    variant = _VARIANTS.get(name)
    if variant is not None:
        type_name, kwargs = variant
        return scheme_class(type_name), kwargs
    family, _, gap_bits = name.partition("-")
    if family == "naive" and gap_bits.isdigit():
        return scheme_class("NaiveScheme"), {"gap_bits": int(gap_bits)}
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


for _type_name, (_module, _names) in BUILTIN.items():
    _register(_type_name, _module, _names)
