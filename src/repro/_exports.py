"""Package re-exports that import their module on first use.

A package ``__init__`` names the submodule that defines each public name;
the package's PEP 562 ``__getattr__`` imports that submodule the first
time the name is read and caches the value in the package namespace.  So
importing a package costs the package alone, and ``from repro import
WBox`` loads W-BOX's modules without B-BOX's or the XML kit's.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Mapping, Sequence


class _Package(ModuleType):
    """A package with lazy exports.  The import system binds every loaded
    submodule as an attribute of its package; a public name of the same
    name wins (``repro.query.xpath`` is the function, as it was when the
    package imported it eagerly)."""

    def __setattr__(self, name: str, value: Any) -> None:
        if not (isinstance(value, ModuleType) and name in self.__dict__["_exports"]):
            super().__setattr__(name, value)


def lazy_exports(package: str, table: Mapping[str, Sequence[str]]) -> list[str]:
    """Make ``table`` (submodule -> the public names it defines, each
    ``"name"`` or ``"name=attribute"``) the lazy exports of ``package``;
    returns the names, for its ``__all__``."""
    module = sys.modules[package]
    namespace = module.__dict__
    exports: dict[str, tuple[str, str]] = {}
    for source, names in table.items():
        for entry in names:
            name, _, attribute = entry.partition("=")
            exports[name] = (source, attribute or name)

    def __getattr__(name: str) -> Any:
        try:
            source, attribute = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(source, package), attribute)
        return value

    namespace["_exports"] = exports
    namespace["__getattr__"] = __getattr__
    module.__class__ = _Package
    return list(exports)
