"""Lazy package re-exports (PEP 562).

A package that re-exports names from its submodules would otherwise
import every submodule the moment any one of them is used, so the CLI
would pay for the orchestration and analysis stacks on every command.
:func:`attach` returns the module-level ``__getattr__``, ``__dir__`` and
``__all__`` that resolve each exported name on first access instead::

    __getattr__, __dir__, __all__ = attach(__name__, globals(), {
        "repro.core.runner": ("RunConfig", "SuiteRunner"),
    })
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def attach(
    package: str,
    namespace: "dict[str, Any]",
    exports: "Mapping[str, tuple[str, ...]]",
    eager: "tuple[str, ...]" = (),
) -> "tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]":
    """Build the lazy hooks for *package*.

    *exports* maps a module name to the names re-exported from it; a
    resolved name is cached in *namespace* (the package's ``globals()``)
    so each is imported once.  *eager* lists names the package binds
    itself; they join ``__all__`` as-is.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> "list[str]":
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted([*origin, *eager])
