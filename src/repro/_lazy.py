"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from heavy submodules lists
them once, in a name -> defining-module table, and resolves each on first
attribute access::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "ClusterConfig": "repro.cluster.config",
        ...
    })

So ``import repro.serve.api`` imports the ``repro`` package without
loading numpy, the simulator or the lint engine, while
``from repro import ClusterConfig`` and ``from repro import *`` behave as
if the names had been imported eagerly.  A resolved name is stored in the
package's namespace, so later lookups never reach ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each exported name to the dotted module defining it;
    ``__all__`` is its keys, in table order.
    """

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return list(table), __getattr__, __dir__
