"""Lazy package namespaces (PEP 562).

A package ``__init__`` maps its public names to the submodules they come
from and installs the ``__getattr__`` / ``__dir__`` pair :func:`exports`
returns: importing the package then imports none of its submodules, and
a name's submodule is imported the first time the name is read
(``pkg.name``, ``from pkg import name``, ``from pkg import *``).  The
value is then stored in the package namespace, so every later read is a
plain attribute lookup.  A submodule is reachable as an attribute too,
as it was when the package imported it eagerly.  So ``repro serve``
never compiles the algorithm library and ``import repro`` costs only
itself.

One name is exported from a submodule of the same name
(``repro.algorithms.pagerank``, the function): importing that submodule
by its dotted name *before* reading the name binds the module there
instead, as the import system always does for a package's children.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Tuple


def exports(
    package: str, names: Dict[str, Iterable[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose ``names`` maps
    a relative submodule (``".graph"``) to the names read from it."""
    source = {name: module for module, group in names.items() for name in group}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):  # not a probe (``__wrapped__``, ...)
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source) | set(namespace["__all__"]))

    return __getattr__, __dir__
