"""Lazy package exports: a submodule is imported when one of its names is
first read (PEP 562).

Each package ``__init__`` names its public API once, in one table from
owning submodule to the names it exports, and binds what
:func:`lazy_exports` builds from it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "config": ("ParallelConfig", "changed_stages"),
        "validation": ("ConfigError", "validate_config"),
    })

``import repro.parallel`` then imports no submodule; reading
``repro.parallel.ParallelConfig`` imports ``repro.parallel.config`` and
caches the class in the package namespace, so later reads are plain
attribute lookups.  ``from package import *`` binds exactly
``__all__``.  To add an export, add its name to its submodule's entry.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The module ``__getattr__``, ``__dir__`` and ``__all__`` of
    ``package``, whose ``table`` maps each submodule (relative dotted
    path) to the public names it defines.

    A name that is also its owner's module name (``repro.core.finetune``
    is a function in module ``repro.core.finetune``) is bound now:
    importing a submodule binds it on its package, which would
    otherwise hide the function behind its own module.
    """
    owners: Dict[str, str] = {}
    for submodule, names in table.items():
        for name in names:
            if name in owners:
                raise ValueError(f"{package} exports {name!r} twice")
            owners[name] = f"{package}.{submodule}"

    def __getattr__(name: str):
        try:
            owner = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(owner), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    for name, owner in owners.items():
        if owner == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, __dir__, sorted(owners)
