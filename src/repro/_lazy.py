"""Package re-exports that load their submodule on first use (PEP 562).

A package ``__init__`` that imports every submodule to re-export its
names makes ``import repro.campaigns.executor`` pay for the distributed
queue, the export writers and everything else in the package.  With
:func:`lazy_exports` the package keeps the same public names, but each
one imports its submodule only when it is first looked up.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]],
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a relative submodule name (``".query"``) to the
    names the package re-exports from it.  A name is looked up in its
    submodule on first access and then stored on the package, so later
    accesses are plain attribute reads.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owner.keys())

    return sorted(owner), __getattr__, __dir__
