"""Lazy package namespaces (PEP 562): a package costs what its user touches.

A package ``__init__`` that imports every leaf module makes a phone doing
``from repro.serve import RemoteDevice`` and a shard worker running
``repro.serve.cli`` load the simulator, the experiment layer and the run
store.  Instead each package declares ``{public name: leaf module}`` and
hands it to :func:`lazy_namespace`; a name is imported on first touch and
cached in the package's own dict, so ``__getattr__`` fires once per name
per process and never on a round path.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_namespace(package: str, exports: dict[str, str]) -> tuple:
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``exports`` maps each public name to the submodule (relative to
    ``package``) that defines it.  Any other public attribute is tried as
    a submodule, so ``repro.core`` or ``repro.serve.wire`` resolve after a
    bare ``import repro`` exactly as they did when every ``__init__``
    imported its whole tree.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        leaf = exports.get(name)
        if leaf is not None:
            value = getattr(import_module(f"{package}.{leaf}"), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__, list(exports)
