"""Package exports imported on first use (PEP 562)."""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it; a name is imported on its first access.  A shard
    process or a benchmark driver that imports one submodule then does
    not pay, in start-up time and resident memory, for its siblings.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
