"""Lazy package façades (PEP 562).

A package ``__init__`` imports none of its modules.  It names what it
offers in one table, ``{module: (name, ...)}``, and the first read of a
name (``from repro.obs import EventTracer``, ``repro.HybridRunner``)
imports the one module that defines it.  The value is then kept on the
package, so a later read is a plain attribute lookup.  A process pays
for the modules it uses, not for every module its packages could offer.
"""

import sys
from importlib import import_module


def _exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` of the façade of ``package`` over ``table``."""
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in source:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(source[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(source), __getattr__
