"""k-uniform supertrees with boundary: Dirichlet spectra, spiral-like
orderings, structure rewiring, and exhaustive Faber-Krahn verification.

Each module's ``__all__`` is the one list of its public names. Importing the
package imports no module; the first lookup of a name imports the modules in
dependency order until one lists it, and stores the value, so later lookups
are plain global reads (PEP 562). No module imports numpy at module level:
``spectral`` imports it inside the functions that solve.
"""

import importlib
import sys

__version__ = "0.1.0"

# dependency order: each module imports only modules listed before it
_MODULES = ("errors", "config", "core", "slo", "transforms", "enumeration", "spectral")


def _names(module: str) -> list[str]:
    return importlib.import_module(f".{module}", __name__).__all__


def __getattr__(name: str):
    if name == "__all__":
        value = [n for module in _MODULES for n in _names(module)]
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        # no public name starts with "_", so a dunder probe imports nothing
        module = next(
            (m for m in _MODULES if not name.startswith("_") and name in _names(m)), None
        )
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULES) | set(sys.modules[__name__].__all__))
