"""k-uniform supertrees with boundary: Dirichlet spectra, spiral-like
orderings, structure rewiring, and exhaustive Faber-Krahn verification.

Each module's ``__all__`` is the one list of its public names. Only
``spectral`` imports numpy, and the package imports it on the first lookup
of one of its names (PEP 562), so the rest starts without numpy."""

import importlib

from . import core, enumeration, errors, slo, transforms
from .config import DEFAULT_TOLERANCES, Tolerances
from .core import *
from .enumeration import *
from .errors import *
from .slo import *
from .transforms import *

__version__ = "0.1.0"

_SPECTRAL = ("DirichletEigenpair", "DirichletLaplacian", "assemble_laplacian",
             "dirichlet_laplacian", "first_dirichlet_eigenpair",
             "first_dirichlet_eigenvalues", "rayleigh_quotient")


def __getattr__(name: str):
    if name != "spectral" and name not in _SPECTRAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # stored, so that later lookups are plain global reads
    module = importlib.import_module(".spectral", __name__)
    globals()[name] = value = module if name == "spectral" else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SPECTRAL))


__all__ = [
    "DEFAULT_TOLERANCES",
    "Tolerances",
    *core.__all__,
    *enumeration.__all__,
    *errors.__all__,
    *slo.__all__,
    *transforms.__all__,
    *_SPECTRAL,
]
