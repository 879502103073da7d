"""Numeric tolerances.

Every threshold used by the eigenpair report and by comparison helpers lives
in this module. The relative comparison slack is the one settable threshold
(the CLI's --epsilon); the degeneracy floor and the eigenvalue tie window
are fixed constants.
"""

import math
from collections import namedtuple

from .errors import InvalidSpec

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
]


# Fixed, not Tolerances fields: no caller varies them, and --epsilon leaves
# certificates and the eigen report as they are. _DEGENERATE_GAP is the
# relative spectral-gap floor below which an eigenpair is flagged
# degenerate, _LAMBDA_TIE the absolute tie window between eigenvalues of
# distinct supertrees.
_DEGENERATE_GAP = 1e-9
_LAMBDA_TIE = 1e-10


class Tolerances(namedtuple("Tolerances", "rel_eps", defaults=(1e-10,))):
    """Comparison slack, finite and non-negative.

    With ``rel_eps``, |x - y| <= rel_eps * max(1, |x|, |y|) counts as equal
    for computed reals.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not 0.0 <= value < math.inf:
                raise InvalidSpec(f"{name}={value} is not finite and non-negative")
        return self

    # _replace builds through _make, which would skip the check in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


DEFAULT_TOLERANCES = Tolerances()


def _scale(x: float, y: float) -> float:
    return max(1.0, abs(x), abs(y))


def at_least(x: float, y: float, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """x >= y up to the comparison slack."""
    return x >= y - tol.rel_eps * _scale(x, y)


def at_most(x: float, y: float, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """x <= y up to the comparison slack."""
    return x <= y + tol.rel_eps * _scale(x, y)


def strictly_less(x: float, y: float, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """x < y beyond the comparison slack."""
    return y - x > tol.rel_eps * _scale(x, y)
