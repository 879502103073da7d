"""Numeric tolerances.

Every threshold used by the eigenpair report and by comparison helpers lives
in one immutable record so the CLI can override them in a single place and
tests can state them explicitly.
"""

import math
from collections import namedtuple

from .errors import InvalidSpec

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
]


class Tolerances(namedtuple("Tolerances", "rel_eps degenerate_gap lambda_tie",
                            defaults=(1e-10, 1e-9, 1e-10))):
    """Comparison thresholds, each finite and non-negative.

    With ``rel_eps``, |x - y| <= rel_eps * max(1, |x|, |y|) counts as equal
    for computed reals; ``degenerate_gap`` is the relative spectral-gap floor
    below which an eigenpair is flagged degenerate, and ``lambda_tie`` the
    absolute tie window between eigenvalues of distinct supertrees.
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
