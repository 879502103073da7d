"""Numeric tolerances and the decisions that read them.

Every threshold lives in this module, and so does every near-equality
decision: one strict comparison, strictly_less, whose negation is "x >= y
up to slack", and one routine, tie_runs, that chains sorted values into
runs of ties. The relative comparison slack is the one settable threshold
(the CLI's --epsilon); the degeneracy floor, the eigenvalue tie window and
the boundary-zero threshold are fixed constants.
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
# distinct supertrees, _BOUNDARY_ZERO the largest |f| on a boundary vertex
# that relabel still reads as an eigenfunction's zero.
_DEGENERATE_GAP = 1e-9
_LAMBDA_TIE = 1e-10
_BOUNDARY_ZERO = 1e-12


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


def strictly_less(x: float, y: float, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """x < y beyond the comparison slack; its negation is x >= y up to it."""
    return y - x > tol.rel_eps * _scale(x, y)


def tie_runs(items, value, close) -> list[list]:
    """Cut a list sorted by ``value`` into maximal runs whose neighbours are
    ``close(previous value, next value)``; ties chain, so a run may span
    more than one window."""
    runs: list[list] = []
    for item in items:
        v = value(item)
        if runs and close(last, v):
            runs[-1].append(item)
        else:
            runs.append([item])
        last = v
    return runs
