"""Numeric tolerances.

Every threshold used by the eigenpair report and by comparison helpers lives
in one frozen record so the CLI can override them in a single place and tests
can state them explicitly.
"""

import math
from dataclasses import dataclass

from .errors import InvalidSpec

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "at_least",
    "at_most",
    "strictly_less",
]


@dataclass(frozen=True)
class Tolerances:
    # |x - y| <= rel_eps * max(1, |x|, |y|) counts as equal for computed reals
    rel_eps: float = 1e-10
    # relative spectral-gap floor below which an eigenpair is flagged degenerate
    degenerate_gap: float = 1e-9
    # absolute tie window between eigenvalues of distinct supertrees
    lambda_tie: float = 1e-10

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 <= value < math.inf:
                raise InvalidSpec(f"{name}={value} is not finite and non-negative")


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
