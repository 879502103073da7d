"""Numeric thresholds and the decisions that read them.

Every threshold lives in this module, and so does every near-equality
decision: one strict comparison, strictly_less, whose negation is "x >= y
up to slack", and one routine, tie_runs, that chains sorted values into
runs of ties. The thresholds are fixed constants: no caller varies them.
"""

__all__: list[str] = []


# _REL_EPS is the relative comparison slack of strictly_less,
# _DEGENERATE_GAP the relative spectral-gap floor below which an eigenpair
# is flagged degenerate, _LAMBDA_TIE the absolute tie window between
# eigenvalues of distinct supertrees, _BOUNDARY_ZERO the largest |f| on a
# boundary vertex that relabel still reads as an eigenfunction's zero.
_REL_EPS = 1e-10
_DEGENERATE_GAP = 1e-9
_LAMBDA_TIE = 1e-10
_BOUNDARY_ZERO = 1e-12


def strictly_less(x: float, y: float) -> bool:
    """x < y beyond the comparison slack: y - x > _REL_EPS * max(1, |x|, |y|).
    Its negation is x >= y up to the slack."""
    return y - x > _REL_EPS * max(1.0, abs(x), abs(y))


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
