"""Numeric thresholds and the decisions that read them.

Every threshold lives in this module, and so does every near-equality
decision: one strict comparison, strictly_less, whose negation is "x >= y
up to slack", and one routine, ranked, that sorts by a key and orders each
run of keys with no strictly_less between them by a tiebreak. The
thresholds are fixed constants: no caller varies them.
"""

__all__: list[str] = []


# _REL_EPS is the relative comparison slack of strictly_less,
# _BOUNDARY_ZERO the largest |f| on a boundary vertex that relabel still
# reads as an eigenfunction's zero.
_REL_EPS = 1e-10
_BOUNDARY_ZERO = 1e-12


def strictly_less(x: float, y: float) -> bool:
    """x < y beyond the comparison slack: y - x > _REL_EPS * max(1, |x|, |y|).
    Its negation is x >= y up to the slack."""
    return y - x > _REL_EPS * max(1.0, abs(x), abs(y))


def ranked(items, key, tiebreak) -> list:
    """items by ascending key, each key computed once. Neighbours with no
    strictly_less between them form one tie group, ordered by tiebreak;
    ties chain, so a group may span more than one slack."""
    keyed = sorted(((key(item), item) for item in items), key=lambda kv: kv[0])
    groups: list[list] = []
    for i, (value, item) in enumerate(keyed):
        if i and not strictly_less(keyed[i - 1][0], value):
            groups[-1].append(item)
        else:
            groups.append([item])
    return [item for group in groups for item in sorted(group, key=tiebreak)]
