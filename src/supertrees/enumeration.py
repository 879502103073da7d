"""Exhaustive enumeration of supertree families and extremality checks.

Every supertree with at least two edges loses a leaf edge to a smaller one,
so growing classes one pendant edge at a time from a single edge reaches
them all. One pass over each parent's centroid-rooted encoding gives the
code of the child at the lowest vertex of every automorphism orbit; only a
child with a new code is built, and its encoding is derived from its
parent's when it is grown. One function, _families, keys the grown classes
by (n, n0, ascending interior degrees) and maps each family to its
classes: a key is a degree-sequence family, and the min-degree family
T_d(n, n0) is the union of its (n, n0)'s keys whose interior degrees are
all at least max(2, d). A single query (_members) grows under a
descending bound on its interior degrees and, up to 2,000 classes, is
scored class by class in pure Python without loading numpy; a sweep grows
once unbounded, and its families (or one larger family) are scored
through one first_dirichlet_eigenvalues call: one eigensolve per interior
size. The check: within each family the SLO-supertree attains the smallest
first Dirichlet eigenvalue, strictly below every other class.
"""

import math
from collections import namedtuple

from .config import ranked, strictly_less
from .core import (
    CanonicalCode,
    DegreeSequence,
    Supertree,
    _attach_leaf,
    _CentroidTree,
    _index,
    build_supertree,
    canonical_code,
)
from .errors import (
    BadVertexId,
    EmptyFamily,
    InfeasibleDegreeSequence,
    NotKUniform,
)

__all__ = [
    "FamilySpec",
    "FkCertificate",
    "feasible_degree_sequences",
    "enumerate_supertrees",
    "enumerate_family",
    "verify_fk_theorem1",
    "verify_fk_theorem2",
    "fk1_sweep",
    "fk2_sweep",
]


class FamilySpec(namedtuple("FamilySpec", "kind k pi n n0 d",
                            defaults=(None, None, None, None))):
    """Identifies an enumerated family for reports.

    kind "pi" fixes a degree sequence; kind "min_degree" fixes vertex
    count n and interior count n0 and bounds the interior degrees from
    below by d.
    """

    __slots__ = ()

    def describe(self) -> str:
        if self.kind == "pi":
            return f"T_pi(k={self.k},pi={self.pi})"
        return f"T_d(n={self.n},n0={self.n0},k={self.k},d={self.d})"


class FkCertificate(namedtuple(
        "FkCertificate",
        "family winner winner_lambda slo_code all_lambdas unique slo_match margin")):
    """Outcome of one extremality check over a fully enumerated family.

    ``winner`` is the class listed first, of eigenvalue ``winner_lambda``,
    and ``slo_code`` the canonical code of the predicted SLO-supertree.
    ``all_lambdas`` lists (canonical code, eigenvalue) for every isomorphism
    class, eigenvalues ascending; classes tied under config.ranked, with no
    config.strictly_less between neighbours, are listed by canonical code.
    ``margin`` is the runner-up's eigenvalue minus the winner's (infinite
    for a one-class family), and ``unique`` asserts the winner is
    strictly_less than the runner-up; ``slo_match`` asserts the winner is
    the predicted SLO-supertree.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.unique and self.slo_match


def _ascending_partitions(total: int, count: int, low: int):
    """Non-decreasing count-tuples of parts >= low summing to total, in
    lexicographic order."""
    if count == 0:
        if total == 0:
            yield ()
        return
    parts = [low] * (count - 1) + [total - low * (count - 1)]
    if parts[-1] < low:
        return
    while True:
        yield tuple(parts)
        # raise the rightmost part that the later ones can still follow and
        # make those as small as they can be; rest is the sum of parts[i:]
        rest = parts[-1]
        for i in range(count - 2, -1, -1):
            rest += parts[i]
            x, tail = parts[i] + 1, count - 1 - i
            if rest - x >= tail * x:
                break
        else:
            return
        parts[i:] = [x] * tail + [rest - x * tail]


def _min_degree_family(n, n0, k, d) -> FamilySpec:
    """The spec of T_d(n, n0) with edge size k, each parameter read as an
    integer before anything else looks at it: NotKUniform for k,
    BadVertexId for n, InfeasibleDegreeSequence for n0 and d."""
    return FamilySpec(
        kind="min_degree",
        k=_index(k, NotKUniform, "edge size"),
        n=_index(n, BadVertexId, "vertex count"),
        n0=_index(n0, InfeasibleDegreeSequence, "interior count"),
        d=_index(d, InfeasibleDegreeSequence, "minimum degree"),
    )


def _flattest_sequence(family: FamilySpec) -> DegreeSequence | None:
    """(d, ..., d, d') with n0 interior entries, d' taking the remainder, or
    all ones for the single edge (n0 = 0, n = k); None when no supertree has
    n vertices, n0 interior ones and interior degrees at least d: k < 2, n0
    outside 0..n, (n-1) not a multiple of (k-1), n0 = 0 with n != k, or
    d' < max(2, d)."""
    _, k, _, n, n0, d = family
    if k < 2 or not 0 <= n0 <= n or (n - 1) % (k - 1) != 0:
        return None
    if n0 == 0:
        return DegreeSequence(k, (1,) * n) if n == k else None
    m = (n - 1) // (k - 1)
    dm = max(2, d)
    dprime = (k * m - (n - n0)) - (n0 - 1) * dm
    if dprime < dm:
        return None
    return DegreeSequence(k, (dm,) * (n0 - 1) + (dprime,) + (1,) * (n - n0))


def feasible_degree_sequences(
    n: int, n0: int, k: int, d_min: int = 2
) -> list[DegreeSequence]:
    """Degree sequences of supertrees on n vertices with n0 interior
    vertices, every interior degree at least d_min, ascending order.

    Every returned sequence is realizable (the greedy SLO construction
    realizes it); infeasible parameters give the empty list.
    """
    family = _min_degree_family(n, n0, k, d_min)
    flattest = _flattest_sequence(family)
    if flattest is None:
        return []
    return [
        DegreeSequence(flattest.k, part + flattest.entries[flattest.n0:])
        for part in _ascending_partitions(
            sum(flattest.interior), flattest.n0, max(2, family.d))
    ]


def _grow_classes(k: int, m_target: int, bound=None) -> list:
    """Isomorphism classes of supertrees with 1..m_target edges whose
    interior degrees, sorted descending, fit pointwise under the descending
    bound (when given): layer i lists the classes with i + 1 edges as
    (canonical code, supertree), in code order. Degrees only rise as edges
    are added, so every class that fits grows from classes that fit. Only
    the first edge is encoded from scratch; a kept child is held as its
    parent's encoding and v, and derived when it is grown itself, so the
    last layer holds no encoding."""
    if m_target < 1:
        return []
    start = build_supertree(k, k, [tuple(range(k))])
    first = _CentroidTree(start, k + (m_target - 1) * (k - 1))
    layers, sources = [[(first.code, start)]], [(first, None)]
    for m in range(2, m_target + 1):
        grown: dict[CanonicalCode, tuple] = {}
        for (_, G), (tree, v) in zip(layers[-1], sources):
            tree = tree if v is None else tree.child(v)
            fits = None if bound is None else _raisable(G.degrees, bound)
            held = tree if m < m_target else None
            for code, w in tree.leaf_children(fits):
                if code not in grown:
                    grown[code] = (_attach_leaf(G, w), held, w)
        kept = sorted(grown.items())
        layers.append([(code, H) for code, (H, _, _) in kept])
        sources = [(tree, w) for _, (_, tree, w) in kept]
    return layers


def _raisable(degrees, bound) -> list[int]:
    """Vertices, ascending, where a pendant edge keeps interior degrees under
    bound: sorted descending, the first d (new last for d = 1) becomes d + 1."""
    desc = sorted((d for d in degrees if d >= 2), reverse=True)
    at = {d: desc.index(d) if d >= 2 else len(desc) for d in set(degrees)}
    fits = {d for d, i in at.items() if i < len(bound) and d + 1 <= bound[i]}
    return [v for v, d in enumerate(degrees) if d in fits]


def _families(k: int, n_max: int, d: int | None = None, bound=None) -> dict:
    """{family: its classes in code order} for edge size k, keys ascending.
    Each class is keyed by (n, n0, ascending interior degrees): unbounded (a
    sweep), every class with at most n_max vertices; under a bound (a single
    query, see _grow_classes), only the classes of the last layer grown,
    which have n_max vertices when n_max - 1 is a multiple of k - 1. With d
    None every key is the degree-sequence family T_pi; otherwise T_d(n, n0)
    is the union of its (n, n0)'s keys whose interior degrees are all at
    least max(2, d), for every (n, n0) where that is nonempty. Families with
    n0 = 0 are included. NotKUniform for k not an integer or below 2,
    BadVertexId for n_max not an integer."""
    k = _index(k, NotKUniform, "edge size")
    n_max = _index(n_max, BadVertexId, "vertex bound")
    if k < 2:
        raise NotKUniform(f"edge size must be at least 2, got k={k}")
    layers = _grow_classes(k, (n_max - 1) // (k - 1), bound)
    buckets: dict[tuple[int, int, tuple[int, ...]], list] = {}
    for layer in layers if bound is None else layers[-1:]:
        for code, G in layer:
            interior = tuple(sorted(x for x in G.degrees if x >= 2))
            buckets.setdefault((G.n, len(interior), interior), []).append((code, G))
    families: dict[FamilySpec, list] = {}
    for (n, n0, interior), members in sorted(buckets.items()):
        if d is None:
            pi = DegreeSequence(k, interior + (1,) * (n - n0))
            families[FamilySpec("pi", k, pi)] = members
        elif not interior or interior[0] >= max(2, d):
            key = FamilySpec("min_degree", k, None, n, n0, d)
            families.setdefault(key, []).extend(members)
    return {key: sorted(members) for key, members in families.items()}


def _members(family: FamilySpec) -> list[tuple[CanonicalCode, Supertree]]:
    """The classes of one family in code order, grown under the bound its
    spec gives: the interior degrees of pi, descending, or n0 copies of the
    d' of the flattest sequence of T_d(n, n0), and none without one."""
    if family.kind == "pi":
        pi = family.pi
        return _families(pi.k, pi.n, None, pi.interior[::-1]).get(family, [])
    flattest = _flattest_sequence(family)
    if flattest is None:
        return []
    # the interior degrees are at least max(2, d) each, so none exceeds d'
    bound = (max(flattest.entries),) * family.n0
    return _families(family.k, family.n, family.d, bound).get(family, [])


def enumerate_supertrees(pi: DegreeSequence) -> list[Supertree]:
    """Every isomorphism class with degree sequence pi, sorted by canonical
    code."""
    return [G for _, G in _members(FamilySpec(kind="pi", k=pi.k, pi=pi))]


def enumerate_family(
    n: int, n0: int, k: int, d_min: int = 2
) -> list[Supertree]:
    """Every isomorphism class with n vertices, n0 interior vertices, and
    all interior degrees at least d_min, sorted by canonical code."""
    return [G for _, G in _members(_min_degree_family(n, n0, k, d_min))]


# The most classes a lone family may have to be solved class by class in
# pure Python. On a 2-CPU Xeon, over the 2,320 benchmark classes, that costs
# about 50 us a class (plan included) against 10 us stacked on LAPACK, and
# importing numpy costs 85-130 ms, so the break-even is 2,100-3,300 classes.
_LONE_FAMILY_CLASSES = 2000


def _score_families(
    families: list[tuple[FamilySpec, list[tuple[CanonicalCode, Supertree]]]],
) -> list[FkCertificate]:
    """One certificate per (family, members). One family of at most
    _LONE_FAMILY_CLASSES classes is solved class by class by
    spectral._bisected_eigenvalue, which never loads numpy; anything else,
    every sweep, solves every member of every family in one
    first_dirichlet_eigenvalues call. The predicted winner is the
    SLO-supertree of pi, or of the flattest sequence of a min-degree
    family."""
    # slo and spectral take a few ms to compile when bytecode is not
    # cached, and enumerate processes never score
    from .slo import construct_slo_supertree
    trees = [G for _, members in families for _, G in members]
    if len(families) == 1 and len(trees) <= _LONE_FAMILY_CLASSES:
        from .spectral import _bisected_eigenvalue
        lams = iter([_bisected_eigenvalue(G)[0] for G in trees])
    else:
        from .spectral import first_dirichlet_eigenvalues
        lams = iter(first_dirichlet_eigenvalues(trees))
    certs = []
    for family, members in families:
        pi = family.pi or _flattest_sequence(family)
        slo_code = canonical_code(construct_slo_supertree(pi)[0])
        # tied eigenvalues are listed by canonical code so rounding noise
        # cannot reorder cospectral classes
        scored = ranked(
            [(code, next(lams), G) for code, G in members],
            key=lambda row: row[1],
            tiebreak=lambda row: row[0],
        )
        winner_code, winner_lambda, winner = scored[0]
        runner_up = scored[1][1] if len(scored) > 1 else math.inf
        certs.append(FkCertificate(
            family=family,
            winner=winner,
            winner_lambda=winner_lambda,
            slo_code=slo_code,
            all_lambdas=tuple((code, lam) for code, lam, _ in scored),
            unique=len(scored) == 1 or strictly_less(winner_lambda, runner_up),
            slo_match=winner_code == slo_code,
            margin=runner_up - winner_lambda,
        ))
    return certs


def verify_fk_theorem1(pi: DegreeSequence) -> FkCertificate:
    """Check that the SLO-supertree of pi uniquely minimizes the first
    Dirichlet eigenvalue among all supertrees with degree sequence pi.

    The family is enumerated exhaustively; sequences without interior
    vertices have no Dirichlet spectrum and raise NoInteriorVertices.
    """
    family = FamilySpec(kind="pi", k=pi.k, pi=pi)
    members = _members(family)
    assert members, "validated degree sequences are realizable"
    return _score_families([(family, members)])[0]


def verify_fk_theorem2(n: int, n0: int, k: int, d: int) -> FkCertificate:
    """Check that one SLO-supertree uniquely minimizes the first Dirichlet
    eigenvalue among all supertrees with n vertices, n0 interior vertices,
    and interior degrees at least d.

    The predicted winner is the SLO-supertree of the flattest sequence
    (d, ..., d, d') where d' absorbs the leftover interior degree.

    Raises:
        EmptyFamily: no such supertree has an interior vertex.
        NotKUniform: k is not an integer.
        BadVertexId: n is not an integer.
        InfeasibleDegreeSequence: n0 or d is not an integer.
    """
    family = _min_degree_family(n, n0, k, d)
    if family.n0 < 1:
        raise EmptyFamily(
            f"{family.describe()} has no interior vertex to apply the "
            "eigenvalue problem to"
        )
    members = _members(family)
    if not members:
        raise EmptyFamily(f"{family.describe()} is empty")
    return _score_families([(family, members)])[0]


def fk1_sweep(k: int, n_max: int) -> list[FkCertificate]:
    """Certificates for every feasible degree sequence with an interior
    vertex, edge size k, and at most n_max vertices.

    Raises:
        NotKUniform: k is not an integer or below 2.
        BadVertexId: n_max is not an integer.
    """
    return _score_families([
        (family, members) for family, members in _families(k, n_max).items()
        if family.pi.n0
    ])


def fk2_sweep(k: int, n_max: int, d: int) -> list[FkCertificate]:
    """Certificates for every nonempty minimum-degree family with edge size
    k, at most n_max vertices and an interior vertex.

    Raises:
        InfeasibleDegreeSequence: d is not an integer.
        NotKUniform: k is not an integer or below 2.
        BadVertexId: n_max is not an integer.
    """
    d = _index(d, InfeasibleDegreeSequence, "minimum degree")
    return _score_families([
        (family, members) for family, members in _families(k, n_max, d).items()
        if family.n0
    ])
