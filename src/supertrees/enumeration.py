"""Exhaustive enumeration of supertree families and extremality checks.

Every supertree with at least two edges loses a leaf edge to a smaller one,
so growing classes one pendant edge at a time from a single edge reaches
them all. One pass over each parent's centroid-rooted encoding gives the
code of the child at the lowest vertex of every automorphism orbit; only a
child with a new code is built, and its encoding is derived from its
parent's when it is grown. One function keys the grown classes by (n, n0,
ascending interior degrees): a bucket is a degree-sequence family, and the
min-degree family T_d(n, n0) is the union of its (n, n0)'s buckets whose
interior degrees are all at least max(2, d).
A single query grows under a descending bound on its interior degrees, a
sweep grows once unbounded, and a sweep's families are scored through one
first_dirichlet_eigenvalues call: one eigensolve per interior size. The
checks: within each family the SLO-supertree attains the smallest first
Dirichlet eigenvalue, strictly below every other class, and that
eigenvalue decreases strictly along degree-sequence majorization.
"""

import math
from collections import namedtuple

from .config import _LAMBDA_TIE, strictly_less, tie_runs
from .core import (
    CanonicalCode,
    DegreeSequence,
    Supertree,
    _attach_leaf,
    _CentroidTree,
    build_supertree,
    canonical_code,
)
from .errors import EmptyFamily, NotKUniform, NotMajorized
from .slo import construct_slo_supertree
from .transforms import _require_chain

__all__ = [
    "FamilySpec",
    "FkCertificate",
    "feasible_degree_sequences",
    "enumerate_supertrees",
    "enumerate_family",
    "verify_fk_theorem1",
    "verify_fk_theorem2",
    "verify_majorization_monotonicity",
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
    class, eigenvalues ascending; classes tied within the fixed window
    config._LAMBDA_TIE are listed by canonical code. ``margin`` is the
    runner-up's eigenvalue minus the winner's (infinite for a one-class
    family), and ``unique`` asserts it exceeds that window; ``slo_match``
    asserts the winner is the predicted SLO-supertree.
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


def _flattest_sequence(n: int, n0: int, k: int, d: int) -> DegreeSequence | None:
    """(d, ..., d, d') with n0 interior entries, d' taking the remainder, or
    all ones for the single edge (n0 = 0, n = k); None when no supertree has
    n vertices, n0 interior ones and interior degrees at least d: k < 2, n0
    outside 0..n, (n-1) not a multiple of (k-1), n0 = 0 with n != k, or
    d' < max(2, d)."""
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
    flattest = _flattest_sequence(n, n0, k, d_min)
    if flattest is None:
        return []
    return [
        DegreeSequence(k, part + flattest.entries[n0:])
        for part in _ascending_partitions(sum(flattest.interior), n0, max(2, d_min))
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


def _buckets(k: int, n_max: int, bound=None) -> dict:
    """Classes with edge size k keyed by (n, n0, ascending interior degrees),
    keys ascending: each bucket, in code order, is one degree-sequence
    family. Unbounded (a sweep), every class with at most n_max vertices;
    under a bound (a single query, see _grow_classes), only the classes of
    the last layer grown, which have n_max vertices when n_max - 1 is a
    multiple of k - 1. NotKUniform for k below 2."""
    if k < 2:
        raise NotKUniform(f"edge size must be at least 2, got k={k}")
    layers = _grow_classes(k, (n_max - 1) // (k - 1), bound)
    buckets: dict[tuple[int, int, tuple[int, ...]], list] = {}
    for layer in layers if bound is None else layers[-1:]:
        for code, G in layer:
            interior = tuple(sorted(d for d in G.degrees if d >= 2))
            buckets.setdefault((G.n, len(interior), interior), []).append((code, G))
    return dict(sorted(buckets.items()))


def _min_degree_families(buckets: dict, d: int) -> dict:
    """(n, n0) -> the union, in code order, of the buckets of that (n, n0)
    whose interior degrees are all at least max(2, d): the family T_d(n, n0)
    for every (n, n0) with a nonempty one, keys ascending."""
    families: dict[tuple[int, int], list] = {}
    for (n, n0, interior), members in buckets.items():
        if not interior or interior[0] >= max(2, d):
            families.setdefault((n, n0), []).extend(members)
    return {key: sorted(members) for key, members in families.items()}


def _pi_classes(pi: DegreeSequence) -> list[tuple[CanonicalCode, Supertree]]:
    return _buckets(pi.k, pi.n, pi.interior[::-1]).get((pi.n, pi.n0, pi.interior), [])


def enumerate_supertrees(pi: DegreeSequence) -> list[Supertree]:
    """Every isomorphism class with degree sequence pi, sorted by canonical
    code."""
    return [G for _, G in _pi_classes(pi)]


def _family_classes(
    n: int, n0: int, k: int, d_min: int
) -> list[tuple[CanonicalCode, Supertree]]:
    flattest = _flattest_sequence(n, n0, k, d_min)
    if flattest is None:
        return []
    # the interior degrees are at least max(2, d_min) each, so none exceeds d'
    buckets = _buckets(k, n, (max(flattest.entries),) * n0)
    return _min_degree_families(buckets, d_min).get((n, n0), [])


def enumerate_family(
    n: int, n0: int, k: int, d_min: int = 2
) -> list[Supertree]:
    """Every isomorphism class with n vertices, n0 interior vertices, and
    all interior degrees at least d_min, sorted by canonical code."""
    return [G for _, G in _family_classes(n, n0, k, d_min)]


def _score_families(
    families: list[tuple[FamilySpec, list[tuple[CanonicalCode, Supertree]]]],
) -> list[FkCertificate]:
    """One certificate per (family, members), with every member of every
    family solved in one first_dirichlet_eigenvalues call. The predicted
    winner is the SLO-supertree of pi, or of the flattest sequence of a
    min-degree family."""
    # spectral takes a few ms to compile when bytecode is not cached, and
    # enumerate processes never solve
    from .spectral import first_dirichlet_eigenvalues
    lams = iter(first_dirichlet_eigenvalues(
        [G for _, members in families for _, G in members]))
    certs = []
    for family, members in families:
        pi = family.pi or _flattest_sequence(family.n, family.n0, family.k, family.d)
        slo_code = canonical_code(construct_slo_supertree(pi)[0])
        rows = sorted(
            ((code, next(lams), G) for code, G in members), key=lambda item: item[1]
        )
        # eigenvalues chained within _LAMBDA_TIE form one tie group, listed by
        # canonical code so rounding noise cannot reorder cospectral classes
        groups = tie_runs(rows, lambda r: r[1], lambda a, b: b - a <= _LAMBDA_TIE)
        scored = [
            row for group in groups for row in sorted(group, key=lambda r: r[0])
        ]
        winner_code, winner_lambda, winner = scored[0]
        margin = scored[1][1] - winner_lambda if len(scored) > 1 else math.inf
        certs.append(FkCertificate(
            family=family,
            winner=winner,
            winner_lambda=winner_lambda,
            slo_code=slo_code,
            all_lambdas=tuple((code, lam) for code, lam, _ in scored),
            unique=margin > _LAMBDA_TIE,
            slo_match=winner_code == slo_code,
            margin=margin,
        ))
    return certs


def verify_fk_theorem1(pi: DegreeSequence) -> FkCertificate:
    """Check that the SLO-supertree of pi uniquely minimizes the first
    Dirichlet eigenvalue among all supertrees with degree sequence pi.

    The family is enumerated exhaustively; sequences without interior
    vertices have no Dirichlet spectrum and raise NoInteriorVertices.
    """
    members = _pi_classes(pi)
    assert members, "validated degree sequences are realizable"
    return _score_families([(FamilySpec(kind="pi", k=pi.k, pi=pi), members)])[0]


def verify_fk_theorem2(n: int, n0: int, k: int, d: int) -> FkCertificate:
    """Check that one SLO-supertree uniquely minimizes the first Dirichlet
    eigenvalue among all supertrees with n vertices, n0 interior vertices,
    and interior degrees at least d.

    The predicted winner is the SLO-supertree of the flattest sequence
    (d, ..., d, d') where d' absorbs the leftover interior degree.

    Raises:
        EmptyFamily: no such supertree has an interior vertex.
    """
    family = FamilySpec(kind="min_degree", k=k, n=n, n0=n0, d=d)
    if n0 < 1:
        raise EmptyFamily(
            f"{family.describe()} has no interior vertex to apply the "
            "eigenvalue problem to"
        )
    members = _family_classes(n, n0, k, d)
    if not members:
        raise EmptyFamily(f"{family.describe()} is empty")
    return _score_families([(family, members)])[0]


def _majorization_lambdas(
    pi: DegreeSequence, pi_prime: DegreeSequence
) -> tuple[float, float, bool]:
    """lambda of SLO(pi), of SLO(pi_prime), and whether the second is less."""
    from .spectral import first_dirichlet_eigenvalues  # see _score_families
    if pi.entries == pi_prime.entries:
        raise NotMajorized("the sequences are equal; no strict comparison")
    _require_chain(pi, pi_prime)
    lam, lam_prime = first_dirichlet_eigenvalues(
        [construct_slo_supertree(pi)[0], construct_slo_supertree(pi_prime)[0]]
    )
    return lam, lam_prime, strictly_less(lam_prime, lam)


def verify_majorization_monotonicity(pi: DegreeSequence, pi_prime: DegreeSequence) -> bool:
    """Whether the eigenvalue drops strictly from SLO(pi) to SLO(pi_prime)
    for a pair with pi_prime majorized by pi.

    The pair is first checked to be comparable: the preconditions of
    transforms.unit_transform_chain hold, so a chain of unit transformations
    connects the sequences. The chain itself is not built.

    Raises:
        NotMajorized: pi_prime is not strictly majorized by pi with equal
            interior counts.
        LengthMismatch: the sequences differ in length or uniformity.
    """
    return _majorization_lambdas(pi, pi_prime)[2]


def fk1_sweep(k: int, n_max: int) -> list[FkCertificate]:
    """Certificates for every feasible degree sequence with an interior
    vertex, edge size k, and at most n_max vertices.

    Raises:
        NotKUniform: k is below 2.
    """
    return _score_families([
        (FamilySpec(kind="pi", k=k, pi=DegreeSequence(k, interior + (1,) * (n - n0))),
         members)
        for (n, n0, interior), members in _buckets(k, n_max).items()
        if n0
    ])


def fk2_sweep(k: int, n_max: int, d: int) -> list[FkCertificate]:
    """Certificates for every nonempty minimum-degree family with edge size
    k, at most n_max vertices and an interior vertex.

    Raises:
        NotKUniform: k is below 2.
    """
    families = _min_degree_families(_buckets(k, n_max), d)
    return _score_families([
        (FamilySpec(kind="min_degree", k=k, n=n, n0=n0, d=d), group)
        for (n, n0), group in families.items()
        if n0
    ])
