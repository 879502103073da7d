"""Structure-rewiring operations and degree-sequence majorization.

Two edge rewirings preserve the vertex set: switching exchanges vertex
groups between two edges, shifting re-hangs a bundle of edges from one
vertex onto another. Both come with an eigenfunction hypothesis test; when
the hypothesis holds, the first Dirichlet eigenvalue does not increase (and
decreases strictly under the strict form).

On degree sequences, a unit transformation moves one unit of degree from a
larger interior entry to the next one, and majorization orders sequences by
ascending prefix sums. Any majorized pair is connected by a chain of unit
transformations, built greedily here, and the SLO-supertree's first
Dirichlet eigenvalue falls strictly along it (decided by exact tests of
lambda <= sigma at the two ends).
"""

import bisect
import math
from collections import namedtuple

from .config import strictly_less
from .core import (
    DegreeSequence,
    Supertree,
    _index,
    _indices,
    _vertex_values,
    build_supertree,
)
from .errors import (
    DegreeTooSmall,
    IndexOutOfRange,
    InvalidSpec,
    LengthMismatch,
    NotMajorized,
    ResultNotSupertree,
    SupertreeError,
)

__all__ = [
    "SwitchSpec",
    "ShiftSpec",
    "HypothesisCheck",
    "apply_switch",
    "check_switch_hypothesis",
    "apply_shift",
    "check_shift_hypothesis",
    "unit_transformation",
    "majorizes",
    "unit_transform_chain",
    "verify_majorization_monotonicity",
]


class SwitchSpec(namedtuple("SwitchSpec", "e1 e2 u1 v1")):
    """Exchange u1 (a subset of e1) with v1 (a subset of e2, same size): e1
    and e2 are edges, u1 and v1 sets of vertices. Each may be given as any
    collection of integers (a list, tuple or frozenset; an edge in any
    order)."""

    __slots__ = ()


class ShiftSpec(namedtuple("ShiftSpec", "u edges v")):
    """Replace u by v in every edge of the bundle (all containing u). The
    bundle may be any collection of edges, each any collection of integers
    in any order."""

    __slots__ = ()


class HypothesisCheck(namedtuple("HypothesisCheck", "weak strict")):
    """Outcome of an eigenfunction hypothesis test.

    weak guarantees the eigenvalue does not increase; strict additionally
    guarantees a strict decrease.
    """

    __slots__ = ()


def _edge(e) -> tuple[int, ...]:
    return tuple(sorted(_indices(e, InvalidSpec, "an edge")))


def _validate_switch(G: Supertree, spec: SwitchSpec) -> SwitchSpec:
    """spec with sorted int-tuple edges and frozenset groups, once it fits G."""
    spec = SwitchSpec(
        e1=_edge(spec.e1),
        e2=_edge(spec.e2),
        u1=frozenset(_indices(spec.u1, InvalidSpec, "u1")),
        v1=frozenset(_indices(spec.v1, InvalidSpec, "v1")),
    )
    edges = set(G.edges)
    if spec.e1 not in edges or spec.e2 not in edges:
        raise InvalidSpec("e1 and e2 must be edges of the supertree")
    if spec.e1 == spec.e2:
        raise InvalidSpec("e1 and e2 must be distinct edges")
    if not spec.u1 <= set(spec.e1):
        raise InvalidSpec("u1 must be a subset of e1")
    if not spec.v1 <= set(spec.e2):
        raise InvalidSpec("v1 must be a subset of e2")
    if len(spec.u1) != len(spec.v1):
        raise InvalidSpec("u1 and v1 must have the same size")
    if spec.u1 & spec.v1:
        raise InvalidSpec("u1 and v1 must be disjoint")
    return spec


def apply_switch(G: Supertree, spec: SwitchSpec) -> Supertree:
    """The supertree with e1, e2 replaced by (e1 - u1) + v1, (e2 - v1) + u1.

    Empty groups leave the supertree unchanged. The degree sequence is
    always preserved: every vertex keeps its edge count.

    Raises:
        InvalidSpec: the groups are not same-size disjoint subsets of e1 and
            e2, or an exchanged edge loses a vertex to overlap.
        ResultNotSupertree: the rewired edge set is not a supertree.
    """
    spec = _validate_switch(G, spec)
    e1p = tuple(sorted((set(spec.e1) - spec.u1) | spec.v1))
    e2p = tuple(sorted((set(spec.e2) - spec.v1) | spec.u1))
    if len(e1p) != G.k or len(e2p) != G.k:
        raise InvalidSpec("exchange must leave k distinct vertices per edge")
    new_edges = [e for e in G.edges if e != spec.e1 and e != spec.e2]
    new_edges += [e1p, e2p]
    try:
        return build_supertree(G.k, G.n, new_edges)
    except SupertreeError as exc:
        raise ResultNotSupertree(f"switched edge set is invalid: {exc}") from exc


def check_switch_hypothesis(G: Supertree, f, spec: SwitchSpec) -> HypothesisCheck:
    """Test the eigenfunction hypothesis for a switch.

    Weak form: sum f over u1 >= sum f over v1 and sum f over e1 - u1 <=
    sum f over e2 - v1, neither reversed beyond the slack. Strict form: weak
    with one of the two inequalities strict beyond the slack.

    Raises:
        InvalidSpec: the spec does not fit G, or f is not G.n finite reals.
    """
    spec = _validate_switch(G, spec)
    fs = _vertex_values(G, f, InvalidSpec)
    # exactly rounded, as in relabel: 3.10 and 3.11's sum() does not
    # compensate rounding, so near the slack the answer would hang on it
    su1 = math.fsum(fs[v] for v in spec.u1)
    sv1 = math.fsum(fs[v] for v in spec.v1)
    rest1 = math.fsum(fs[v] for v in spec.e1 if v not in spec.u1)
    rest2 = math.fsum(fs[v] for v in spec.e2 if v not in spec.v1)
    weak = not (strictly_less(su1, sv1) or strictly_less(rest2, rest1))
    strict = weak and (strictly_less(sv1, su1) or strictly_less(rest1, rest2))
    return HypothesisCheck(weak=weak, strict=strict)


def _validate_shift(G: Supertree, spec: ShiftSpec) -> ShiftSpec:
    """spec with int u and v and a tuple of sorted int-tuple edges, once it
    fits G."""
    try:
        bundle = tuple(map(_edge, spec.edges))
    except TypeError:
        raise InvalidSpec(f"the shifted bundle must be a collection of edges, "
                          f"got {spec.edges!r}") from None
    spec = ShiftSpec(u=_index(spec.u, InvalidSpec, "u"), edges=bundle,
                     v=_index(spec.v, InvalidSpec, "v"))
    edges = set(G.edges)
    if len(set(spec.edges)) != len(spec.edges):
        raise InvalidSpec("the shifted bundle repeats an edge")
    for e in spec.edges:
        if e not in edges:
            raise InvalidSpec(f"{e} is not an edge of the supertree")
        if spec.u not in e:
            raise InvalidSpec(f"{e} does not contain u={spec.u}")
        if spec.v in e:
            raise InvalidSpec(f"v={spec.v} already lies in {e}")
    if not 0 <= spec.u < G.n:
        raise InvalidSpec(f"u={spec.u} is not a vertex")
    if not 0 <= spec.v < G.n:
        raise InvalidSpec(f"v={spec.v} is not a vertex")
    if spec.v == spec.u:
        raise InvalidSpec("u and v must differ")
    return spec


def apply_shift(G: Supertree, spec: ShiftSpec) -> Supertree:
    """The supertree with u replaced by v throughout the edge bundle.

    An empty bundle leaves the supertree unchanged; otherwise exactly two
    degrees move, u down and v up by the bundle size.

    Raises:
        InvalidSpec: the bundle is not a set of edges through u avoiding v.
        ResultNotSupertree: the rewired edge set is not a supertree.
    """
    spec = _validate_shift(G, spec)
    bundle = set(spec.edges)
    new_edges = []
    for e in G.edges:
        if e in bundle:
            new_edges.append(tuple(sorted(w for w in e if w != spec.u) + [spec.v]))
        else:
            new_edges.append(e)
    try:
        return build_supertree(G.k, G.n, new_edges)
    except SupertreeError as exc:
        raise ResultNotSupertree(f"shifted edge set is invalid: {exc}") from exc


def check_shift_hypothesis(G: Supertree, f, spec: ShiftSpec) -> HypothesisCheck:
    """Test the eigenfunction hypothesis for a shift.

    Weak form: f(u) >= f(v) and f(v) >= f(w) for every other vertex w of the
    bundle, none reversed beyond the slack. Strict form: weak with at least
    one of those inequalities strict beyond the slack.

    Raises:
        InvalidSpec: the spec does not fit G, or f is not G.n finite reals.
    """
    spec = _validate_shift(G, spec)
    fs = _vertex_values(G, f, InvalidSpec)
    fu, fv = fs[spec.u], fs[spec.v]
    others = {w for e in spec.edges for w in e} - {spec.u}
    weak = not (strictly_less(fu, fv) or any(strictly_less(fv, fs[w]) for w in others))
    strict = weak and (
        strictly_less(fv, fu) or any(strictly_less(fs[w], fv) for w in others)
    )
    return HypothesisCheck(weak=weak, strict=strict)


def unit_transformation(pi: DegreeSequence, p: int) -> DegreeSequence:
    """Move one unit of degree from entry p to entry p+1, then re-sort.

    Entries are ascending over the interior; position p must hold degree at
    least 3 so the result keeps every interior degree at least 2.

    Raises:
        IndexOutOfRange: p is not an integer, or not an interior position
            with a successor.
        DegreeTooSmall: entry p is below 3.
    """
    p = _index(p, IndexOutOfRange, "position")
    interior = list(pi.interior)
    if not 0 <= p <= len(interior) - 2:
        raise IndexOutOfRange(
            f"p={p} is not an interior position below {len(interior) - 1}"
        )
    if interior[p] < 3:
        raise DegreeTooSmall(f"entry {p} has degree {interior[p]} < 3")
    interior[p] -= 1
    interior[p + 1] += 1
    return DegreeSequence(pi.k, tuple(sorted(interior)) + pi.entries[len(interior):])


def majorizes(
    pi: DegreeSequence, pi_prime: DegreeSequence
) -> bool:
    """Whether pi_prime is majorized by pi.

    Prefix sums run over the canonical arrangement (interior degrees
    ascending, then the unit degrees): pi_prime is majorized when every
    proper prefix sum of pi_prime is at most the matching prefix sum of pi
    and the totals agree.

    Raises:
        LengthMismatch: the sequences differ in length or uniformity.
    """
    if pi.n != pi_prime.n or pi.k != pi_prime.k:
        raise LengthMismatch(
            f"cannot compare ({pi_prime.k},{pi_prime.n}) with ({pi.k},{pi.n})"
        )
    total = total_p = 0
    for j in range(pi.n - 1):
        total += pi.entries[j]
        total_p += pi_prime.entries[j]
        if total_p > total:
            return False
    return total_p + pi_prime.entries[-1] == total + pi.entries[-1]


def _require_chain(pi: DegreeSequence, pi_prime: DegreeSequence) -> None:
    """Raise unless unit transformations can carry pi onto pi_prime."""
    if not majorizes(pi, pi_prime):
        raise NotMajorized(f"({pi_prime}) is not majorized by ({pi})")
    if pi.n0 != pi_prime.n0:
        raise NotMajorized(
            f"interior counts differ ({pi.n0} vs {pi_prime.n0}); no chain exists"
        )


def unit_transform_chain(
    pi: DegreeSequence, pi_prime: DegreeSequence
) -> list[int]:
    """Positions of unit transformations carrying pi onto pi_prime.

    Requires pi_prime majorized by pi. Replaying the returned positions
    through unit_transformation, starting from pi, produces exactly
    pi_prime. Equal sequences give the empty chain. Greedy: each step finds
    the first position where the prefix sums still disagree and moves one
    unit of degree across it, shrinking the prefix-sum gap; in place, from
    where the last step changed the interior, in O(n + length * log n).

    Raises:
        LengthMismatch: the sequences differ in length or uniformity.
        NotMajorized: pi_prime is not majorized by pi, or the interior
            counts differ (a unit transformation preserves interior count).
    """
    _require_chain(pi, pi_prime)
    chain: list[int] = []
    cur, want = list(pi.interior), pi_prime.interior
    n0, j = len(cur), 0
    while True:
        # the prefix sums agree up to the first entry that differs
        while j < n0 and cur[j] == want[j]:
            j += 1
        if j == n0:
            return chain
        chain.append(j)
        # unit_transformation's re-sort: lowering the first entry equal to
        # cur[j] and raising the last equal to cur[j + 1] keeps cur sorted
        x, y = cur[j], cur[j + 1]
        j = bisect.bisect_left(cur, x, 0, j)
        cur[j] -= 1
        cur[bisect.bisect_right(cur, y, j + 1) - 1] += 1


def _majorization_lambdas(
    pi: DegreeSequence, pi_prime: DegreeSequence
) -> tuple[float, float, bool | None]:
    """lambda of SLO(pi), of SLO(pi_prime), and whether the second is less:
    True or False once the exact tests prove it, None when they do not.

    Both lambda come from float bisection. The comparison is decided at one
    sigma, the exact midpoint of the two floats, by testing in exact
    arithmetic whether each tree has a Dirichlet eigenvalue at or below
    sigma: yes for SLO(pi_prime) and no for SLO(pi) proves
    lambda_pi_prime <= sigma < lambda_pi, and the mirrored answers prove the
    reverse. That holds at any sigma, equal floats included, so only answers
    that prove neither order leave the comparison undecided: a wrong float
    can keep the tests from proving, never make them prove the wrong thing.
    """
    from fractions import Fraction
    from .slo import construct_slo_supertree  # see enumeration._score_families
    from .spectral import _bisected_eigenvalue, _exact_below
    if pi.entries == pi_prime.entries:
        raise NotMajorized("the sequences are equal; no strict comparison")
    _require_chain(pi, pi_prime)
    (lam, plan), (lam_prime, plan_prime) = (
        _bisected_eigenvalue(construct_slo_supertree(p)[0]) for p in (pi, pi_prime)
    )
    sigma = (Fraction(lam) + Fraction(lam_prime)) / 2
    below, below_prime = _exact_below(plan, sigma), _exact_below(plan_prime, sigma)
    if below_prime and not below:
        return lam, lam_prime, True
    if below and not below_prime:
        return lam, lam_prime, False
    return lam, lam_prime, None


def verify_majorization_monotonicity(
    pi: DegreeSequence, pi_prime: DegreeSequence
) -> bool | None:
    """Whether the eigenvalue drops strictly from SLO(pi) to SLO(pi_prime)
    for a pair with pi_prime majorized by pi: True or False when exact
    tests for an eigenvalue at or below the rational midpoint of the two
    float lambda prove the answer, None only when they prove neither order
    (undecided, never false).

    The pair is first checked to be comparable: the preconditions of
    unit_transform_chain hold, so a chain of unit transformations
    connects the sequences. The chain itself is not built.

    Raises:
        NotMajorized: pi_prime is not strictly majorized by pi with equal
            interior counts.
        LengthMismatch: the sequences differ in length or uniformity.
    """
    return _majorization_lambdas(pi, pi_prime)[2]
