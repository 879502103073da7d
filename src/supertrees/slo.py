"""Spiral-like orderings (SLO) of supertrees.

A vertex ordering v_0 < v_1 < ... is spiral-like when, rooting at v_0:

  S1  heights never decrease along the ordering;
  S2  the order of two parents transfers to any pair of their children;
  S3  interior vertices all come before boundary vertices;
  S4  inside each edge, the k-1 non-minimal vertices sit in consecutive
      positions of the global ordering;
  S5  interior degrees never decrease along the ordering.

A supertree admitting such an ordering is an SLO-supertree; each degree
sequence has exactly one up to isomorphism (arXiv 2410.17630, and
Biyikoglu-Leydold, J. Combin. Theory Ser. B 97 (2007), for trees). This
module checks orderings rule by rule, constructs the SLO-supertree of a
feasible degree sequence, finds an ordering of a supertree by isomorphism to
that construction (it agrees with exhaustive backtracking search on every
class with k=2 m<=11, k=3 m<=6 and k=4 m<=5), and relabels vertices along a
first Dirichlet eigenfunction.
"""

import math
from collections import namedtuple

from .config import _BOUNDARY_ZERO, strictly_less, tie_runs
from .core import (
    DegreeSequence,
    Supertree,
    VertexId,
    _incidence_walk,
    _isomorphism,
    _vertex_values,
    degree_sequence,
)
from .errors import NotAnEigenfunction, NotAPermutation

__all__ = [
    "SloViolation",
    "VertexLabel",
    "check_slo",
    "find_slo_ordering",
    "construct_slo_supertree",
    "relabel",
]

# (level, group index within level, position within group), all per the
# relabeling rules; level is 0-based, group and position are 1-based
VertexLabel = tuple[int, int, int]


class SloViolation(namedtuple("SloViolation", "rule witness")):
    """One broken ordering rule with a concrete witness.

    ``rule`` is one of "S1".."S5". The witness holds the vertices involved;
    for S4 it is (edge, intervening vertex).
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.rule} witness={self.witness}"


def check_slo(G: Supertree, order) -> list[SloViolation]:
    """Rule violations of a candidate ordering, one witness per violating
    consecutive pair; empty iff spiral-like.

    S1, S2, S3 and S5 each say that one number read along the ordering
    never decreases (height, parent position, interior before boundary,
    interior degree), so a pair out of order anywhere implies one among
    consecutive pairs. Witnesses, O(n) in all:

      S1, S3  (u, v) for u, v adjacent in the ordering;
      S2      (p2, p1, c2, c1) for adjacent non-root c1, c2 whose parents
              p1, p2 come in the other order;
      S4      (edge, intervening vertex) for each split edge;
      S5      (u, v) for u, v adjacent among the interior vertices.

    Raises:
        NotAPermutation: order is not a permutation of 0..n-1.
    """
    ord_tuple = tuple(order)
    if sorted(ord_tuple) != list(range(G.n)):
        raise NotAPermutation("ordering is not a permutation of 0..n-1")
    pos = [0] * G.n
    for i, v in enumerate(ord_tuple):
        pos[v] = i
    depth, parent = _incidence_walk(G, ord_tuple[0])
    degrees = G.degrees
    violations = [
        SloViolation("S1", (u, v))
        for u, v in zip(ord_tuple, ord_tuple[1:])
        if depth[u] > depth[v]
    ]

    # a non-root vertex's parent is its edge's top vertex, two nodes up
    children = ord_tuple[1:]
    for c1, c2 in zip(children, children[1:]):
        p1, p2 = parent[parent[c1]], parent[parent[c2]]
        if pos[p2] < pos[p1]:
            violations.append(SloViolation("S2", (p2, p1, c2, c1)))

    violations.extend(
        SloViolation("S3", (u, v))
        for u, v in zip(ord_tuple, ord_tuple[1:])
        if degrees[u] < 2 <= degrees[v]
    )

    for e in G.edges:
        block = sorted(e, key=pos.__getitem__)[1:]
        lo, hi = pos[block[0]], pos[block[-1]]
        if hi - lo != len(block) - 1:
            gap = next(
                ord_tuple[i] for i in range(lo, hi + 1) if ord_tuple[i] not in e
            )
            violations.append(SloViolation("S4", (e, gap)))

    interior = [v for v in ord_tuple if degrees[v] >= 2]
    violations.extend(
        SloViolation("S5", (u, v))
        for u, v in zip(interior, interior[1:])
        if degrees[u] > degrees[v]
    )
    return violations


def find_slo_ordering(G: Supertree) -> tuple[VertexId, ...] | None:
    """A spiral-like ordering of G, or None when no ordering exists.

    G has one iff it is isomorphic to the SLO-supertree of its degree
    sequence, which is unique (arXiv 2410.17630; Biyikoglu-Leydold 2007 for
    trees); the construction's order carried through the isomorphism is
    returned, re-verified through check_slo. This agrees with exhaustive
    backtracking search on every class with k=2 m<=11, k=3 m<=6, k=4 m<=5.
    """
    H, order = construct_slo_supertree(degree_sequence(G))
    phi = _isomorphism(H, G)
    if phi is None:
        return None
    found = tuple(phi[v] for v in order)
    violations = check_slo(G, found)
    assert not violations, violations
    return found


# --- construction ----------------------------------------------------------


def construct_slo_supertree(
    pi: DegreeSequence,
) -> tuple[Supertree, tuple[VertexId, ...]]:
    """The SLO-supertree of a feasible degree sequence, with its ordering.

    Vertices are created breadth-first: the t-th created vertex receives the
    t-th entry of pi and spawns that many new edges (one fewer off the root,
    whose degree is the minimum interior entry), each edge adding k-1 fresh
    consecutive ids. Creation order 0..n-1 is itself a spiral-like ordering.
    The edges come out sorted and vertex t gets degree pi.entries[t], so the
    supertree is built without re-validation.
    """
    k, n = pi.k, pi.n
    edges: list[tuple[int, ...]] = []
    created = 1
    for t in range(n):
        assert t < created, "greedy construction never runs out of vertices"
        spawn = pi.entries[t] - (1 if t else 0)
        for _ in range(spawn):
            edges.append((t,) + tuple(range(created, created + k - 1)))
            created += k - 1
    assert created == n and len(edges) == pi.m
    return Supertree(k, n, tuple(edges), pi.entries), tuple(range(n))


# --- relabeling along an eigenfunction --------------------------------------


def _ranked(entries, value_of, tiebreak_of):
    """Sort by descending value; runs of values equal within the slack are
    reordered by the tiebreak key."""
    by_value = sorted(entries, key=lambda x: -value_of(x))
    runs = tie_runs(by_value, value_of, lambda a, b: not strictly_less(b, a))
    return [x for run in runs for x in sorted(run, key=tiebreak_of)]


def relabel(G: Supertree, f) -> dict[VertexId, VertexLabel]:
    """Label each vertex (s, i, p) by level, group, and in-group position.

    The root is the vertex maximizing f. At each level the groups are the
    k-1 deeper vertices of each edge reaching down from the previous level;
    groups are ordered by descending sum of f, ties broken by the parent's
    label and then by smallest vertex id; inside a group, vertices are
    ordered by descending f, ties by id. The induced lexicographic order on
    labels sorts f non-increasingly on extremal supertrees.

    Raises:
        NotAnEigenfunction: f is not finite, positive interior and zero
            boundary.
    """
    fs = _vertex_values(G, f, NotAnEigenfunction)
    for v, d in enumerate(G.degrees):
        if d == 1 and abs(fs[v]) > _BOUNDARY_ZERO:
            raise NotAnEigenfunction(f"f({v}) = {fs[v]} nonzero on the boundary")
    for v, d in enumerate(G.degrees):
        if d >= 2 and fs[v] <= 0.0:
            raise NotAnEigenfunction(f"f({v}) = {fs[v]} not positive on the interior")

    top_value = max(fs)
    root = min(v for v in range(G.n) if not strictly_less(fs[v], top_value))
    # blocks_at[s] lists (top, members) for every edge whose k-1 members sit
    # at level s, in G.edges order; the top is the edge's vertex one level up
    depth, parent = _incidence_walk(G, root)
    blocks_at: list[list[tuple]] = [[] for _ in range(max(depth) // 2 + 1)]
    for ei, e in enumerate(G.edges):
        top = parent[G.n + ei]
        blocks_at[depth[top] // 2 + 1].append(
            (top, tuple(v for v in e if v != top))
        )
    labels: dict[VertexId, VertexLabel] = {root: (0, 1, 1)}

    for lvl in range(1, len(blocks_at)):
        blocks = blocks_at[lvl]

        def group_sum(block):
            # exactly rounded: from 3.12 sum() compensates rounding, before it
            # did not, so near the slack the group order would hang on it
            return math.fsum(fs[v] for v in block[1])

        def group_tiebreak(block):
            top, members = block
            _, pi_, pp = labels[top]
            return (pi_, pp, min(members))

        ordered = _ranked(blocks, group_sum, group_tiebreak)
        for gi, (_, members) in enumerate(ordered, start=1):
            arranged = _ranked(list(members), fs.__getitem__, lambda v: v)
            for pp, v in enumerate(arranged, start=1):
                labels[v] = (lvl, gi, pp)
    return labels
