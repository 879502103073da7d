"""Spiral-like orderings (SLO) of supertrees.

A vertex ordering v_0 < v_1 < ... is spiral-like when, rooting at v_0:

  S1  heights never decrease along the ordering;
  S2  the order of two parents transfers to any pair of their children;
  S3  interior vertices all come before boundary vertices;
  S4  inside each edge, the k-1 non-minimal vertices sit in consecutive
      positions of the global ordering;
  S5  interior degrees never decrease along the ordering.

A supertree admitting such an ordering is an SLO-supertree. This module
checks orderings rule by rule, searches for an ordering, constructs the
canonical SLO-supertree of a feasible degree sequence, and relabels vertices
along a first Dirichlet eigenfunction.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .core import (
    DegreeSequence,
    LevelStructure,
    Supertree,
    VertexId,
    _incidence_adjacency,
    _rooted_codes,
    boundary_partition,
    build_supertree,
    level_structure,
)
from .errors import NotAnEigenfunction, NotAPermutation

__all__ = [
    "SloViolation",
    "VertexLabel",
    "check_slo",
    "find_slo_ordering",
    "construct_slo_supertree",
    "relabel",
    "relabel_ordering",
]

# (level, group index within level, position within group), all per the
# relabeling rules; level is 0-based, group and position are 1-based
VertexLabel = tuple[int, int, int]


@dataclass(frozen=True)
class SloViolation:
    """One broken ordering rule with a concrete witness.

    ``rule`` is one of "S1".."S5". The witness holds the vertices involved;
    for S4 it is (edge, intervening vertex).
    """

    rule: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.rule} witness={self.witness}"


def _hanging(
    G: Supertree, root: VertexId
) -> tuple[LevelStructure, list[bytes], list[list[tuple]]]:
    """Levels seen from root, the code of the structure hanging below each
    vertex, and the edges reaching down into each level.

    ``blocks[s]`` lists (top, members) for every edge whose k-1 members sit
    at level s, in G.edges order; acyclicity leaves exactly one vertex, the
    top, one level up. Codes are the canonical-form encoder's, rooted at
    root: equal codes mean an automorphism of G fixing everything above can
    swap the two subtrees.
    """
    ls = level_structure(G, root)
    codes, parent = _rooted_codes(_incidence_adjacency(G), root, G.n)[:2]
    blocks: list[list[tuple]] = [[] for _ in range(ls.height + 1)]
    for ei, e in enumerate(G.edges):
        top = parent[G.n + ei]
        blocks[ls.depth[top] + 1].append((top, tuple(v for v in e if v != top)))
    return ls, codes, blocks


def check_slo(G: Supertree, order) -> list[SloViolation]:
    """All rule violations of a candidate ordering; empty iff spiral-like.

    Raises:
        NotAPermutation: order is not a permutation of 0..n-1.
    """
    ord_tuple = tuple(order)
    if sorted(ord_tuple) != list(range(G.n)):
        raise NotAPermutation("ordering is not a permutation of 0..n-1")
    pos = {v: i for i, v in enumerate(ord_tuple)}
    ls, _, blocks = _hanging(G, ord_tuple[0])
    depth = ls.depth
    interior = frozenset(v for v in range(G.n) if G.degrees[v] >= 2)
    violations: list[SloViolation] = []

    for i in range(G.n):
        for j in range(i + 1, G.n):
            u, v = ord_tuple[i], ord_tuple[j]
            if depth[u] > depth[v]:
                violations.append(SloViolation("S1", (u, v)))

    parent = {v: top for level in blocks for top, members in level for v in members}
    children = sorted(parent, key=pos.get)
    for i, c1 in enumerate(children):
        for c2 in children[i + 1 :]:
            p1, p2 = parent[c1], parent[c2]
            if p1 != p2 and pos[p2] < pos[p1]:
                violations.append(SloViolation("S2", (p2, p1, c2, c1)))

    for i in range(G.n):
        for j in range(i + 1, G.n):
            u, v = ord_tuple[i], ord_tuple[j]
            if u not in interior and v in interior:
                violations.append(SloViolation("S3", (u, v)))

    for e in G.edges:
        by_pos = sorted(e, key=pos.get)
        block = by_pos[1:]
        lo = min(pos[v] for v in block)
        hi = max(pos[v] for v in block)
        if hi - lo != len(block) - 1:
            gap = next(
                ord_tuple[i] for i in range(lo, hi + 1) if ord_tuple[i] not in e
            )
            violations.append(SloViolation("S4", (e, gap)))

    ordered_interior = [v for v in ord_tuple if v in interior]
    for i, u in enumerate(ordered_interior):
        for v in ordered_interior[i + 1 :]:
            if G.degrees[u] > G.degrees[v]:
                violations.append(SloViolation("S5", (u, v)))

    return violations


# --- search ----------------------------------------------------------------


def _distinct_orders(items: tuple, key):
    """Permutations of items, collapsing swaps of equal-key items."""
    if not items:
        yield ()
        return
    seen = set()
    for i, item in enumerate(items):
        k = key(item)
        if k in seen:
            continue
        seen.add(k)
        for rest in _distinct_orders(items[:i] + items[i + 1 :], key):
            yield (item,) + rest


def _spiral_search(G: Supertree, root: VertexId, interior) -> tuple | None:
    ls, subkey, blocks_at = _hanging(G, root)
    depth = ls.depth
    boundary_depths = [depth[v] for v in range(G.n) if v not in interior]
    interior_depths = [depth[v] for v in interior]
    # S1 forces level-by-level order, so a boundary vertex strictly above the
    # deepest interior vertex kills S3 outright
    if boundary_depths and interior_depths:
        if max(interior_depths) > min(boundary_depths):
            return None

    order: list[VertexId] = [root]
    pos: dict[VertexId, int] = {root: 0}
    state = {"last_deg": G.degrees[root], "boundary_seen": False}

    def push(v: VertexId) -> bool:
        if v in interior:
            if state["boundary_seen"] or G.degrees[v] < state["last_deg"]:
                return False
            state["last_deg"] = G.degrees[v]
        else:
            state["boundary_seen"] = True
        pos[v] = len(order)
        order.append(v)
        return True

    def snapshot():
        return len(order), state["last_deg"], state["boundary_seen"]

    def restore(snap) -> None:
        length, last_deg, boundary_seen = snap
        while len(order) > length:
            del pos[order.pop()]
        state["last_deg"] = last_deg
        state["boundary_seen"] = boundary_seen

    def place_level(lvl: int) -> bool:
        if lvl > ls.height:
            return True
        blocks = blocks_at[lvl]
        by_top: dict[VertexId, list[tuple]] = {}
        for top, members in blocks:
            by_top.setdefault(top, []).append(members)
        buckets = [tuple(by_top[t]) for t in sorted(by_top, key=pos.get)]
        return arrange(lvl, 0, buckets[0], buckets)

    def arrange(lvl: int, bi: int, remaining: tuple, buckets: list) -> bool:
        if not remaining:
            if bi + 1 == len(buckets):
                return place_level(lvl + 1)
            return arrange(lvl, bi + 1, buckets[bi + 1], buckets)
        tried = set()
        for idx, members in enumerate(remaining):
            gkey = tuple(sorted(subkey[v] for v in members))
            if gkey in tried:
                continue
            tried.add(gkey)
            rest = remaining[:idx] + remaining[idx + 1 :]
            for arrangement in _distinct_orders(members, subkey.__getitem__):
                snap = snapshot()
                if all(push(v) for v in arrangement):
                    if arrange(lvl, bi, rest, buckets):
                        return True
                restore(snap)
        return False

    if place_level(1):
        return tuple(order)
    return None


def find_slo_ordering(G: Supertree) -> tuple[VertexId, ...] | None:
    """A spiral-like ordering of G, or None when no ordering exists.

    S5 forces the root to be an interior vertex of minimum interior degree
    (when any interior vertex exists), so only those roots are searched. Any
    returned ordering is re-verified through check_slo.
    """
    part = boundary_partition(G)
    if not part.interior:
        order = tuple(range(G.n))
        assert not check_slo(G, order)
        return order
    dmin = min(G.degrees[v] for v in part.interior)
    for root in sorted(v for v in part.interior if G.degrees[v] == dmin):
        order = _spiral_search(G, root, part.interior)
        if order is not None:
            violations = check_slo(G, order)
            assert not violations, violations
            return order
    return None


# --- construction ----------------------------------------------------------


def construct_slo_supertree(
    pi: DegreeSequence,
) -> tuple[Supertree, tuple[VertexId, ...]]:
    """The SLO-supertree of a feasible degree sequence, with its ordering.

    Vertices are created breadth-first: the t-th created vertex receives the
    t-th entry of pi and spawns that many new edges (one fewer off the root,
    whose degree is the minimum interior entry), each edge adding k-1 fresh
    consecutive ids. Creation order 0..n-1 is itself a spiral-like ordering.
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
    tree = build_supertree(k, n, edges)
    assert tree.degrees == pi.entries
    return tree, tuple(range(n))


# --- relabeling along an eigenfunction --------------------------------------


def _ranked(entries, value_of, tiebreak_of, tol: Tolerances):
    """Sort by descending value; runs of values equal within tolerance are
    reordered by the tiebreak key."""
    by_value = sorted(entries, key=lambda x: -value_of(x))
    out = []
    i = 0
    while i < len(by_value):
        j = i + 1
        while j < len(by_value):
            a, b = value_of(by_value[j - 1]), value_of(by_value[j])
            if abs(a - b) > tol.rel_eps * max(1.0, abs(a), abs(b)):
                break
            j += 1
        out.extend(sorted(by_value[i:j], key=tiebreak_of))
        i = j
    return out


def relabel(
    G: Supertree, f, tol: Tolerances = DEFAULT_TOLERANCES
) -> dict[VertexId, VertexLabel]:
    """Label each vertex (s, i, p) by level, group, and in-group position.

    The root is the vertex maximizing f. At each level the groups are the
    k-1 deeper vertices of each edge reaching down from the previous level;
    groups are ordered by descending sum of f, ties broken by the parent's
    label and then by smallest vertex id; inside a group, vertices are
    ordered by descending f, ties by id. The induced lexicographic order on
    labels sorts f non-increasingly on extremal supertrees.

    Raises:
        NotAnEigenfunction: f is not positive interior / zero boundary.
    """
    fs = np.asarray(f, dtype=float)
    if fs.shape != (G.n,):
        raise NotAnEigenfunction(f"expected {G.n} values, got shape {fs.shape}")
    part = boundary_partition(G)
    for v in part.boundary:
        if abs(fs[v]) > 1e-12:
            raise NotAnEigenfunction(f"f({v}) = {fs[v]} nonzero on the boundary")
    for v in part.interior:
        if fs[v] <= 0.0:
            raise NotAnEigenfunction(f"f({v}) = {fs[v]} not positive on the interior")

    top_value = max(fs)
    root = min(
        v
        for v in range(G.n)
        if abs(fs[v] - top_value) <= tol.rel_eps * max(1.0, abs(top_value))
    )
    ls, _, blocks_at = _hanging(G, root)
    labels: dict[VertexId, VertexLabel] = {root: (0, 1, 1)}

    for lvl in range(1, ls.height + 1):
        blocks = blocks_at[lvl]

        def group_sum(block):
            return float(sum(fs[v] for v in block[1]))

        def group_tiebreak(block):
            top, members = block
            _, pi_, pp = labels[top]
            return (pi_, pp, min(members))

        ordered = _ranked(blocks, group_sum, group_tiebreak, tol)
        for gi, (_, members) in enumerate(ordered, start=1):
            arranged = _ranked(
                list(members), lambda v: float(fs[v]), lambda v: v, tol
            )
            for pp, v in enumerate(arranged, start=1):
                labels[v] = (lvl, gi, pp)
    return labels


def relabel_ordering(labels: dict[VertexId, VertexLabel]) -> tuple[VertexId, ...]:
    """Vertices sorted by their (s, i, p) labels."""
    return tuple(sorted(labels, key=labels.get))
