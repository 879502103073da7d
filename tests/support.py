"""Shared helpers for the test suite.

The labeled brute-force enumerator here is deliberately independent of the
library's orderly growth: it scans lexicographic combinations of candidate
edges and validates each selection with a local union-find, so agreement
between the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import numpy as np

from supertrees import (
    DegreeSequence,
    NotAPermutation,
    ShiftSpec,
    SloViolation,
    Supertree,
    SwitchSpec,
    build_supertree,
    canonical_code,
    check_slo,
    feasible_degree_sequences,
    majorizes,
    unit_transformation,
)
from supertrees.config import _DEGENERATE_GAP, strictly_less
from supertrees.core import (
    VertexId,
    _incidence_adjacency,
    _rooted_order,
)
from supertrees.enumeration import _grow_classes


def _connected(edges, n: int) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        for v in e[1:]:
            ra, rb = find(e[0]), find(v)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in range(n)}) == 1


def labeled_supertrees(k: int, n: int):
    """Yield every labeled supertree on vertices 0..n-1 as an edge tuple.

    Each edge set appears exactly once (edges sorted lexicographically).
    A selection of m edges with pairwise overlap at most one vertex, full
    vertex coverage, and connectivity has a spanning incidence tree by the
    counting identity k*m = n + m - 1, so no separate acyclicity test is
    needed.
    """
    if n < k or (n - 1) % (k - 1):
        return
    m = (n - 1) // (k - 1)
    pool = list(itertools.combinations(range(n), k))
    masks = [sum(1 << v for v in e) for e in pool]
    compat = []
    for i in range(len(pool)):
        b = 0
        for j in range(i + 1, len(pool)):
            if (masks[i] & masks[j]).bit_count() <= 1:
                b |= 1 << j
        compat.append(b)
    full = (1 << n) - 1

    def rec(allowed: int, chosen: list[int], cover: int):
        if len(chosen) == m:
            picked = [pool[i] for i in chosen]
            if cover == full and _connected(picked, n):
                yield tuple(picked)
            return
        rem = m - len(chosen)
        b = allowed
        while b:
            low = b & -b
            i = low.bit_length() - 1
            b ^= low
            grown = cover | masks[i]
            # each remaining edge covers at most k new vertices
            if grown.bit_count() + (rem - 1) * k >= n:
                yield from rec(allowed & compat[i], chosen + [i], grown)

    yield from rec((1 << len(pool)) - 1, [], 0)


def oracle_classes(k: int, n: int) -> dict[bytes, Supertree]:
    """Isomorphism classes on n vertices found by the labeled brute force."""
    out: dict[bytes, Supertree] = {}
    for edges in labeled_supertrees(k, n):
        G = build_supertree(k, n, edges)
        out.setdefault(canonical_code(G), G)
    return out


def reference_laplacian(G: Supertree) -> np.ndarray:
    """The n x n Laplacian filled one element at a time: degree on the
    diagonal, -1/(k-1) between vertices sharing an edge; the library
    scatters whole stacks of blocks instead."""
    lap = np.zeros((G.n, G.n))
    for v in range(G.n):
        lap[v, v] = G.degrees[v]
    w = -1.0 / (G.k - 1)
    for e in G.edges:
        for i in e:
            for j in e:
                if i != j:
                    lap[i, j] = w
    return lap


def _interior_block(G: Supertree):
    interior = [v for v in range(G.n) if G.degrees[v] >= 2]
    return interior, reference_laplacian(G)[np.ix_(interior, interior)]


def _eigenpair_from(G, interior, M, values, x):
    lam = float(values[0])
    if x[np.argmax(np.abs(x))] < 0.0:
        x = -x
    x /= np.linalg.norm(x)
    f = np.zeros(G.n)
    f[interior] = x
    gap = float(values[1] - values[0]) if len(values) > 1 else math.inf
    residual = float(np.linalg.norm(M @ x - lam * x))
    degenerate = gap <= _DEGENERATE_GAP * max(1.0, lam)
    return lam, f, gap, degenerate, residual


def reference_eigenpair(G: Supertree):
    """(lam, f, gap, degenerate, residual) from every eigenvector of the
    interior block cut from reference_laplacian (np.linalg.eigh), an
    independent check on the library's accuracy."""
    interior, M = _interior_block(G)
    values, vectors = np.linalg.eigh(M)
    return _eigenpair_from(G, interior, M, values, vectors[:, 0].copy())


def reference_inverse_iteration(G: Supertree):
    """(lam, f, gap, degenerate, residual) by the library's arithmetic on the
    interior block cut from reference_laplacian: eigenvalues alone, then one
    solve of (M - sigma I) x = 1 with sigma = lam - 16 eps (max degree), and
    norms from np.linalg.norm; the library takes the block straight from
    the scatter, shifts its diagonal in place and norms by math.sqrt(x @ x)."""
    interior, M = _interior_block(G)
    values = np.linalg.eigvalsh(M)
    sigma = values[0] - 16 * np.finfo(float).eps * max(G.degrees)
    x = np.linalg.solve(M - sigma * np.eye(len(M)), np.ones(len(M)))
    return _eigenpair_from(G, interior, M, values, x)


def tree_centroids(adj: list[list[int]]) -> list[int]:
    """Every node of the tree adj whose heaviest branch is lightest, by a
    scan of all nodes; the library descends from node 0 to the one
    centroid instead."""
    total = len(adj)
    order, parent = _rooted_order(adj, 0)
    size = [1] * total
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    best = total + 1
    centroids: list[int] = []
    for u in range(total):
        heaviest = total - size[u]
        for w in adj[u]:
            if w != parent[u]:
                heaviest = max(heaviest, size[w])
        if heaviest < best:
            best = heaviest
            centroids = [u]
        elif heaviest == best:
            centroids.append(u)
    return centroids


def rooted_codes(
    adj: list[list[int]], root: int, n_vertices: int
) -> tuple[list[bytes], list[int], list[int], list[list[bytes]]]:
    """The code of the subtree below every node of the incidence tree rooted
    at root, each node's parent (-1 at the root), the breadth-first order,
    and each node's sorted child codes."""
    order, parent = _rooted_order(adj, root)
    below: list[list[bytes]] = [[] for _ in adj]
    codes = [b""] * len(adj)
    for u in reversed(order):
        children = below[u]
        children.sort()
        codes[u] = (b"v(" if u < n_vertices else b"e(") + b"".join(children) + b")"
        if u != root:
            below[parent[u]].append(codes[u])
    return codes, parent, order, below


def reference_centroid_tree(G: Supertree) -> dict:
    """The fields of core._CentroidTree by the three-pass encoder: a scan
    for the centroid, the rooted codes, then subtree sizes in a pass of
    their own."""
    adj = _incidence_adjacency(G)
    (root,) = tree_centroids(adj)
    codes, parent, order, below = rooted_codes(adj, root, G.n)
    size = [1] * len(adj)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return {"codes": codes, "parent": parent, "order": order, "below": below,
            "size": size}


def _rooted_code(adj: list[list[int]], root: int, n_vertices: int) -> bytes:
    def code(u: int, parent: int) -> bytes:
        label = b"v" if u < n_vertices else b"e"
        children = sorted(code(w, u) for w in adj[u] if w != parent)
        return label + b"(" + b"".join(children) + b")"

    return code(root, -1)


def reference_code(G: Supertree) -> bytes:
    """Canonical code from the recursive AHU encoder that fixed the byte
    format certificates print; recursion bounds it to small supertrees."""
    adj = _incidence_adjacency(G)
    return min(_rooted_code(adj, c, G.n) for c in tree_centroids(adj))


def reference_isomorphism(G: Supertree, H: Supertree) -> list[int] | None:
    """The vertex map G -> H that pairs the children of matched nodes in
    sorted-code order (equal codes in breadth-first order), walking down
    from the two centroids, or None when the root codes differ; core's
    _isomorphism pairs by a dict of unmatched nodes and must agree."""
    a, b = reference_centroid_tree(G), reference_centroid_tree(H)
    if a["codes"][a["order"][0]] != b["codes"][b["order"][0]]:
        return None

    def children(t: dict) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in t["codes"]]
        for u in t["order"][1:]:
            kids[t["parent"][u]].append(u)
        for row in kids:
            row.sort(key=t["codes"].__getitem__)
        return kids

    kids_a, kids_b = children(a), children(b)
    match = [0] * len(a["codes"])
    match[a["order"][0]] = b["order"][0]
    for u in a["order"]:
        for x, y in zip(kids_a[u], kids_b[match[u]]):
            match[x] = y
    return match[: G.n]


def reference_grow_classes(k: int, m_target: int, keep=lambda G: True) -> list:
    """Class growth that attaches a pendant edge at every vertex and
    validates each child through build_supertree; the library's growth
    attaches once per automorphism orbit and must return the same layers,
    labelled representatives included."""
    if m_target < 1:
        return []
    start = build_supertree(k, k, [tuple(range(k))])
    layers = [[(canonical_code(start), start)] if keep(start) else []]
    for _ in range(m_target - 1):
        grown: dict[bytes, Supertree] = {}
        for _, G in layers[-1]:
            for v in range(G.n):
                edge = (v,) + tuple(range(G.n, G.n + k - 1))
                H = build_supertree(k, G.n + k - 1, list(G.edges) + [edge])
                if keep(H):
                    grown.setdefault(canonical_code(H), H)
        layers.append(sorted(grown.items()))
    return layers


def reference_ascending_partitions(total: int, count: int, low: int):
    """The recursive generator that enumeration._ascending_partitions
    replaced: non-decreasing count-tuples of parts >= low summing to total,
    in lexicographic order, one recursion level per part."""
    if count == 0:
        if total == 0:
            yield ()
        return
    for first in range(low, total - low * (count - 1) + 1):
        for rest in reference_ascending_partitions(total - first, count - 1, first):
            yield (first,) + rest


def dominated_by(bound):
    """A keep predicate for reference_grow_classes: at every threshold t >= 2,
    G has no more degrees of at least t than bound has entries of at least
    t, which says G's interior degrees, sorted descending, fit pointwise
    under the descending bound."""

    def keep(G: Supertree) -> bool:
        return all(
            sum(d >= t for d in G.degrees) <= sum(b >= t for b in bound)
            for t in range(2, max(G.degrees) + 1)
        )

    return keep


def _hanging(
    G: Supertree, root: VertexId
) -> tuple[list[int], list[bytes], list[list[tuple]]]:
    """Each vertex's level seen from root, the code of the structure hanging
    below each vertex, and the edges reaching down into each level.

    ``blocks[s]`` lists (top, members) for every edge whose k-1 members sit
    at level s, in G.edges order; acyclicity leaves exactly one vertex, the
    top, one level up. Codes are the canonical-form encoder's, rooted at
    root: equal codes mean an automorphism of G fixing everything above can
    swap the two subtrees.
    """
    depth = reference_depths(G, root)
    codes, parent = rooted_codes(_incidence_adjacency(G), root, G.n)[:2]
    blocks: list[list[tuple]] = [[] for _ in range(max(depth) + 1)]
    for ei, e in enumerate(G.edges):
        top = parent[G.n + ei]
        blocks[depth[top] + 1].append((top, tuple(v for v in e if v != top)))
    return depth, codes, blocks


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
    depth, subkey, blocks_at = _hanging(G, root)
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
        if lvl >= len(blocks_at):
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


def reference_find_slo_ordering(G: Supertree) -> tuple[VertexId, ...] | None:
    """A spiral-like ordering of G by backtracking search, or None when no
    ordering exists; the library recognizes orderings by isomorphism to the
    constructed SLO-supertree instead, and must agree with this search.

    S5 forces the root to be an interior vertex of minimum interior degree
    (when any interior vertex exists), so only those roots are searched. Any
    returned ordering is re-verified through check_slo.
    """
    interior = frozenset(v for v in range(G.n) if G.degrees[v] >= 2)
    if not interior:
        order = tuple(range(G.n))
        assert not check_slo(G, order)
        return order
    dmin = min(G.degrees[v] for v in interior)
    for root in sorted(v for v in interior if G.degrees[v] == dmin):
        order = _spiral_search(G, root, interior)
        if order is not None:
            violations = check_slo(G, order)
            assert not violations, violations
            return order
    return None


def reference_depths(G: Supertree, root: VertexId) -> list[int]:
    """Distance of every vertex from root by breadth-first search over the
    vertex graph (two vertices are adjacent when they share an edge); the
    library reads distances off its incidence-tree walk instead."""
    nbrs: list[set[int]] = [set() for _ in range(G.n)]
    for e in G.edges:
        for v in e:
            nbrs[v].update(e)
    depth = [-1] * G.n
    depth[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in sorted(nbrs[u]):
            if depth[w] < 0:
                depth[w] = depth[u] + 1
                queue.append(w)
    return depth


def reference_check_slo(G: Supertree, order) -> list[SloViolation]:
    """Every rule violation of a candidate ordering, comparing all O(n^2)
    pairs; the library's check_slo reports only the consecutive ones.

    Depths come from reference_depths, and each edge's parent is its
    vertex nearest the root.
    """
    ord_tuple = tuple(order)
    if sorted(ord_tuple) != list(range(G.n)):
        raise NotAPermutation("ordering is not a permutation of 0..n-1")
    pos = {v: i for i, v in enumerate(ord_tuple)}
    depth = reference_depths(G, ord_tuple[0])
    interior = frozenset(v for v in range(G.n) if G.degrees[v] >= 2)
    violations: list[SloViolation] = []

    for i in range(G.n):
        for j in range(i + 1, G.n):
            u, v = ord_tuple[i], ord_tuple[j]
            if depth[u] > depth[v]:
                violations.append(SloViolation("S1", (u, v)))

    parent = {}
    for e in G.edges:
        top = min(e, key=depth.__getitem__)
        parent.update((v, top) for v in e if v != top)
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


def consecutive_witnesses(G: Supertree, order, violations) -> list[SloViolation]:
    """The violations whose witness pair is consecutive: adjacent in the
    ordering for S1 and S3, adjacent children for S2, adjacent among the
    interior vertices for S5; every S4 witness."""
    pos = {v: i for i, v in enumerate(order)}
    interior = [v for v in order if G.degrees[v] >= 2]
    next_interior = dict(zip(interior, interior[1:]))

    def kept(x: SloViolation) -> bool:
        if x.rule in ("S1", "S3"):
            return pos[x.witness[1]] == pos[x.witness[0]] + 1
        if x.rule == "S2":
            return pos[x.witness[2]] == pos[x.witness[3]] + 1
        if x.rule == "S5":
            return next_interior.get(x.witness[0]) == x.witness[1]
        return True

    return [x for x in violations if kept(x)]


def apply_vertex_permutation(G: Supertree, perm) -> Supertree:
    """G with vertex v renamed perm[v]."""
    return build_supertree(G.k, G.n, [[perm[v] for v in e] for e in G.edges])


def random_supertree(rng: random.Random, k: int, m: int) -> Supertree:
    """A uniformly grown supertree with randomly permuted vertex labels."""
    edges = [tuple(range(k))]
    n = k
    for _ in range(m - 1):
        attach = rng.randrange(n)
        edges.append((attach,) + tuple(range(n, n + k - 1)))
        n += k - 1
    perm = list(range(n))
    rng.shuffle(perm)
    return apply_vertex_permutation(build_supertree(k, n, edges), perm)


def broom(k: int, handle: int, bristles: int) -> Supertree:
    """A path of handle edges with bristles more edges at its far end."""
    edges, tip, n = [], 0, 1
    for i in range(handle + bristles):
        edges.append((tip,) + tuple(range(n, n + k - 1)))
        n += k - 1
        if i < handle:
            tip = n - 1
    return build_supertree(k, n, edges)


def random_boundary_zero(rng: random.Random, G: Supertree) -> list[float]:
    """A nonzero test function vanishing on the boundary."""
    values = [0.0] * G.n
    interior = [v for v in range(G.n) if G.degrees[v] >= 2]
    for v in interior:
        values[v] = rng.uniform(-1.0, 1.0)
    pivot = max(interior, key=lambda v: abs(values[v]))
    if abs(values[pivot]) < 1e-6:
        values[pivot] = 1.0
    return values


def all_feasible(k: int, n_max: int) -> list[DegreeSequence]:
    """Every feasible degree sequence with at least one interior vertex."""
    out: list[DegreeSequence] = []
    for n in range(k, n_max + 1):
        if (n - 1) % (k - 1):
            continue
        for n0 in range(1, n + 1):
            out.extend(feasible_degree_sequences(n, n0, k))
    return out


def reference_unit_transform_chain(pi: DegreeSequence, pi_prime: DegreeSequence) -> list[int]:
    """The chain that transforms.unit_transform_chain replaced: each step
    rescans the prefix sums from position 0 and replays one
    unit_transformation, O(n) per step. pi_prime must be majorized by pi with
    the same interior count."""
    assert majorizes(pi, pi_prime) and pi.n0 == pi_prime.n0
    chain: list[int] = []
    cur = pi
    while cur.entries != pi_prime.entries:
        prefix_cur = prefix_tgt = 0
        for j in range(pi.n0):
            prefix_cur += cur.entries[j]
            prefix_tgt += pi_prime.entries[j]
            if prefix_cur != prefix_tgt:
                break
        assert prefix_tgt < prefix_cur
        chain.append(j)
        cur = unit_transformation(cur, j)
        assert majorizes(cur, pi_prime)
    return chain


def all_members(k: int, n_max: int) -> list[Supertree]:
    """Every isomorphism class with an interior vertex, up to n_max, read
    from one unpruned growth."""
    return [
        G
        for layer in _grow_classes(k, (n_max - 1) // (k - 1))
        for _, G in layer
        if max(G.degrees) >= 2
    ]


def switch_strict_witness(G, f, spec) -> bool:
    """Whether a strict switch inequality admits an interior witness vertex.

    A strict eigenvalue decrease follows from a strict hypothesis only when
    the eigenvalue equation can be evaluated at an interior vertex whose
    incident edges change in exactly one of e1/e2: for an unbalanced
    exchanged-group sum, an interior vertex kept by one edge and absent from
    the other; for unbalanced kept-group sums, an interior vertex inside the
    exchanged groups. Without a witness the switch can be a relabeling.
    """
    interior = {v for v in range(G.n) if G.degrees[v] >= 2}
    su1 = sum(float(f[v]) for v in spec.u1)
    sv1 = sum(float(f[v]) for v in spec.v1)
    rest1 = sum(float(f[v]) for v in spec.e1 if v not in spec.u1)
    rest2 = sum(float(f[v]) for v in spec.e2 if v not in spec.v1)
    kept1 = set(spec.e1) - spec.u1 - set(spec.e2)
    kept2 = set(spec.e2) - spec.v1 - set(spec.e1)
    if strictly_less(sv1, su1) and interior & (kept1 | kept2):
        return True
    return strictly_less(rest1, rest2) and bool(
        interior & (spec.u1 | spec.v1)
    )


def random_switch_spec(rng: random.Random, G):
    """A well-formed exchange between two random edges (maybe empty)."""
    e1, e2 = rng.sample(G.edges, 2)
    only1 = [v for v in e1 if v not in e2]
    only2 = [v for v in e2 if v not in e1]
    size = rng.randint(0, min(len(only1), len(only2)))
    return SwitchSpec(
        e1=e1,
        e2=e2,
        u1=frozenset(rng.sample(only1, size)),
        v1=frozenset(rng.sample(only2, size)),
    )


def random_shift_spec(rng: random.Random, G):
    """A bundle move that keeps u interior, or None if G has none.

    Leaving at least two edges at u keeps the boundary of the result inside
    the boundary of G, which the monotonicity lemma needs so the
    eigenfunction stays admissible after the move.
    """
    candidates = [v for v in range(G.n) if G.degrees[v] >= 3]
    if not candidates:
        return None
    u = rng.choice(candidates)
    at_u = [e for e in G.edges if u in e]
    bundle = tuple(sorted(rng.sample(at_u, rng.randint(1, G.degrees[u] - 2))))
    blocked = {w for e in bundle for w in e}
    options = [v for v in range(G.n) if v not in blocked]
    if not options:
        return None
    return ShiftSpec(u=u, edges=bundle, v=rng.choice(options))


def targeted_switch_spec(rng: random.Random, G):
    """An exchange of one interior vertex of e1 for a boundary vertex of e2.

    Oriented so the exchanged-group sums are strictly unbalanced; together
    with an interior vertex kept on one side this is the shape of exchange
    the extremality argument actually performs, so sampling it keeps the
    strict pool of the property suites populated.
    """
    choices = []
    witnessed = []
    for e1 in G.edges:
        interiors = [u for u in e1 if G.degrees[u] >= 2]
        if not interiors:
            continue
        for e2 in G.edges:
            if e2 == e1:
                continue
            leaves = [v for v in e2 if v not in e1 and G.degrees[v] == 1]
            if not leaves:
                continue
            for u in interiors:
                if u in e2:
                    continue
                # u's edges outside e1 must not touch e2, or the moved u
                # would pair twice with a vertex it already shares an edge
                # with and the rewiring could not stay a supertree
                nbrs = {
                    x for e in G.edges if u in e and e != e1 for x in e
                }
                if nbrs & set(e2):
                    continue
                for v in leaves:
                    if any(
                        G.degrees[x] >= 2
                        for x in e1
                        if x != u and x not in e2
                    ) or any(
                        G.degrees[x] >= 2
                        for x in e2
                        if x != v and x not in e1
                    ):
                        witnessed.append((e1, e2, u, v))
    if not witnessed:
        return None
    e1, e2, u, v = rng.choice(witnessed)
    return SwitchSpec(e1=e1, e2=e2, u1=frozenset({u}), v1=frozenset({v}))
