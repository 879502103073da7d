"""k-uniform supertrees with boundary.

A supertree is a connected acyclic k-uniform hypergraph: every edge has
exactly k vertices and two edges share at most one vertex, so the vertex-edge
incidence graph is a tree. Degree-one vertices form the boundary; vertices of
degree at least two are interior. This module validates supertrees, computes
degree sequences and an exact canonical form (equal codes iff isomorphic),
and reads/writes the .sht text format.
"""

import bisect
import itertools
import math
from collections import namedtuple

from .errors import (
    BadVertexId,
    ContainsCycle,
    Disconnected,
    DuplicateEdge,
    EdgeOverlapTooLarge,
    InfeasibleDegreeSequence,
    NotKUniform,
    ShtFormatError,
)

__all__ = [
    "VertexId",
    "CanonicalCode",
    "Supertree",
    "DegreeSequence",
    "build_supertree",
    "degree_sequence",
    "canonical_code",
    "parse_sht",
    "serialize_sht",
]

VertexId = int
CanonicalCode = bytes


class Supertree(namedtuple("Supertree", "k n edges degrees")):
    """A k-uniform supertree with consistent fields.

    Input from outside the library goes through :func:`build_supertree`,
    which performs the full validation pass; class growth extends an
    existing supertree by a pendant edge, which needs no validation.
    Fields are assumed consistent everywhere else. Vertex ids are 0..n-1,
    ``degrees[v]`` is the degree of v, and edges are stored as sorted
    k-tuples, sorted lexicographically.
    """

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.edges)


class DegreeSequence(namedtuple("DegreeSequence", "k entries")):
    """Degree multiset of a supertree in canonical arrangement.

    ``entries`` holds the interior degrees first, non-decreasing and each
    at least 2, followed by the unit degrees of the boundary vertices; n0,
    the interior count, is the number of entries other than 1. Validation
    enforces the supertree counting identities: (n-1) must be a multiple of
    (k-1) and the entries must sum to k*(n-1)/(k-1). Sequences passing
    validation are exactly the ones realized by some supertree.
    """

    __slots__ = ()

    def __new__(cls, k: int, entries: tuple[int, ...]):
        if k < 2:
            raise InfeasibleDegreeSequence(f"edge size must be at least 2, got k={k}")
        n = len(entries)
        if n == 0:
            raise InfeasibleDegreeSequence("empty degree sequence")
        n0 = n - entries.count(1)
        for i in range(n0, n):
            if entries[i] != 1:
                raise InfeasibleDegreeSequence(
                    f"entry {entries[i]} at position {i} follows a pendant degree 1"
                )
        # the first n0 entries hold no 1 now, so one below 2 is below 1
        for i in range(n0):
            if entries[i] < 1:
                raise InfeasibleDegreeSequence(
                    f"entry {entries[i]} at position {i} is below 1"
                )
            if i and entries[i - 1] > entries[i]:
                raise InfeasibleDegreeSequence("interior entries must be non-decreasing")
        if (n - 1) % (k - 1) != 0:
            raise InfeasibleDegreeSequence(
                f"(n-1) = {n - 1} is not a multiple of (k-1) = {k - 1}"
            )
        m = (n - 1) // (k - 1)
        if sum(entries) != k * m:
            raise InfeasibleDegreeSequence(
                f"degree sum {sum(entries)} != k*m = {k * m}"
            )
        return super().__new__(cls, k, entries)

    # _replace builds through _make, which would skip the check in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_degrees(cls, k: int, degrees) -> "DegreeSequence":
        """Sort a raw degree multiset into canonical arrangement."""
        ds = sorted(degrees)
        if ds and ds[0] < 1:
            raise InfeasibleDegreeSequence(f"degree {ds[0]} is below 1")
        ones = ds.count(1)
        return cls(k, tuple(ds[ones:]) + tuple(ds[:ones]))

    @property
    def n0(self) -> int:
        return len(self.entries) - self.entries.count(1)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return (self.n - 1) // (self.k - 1)

    @property
    def interior(self) -> tuple[int, ...]:
        return self.entries[: self.n0]

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.entries)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def build_supertree(k: int, n: int, edges) -> Supertree:
    """Validate and construct a supertree.

    Args:
        k: edge size, at least 2.
        n: number of vertices; ids are 0..n-1.
        edges: iterable of k-sets of vertex ids.

    Raises:
        NotKUniform: an edge does not have exactly k distinct vertices.
        BadVertexId: a vertex id falls outside [0, n).
        DuplicateEdge: the same k-set appears twice.
        EdgeOverlapTooLarge: two edges share two or more vertices.
        ContainsCycle: the incidence graph contains a cycle.
        Disconnected: the hypergraph is not one component covering all ids.
    """
    if k < 2:
        raise NotKUniform(f"edge size must be at least 2, got k={k}")
    if n < 1:
        raise BadVertexId(f"vertex count must be positive, got n={n}")
    normalized = []
    for e in edges:
        t = tuple(sorted(e))
        if len(t) != k or len(set(t)) != k:
            raise NotKUniform(f"edge {t} does not have exactly {k} distinct vertices")
        if t[0] < 0 or t[-1] >= n:
            raise BadVertexId(f"edge {t} uses ids outside 0..{n - 1}")
        normalized.append(t)
    normalized.sort()
    for prev, cur in zip(normalized, normalized[1:]):
        if prev == cur:
            raise DuplicateEdge(f"edge {cur} appears twice")
    seen_pairs: set[tuple[int, int]] = set()
    for e in normalized:
        for pair in itertools.combinations(e, 2):
            if pair in seen_pairs:
                raise EdgeOverlapTooLarge(
                    f"vertices {pair[0]} and {pair[1]} share two edges"
                )
            seen_pairs.add(pair)
    # only vertices on some edge enter the union-find, so a huge declared n
    # costs nothing: ids outside every edge are isolated components
    touched = {v for e in normalized for v in e}
    uf = _UnionFind(touched)
    for e in normalized:
        roots = {uf.find(v) for v in e}
        if len(roots) < k:
            # overlap-size-2 cases were caught above, so this is a longer cycle
            raise ContainsCycle(f"edge {e} closes a cycle")
        for v in e[1:]:
            uf.union(e[0], v)
    if not normalized:
        raise Disconnected("a supertree contains at least one edge")
    components = len({uf.find(v) for v in touched}) + n - len(touched)
    if components > 1:
        raise Disconnected(f"{components} components, expected 1")
    degrees = [0] * n
    for e in normalized:
        for v in e:
            degrees[v] += 1
    m = len(normalized)
    assert m * (k - 1) == n - 1, "connected acyclic counts are forced"
    return Supertree(k=k, n=n, edges=tuple(normalized), degrees=tuple(degrees))


def _attach_leaf(G: Supertree, v: VertexId) -> Supertree:
    """G with the pendant edge (v, n, ..., n+k-2) on k-1 new vertices; a
    supertree by construction, so nothing is re-validated."""
    k, n, edges, degrees = G
    edges = list(edges)
    bisect.insort(edges, (v,) + tuple(range(n, n + k - 1)))
    degrees = list(degrees)
    degrees[v] += 1
    degrees.extend([1] * (k - 1))
    return Supertree(k, n + k - 1, tuple(edges), tuple(degrees))


def degree_sequence(G: Supertree) -> DegreeSequence:
    return DegreeSequence.from_degrees(G.k, G.degrees)


def _vertex_values(G: Supertree, f, error: type[Exception]) -> list[float]:
    """f, a flat sequence of G.n reals or a numpy array of them, as a list of
    floats; error for a scalar, a nested or a wrong-length f, or one with a
    NaN or an infinity, which no comparison can rank."""
    fs = f.tolist() if hasattr(f, "tolist") else f
    if not hasattr(fs, "__len__") or any(isinstance(x, (list, tuple)) for x in fs):
        raise error(f"expected {G.n} function values, got a {type(f).__name__}")
    fs = [float(x) for x in fs]
    if len(fs) != G.n:
        raise error(f"expected {G.n} function values, got {len(fs)}")
    for v, x in enumerate(fs):
        if not math.isfinite(x):
            raise error(f"f({v}) = {x} is not finite")
    return fs


# --- canonical form -------------------------------------------------------
#
# The incidence tree has one node per vertex (ids 0..n-1) and one per edge
# (ids base..base+m-1, base = n unless given), linked by membership.
# Supertree isomorphism is exactly label-preserving isomorphism of these
# bipartite trees. One encoder, _CentroidTree, finds the centroid from
# subtree sizes seen from node 0, walks the tree breadth-first from there,
# and bottom-up gives each node the AHU code b"v(" or b"e(", followed by the
# sorted codes of its children, followed by b")". The root's code is a
# complete invariant.
#
# The centroid is unique: the tree has km+1 nodes and every rooted subtree
# holds jk of them (below an edge node) or jk+1 (below a vertex), so none
# holds exactly half. Class growth encodes only its first edge, with base
# its largest vertex count, so node ids stay fixed: vertex v is node v and
# the j-th edge created is node base + j. One pass over a parent's encoding
# labels the automorphism orbits and gives the code of the child grown by a
# pendant edge at the lowest vertex of each orbit: only codes on the path
# from that vertex to the root change, and the child's centroid is the root
# or the root's child on that path. A kept child's encoding is its parent's,
# copied, with the k new nodes and that path update written in.


def _incidence_adjacency(G: Supertree, base: int | None = None) -> list[list[int]]:
    _, n, edges, _ = G
    adj: list[list[int]] = [[] for _ in range(n if base is None else base)]
    for enode, e in enumerate(edges, len(adj)):
        for v in e:
            adj[v].append(enode)
    adj.extend(list(e) for e in edges)
    return adj


def _rooted_order(adj: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of the tree adj from root, and each node's
    parent (-1 at the root)."""
    parent = [-1] * len(adj)
    order = [root]
    for u in order:
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    return order, parent


def _incidence_walk(G: Supertree, root: VertexId) -> tuple[list[int], list[int]]:
    """Depth and parent (-1 at the root) of every incidence-tree node,
    walked from vertex root. A vertex's depth is twice its distance from
    root, and an edge node's parent is the edge's vertex nearest root."""
    order, parent = _rooted_order(_incidence_adjacency(G), root)
    depth = [0] * len(order)
    for u in order[1:]:
        depth[u] = depth[parent[u]] + 1
    return depth, parent


def canonical_code(G: Supertree) -> CanonicalCode:
    """Byte string equal for two supertrees iff they are isomorphic."""
    return _CentroidTree(G).code


class _CentroidTree:
    """G's incidence tree rooted at its centroid, edge i of G.edges as node
    base + i: the root's code and every node's code, parent (-1 at the
    root), top-down order (breadth-first when encoded from scratch) and
    sorted child codes, in lists indexed by node. Every node adds three bytes
    to a code, so a subtree holds len(code) // 3 nodes. Slots n..base-1 hold
    a boundary vertex's values, so child() can fill them."""

    def __init__(self, G: Supertree, base: int | None = None):
        k, n, edges, _ = G
        adj = _incidence_adjacency(G, base)
        total = n + len(edges)
        self.n, self.k = n, k
        # the nodes whose subtree seen from node 0 holds more than half the
        # tree form a path down from node 0; it ends at the centroid
        order, parent = _rooted_order(adj, 0)
        size = [1] * len(adj)
        for u in reversed(order[1:]):
            size[parent[u]] += size[u]
        root = [u for u in order if 2 * size[u] > total][-1]
        order, parent = _rooted_order(adj, root)
        below: list[list[bytes]] = [[] for _ in adj]
        # a node without children is a boundary vertex
        codes = [b"v()"] * len(adj)
        join = b"".join
        for u in reversed(order[1:]):
            kids = below[u]
            if kids:
                kids.sort()
                codes[u] = join([b"v(" if u < n else b"e(", *kids, b")"])
            below[parent[u]].append(codes[u])
        below[root].sort()
        codes[root] = self.code = join([b"v(" if root < n else b"e(", *below[root], b")"])
        self.codes, self.parent, self.order, self.below = codes, parent, order, below

    def _grown_codes(self, vertices, lists=None) -> list[CanonicalCode]:
        """The code of the child with a pendant edge at v, for each v of
        vertices. With lists, the child's codes, below and parent at its
        one v (copies of this tree's, new nodes added), also writes the path
        update there, re-rooted at the child's centroid.

        The pendant edge adds k nodes below v, so only the codes on the path
        from v to the root change. The child's centroid is the root, or the
        root's child u on the path when u's grown subtree, of
        len(codes[u]) // 3 + k nodes, holds more than half of the child; the
        root then hangs below it.

        It is never two steps down. A subtree holding j edges has jk nodes
        below an edge node and jk+1 below a vertex, and each below the root
        holds less than half of G's km+1 nodes. A centroid at x under w
        needs x's subtree, grown by k, to exceed half of the child's km+k+1
        nodes, while w's subtree, which holds x's (and w when it is an
        edge node), stayed below half of G. For an edge node x holding j
        edges that puts 2j strictly between m-1 and m; for a vertex x under
        an edge node w holding j edges, strictly between m and m+1.
        """
        n, k, codes, below, parent = self.n, self.k, self.codes, self.below, self.parent
        total = len(self.code) // 3
        join, insort = b"".join, bisect.insort
        leaf, out = b"e(" + b"v()" * (k - 1) + b")", []
        c_codes, c_below, c_parent = lists or (None,) * 3
        for v in vertices:
            u, old, new = v, b"", leaf
            while True:
                kids = below[u].copy()
                if old:
                    kids.remove(old)
                insort(kids, new)
                old, new = codes[u], join([b"v(" if u < n else b"e(", *kids, b")"])
                if lists:
                    c_codes[u], c_below[u] = new, kids
                p = parent[u]
                if p < 0:
                    break
                if parent[p] < 0 and 2 * (len(old) // 3 + k) > total + k:
                    rest = below[p].copy()
                    rest.remove(old)
                    top = join([b"v(" if p < n else b"e(", *rest, b")"])
                    insort(kids, top)
                    new = join([b"v(" if u < n else b"e(", *kids, b")"])
                    if lists:
                        c_codes[p], c_below[p], c_codes[u] = top, rest, new
                        c_parent[p], c_parent[u] = u, -1
                    break
                u = p
            out.append(new)
        return out

    def leaf_children(self, vertices=None) -> list[tuple[CanonicalCode, VertexId]]:
        """(canonical_code(_attach_leaf(G, v)), v) for the lowest vertex v of
        every orbit of G's automorphism group, v ascending; when vertices
        (ascending) is given, only of the orbits that meet it, at their
        lowest vertex in it.

        Every automorphism fixes the centroid, so two nodes share an orbit
        iff their parents do and their codes are equal.
        """
        codes, parent = self.codes, self.parent
        orbit = [0] * len(codes)
        ids: dict[tuple[int, bytes], int] = {}
        setdefault = ids.setdefault
        for u in self.order[1:]:
            orbit[u] = setdefault((orbit[parent[u]], codes[u]), len(ids) + 1)
        lowest: dict[int, VertexId] = {}
        for v in (range(self.n) if vertices is None else vertices):
            lowest.setdefault(orbit[v], v)
        reps = list(lowest.values())
        return list(zip(self._grown_codes(reps), reps))

    def child(self, v: VertexId) -> "_CentroidTree":
        """The encoding of _attach_leaf(G, v), derived from this one: the new
        edge is node len(codes), its vertices n..n+k-2 must stay below base."""
        n, k, e = self.n, self.k, len(self.codes)
        assert n + k - 1 <= e - (len(self.code) // 3 - n), "no free node ids below base"
        t = object.__new__(_CentroidTree)
        t.n, t.k = n + k - 1, k
        t.codes = codes = [*self.codes, b"e(" + b"v()" * (k - 1) + b")"]
        t.below = below = [*self.below, [b"v()"] * (k - 1)]
        t.parent = parent = [*self.parent, v]
        parent[n:n + k - 1] = [e] * (k - 1)
        [t.code] = self._grown_codes((v,), (codes, below, parent))
        t.order = order = [*self.order, e, *range(n, n + k - 1)]
        c = parent[order[0]]
        if c >= 0:  # the centroid moved to c, now the old root's parent
            order.remove(c)
            order.insert(0, c)
        return t


def _isomorphism(G: Supertree, H: Supertree) -> list[VertexId] | None:
    """phi with phi[v] the vertex of H that an isomorphism G -> H assigns to
    vertex v of G, or None when G and H are not isomorphic.

    Every isomorphism matches the two centroids, and below matched nodes it
    matches children of equal code, so a breadth-first walk over G pairs
    each node with the first unmatched child of equal code under its
    parent's image.
    """
    a, b = _CentroidTree(G), _CentroidTree(H)
    if a.code != b.code:
        return None
    free: dict[tuple[int, bytes], list[int]] = {}
    for y in reversed(b.order[1:]):
        free.setdefault((b.parent[y], b.codes[y]), []).append(y)
    match = [0] * len(a.codes)
    match[a.order[0]] = b.order[0]
    for x in a.order[1:]:
        match[x] = free[match[a.parent[x]], a.codes[x]].pop()
    return match[: G.n]


# --- .sht text format -----------------------------------------------------
#
#   k 3
#   n 7
#   e 0 1 2
#   e 0 3 4
#
# A file has exactly one `k` and one `n` line. Lines starting with '#' are
# comments. Parsing tolerates arbitrary whitespace and skips trailing
# `order` metadata lines emitted by slo-construct; serialization is
# canonical (sorted ids, sorted edges).


def parse_sht(text: str) -> Supertree:
    header: dict[str, int] = {}
    edges: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag, args = parts[0], parts[1:]
        if tag == "order":
            continue
        if tag not in ("k", "n", "e"):
            raise ShtFormatError(f"line {lineno}: unknown directive {tag!r}")
        try:
            values = [int(x) for x in args]
        except ValueError:
            raise ShtFormatError(f"line {lineno}: malformed {tag!r} line") from None
        if tag == "e":
            edges.append(values)
        elif len(values) != 1:
            raise ShtFormatError(f"line {lineno}: {tag!r} takes one integer")
        elif tag in header:
            raise ShtFormatError(f"line {lineno}: second {tag!r} line")
        else:
            header[tag] = values[0]
    if len(header) < 2:
        raise ShtFormatError("missing required 'k' or 'n' line")
    return build_supertree(header["k"], header["n"], edges)


def serialize_sht(G: Supertree) -> str:
    lines = [f"k {G.k}", f"n {G.n}"]
    lines.extend("e " + " ".join(str(v) for v in e) for e in G.edges)
    return "\n".join(lines) + "\n"
