"""Structural layer: validation, levels, canonical form, serialization."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from supertrees import (
    BadVertexId,
    ContainsCycle,
    DegreeSequence,
    FamilySpec,
    HypothesisCheck,
    Disconnected,
    DuplicateEdge,
    EdgeOverlapTooLarge,
    InfeasibleDegreeSequence,
    NotKUniform,
    ShiftSpec,
    ShtFormatError,
    Supertree,
    SupertreeError,
    SwitchSpec,
    build_supertree,
    canonical_code,
    check_slo,
    degree_sequence,
    first_dirichlet_eigenpair,
    parse_sht,
    serialize_sht,
    verify_fk_theorem1,
)
from supertrees.core import (
    _attach_leaf,
    _CentroidTree,
    _incidence_adjacency,
    _incidence_walk,
    _isomorphism,
    _rooted_order,
)
from supertrees.enumeration import _grow_classes, _raisable
from support import (
    apply_vertex_permutation,
    broom,
    random_supertree,
    reference_centroid_tree,
    reference_code,
    reference_depths,
    reference_isomorphism,
    tree_centroids,
)

TWO_INTERIOR = ((0, 1, 2), (0, 3, 4), (1, 5, 6))
CHAIN9 = ((0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8))
BOUQUET9 = ((0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8))


def test_build_normalizes_edges_and_degrees():
    G = build_supertree(3, 7, [(6, 5, 1), (4, 0, 3), (2, 1, 0)])
    assert G.edges == TWO_INTERIOR
    assert G.degrees == (2, 2, 1, 1, 1, 1, 1)
    assert G.m == 3


def test_counting_identity_holds():
    rng = random.Random(4021)
    for k in (2, 3, 4, 5):
        for m in (1, 2, 3, 5):
            G = random_supertree(rng, k, m)
            assert G.n - 1 == G.m * (G.k - 1)
            assert sum(G.degrees) == G.k * G.m


def test_rejects_wrong_edge_size():
    with pytest.raises(NotKUniform):
        build_supertree(3, 5, [(0, 1, 2), (0, 3)])
    with pytest.raises(NotKUniform):
        build_supertree(3, 5, [(0, 1, 1), (0, 3, 4)])
    with pytest.raises(NotKUniform):
        build_supertree(1, 3, [(0,), (1,), (2,)])


def test_rejects_bad_vertex_ids():
    with pytest.raises(BadVertexId):
        build_supertree(3, 5, [(0, 1, 2), (0, 3, 5)])
    with pytest.raises(BadVertexId):
        build_supertree(3, 5, [(0, 1, 2), (0, 3, -1)])
    with pytest.raises(BadVertexId):
        build_supertree(2, 0, [])


def test_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        build_supertree(3, 5, [(0, 1, 2), (2, 1, 0), (0, 3, 4)])


def test_rejects_large_overlap():
    with pytest.raises(EdgeOverlapTooLarge):
        build_supertree(3, 4, [(0, 1, 2), (1, 2, 3)])


def test_rejects_cycle():
    with pytest.raises(ContainsCycle):
        build_supertree(3, 6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    # a cycle is reported before the vertices no edge touches
    with pytest.raises(ContainsCycle):
        build_supertree(2, 7, [(0, 1), (1, 2), (0, 2)])


def test_rejects_disconnected():
    with pytest.raises(Disconnected):
        build_supertree(3, 7, [(0, 1, 2), (2, 3, 4)])
    with pytest.raises(Disconnected):
        build_supertree(3, 6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(Disconnected):
        build_supertree(2, 1, [])
    with pytest.raises(Disconnected, match="999999999999999 components"):
        build_supertree(2, 10**15, [(0, 1)])


def test_degree_sequence_arrangement():
    pi = degree_sequence(build_supertree(3, 9, CHAIN9))
    assert pi.entries == (2, 2, 2, 1, 1, 1, 1, 1, 1)
    assert pi.n0 == 3
    assert pi.n == 9
    assert pi.m == 4
    assert pi.interior == (2, 2, 2)
    assert str(pi) == "2,2,2,1,1,1,1,1,1"


def test_degree_sequence_validation():
    with pytest.raises(InfeasibleDegreeSequence, match="entry 2 at position 1 follows"):
        DegreeSequence(3, (1, 2, 1, 1, 1))  # not in canonical arrangement
    with pytest.raises(InfeasibleDegreeSequence, match="non-decreasing"):
        DegreeSequence(3, (3, 2, 1, 1, 1, 1, 1))  # interior not ascending
    with pytest.raises(InfeasibleDegreeSequence, match="not a multiple"):
        DegreeSequence(3, (2, 1, 1, 1))
    with pytest.raises(InfeasibleDegreeSequence, match="degree sum 7"):
        DegreeSequence(3, (3, 1, 1, 1, 1))
    with pytest.raises(InfeasibleDegreeSequence, match="degree 0 is below 1"):
        DegreeSequence.from_degrees(3, (0, 2, 1, 1, 1))
    with pytest.raises(InfeasibleDegreeSequence, match="entry 0 at position 0 is below 1"):
        DegreeSequence(3, (0, 2, 1, 1, 1))
    with pytest.raises(InfeasibleDegreeSequence, match="empty"):
        DegreeSequence(3, ())
    # two edges force an interior vertex: all ones fail the degree sum
    with pytest.raises(InfeasibleDegreeSequence, match="degree sum 3 != k\\*m = 4"):
        DegreeSequence(2, (1, 1, 1))
    with pytest.raises(InfeasibleDegreeSequence, match="edge size must be at least 2"):
        DegreeSequence(1, (1, 1))
    with pytest.raises(InfeasibleDegreeSequence, match="entry 2 at position 2 follows"):
        DegreeSequence(2, (2, 1, 2, 1))  # a non-1 entry after a unit degree
    # keyword construction and _replace validate too
    with pytest.raises(InfeasibleDegreeSequence):
        DegreeSequence(k=3, entries=(2, 2, 1, 1, 1))
    with pytest.raises(InfeasibleDegreeSequence, match="degree sum"):
        DegreeSequence(3, (2, 1, 1, 1, 1))._replace(entries=(3, 1, 1, 1, 1))
    with pytest.raises(TypeError):
        DegreeSequence(3, (2, 1, 1, 1, 1), 1)  # n0 is derived, not passed


def test_degree_sequence_derives_n0_from_its_entries():
    for k, entries, n0 in (
        (3, (1, 1, 1), 0),
        (3, (2, 1, 1, 1, 1), 1),
        (2, (2, 2, 3, 3) + (1,) * 4, 4),
    ):
        pi = DegreeSequence(k, entries)
        assert (pi.n0, pi.interior, tuple(pi)) == (n0, entries[:n0], (k, entries))
    pi = DegreeSequence(3, (2, 1, 1, 1, 1))._replace(entries=(2, 2) + (1,) * 5)
    assert (pi.n0, pi.n, pi.m) == (2, 7, 3)
    with pytest.raises(ValueError, match="n0"):
        pi._replace(n0=1)  # not a field


def test_records_are_immutable_named_tuples():
    G = build_supertree(3, 9, CHAIN9)
    pi = degree_sequence(G)
    records = [
        G, pi, FamilySpec("pi", 3, pi), verify_fk_theorem1(pi),
        check_slo(G, range(8, -1, -1))[0],
        SwitchSpec((0, 1, 2), (2, 3, 4), frozenset({0}), frozenset({3})),
        ShiftSpec(2, ((2, 3, 4),), 0), HypothesisCheck(True, False),
        first_dirichlet_eigenpair(G),
    ]
    for r in records:
        cls, fields = type(r), r._fields
        assert cls(*r) == r == cls(**dict(zip(fields, r)))
        assert repr(r) == f"{cls.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(fields, r)) + ")"
        for attr in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(r, attr, None)
        if cls.__module__ != "supertrees.spectral":  # those hold numpy arrays
            assert hash(r) == hash(tuple(r))
    assert FamilySpec("pi", 3) == FamilySpec(kind="pi", k=3, pi=None, n=None, n0=None, d=None)


def test_from_degrees_sorts():
    pi = DegreeSequence.from_degrees(3, (1, 3, 1, 1, 2, 1, 1, 1, 1))
    assert pi.entries == (2, 3, 1, 1, 1, 1, 1, 1, 1)
    assert pi.n0 == 2


def _levels(G, root) -> list[int]:
    """Each vertex's distance from root, read off the incidence-tree walk."""
    return [d // 2 for d in _incidence_walk(G, root)[0][: G.n]]


def test_distance_and_levels():
    G = build_supertree(3, 9, CHAIN9)
    assert _levels(G, 4) == [2, 2, 1, 1, 0, 1, 1, 2, 2]
    assert _levels(G, 0)[8] == 4


def test_distance_and_levels_match_vertex_graph_search():
    rng = random.Random(2024)
    for _ in range(40):
        G = random_supertree(rng, rng.choice((2, 3, 4)), rng.randrange(1, 9))
        for root in range(0, G.n, 3):
            assert _levels(G, root) == reference_depths(G, root)


def test_every_edge_spans_two_consecutive_levels():
    rng = random.Random(7731)
    for _ in range(40):
        G = random_supertree(rng, rng.choice((2, 3, 4)), rng.randrange(1, 6))
        for root in range(0, G.n, 3):
            depth = _levels(G, root)
            for e in G.edges:
                depths = sorted(depth[v] for v in e)
                assert depths[-1] - depths[0] == 1
                assert depths.count(depths[0]) == 1


def test_canonical_code_invariant_under_relabeling():
    rng = random.Random(90210)
    for _ in range(200):
        k = rng.choice((2, 3, 4))
        G = random_supertree(rng, k, rng.randrange(1, 6))
        code = canonical_code(G)
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = apply_vertex_permutation(G, perm)
        assert canonical_code(H) == code
    path2, path3, broom3 = broom(2, 3000, 0), broom(3, 1500, 0), broom(3, 750, 750)
    for G in (path2, path3, broom3):
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = apply_vertex_permutation(G, perm)
        assert canonical_code(H) == canonical_code(G)
    assert path3.m == broom3.m
    assert canonical_code(path3) != canonical_code(broom3)


def test_canonical_code_matches_recursive_reference():
    for k, m in ((2, 10), (3, 5)):
        for layer in _grow_classes(k, m):
            for code, G in layer:
                assert code == canonical_code(G) == reference_code(G)


def test_attach_leaf_matches_build_supertree():
    rng = random.Random(4242)
    for k in (2, 3, 4):
        grown = [G for layer in _grow_classes(k, 5) for _, G in layer]
        shuffled = [random_supertree(rng, k, rng.randrange(1, 6)) for _ in range(20)]
        for G in grown + shuffled:
            for v in range(G.n):
                edge = (v,) + tuple(range(G.n, G.n + k - 1))
                H = build_supertree(k, G.n + k - 1, list(G.edges) + [edge])
                assert _attach_leaf(G, v) == H


def _brute_force_orbit_minima(G) -> list[int]:
    """Lowest vertex of each orbit, over every vertex permutation that maps
    the edge set to itself."""
    edges = set(G.edges)
    lowest = list(range(G.n))
    for p in itertools.permutations(range(G.n)):
        if all(tuple(sorted(p[v] for v in e)) in edges for e in G.edges):
            for v in range(G.n):
                lowest[p[v]] = min(lowest[p[v]], v)
    return sorted(set(lowest))


def test_orbit_representatives_match_brute_force():
    for k, m in ((2, 7), (3, 3)):
        for layer in _grow_classes(k, m):
            for _, G in layer:
                reps = [v for _, v in _CentroidTree(G).leaf_children()]
                assert reps == _brute_force_orbit_minima(G)


def _centroid_shift(G, v) -> int:
    """Steps from the incidence-tree centroid of G to the centroid of the
    child with a pendant edge at v, measured in the child."""
    H = _attach_leaf(G, v)
    node = {G.n + i: H.n + H.edges.index(e) for i, e in enumerate(G.edges)}
    adj = _incidence_adjacency(H)
    (c,) = tree_centroids(_incidence_adjacency(G))
    order, parent = _rooted_order(adj, node.get(c, c))
    depth = [0] * len(adj)
    for u in order[1:]:
        depth[u] = depth[parent[u]] + 1
    (c_child,) = tree_centroids(adj)
    return depth[c_child]


def _assert_child_matches_scratch(tree, G, node, v) -> None:
    """tree.child(v) against the child encoded from scratch. tree encodes G
    with node[e] the node of edge e; the derived child keeps every id and
    adds the new edge as node base + m, while the scratch child numbers edge
    i of its sorted edges H.n + i. Under that id map the two must agree on
    the code, the root, and every node's code, parent and sorted child
    codes, and the derived order must list each node once, parents first."""
    H = _attach_leaf(G, v)
    base = max(node.values()) - G.m + 1
    node = {**node, (v, *range(G.n, H.n)): base + G.m}
    to = {u: u for u in range(H.n)}
    to.update({node[e]: H.n + i for i, e in enumerate(H.edges)})
    child, ref = tree.child(v), _CentroidTree(H)
    assert (child.n, child.k, len(child.code) // 3) == (H.n, H.k, len(ref.codes))
    assert child.code == ref.code and to[child.order[0]] == ref.order[0]
    assert sorted(child.order) == sorted(to)
    seen = set()
    for u in child.order:
        p = child.parent[u]
        assert (p < 0) == (u == child.order[0]) and (p < 0 or p in seen)
        seen.add(u)
        assert ref.parent[to[u]] == (-1 if p < 0 else to[p])
        assert child.codes[u] == ref.codes[to[u]]
        assert child.below[u] == ref.below[to[u]]


def test_leaf_child_codes_match_canonical_code():
    rng = random.Random(2718)
    trees = []
    for k, m in ((2, 10), (3, 6), (4, 5)):
        trees += [G for layer in _grow_classes(k, m) for _, G in layer]
        trees += [random_supertree(rng, k, rng.randrange(1, 12)) for _ in range(20)]
    for G in trees:
        # km+1 nodes and subtrees of jk or jk+1 nodes: no edge halves the tree
        assert len(tree_centroids(_incidence_adjacency(G))) == 1
        perm = list(range(G.n))
        rng.shuffle(perm)
        # a relabeling starts the path update from other orbit members
        for H in (G, apply_vertex_permutation(G, perm)):
            # room below base for one child's new vertices
            base = H.n + H.k - 1
            tree = _CentroidTree(H, base)
            node = {e: base + i for i, e in enumerate(H.edges)}
            for code, v in tree.leaf_children():
                assert code == canonical_code(_attach_leaf(H, v))
                _assert_child_matches_scratch(tree, H, node, v)
    # far ends of long paths and brooms: the update walks a long path to the
    # root, and the child's centroid is a node the parent's is not
    for k in (3, 4):
        for handle, bristles in ((30, 0), (31, 0), (26, 5), (30, 3)):
            G = broom(k, handle, bristles)
            far = G.n - 1 if bristles == 0 else G.edges[-1][0]
            assert _centroid_shift(G, far) == 1
            tree = _CentroidTree(G, G.n + k - 1)
            node = {e: G.n + k - 1 + i for i, e in enumerate(G.edges)}
            children = tree.leaf_children()
            assert any(_centroid_shift(G, v) == 1 for _, v in children)
            for code, v in children:
                assert code == canonical_code(_attach_leaf(G, v))
                _assert_child_matches_scratch(tree, G, node, v)
            far_code = canonical_code(_attach_leaf(G, far))
            assert far_code in [code for code, _ in children]


def test_derived_encodings_match_scratch_encodings():
    # grow as _grow_classes does, deriving every child of every class with
    # at most m_max edges, kept or not, and carrying each kept child's
    # derived encoding on, so derivations of derivations are checked too
    cases = [(2, 9, None), (3, 6, None), (4, 5, None), (5, 4, None),
             (2, 10, (4, 3, 3, 2, 2)), (3, 6, (4, 4, 4))]
    for k, m_max, bound in cases:
        # the vertex count of a child of a class with m_max edges
        base = k + m_max * (k - 1)
        start = build_supertree(k, k, [tuple(range(k))])
        layer = [(_CentroidTree(start, base), start, {start.edges[0]: base})]
        layers = [[start]]
        for _ in range(m_max):
            grown = {}
            for tree, G, node in layer:
                fits = None if bound is None else _raisable(G.degrees, bound)
                for code, v in tree.leaf_children(fits):
                    _assert_child_matches_scratch(tree, G, node, v)
                    if code not in grown:
                        H = _attach_leaf(G, v)
                        new = {(v, *range(G.n, H.n)): base + G.m}
                        grown[code] = (tree.child(v), H, {**node, **new})
            layer = [grown[code] for code in sorted(grown)]
            layers.append([H for _, H, _ in layer])
        grown_layers = _grow_classes(k, len(layers), bound)
        assert layers == [[G for _, G in layer] for layer in grown_layers]


def test_pendant_edge_moves_centroid_at_most_one_step():
    # leaf_children re-roots at most once on this invariant
    for k, m in ((2, 10), (3, 6), (4, 5)):
        for layer in _grow_classes(k, m):
            for _, G in layer:
                assert all(_centroid_shift(G, v) <= 1 for v in range(G.n))


def test_centroid_tree_matches_three_pass_encoder():
    rng = random.Random(1618)
    for k, m in ((2, 10), (3, 6), (4, 5)):
        for layer in _grow_classes(k, m):
            for _, G in layer:
                perm = list(range(G.n))
                rng.shuffle(perm)
                for H in (G, apply_vertex_permutation(G, perm)):
                    tree, ref = _CentroidTree(H), reference_centroid_tree(H)
                    # a subtree's size is read off its code's length
                    assert [len(c) // 3 for c in tree.codes] == ref.pop("size")
                    assert {name: getattr(tree, name) for name in ref} == ref
                    assert tree.code == ref["codes"][ref["order"][0]]


def test_isomorphism_maps_edges_onto_edges_like_sorted_children():
    rng = random.Random(1729)
    for k, m in ((2, 10), (3, 6), (4, 5)):
        for layer in _grow_classes(k, m):
            shuffled = [
                apply_vertex_permutation(G, rng.sample(range(G.n), G.n))
                for _, G in layer
            ]
            for (_, G), H in zip(layer, shuffled):
                phi = _isomorphism(G, H)
                assert phi == reference_isomorphism(G, H)
                assert sorted(phi) == list(range(G.n))
                edges = {frozenset(e) for e in H.edges}
                assert all(frozenset(phi[v] for v in e) in edges for e in G.edges)
            # every other class of the layer has the same k and n
            others = shuffled[1:] + shuffled[:1] if len(layer) > 1 else []
            for (_, G), H in zip(layer, others):
                assert _isomorphism(G, H) is None
                assert reference_isomorphism(G, H) is None


def test_canonical_code_separates_classes():
    chain = build_supertree(3, 9, CHAIN9)
    bouquet = build_supertree(3, 9, BOUQUET9)
    assert degree_sequence(chain).entries == degree_sequence(bouquet).entries
    assert canonical_code(chain) != canonical_code(bouquet)


def test_canonical_code_sees_edge_size():
    e3 = build_supertree(3, 3, [(0, 1, 2)])
    e4 = build_supertree(4, 4, [(0, 1, 2, 3)])
    assert canonical_code(e3) != canonical_code(e4)


def test_sht_round_trip_is_byte_identical():
    rng = random.Random(5150)
    for _ in range(25):
        G = random_supertree(rng, rng.choice((2, 3, 4)), rng.randrange(1, 6))
        text = serialize_sht(G)
        H = parse_sht(text)
        assert serialize_sht(H) == text
        assert H.edges == G.edges and H.k == G.k and H.n == G.n


def test_sht_parser_tolerates_comments_and_order_lines():
    text = "# sample\n\nk 3\n  n 7\norder 0 1 2 3 4 5 6\ne 0 1 2\ne 0 3 4\ne 1 5 6\n"
    G = parse_sht(text)
    assert G.edges == TWO_INTERIOR


def test_sht_parser_rejects_malformed_input():
    with pytest.raises(ShtFormatError):
        parse_sht("k 3\nn 5\nedge 0 1 2\n")
    with pytest.raises(ShtFormatError):
        parse_sht("k 3\nn x\ne 0 1 2\n")
    with pytest.raises(ShtFormatError):
        parse_sht("k 3\ne 0 1 2\n")
    with pytest.raises(ShtFormatError):
        parse_sht("k 3 3\nn 5\ne 0 1 2\n")
    # a repeated header is reported, not overridden by the later one
    with pytest.raises(ShtFormatError, match="line 2: second 'k' line"):
        parse_sht("k 2\nk 3\nn 3\ne 0 1\ne 1 2\n")
    with pytest.raises(NotKUniform):
        parse_sht("k 3\nn 3\ne 0 1\ne 1 2\n")


# small values make well-formed supertrees likely; the wide ones reach
# declared sizes no input should be allocated for
_SHT_INT = hs.one_of(hs.integers(0, 12), hs.integers(-(10**18), 10**18))
_SHT_LINE = hs.one_of(
    hs.builds(lambda x: f"k {x}", _SHT_INT),
    hs.builds(lambda x: f"n {x}", _SHT_INT),
    hs.builds(lambda xs: "e " + " ".join(map(str, xs)), hs.lists(_SHT_INT, max_size=5)),
    hs.builds(lambda xs: "order " + " ".join(map(str, xs)), hs.lists(_SHT_INT, max_size=4)),
    hs.builds(lambda t: "# " + t, hs.text(max_size=12)),
    hs.text(max_size=16),
    # a k-uniform path of m edges under any declared n
    hs.builds(
        lambda k, m, n: "\n".join(
            [f"k {k}", f"n {n}"]
            + ["e " + " ".join(str(i * (k - 1) + j) for j in range(k)) for i in range(m)]
        ),
        hs.integers(2, 4),
        hs.integers(1, 4),
        _SHT_INT,
    ),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(hs.lists(_SHT_LINE, max_size=10))
def test_sht_parser_returns_a_supertree_or_a_library_error(lines):
    try:
        G = parse_sht("\n".join(lines))
    except SupertreeError:
        return
    assert isinstance(G, Supertree)
