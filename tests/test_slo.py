"""Ordering layer: rule checking, search, construction, relabeling."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from supertrees import (
    DegreeSequence,
    NotAnEigenfunction,
    NotAPermutation,
    build_supertree,
    check_slo,
    construct_slo_supertree,
    degree_sequence,
    feasible_degree_sequences,
    find_slo_ordering,
    first_dirichlet_eigenpair,
    relabel,
)
from supertrees.enumeration import _grow_classes
from support import (
    all_feasible,
    apply_vertex_permutation,
    consecutive_witnesses,
    random_supertree,
    reference_check_slo,
    reference_depths,
    reference_find_slo_ordering,
)

TWO_INTERIOR = ((0, 1, 2), (0, 3, 4), (1, 5, 6))
CHAIN9 = ((0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8))
BOUQUET9 = ((0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8))


def two_interior():
    return build_supertree(3, 7, TWO_INTERIOR)


def rules_of(violations):
    return sorted(v.rule for v in violations)


def test_creation_order_is_spiral_like():
    assert check_slo(two_interior(), (0, 1, 2, 3, 4, 5, 6)) == []


def test_boundary_before_interior_breaks_s3_only():
    # the root rule (S5) compares interior vertices only, so a leading
    # boundary vertex trips S3 and nothing else, once, at the pair it
    # forms with the next vertex
    violations = check_slo(two_interior(), (2, 0, 1, 3, 4, 5, 6))
    assert rules_of(violations) == ["S3"]
    assert violations[0].witness == (2, 0)


def test_split_edge_block_breaks_s4():
    G = build_supertree(3, 5, [(0, 1, 2), (2, 3, 4)])
    violations = check_slo(G, (2, 0, 3, 1, 4))
    assert rules_of(violations) == ["S4", "S4"]
    assert {v.witness for v in violations} == {((0, 1, 2), 3), ((2, 3, 4), 1)}


def test_depth_and_parent_order_violations():
    G = build_supertree(2, 4, [(0, 1), (1, 2), (2, 3)])
    violations = check_slo(G, (1, 2, 3, 0))
    assert rules_of(violations) == ["S1", "S2"]
    by_rule = {v.rule: v.witness for v in violations}
    assert by_rule["S1"] == (3, 0)
    assert by_rule["S2"] == (1, 2, 0, 3)


def test_interior_degree_inversion_breaks_s5():
    G = build_supertree(
        3, 9, [(0, 1, 2), (0, 3, 4), (1, 5, 6), (1, 7, 8)]
    )
    violations = check_slo(G, (1, 0, 2, 5, 6, 7, 8, 3, 4))
    assert rules_of(violations) == ["S5"]
    assert violations[0].witness == (1, 0)
    assert "S5" in str(violations[0])


def test_mixed_depth_and_block_violations():
    violations = check_slo(two_interior(), (0, 1, 2, 5, 6, 3, 4))
    assert [(v.rule, v.witness) for v in violations] == [
        ("S1", (6, 3)),
        ("S2", (0, 1, 3, 6)),
    ]


def _orders(rng: random.Random, G, count: int):
    """count seeded orders with the root cycling through the vertices: half
    uniform shuffles, half level by level from the root (S1 holds, so the
    other rules carry the violations)."""
    for i in range(count):
        root = (7 * i) % G.n
        rest = [v for v in range(G.n) if v != root]
        rng.shuffle(rest)
        if i % 2:
            depth = reference_depths(G, root)
            rest.sort(key=depth.__getitem__)
        yield (root, *rest)


def test_check_reports_the_consecutive_witnesses_of_all_pairs():
    # every rule but S4 is monotone along the ordering, so the consecutive
    # witnesses of the all-pairs checker are exactly the library's, and
    # they are empty exactly when the all-pairs list is
    rng = random.Random(90)
    checked = 0
    for k, m in ((2, 9), (3, 5), (4, 4)):
        for layer in _grow_classes(k, m):
            for _, G in layer:
                orders = list(_orders(rng, G, 20))
                found = find_slo_ordering(G)
                if found is not None:
                    orders.append(found)
                for order in orders:
                    every = reference_check_slo(G, order)
                    got = check_slo(G, order)
                    assert got == consecutive_witnesses(G, order, every), order
                    assert bool(got) == bool(every), order
                    checked += bool(every)
    assert checked > 0


def test_non_permutations_rejected():
    G = two_interior()
    with pytest.raises(NotAPermutation):
        check_slo(G, (0, 1, 2, 3, 4, 5))
    with pytest.raises(NotAPermutation):
        check_slo(G, (0, 1, 2, 3, 4, 5, 5))
    with pytest.raises(NotAPermutation):
        check_slo(G, (0, 1, 2, 3, 4, 5, 7))
    # entries compare equal to 0..n-1 but are not integers
    with pytest.raises(NotAPermutation, match="must hold integers"):
        check_slo(G, [0.0, 1, 2, 3, 4, 5, 6])


def test_find_accepts_spiral_like_trees():
    for edges, n in ((TWO_INTERIOR, 7), (BOUQUET9, 9)):
        G = build_supertree(3, n, edges)
        order = find_slo_ordering(G)
        assert order is not None
        assert check_slo(G, order) == []
        assert order == find_slo_ordering(G)  # deterministic


def test_find_rejects_chain():
    G = build_supertree(3, 9, CHAIN9)
    assert find_slo_ordering(G) is None


def test_find_single_edge_returns_identity():
    G = build_supertree(3, 3, [(0, 1, 2)])
    assert find_slo_ordering(G) == (0, 1, 2)


def test_find_on_paths():
    p5 = build_supertree(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    order = find_slo_ordering(p5)
    assert order is not None and order[0] == 2
    assert check_slo(p5, order) == []
    # a subdivided three-star has no spiral-like ordering
    spider = build_supertree(
        2, 7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    )
    assert find_slo_ordering(spider) is None


def test_construct_matches_fixture_edges():
    G, order = construct_slo_supertree(
        DegreeSequence.from_degrees(3, (2, 2, 1, 1, 1, 1, 1))
    )
    assert G.edges == TWO_INTERIOR
    assert order == (0, 1, 2, 3, 4, 5, 6)
    star, star_order = construct_slo_supertree(
        DegreeSequence.from_degrees(3, (2, 1, 1, 1, 1))
    )
    assert star.edges == ((0, 1, 2), (0, 3, 4))
    assert star_order == (0, 1, 2, 3, 4)


def test_construct_single_edge():
    G, order = construct_slo_supertree(DegreeSequence.from_degrees(4, (1, 1, 1, 1)))
    assert G.edges == ((0, 1, 2, 3),)
    assert order == (0, 1, 2, 3)


def test_construct_output_is_always_spiral_like():
    for k, n_max in ((2, 10), (3, 13), (4, 13)):
        for pi in all_feasible(k, n_max):
            G, order = construct_slo_supertree(pi)
            assert degree_sequence(G).entries == pi.entries
            assert check_slo(G, order) == []


def test_construct_builds_a_valid_supertree_without_validating():
    # the construction skips build_supertree: its edges must already be
    # sorted k-tuples of a supertree whose degrees are pi
    count = 0
    for k in (2, 3, 4, 5):
        for n in range(k, 21, k - 1):
            for n0 in range(n + 1):
                for pi in feasible_degree_sequences(n, n0, k):
                    G = construct_slo_supertree(pi)[0]
                    assert G == build_supertree(pi.k, pi.n, G.edges)
                    assert G.degrees == pi.entries
                    count += 1
    assert count == 1690


def test_find_agrees_with_construct_on_its_own_output():
    for pi in all_feasible(3, 11):
        G, _ = construct_slo_supertree(pi)
        order = find_slo_ordering(G)
        assert order is not None
        assert check_slo(G, order) == []


def _shuffled(rng: random.Random, G):
    perm = list(range(G.n))
    rng.shuffle(perm)
    return apply_vertex_permutation(G, perm)


def test_find_agrees_with_backtracking_reference():
    # the backtracking search decides existence independently of the
    # construction the library recognizes by isomorphism
    rng = random.Random(2410)
    recognized = 0
    for k, m in ((2, 11), (3, 6), (4, 5)):
        for layer in _grow_classes(k, m):
            for _, G in layer:
                for T in (G, _shuffled(rng, G)):
                    order = find_slo_ordering(T)
                    assert (order is None) == (
                        reference_find_slo_ordering(T) is None
                    ), T.edges
                    if order is not None:
                        assert check_slo(T, order) == []
                        recognized += 1
    assert recognized > 0


def test_find_on_deep_supertrees():
    # depth in the hundreds of levels: no recursion may follow the levels
    rng = random.Random(400)
    slo3, _ = construct_slo_supertree(
        DegreeSequence.from_degrees(3, (2,) * 666 + (1,) * 669)
    )
    for G in (
        build_supertree(2, 401, [(i, i + 1) for i in range(400)]),
        build_supertree(2, 1001, [(i, i + 1) for i in range(1000)]),
        slo3,
    ):
        H = _shuffled(rng, G)
        order = find_slo_ordering(H)
        assert order is not None
        assert check_slo(H, order) == []


def test_relabel_two_interior_exact():
    G = two_interior()
    pair = first_dirichlet_eigenpair(G)
    labels = relabel(G, pair.f)
    assert labels == {
        0: (0, 1, 1),
        1: (1, 1, 1),
        2: (1, 1, 2),
        3: (1, 2, 1),
        4: (1, 2, 2),
        5: (2, 1, 1),
        6: (2, 1, 2),
    }
    assert tuple(sorted(labels, key=labels.get)) == (0, 1, 2, 3, 4, 5, 6)


def test_relabel_star_orders_groups_by_edge():
    G = build_supertree(3, 5, [(0, 1, 2), (0, 3, 4)])
    labels = relabel(G, first_dirichlet_eigenpair(G).f)
    assert labels[0] == (0, 1, 1)
    assert labels[1] == (1, 1, 1) and labels[2] == (1, 1, 2)
    assert labels[3] == (1, 2, 1) and labels[4] == (1, 2, 2)


def test_relabel_reproduces_creation_order_on_slo_tree():
    pi = DegreeSequence.from_degrees(3, (2, 3, 1, 1, 1, 1, 1, 1, 1))
    G, order = construct_slo_supertree(pi)
    labels = relabel(G, first_dirichlet_eigenpair(G).f)
    assert tuple(sorted(labels, key=labels.get)) == order


def test_relabel_is_spiral_like_after_permutation():
    rng = random.Random(8128)
    for pi in all_feasible(3, 11):
        G, _ = construct_slo_supertree(pi)
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = apply_vertex_permutation(G, perm)
        labels = relabel(H, first_dirichlet_eigenpair(H).f)
        assert check_slo(H, sorted(labels, key=labels.get)) == []


def test_relabel_rejects_non_eigenfunctions():
    G = two_interior()
    good = first_dirichlet_eigenpair(G).f
    bad = good.copy()
    bad[2] = 0.5  # nonzero on the boundary
    with pytest.raises(NotAnEigenfunction):
        relabel(G, bad)
    bad = good.copy()
    bad[1] = -bad[1]  # negative on the interior
    with pytest.raises(NotAnEigenfunction):
        relabel(G, bad)
    with pytest.raises(NotAnEigenfunction):
        relabel(G, np.zeros(7))
    # NaN passes both sign checks, since every comparison with it is false
    for x in (math.nan, math.inf, -math.inf):
        for v in (1, 2):  # interior, boundary
            bad = good.copy()
            bad[v] = x
            with pytest.raises(NotAnEigenfunction, match=f"f\\({v}\\) = {x} is not finite"):
                relabel(G, bad)


def test_relabel_ranks_groups_by_exactly_rounded_sums():
    # root 0 with groups {1, 2, 3} (boundary, sum 0) and {4, 5, 6}, whose
    # sum is the slack 1e-10 exactly but rounds above it left to right, as
    # sum() does before Python 3.12; a tie, so the group of lower id leads
    G = build_supertree(4, 16, ((0, 1, 2, 3), (0, 4, 5, 6), (4, 7, 8, 9),
                                (5, 10, 11, 12), (6, 13, 14, 15)))
    f = [1.0, 0.0, 0.0, 0.0, 1e-12, 33e-12, 66e-12] + [0.0] * 9
    assert math.fsum(f[4:7]) == 1e-10 < (f[4] + f[5]) + f[6]
    labels = relabel(G, f)
    assert [labels[v] for v in range(7)] == [
        (0, 1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3),
    ]
    assert [labels[v] for v in (7, 10, 13)] == [(2, 1, 1), (2, 2, 1), (2, 3, 1)]


def test_relabel_rejects_wrong_shape():
    G = two_interior()
    f = first_dirichlet_eigenpair(G).f
    # an entry that is not a numbers.Real is rejected like a wrong shape;
    # float() raised ValueError or TypeError on these, and read numeric
    # strings as numbers
    for bad, error in (
        ([1.0] * 6, NotAnEigenfunction),
        (np.append(f, 0.0), NotAnEigenfunction),
        (f.reshape(-1, 1), NotAnEigenfunction),
        (f.reshape(1, -1), NotAnEigenfunction),
        ([[x] for x in f], NotAnEigenfunction),
        (1.0, NotAnEigenfunction),
        (np.float64(1.0), NotAnEigenfunction),
        # a dict was read as its keys, a set in hash order and a string as
        # its characters
        (dict(enumerate(f)), NotAnEigenfunction),
        (set(range(7)), NotAnEigenfunction),
        ("1100000", NotAnEigenfunction),
        (["a"] * 7, NotAnEigenfunction),
        ([object()] * 7, NotAnEigenfunction),
        ([1j] * 7, NotAnEigenfunction),
        # math.isfinite raised OverflowError on an integer past every float
        (list(f[:1]) + [10**400] + list(f[2:]), NotAnEigenfunction),
    ):
        with pytest.raises(error) as info:
            relabel(G, bad)
        assert type(info.value) is error


def test_relabel_reads_lists_tuples_and_arrays_alike():
    rng = random.Random(400)
    for i in range(400):
        G = random_supertree(rng, 2 + i % 4, rng.randint(2, 14))
        f = first_dirichlet_eigenpair(G).f
        labels = relabel(G, f)
        assert relabel(G, f.tolist()) == labels
        assert relabel(G, tuple(f)) == labels
