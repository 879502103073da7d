"""End-to-end acceptance: analytic anchors, exhaustive sweeps, property pools."""

from __future__ import annotations

import math
import random
import time

import pytest

from supertrees import (
    DegreeSequence,
    ResultNotSupertree,
    SwitchSpec,
    apply_shift,
    apply_switch,
    build_supertree,
    canonical_code,
    check_shift_hypothesis,
    check_slo,
    check_switch_hypothesis,
    construct_slo_supertree,
    degree_sequence,
    enumerate_supertrees,
    feasible_degree_sequences,
    find_slo_ordering,
    first_dirichlet_eigenpair,
    fk1_sweep,
    fk2_sweep,
    majorizes,
    unit_transform_chain,
    unit_transformation,
    verify_fk_theorem1,
    verify_majorization_monotonicity,
)
from supertrees.config import _LAMBDA_TIE, strictly_less
from supertrees.enumeration import _grow_classes
from support import (
    all_feasible,
    all_members,
    oracle_classes,
    random_shift_spec,
    random_supertree,
    random_switch_spec,
    switch_strict_witness,
    targeted_switch_spec,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def _star(k: int, d: int):
    edges = [
        tuple([0] + list(range(1 + i * (k - 1), 1 + (i + 1) * (k - 1))))
        for i in range(d)
    ]
    return build_supertree(k, 1 + d * (k - 1), edges)


@pytest.fixture(scope="session")
def fk1_certs():
    return {3: fk1_sweep(3, 13), 2: fk1_sweep(2, 10)}


@pytest.fixture(scope="session")
def fk2_certs():
    return fk2_sweep(3, 13, 2) + fk2_sweep(2, 13, 2)


@pytest.fixture(scope="session")
def members_k3():
    return all_members(3, 13)


@pytest.fixture(scope="session")
def members_k2():
    return all_members(2, 13)


@pytest.fixture(scope="session")
def members_all(members_k3, members_k2):
    return members_k3 + members_k2


def test_analytic_eigenvalue_anchors():
    t0 = time.monotonic()
    worst = 0.0
    for k in (2, 3, 4):
        for d in range(2, 6):
            lam = first_dirichlet_eigenpair(_star(k, d)).lam
            worst = max(worst, abs(lam - d))
    assert worst <= 1e-12
    two_interior = build_supertree(
        3, 7, [(0, 1, 2), (0, 3, 4), (1, 5, 6)]
    )
    lam = first_dirichlet_eigenpair(two_interior).lam
    assert abs(lam - 1.5) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(
        "analytic eigenvalue anchors",
        True,
        f"12 stars exact to {worst:.1e}, two-interior fixture at 1.5, "
        f"{elapsed:.2f}s",
    )


def test_slo_minimizes_within_fixed_degree_sequence(fk1_certs):
    assert len(fk1_certs[3]) == 18
    assert len(fk1_certs[2]) == 66
    failures = [
        cert.family.describe()
        for cert in fk1_certs[3] + fk1_certs[2]
        if not (cert.unique and cert.slo_match)
    ]
    _report(
        "SLO-supertree minimizes within each degree sequence",
        not failures,
        f"k=3 n<=13: {len(fk1_certs[3])} families, "
        f"k=2 n<=10: {len(fk1_certs[2])} families, failures={failures}",
    )


def test_flattest_slo_minimizes_at_fixed_counts(fk1_certs, fk2_certs):
    fk1_by_entries = {
        (cert.family.k, cert.family.pi.entries): cert
        for cert in fk1_certs[3] + fk1_certs[2]
    }
    failures = []
    for cert in fk2_certs:
        fam = cert.family
        if not (cert.unique and cert.slo_match):
            failures.append(fam.describe())
            continue
        m = (fam.n - 1) // (fam.k - 1)
        dm = max(2, fam.d)
        dprime = (fam.k * m - (fam.n - fam.n0)) - (fam.n0 - 1) * dm
        pi_star = DegreeSequence(
            fam.k, (dm,) * (fam.n0 - 1) + (dprime,) + (1,) * (fam.n - fam.n0)
        )
        ref = fk1_by_entries.get((fam.k, pi_star.entries))
        if ref is None:
            ref = verify_fk_theorem1(pi_star)
        if canonical_code(cert.winner) != canonical_code(ref.winner):
            failures.append(fam.describe())
    _report(
        "flattest SLO-supertree minimizes at fixed counts",
        not failures,
        f"{len(fk2_certs)} families across k=2,3, winners cross-checked, "
        f"failures={failures}",
    )


def test_tied_classes_listed_in_code_order(fk1_certs, fk2_certs):
    # cospectral classes (lambda = 1, 2 - sqrt(2), ...) must not be ordered
    # by the solver's rounding noise
    certs = fk1_certs[3] + fk1_certs[2] + fk2_certs
    out_of_order = []
    ties = 0
    for cert in certs:
        for (c1, l1), (c2, l2) in zip(cert.all_lambdas, cert.all_lambdas[1:]):
            if l2 - l1 <= _LAMBDA_TIE:
                ties += 1
                if not c1 < c2:
                    out_of_order.append(cert.family.describe())
    _report(
        "tied classes listed in canonical-code order",
        not out_of_order,
        f"{len(certs)} families, {ties} tied neighbours, "
        f"out of order={sorted(set(out_of_order))}",
    )


def test_certificate_margins_decide_uniqueness(fk1_certs, fk2_certs):
    certs = fk1_certs[3] + fk1_certs[2] + fk2_certs
    wrong = [
        cert.family.describe()
        for cert in certs
        if cert.unique != (cert.margin > _LAMBDA_TIE)
        or (len(cert.all_lambdas) == 1) != (cert.margin == math.inf)
    ]
    smallest = min(cert.margin for cert in certs)
    _report(
        "certificate margins decide uniqueness",
        not wrong,
        f"{len(certs)} families, smallest margin {smallest:.3g}, wrong={wrong}",
    )


def test_switching_never_increases_eigenvalue():
    rng = random.Random(170451)
    weak = strict = attempts = 0
    while weak < 1000 or strict < 200:
        attempts += 1
        assert attempts < 60000
        k = rng.choice([2, 3, 4])
        G = random_supertree(rng, k, rng.randint(2, 6))
        pair = first_dirichlet_eigenpair(G)
        spec = targeted_switch_spec(rng, G) if rng.random() < 0.5 else None
        if spec is None:
            spec = random_switch_spec(rng, G)
        hc = check_switch_hypothesis(G, pair.f, spec)
        if not hc.weak:
            spec = SwitchSpec(e1=spec.e2, e2=spec.e1, u1=spec.v1, v1=spec.u1)
            hc = check_switch_hypothesis(G, pair.f, spec)
        if not hc.weak:
            continue
        try:
            Gp = apply_switch(G, spec)
        except ResultNotSupertree:
            continue
        lam_p = first_dirichlet_eigenpair(Gp).lam
        assert lam_p <= pair.lam + _LAMBDA_TIE
        weak += 1
        if (
            hc.strict
            and not pair.degenerate
            and switch_strict_witness(G, pair.f, spec)
        ):
            assert strictly_less(lam_p, pair.lam)
            strict += 1
    _report(
        "switching never increases the eigenvalue",
        weak >= 1000 and strict >= 200,
        f"{weak} weak specs, {strict} strict decreases, 0 counterexamples",
    )


def test_shifting_never_increases_eigenvalue():
    rng = random.Random(20260816)
    weak = strict = attempts = 0
    while weak < 1000 or strict < 200:
        attempts += 1
        assert attempts < 60000
        G = random_supertree(rng, rng.choice([2, 3, 4]), rng.randint(3, 6))
        spec = random_shift_spec(rng, G)
        if spec is None:
            continue
        pair = first_dirichlet_eigenpair(G)
        hc = check_shift_hypothesis(G, pair.f, spec)
        if not hc.weak:
            continue
        try:
            Gp = apply_shift(G, spec)
        except ResultNotSupertree:
            continue
        lam_p = first_dirichlet_eigenpair(Gp).lam
        assert lam_p <= pair.lam + _LAMBDA_TIE
        weak += 1
        if hc.strict and not pair.degenerate:
            assert strictly_less(lam_p, pair.lam)
            strict += 1
    _report(
        "shifting never increases the eigenvalue",
        weak >= 1000 and strict >= 200,
        f"{weak} weak specs, {strict} strict decreases, 0 counterexamples",
    )


def test_eigenfunction_positive_on_interior_with_gap(members_all):
    checked = 0
    for G in members_all:
        pair = first_dirichlet_eigenpair(G)
        for v in range(G.n):
            if G.degrees[v] >= 2:
                assert pair.f[v] > 0.0
        assert pair.gap > 1e-9 * max(1.0, pair.lam)
        checked += 1
    _report(
        "first eigenfunction positive on interior with open gap",
        True,
        f"{checked} supertrees (k=3 n<=13 and k=2 n<=13)",
    )


def _children_by_depth(G):
    # BFS from vertex 0; each edge has one vertex nearest the root and its
    # other vertices one level deeper, so anchors are well defined
    depth = [-1] * G.n
    depth[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for e in G.edges:
            anchored = [v for v in e if depth[v] >= 0]
            if not anchored:
                continue
            for v in e:
                if depth[v] < 0:
                    depth[v] = depth[anchored[0]] + 1
                    nxt.append(v)
        frontier = nxt
    kids: dict[int, list[int]] = {v: [] for v in range(G.n)}
    for e in G.edges:
        anchor = min(e, key=lambda v: depth[v])
        kids[anchor].extend(v for v in e if v != anchor)
    return kids


def test_slo_order_shape_and_last_child():
    trees = 0
    for pi in all_feasible(3, 13) + all_feasible(2, 10):
        G, order = construct_slo_supertree(pi)
        assert list(order) == list(range(G.n))
        f = first_dirichlet_eigenpair(G).f
        for a, b in zip(order, order[1:]):
            assert f[a] >= f[b] - 1e-12
        interior = [v for v in order if G.degrees[v] >= 2]
        assert interior == list(order[: pi.n0])
        for a, b in zip(interior, interior[1:]):
            assert G.degrees[a] <= G.degrees[b]
        kids = _children_by_depth(G)
        for v in interior:
            assert kids[v]
            last = max(kids[v])
            assert f[last] < f[v]
        trees += 1
    _report(
        "SLO order is monotone and each last child drops strictly",
        True,
        f"{trees} SLO-supertrees (k=3 n<=13 and k=2 n<=10)",
    )


def test_eigenvalue_strictly_decreasing_under_majorization():
    groups: dict[tuple[int, int], list[DegreeSequence]] = {}
    for pi in all_feasible(3, 13):
        groups.setdefault((len(pi.entries), pi.n0), []).append(pi)
    pairs = 0
    for seqs in groups.values():
        for pi in seqs:
            for pi_prime in seqs:
                if pi.entries == pi_prime.entries:
                    continue
                if majorizes(pi, pi_prime):
                    assert verify_majorization_monotonicity(pi, pi_prime)
                    # the pair is comparable: a chain of unit
                    # transformations carries pi onto pi_prime
                    replay = pi
                    for p in unit_transform_chain(pi, pi_prime):
                        replay = unit_transformation(replay, p)
                    assert replay.entries == pi_prime.entries
                    pairs += 1
    rng = random.Random(7181)
    starts = [pi for pi in all_feasible(3, 13) if pi.n0 >= 2]
    replays = 0
    while replays < 500:
        start = rng.choice(starts)
        cur = start
        for _ in range(rng.randint(1, 6)):
            spots = [p for p in range(cur.n0 - 1) if cur.entries[p] >= 3]
            if not spots:
                break
            cur = unit_transformation(cur, rng.choice(spots))
        if cur.entries == start.entries:
            continue
        replay = start
        for p in unit_transform_chain(start, cur):
            replay = unit_transformation(replay, p)
        assert replay.entries == cur.entries
        replays += 1
    _report(
        "eigenvalue drops strictly along majorization",
        pairs > 0 and replays >= 500,
        f"{pairs} majorized pairs (k=3 n<=13), {replays} chain replays",
    )


def test_enumeration_matches_labeled_oracle():
    totals = []
    for n in (3, 5, 7, 9):
        mine = set()
        for n0 in range(0, n + 1):
            for pi in feasible_degree_sequences(n, n0, 3):
                mine.update(
                    canonical_code(G) for G in enumerate_supertrees(pi)
                )
        assert mine == set(oracle_classes(3, n))
        totals.append(len(mine))
    _report(
        "enumeration matches the labeled brute-force oracle",
        True,
        f"k=3 class counts at n=3,5,7,9: {totals}",
    )


def test_graph_classes_match_networkx_free_trees(members_k2):
    import networkx

    totals: dict[int, int] = {}
    for G in members_k2:
        totals[G.n] = totals.get(G.n, 0) + 1
    free = {
        n: sum(1 for _ in networkx.nonisomorphic_trees(n))
        for n in range(3, 14)
    }
    _report(
        "k=2 class totals match networkx free trees",
        totals == free,
        f"n=3..13: {[totals.get(n, 0) for n in range(3, 14)]}",
    )


def _one_side_all_degree(T, m: int, k: int) -> bool:
    import networkx

    return any(
        len(side) == m and all(T.degree[x] == k for x in side)
        for side in networkx.bipartite.sets(T)
    )


def test_hypertree_classes_match_networkx_bipartite_trees():
    # a k-uniform supertree with m edges is its incidence tree on
    # n + m = k*m + 1 nodes, whose edge side holds m nodes of degree k; for
    # k >= 3 that side is unique, because the vertex side holds the leaves
    import networkx

    trees: dict[int, list] = {}
    grown, free = {}, {}
    for k, m_max in ((3, 4), (4, 3), (5, 2), (6, 2)):
        grown[k] = [len(layer) for layer in _grow_classes(k, m_max)]
        free[k] = []
        for m in range(1, m_max + 1):
            size = k * m + 1
            if size not in trees:
                trees[size] = list(networkx.nonisomorphic_trees(size))
            free[k].append(
                sum(1 for T in trees[size] if _one_side_all_degree(T, m, k))
            )
    _report(
        "k>=3 class totals match networkx bipartite free trees",
        grown == free,
        f"per k, m = 1..: {grown}",
    )


def test_slo_recognition_matches_construction(members_k3):
    recognized = 0
    for G in members_k3:
        order = find_slo_ordering(G)
        built, _ = construct_slo_supertree(degree_sequence(G))
        assert (order is not None) == (canonical_code(G) == canonical_code(built))
        if order is not None:
            assert check_slo(G, list(order)) == []
            recognized += 1
    _report(
        "SLO recognition agrees with SLO construction",
        recognized > 0,
        f"{recognized} of {len(members_k3)} k=3 classes admit an SLO order",
    )
