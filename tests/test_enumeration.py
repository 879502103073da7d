"""Family enumeration and Faber-Krahn extremality certificates."""

from __future__ import annotations

import math

import pytest

from supertrees import (
    DegreeSequence,
    EmptyFamily,
    LengthMismatch,
    NotKUniform,
    NotMajorized,
    canonical_code,
    construct_slo_supertree,
    enumerate_family,
    enumerate_supertrees,
    feasible_degree_sequences,
    first_dirichlet_eigenpair,
    fk1_sweep,
    fk2_sweep,
    unit_transform_chain,
    unit_transformation,
    verify_fk_theorem1,
    verify_fk_theorem2,
    verify_majorization_monotonicity,
)
from supertrees import enumeration, transforms
from supertrees.config import _LAMBDA_TIE, tie_runs
from supertrees.core import _CentroidTree
from supertrees.enumeration import FamilySpec, _ascending_partitions, _grow_classes
from support import (
    all_feasible,
    dominated_by,
    oracle_classes,
    reference_ascending_partitions,
    reference_grow_classes,
)

BOUQUET9_CODE = b"e(v(e(v()v()))v(e(v()v()))v(e(v()v())))"
CHAIN9_CODE = b"v(e(v()v(e(v()v())))e(v()v(e(v()v()))))"


def _seq(k, entries):
    return DegreeSequence(k, tuple(entries))


def _classes(k, n):
    out = {}
    for n0 in range(0, n + 1):
        for pi in feasible_degree_sequences(n, n0, k):
            for G in enumerate_supertrees(pi):
                out[canonical_code(G)] = G
    return out


def test_feasible_sequences_examples():
    assert [s.entries for s in feasible_degree_sequences(5, 1, 3)] == [
        (2, 1, 1, 1, 1)
    ]
    assert [s.entries for s in feasible_degree_sequences(7, 2, 3, 2)] == [
        (2, 2, 1, 1, 1, 1, 1)
    ]
    # interior parts are emitted in ascending arrangements, flattest first
    assert [s.entries[:2] for s in feasible_degree_sequences(13, 2, 3)] == [
        (2, 5),
        (3, 4),
    ]
    for s in feasible_degree_sequences(13, 2, 3):
        assert s.k == 3 and s.n0 == 2 and sum(s.entries) == 3 * 6


def test_feasible_sequences_degenerate_cases():
    assert feasible_degree_sequences(4, 1, 3) == []
    assert feasible_degree_sequences(4, 0, 3) == []
    assert feasible_degree_sequences(6, 1, 3) == []
    assert [s.entries for s in feasible_degree_sequences(3, 0, 3)] == [
        (1, 1, 1)
    ]
    assert feasible_degree_sequences(5, 0, 3) == []
    assert feasible_degree_sequences(5, 6, 3) == []
    assert feasible_degree_sequences(0, 0, 3) == []


def test_feasible_sequences_min_degree_filter():
    assert [s.entries for s in feasible_degree_sequences(7, 1, 3, 3)] == [
        (3, 1, 1, 1, 1, 1, 1)
    ]
    assert feasible_degree_sequences(7, 2, 3, 3) == []
    assert [s.entries[:2] for s in feasible_degree_sequences(13, 2, 3, 3)] == [
        (3, 4)
    ]


def test_ascending_partitions_match_recursive_reference():
    for total in range(16):
        for count in range(7):
            for low in range(5):
                assert list(_ascending_partitions(total, count, low)) == list(
                    reference_ascending_partitions(total, count, low)
                )


def test_feasible_sequences_of_a_long_path():
    # one part per interior vertex: deeper than any recursion limit
    assert [s.entries for s in feasible_degree_sequences(3001, 2999, 2)] == [
        (2,) * 2999 + (1, 1)
    ]


def test_enumerate_single_class_sequences():
    for pi in (
        _seq(3, (2, 1, 1, 1, 1)),
        _seq(3, (2, 2, 1, 1, 1, 1, 1)),
        _seq(3, (2, 3) + (1,) * 7),
        _seq(2, (2, 2, 1, 1)),
    ):
        members = enumerate_supertrees(pi)
        assert len(members) == 1
        assert sorted(members[0].degrees) == sorted(pi.entries)


def test_enumerate_two_classes_for_flat_three_interior():
    members = enumerate_supertrees(_seq(3, (2, 2, 2) + (1,) * 6))
    assert [canonical_code(G) for G in members] == [
        BOUQUET9_CODE,
        CHAIN9_CODE,
    ]


def test_enumerate_members_realize_their_sequence():
    for pi in all_feasible(3, 9):
        members = enumerate_supertrees(pi)
        assert members
        codes = [canonical_code(G) for G in members]
        assert codes == sorted(codes) and len(set(codes)) == len(codes)
        for G in members:
            assert G.k == pi.k
            assert sorted(G.degrees) == sorted(pi.entries)


def test_enumerate_counts_match_free_trees_for_graphs():
    counts = [len(_classes(2, n)) for n in range(2, 11)]
    assert counts == [1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_enumerate_matches_labeled_oracle_small():
    for n in (3, 5, 7):
        assert set(_classes(3, n)) == set(oracle_classes(3, n))


def test_enumerate_family_by_interior_count():
    assert [canonical_code(G) for G in enumerate_family(9, 3, 3)] == [
        BOUQUET9_CODE,
        CHAIN9_CODE,
    ]
    stars = enumerate_family(9, 1, 3)
    assert len(stars) == 1 and sorted(stars[0].degrees)[-1] == 4
    assert len(enumerate_family(9, 2, 3)) == 1
    assert len(enumerate_family(3, 0, 3)) == 1
    assert enumerate_family(5, 0, 3) == []
    assert enumerate_family(9, 3, 3, 3) == []


def test_family_emptiness_without_listing_sequences(monkeypatch):
    # the family path reads emptiness off the flattest sequence; listing
    # every degree sequence of a large family would never end. Which
    # families are empty is read independently from one unpruned growth.
    least_degree = {}
    for k in range(2, 5):
        for layer in _grow_classes(k, 12 // (k - 1)):
            for _, G in layer:
                interior = [x for x in G.degrees if x >= 2]
                key = (G.n, len(interior), k)
                least = min(interior, default=math.inf)
                least_degree[key] = max(least_degree.get(key, 0), least)
    empty = {
        (n, n0, k, d): least_degree.get((n, n0, k), 0) < max(2, d)
        for k in range(1, 5)
        for n in range(14)
        for n0 in range(n + 2)
        for d in range(1, 5)
    }
    for args, is_empty in empty.items():
        assert (not feasible_degree_sequences(*args)) == is_empty

    def unlisted(*args):
        raise AssertionError("the family path listed degree sequences")

    monkeypatch.setattr(enumeration, "feasible_degree_sequences", unlisted)
    assert [G.edges for G in enumerate_family(3, 0, 3)] == [((0, 1, 2),)]
    assert not all(empty.values()) and any(empty.values())
    for (n, n0, k, d), is_empty in empty.items():
        assert (enumerate_family(n, n0, k, d) == []) == is_empty
        if is_empty or n0 == 0:
            with pytest.raises(EmptyFamily):
                verify_fk_theorem2(n, n0, k, d)
        else:
            assert verify_fk_theorem2(n, n0, k, d).passed


def test_family_spec_describe():
    pi = _seq(3, (2, 2, 1, 1, 1, 1, 1))
    assert (
        FamilySpec(kind="pi", k=3, pi=pi).describe()
        == "T_pi(k=3,pi=2,2,1,1,1,1,1)"
    )
    assert FamilySpec(kind="min_degree", k=3, n=7, n0=2, d=2).describe() == (
        "T_d(n=7,n0=2,k=3,d=2)"
    )


def test_fk1_certificate_small_family():
    cert = verify_fk_theorem1(_seq(3, (2, 2, 2) + (1,) * 6))
    assert cert.unique and cert.slo_match and cert.passed
    assert canonical_code(cert.winner) == BOUQUET9_CODE
    assert cert.slo_code == BOUQUET9_CODE
    assert cert.winner_lambda == pytest.approx(1.0, abs=1e-12)
    assert [code for code, _ in cert.all_lambdas] == [
        BOUQUET9_CODE,
        CHAIN9_CODE,
    ]
    lams = [lam for _, lam in cert.all_lambdas]
    assert lams == sorted(lams)
    assert cert.winner_lambda == lams[0]


def test_fk1_singleton_family_is_unique():
    cert = verify_fk_theorem1(_seq(3, (2, 1, 1, 1, 1)))
    assert cert.unique and cert.slo_match and cert.passed
    assert len(cert.all_lambdas) == 1
    assert cert.winner_lambda == pytest.approx(2.0, abs=1e-12)
    assert cert.margin == math.inf


def test_margin_of_a_tied_pair_is_not_unique():
    pi = _seq(2, (2, 2, 2, 3, 3) + (1,) * 4)
    cert = verify_fk_theorem1(pi)
    (l0, l1) = [lam for _, lam in cert.all_lambdas[:2]]
    assert cert.unique and cert.margin == l1 - l0 > _LAMBDA_TIE
    # two cospectral classes of the family (2 - sqrt(2)) scored alone
    tied = next(
        (a, b)
        for (a, la), (b, lb) in zip(cert.all_lambdas, cert.all_lambdas[1:])
        if lb - la <= _LAMBDA_TIE
    )
    members = [
        (canonical_code(G), G)
        for G in enumerate_supertrees(pi)
        if canonical_code(G) in tied
    ]
    (scored,) = enumeration._score_families([(cert.family, members)])
    assert abs(scored.margin) <= _LAMBDA_TIE and not scored.unique


def test_tie_runs_chain_close_neighbours():
    # each value is within the window of the one before it, so the first
    # run spans 2.7 windows; a run anchored at its first value would split
    values = [0.0, 0.9e-10, 1.8e-10, 2.7e-10, 1.0, 1.0, 2.0]

    def close(a, b):
        return b - a <= _LAMBDA_TIE

    runs = tie_runs([(v, i) for i, v in enumerate(values)], lambda r: r[0], close)
    assert [[i for _, i in run] for run in runs] == [[0, 1, 2, 3], [4, 5], [6]]
    assert tie_runs([], abs, close) == []


def test_fk2_flattest_sequence_wins():
    cert = verify_fk_theorem2(7, 2, 3, 2)
    assert cert.unique and cert.slo_match and cert.passed
    assert sorted(cert.winner.degrees) == [1, 1, 1, 1, 1, 2, 2]
    assert cert.winner_lambda == pytest.approx(1.5, abs=1e-12)
    assert canonical_code(cert.winner) == cert.slo_code


def test_fk2_agrees_with_fk1_on_flattest_sequence():
    flattest = {
        (7, 2): _seq(3, (2, 2) + (1,) * 5),
        (9, 3): _seq(3, (2, 2, 2) + (1,) * 6),
    }
    for (n, n0), pi in flattest.items():
        cert2 = verify_fk_theorem2(n, n0, 3, 2)
        cert1 = verify_fk_theorem1(pi)
        assert canonical_code(cert2.winner) == canonical_code(cert1.winner)
        assert cert2.winner_lambda == pytest.approx(
            cert1.winner_lambda, abs=1e-12
        )


def test_fk2_empty_family_errors():
    with pytest.raises(EmptyFamily, match="no interior vertex"):
        verify_fk_theorem2(5, 0, 3, 2)
    with pytest.raises(EmptyFamily, match="is empty"):
        verify_fk_theorem2(7, 3, 3, 2)


def test_fk1_sweep_small():
    certs = fk1_sweep(3, 7)
    assert [c.family.describe() for c in certs] == [
        "T_pi(k=3,pi=2,1,1,1,1)",
        "T_pi(k=3,pi=3,1,1,1,1,1,1)",
        "T_pi(k=3,pi=2,2,1,1,1,1,1)",
    ]
    assert all(c.passed for c in certs)


def test_fk2_sweep_small():
    certs = fk2_sweep(3, 9, 2)
    assert [(c.family.n, c.family.n0) for c in certs] == [
        (5, 1),
        (7, 1),
        (7, 2),
        (9, 1),
        (9, 2),
        (9, 3),
    ]
    assert all(c.passed for c in certs)
    for k in (1, 0):
        with pytest.raises(NotKUniform):
            fk2_sweep(k, 5, 2)


def test_bounded_buckets_key_only_the_last_layer():
    # a single query reads only the buckets of its own n
    bound = (4, 3, 2, 2)
    buckets = enumeration._buckets(2, 9, bound)
    assert buckets and {n for n, _, _ in buckets} == {9}
    fits = {
        key: [code for code, _ in members]
        for key, members in enumeration._buckets(2, 9).items()
        if key[0] == 9 and len(key[2]) <= len(bound)
        and all(d <= b for d, b in zip(key[2][::-1], bound))
    }
    assert {key: [code for code, _ in members]
            for key, members in buckets.items()} == fits


def test_fk2_sweep_joins_fk1_buckets():
    # a min-degree family is the union of the degree-sequence families of
    # its (n, n0) whose interior degrees are all at least max(2, d)
    for k, n_max in ((2, 11), (3, 13), (4, 13)):
        fk1 = fk1_sweep(k, n_max)
        for d in range(1, 5):
            dm = max(2, d)
            want: dict[tuple[int, int], set] = {}
            for cert in fk1:
                pi = cert.family.pi
                if min(pi.interior) >= dm:
                    rows = {(code, lam.hex()) for code, lam in cert.all_lambdas}
                    want.setdefault((len(pi.entries), pi.n0), set()).update(rows)
            certs = fk2_sweep(k, n_max, d)
            assert [(c.family.n, c.family.n0) for c in certs] == sorted(want)
            for cert in certs:
                n, n0 = cert.family.n, cert.family.n0
                rows = {(code, lam.hex()) for code, lam in cert.all_lambdas}
                assert rows == want[n, n0]
                # (d, ..., d, d'): the interior degrees sum to k*m - (n - n0)
                last = k * (n - 1) // (k - 1) - (n - n0) - (n0 - 1) * dm
                pi = _seq(k, (dm,) * (n0 - 1) + (last,) + (1,) * (n - n0))
                assert cert.slo_code == canonical_code(construct_slo_supertree(pi)[0])


def test_min_degree_family_is_the_union_of_its_sequence_families():
    # T_d(n, n0) is the union of T_pi over the feasible sequences pi of its
    # (n, n0) with every interior degree at least d, in code order
    cases = nonempty = 0
    for k, n_max in ((2, 12), (3, 13), (4, 13)):
        for n in range(k, n_max + 1, k - 1):
            for n0 in range(n + 1):
                for d in range(1, 5):
                    union = sorted(
                        (canonical_code(G), G)
                        for pi in feasible_degree_sequences(n, n0, k, d)
                        for G in enumerate_supertrees(pi)
                    )
                    assert enumerate_family(n, n0, k, d) == [G for _, G in union]
                    cases += n0 > 0
                    nonempty += n0 > 0 and bool(union)
    assert (cases, nonempty) == (636, 204)
    assert [G.edges for G in enumerate_family(3, 0, 3, 2)] == [((0, 1, 2),)]


def _comparable(cert):
    return (
        cert.family,
        cert.all_lambdas[0][0],
        cert.unique,
        cert.slo_match,
        [(code, f"{lam:.12f}") for code, lam in cert.all_lambdas],
    )


def test_sweeps_match_per_family_verifiers():
    # the sweeps score buckets of one unpruned growth; the verifiers grow
    # each family alone with pruning
    for k, n_max in ((3, 9), (2, 8)):
        certs = fk1_sweep(k, n_max)
        assert [c.family.pi for c in certs] == all_feasible(k, n_max)
        for cert in certs:
            ref = verify_fk_theorem1(cert.family.pi)
            assert _comparable(cert) == _comparable(ref)
    for k, n_max, d in ((2, 10, 2), (2, 10, 3), (3, 9, 2), (2, 10, 1), (4, 10, 2)):
        certs = fk2_sweep(k, n_max, d)
        assert [(c.family.n, c.family.n0) for c in certs] == [
            (n, n0)
            for n in range(k, n_max + 1, k - 1)
            for n0 in range(1, n + 1)
            if feasible_degree_sequences(n, n0, k, d)
        ]
        for cert in certs:
            fam = cert.family
            ref = verify_fk_theorem2(fam.n, fam.n0, fam.k, fam.d)
            assert _comparable(cert) == _comparable(ref)


def test_growth_matches_reference_growth(monkeypatch):
    # the library attaches once per automorphism orbit without validation;
    # the reference attaches at every vertex through build_supertree
    for k, m in ((2, 10), (3, 6), (4, 4)):
        assert _grow_classes(k, m) == reference_grow_classes(k, m)
    calls = []

    def spy(k, m_target, bound=None):
        calls.append((k, m_target, bound))
        return _grow_classes(k, m_target, bound)

    monkeypatch.setattr(enumeration, "_grow_classes", spy)
    assert enumerate_supertrees(_seq(2, (2, 2, 3, 3, 4) + (1,) * 6))
    assert enumerate_supertrees(_seq(3, (2, 2, 3) + (1,) * 8))
    assert enumerate_family(11, 4, 2, 2)
    assert enumerate_family(13, 3, 3, 2)
    assert [bound for *_, bound in calls] == [
        (4, 3, 3, 2, 2), (3, 2, 2), (7, 7, 7, 7), (4, 4, 4)
    ]
    for k, m, bound in calls:
        pruned = _grow_classes(k, m, bound)
        assert pruned == reference_grow_classes(k, m, dominated_by(bound))
        assert sum(map(len, pruned)) < sum(map(len, _grow_classes(k, m)))


def test_growth_encodes_only_its_first_edge_from_scratch(monkeypatch):
    cases = [(2, 1, None), (2, 10, None), (3, 6, None), (4, 5, None),
             (2, 10, (4, 3, 3, 2, 2)), (3, 6, (4, 4, 4))]
    scratch = []

    class Spy(_CentroidTree):
        def __init__(self, G, *args):
            scratch.append(G)
            super().__init__(G, *args)

    monkeypatch.setattr(enumeration, "_CentroidTree", Spy)
    for case in cases:
        scratch.clear()
        _grow_classes(*case)
        assert [G.m for G in scratch] == [1]
    # every other encoding is derived from its parent's, once per class that
    # grows, so the last layer is never encoded
    derived, child = [], _CentroidTree.child

    def spy_child(self, v):
        derived.append(v)
        return child(self, v)

    monkeypatch.setattr(_CentroidTree, "child", spy_child)
    for case in cases:
        derived.clear()
        layers = _grow_classes(*case)
        assert len(derived) == sum(map(len, layers[1:-1]))


def test_majorization_monotonicity_examples():
    steep = _seq(3, (3, 3) + (1,) * 9)
    flat = _seq(3, (2, 4) + (1,) * 9)
    assert verify_majorization_monotonicity(steep, flat) is True
    with pytest.raises(NotMajorized, match="equal"):
        verify_majorization_monotonicity(steep, steep)
    with pytest.raises(NotMajorized):
        verify_majorization_monotonicity(flat, steep)
    with pytest.raises(LengthMismatch):
        verify_majorization_monotonicity(
            _seq(3, (2, 1, 1, 1, 1)), _seq(3, (2, 2) + (1,) * 5)
        )


def test_majorization_checks_comparability_without_building_the_chain(monkeypatch):
    # a chain costs O(n) per unit step, O(n * chain length) in all
    def unbuilt(pi, p):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(transforms, "unit_transformation", unbuilt)
    steep = _seq(3, (3, 3) + (1,) * 9)
    flat = _seq(3, (2, 4) + (1,) * 9)
    assert verify_majorization_monotonicity(steep, flat) is True


def test_majorization_monotonicity_along_chain():
    start = _seq(3, (4, 4, 4) + (1,) * 18)
    end = _seq(3, (2, 3, 7) + (1,) * 18)
    chain = unit_transform_chain(start, end)
    assert len(chain) >= 2
    lams = [first_dirichlet_eigenpair(construct_slo_supertree(start)[0]).lam]
    cur = start
    for p in chain:
        cur = unit_transformation(cur, p)
        lams.append(
            first_dirichlet_eigenpair(construct_slo_supertree(cur)[0]).lam
        )
    assert cur.entries == end.entries
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert lams[0] == pytest.approx(3.0, abs=1e-12)
    assert lams[-1] == pytest.approx(1.7114410964686546, abs=1e-10)
    assert verify_majorization_monotonicity(start, end) is True
