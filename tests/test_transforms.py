"""Switching, shifting, unit transformations, and majorization."""

from __future__ import annotations

import math
import random
import time

import pytest

from supertrees import (
    DegreeSequence,
    DegreeTooSmall,
    IndexOutOfRange,
    InvalidSpec,
    LengthMismatch,
    NotMajorized,
    ResultNotSupertree,
    ShiftSpec,
    SwitchSpec,
    apply_shift,
    apply_switch,
    build_supertree,
    canonical_code,
    check_shift_hypothesis,
    check_switch_hypothesis,
    first_dirichlet_eigenpair,
    majorizes,
    unit_transform_chain,
    unit_transformation,
)
from supertrees.config import _LAMBDA_TIE, strictly_less

from support import (
    all_feasible,
    random_shift_spec,
    reference_unit_transform_chain,
    random_supertree,
    random_switch_spec,
    switch_strict_witness,
    targeted_switch_spec,
)

H_EDGES = ((0, 1, 2), (0, 3, 4), (1, 5, 6))
T9_EDGES = ((0, 1, 2), (0, 3, 4), (1, 5, 6), (1, 7, 8))
CHAIN9_EDGES = ((0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8))
STAR3_EDGES = ((0, 1, 2), (0, 3, 4), (0, 5, 6))


def _tree(k, n, edges):
    return build_supertree(k, n, edges)


def _seq(k, degrees):
    return DegreeSequence.from_degrees(k, degrees)


# ---------------------------------------------------------------- switching


def test_hypothesis_checks_read_lists_tuples_and_arrays_alike():
    rng = random.Random(401)
    for i in range(200):
        G = random_supertree(rng, 2 + i % 4, rng.randint(2, 14))
        f = first_dirichlet_eigenpair(G).f
        specs = [random_switch_spec(rng, G)]
        shift = random_shift_spec(rng, G)
        for spec in specs + ([shift] if shift else []):
            check = (
                check_switch_hypothesis
                if isinstance(spec, SwitchSpec)
                else check_shift_hypothesis
            )
            want = check(G, f, spec)
            assert check(G, f.tolist(), spec) == want
            assert check(G, tuple(f), spec) == want


def test_hypothesis_checks_reject_malformed_functions():
    G = _tree(3, 7, H_EDGES)
    f = first_dirichlet_eigenpair(G).f
    switch = SwitchSpec((0, 3, 4), (0, 1, 2), frozenset({3}), frozenset({1}))
    shift = ShiftSpec(u=1, edges=((1, 5, 6),), v=3)
    for bad, error in (
        ([0.0] * 6, InvalidSpec),
        (f.reshape(-1, 1), InvalidSpec),
        (1.0, InvalidSpec),
        # an all-NaN f passed the weak form of both checks
        ([math.nan] * 7, InvalidSpec),
        (list(f[:3]) + [math.inf] + list(f[4:]), InvalidSpec),
        (["a"] * 7, ValueError),
        ([object()] * 7, TypeError),
    ):
        for check, spec in (
            (check_switch_hypothesis, switch),
            (check_shift_hypothesis, shift),
        ):
            with pytest.raises(error) as info:
                check(G, bad, spec)
            assert type(info.value) is error


def test_switch_identity_is_noop():
    G = _tree(3, 7, H_EDGES)
    spec = SwitchSpec(e1=(0, 3, 4), e2=(0, 1, 2), u1=frozenset(), v1=frozenset())
    assert apply_switch(G, spec).edges == G.edges
    pair = first_dirichlet_eigenpair(G)
    hc = check_switch_hypothesis(G, pair.f, spec)
    # empty sums tie at 0; the kept sums f(0) < f(0)+f(1) are strictly
    # ordered, so the data predicate reports strict on a no-op exchange
    assert hc.weak and hc.strict


def test_switch_symmetric_exchange_is_isomorphic():
    G = _tree(3, 7, H_EDGES)
    pair = first_dirichlet_eigenpair(G)
    spec = SwitchSpec(
        e1=(0, 3, 4), e2=(1, 5, 6), u1=frozenset({3}), v1=frozenset({5})
    )
    hc = check_switch_hypothesis(G, pair.f, spec)
    assert hc.weak and not hc.strict
    Gp = apply_switch(G, spec)
    assert Gp.edges == ((0, 1, 2), (0, 4, 5), (1, 3, 6))
    assert Gp.degrees == G.degrees
    assert canonical_code(Gp) == canonical_code(G)


def test_switch_weak_fails_when_group_sums_reverse():
    G = _tree(3, 7, H_EDGES)
    pair = first_dirichlet_eigenpair(G)
    spec = SwitchSpec(
        e1=(0, 3, 4), e2=(0, 1, 2), u1=frozenset({3}), v1=frozenset({1})
    )
    hc = check_switch_hypothesis(G, pair.f, spec)
    assert not hc.weak and not hc.strict


def test_switch_duplicate_edge_rejected():
    G = _tree(2, 4, ((0, 1), (1, 2), (2, 3)))
    spec = SwitchSpec(e1=(0, 1), e2=(2, 3), u1=frozenset({1}), v1=frozenset({3}))
    with pytest.raises(ResultNotSupertree):
        apply_switch(G, spec)


def test_switch_overlap_rejected():
    G = _tree(3, 7, H_EDGES)
    spec = SwitchSpec(
        e1=(0, 3, 4), e2=(1, 5, 6), u1=frozenset({3}), v1=frozenset({1})
    )
    with pytest.raises(ResultNotSupertree):
        apply_switch(G, spec)


def test_switch_spec_validation():
    G = _tree(3, 7, H_EDGES)
    cases = [
        SwitchSpec((0, 1, 2), (0, 1, 2), frozenset(), frozenset()),
        SwitchSpec((0, 1, 2), (2, 5, 6), frozenset(), frozenset()),
        SwitchSpec((0, 1, 2), (0, 3, 4), frozenset({5}), frozenset({3})),
        SwitchSpec((0, 1, 2), (0, 3, 4), frozenset({1, 2}), frozenset({3})),
        SwitchSpec((0, 1, 2), (0, 3, 4), frozenset({0}), frozenset({0})),
        # swapping 1 for the shared vertex 0 collapses e1 to two vertices
        SwitchSpec((0, 1, 2), (0, 3, 4), frozenset({1}), frozenset({0})),
    ]
    for spec in cases:
        with pytest.raises(InvalidSpec):
            apply_switch(G, spec)
    with pytest.raises(InvalidSpec):
        check_switch_hypothesis(G, [0.0] * 3, cases[2])


def test_switch_preserves_degrees_randomly():
    rng = random.Random(4821)
    done = 0
    while done < 100:
        k = rng.choice([2, 3, 4])
        G = random_supertree(rng, k, rng.randint(2, 5))
        spec = random_switch_spec(rng, G)
        try:
            Gp = apply_switch(G, spec)
        except ResultNotSupertree:
            continue
        assert Gp.degrees == G.degrees
        done += 1


def test_switch_strict_data_can_tie_without_interior_witness():
    # exchanges whose strict inequality has no interior witness can be pure
    # relabelings; these anchor the witness filter used by the property suite
    G = _tree(3, 7, H_EDGES)
    T = _tree(3, 9, T9_EDGES)
    fixtures = [
        (G, SwitchSpec((0, 1, 2), (0, 3, 4), frozenset({1}), frozenset({3}))),
        (T, SwitchSpec((0, 3, 4), (1, 5, 6), frozenset({0}), frozenset({1}))),
        (T, SwitchSpec((1, 5, 6), (0, 3, 4), frozenset({5}), frozenset({3}))),
    ]
    for tree, spec in fixtures:
        pair = first_dirichlet_eigenpair(tree)
        hc = check_switch_hypothesis(tree, pair.f, spec)
        assert hc.weak and hc.strict
        assert not switch_strict_witness(tree, pair.f, spec)
        Gp = apply_switch(tree, spec)
        assert canonical_code(Gp) == canonical_code(tree)
        assert abs(first_dirichlet_eigenpair(Gp).lam - pair.lam) <= 1e-10


def test_switch_weak_never_increases_small_sample():
    rng = random.Random(90125)
    weak_done = strict_done = attempts = 0
    while weak_done < 300 or strict_done < 30:
        attempts += 1
        assert attempts < 20000
        k = rng.choice([2, 3, 4])
        G = random_supertree(rng, k, rng.randint(2, 6))
        pair = first_dirichlet_eigenpair(G)
        spec = None
        if rng.random() < 0.5:
            spec = targeted_switch_spec(rng, G)
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
        weak_done += 1
        if (
            hc.strict
            and not pair.degenerate
            and switch_strict_witness(G, pair.f, spec)
        ):
            assert strictly_less(lam_p, pair.lam)
            strict_done += 1
    assert weak_done >= 300 and strict_done >= 30


# ----------------------------------------------------------------- shifting


def test_shift_empty_bundle_is_noop():
    G = _tree(3, 7, H_EDGES)
    spec = ShiftSpec(u=0, edges=(), v=3)
    assert apply_shift(G, spec).edges == G.edges
    pair = first_dirichlet_eigenpair(G)
    hc = check_shift_hypothesis(G, pair.f, spec)
    # nothing moves, yet f(0) > f(3) = 0 makes the data predicate strict
    assert hc.weak and hc.strict


def test_shift_star_center_to_leaf():
    G = _tree(3, 7, STAR3_EDGES)
    spec = ShiftSpec(u=0, edges=((0, 5, 6),), v=1)
    Gp = apply_shift(G, spec)
    assert Gp.edges == ((0, 1, 2), (0, 3, 4), (1, 5, 6))
    assert sorted(Gp.degrees, reverse=True) == [2, 2, 1, 1, 1, 1, 1]


def test_shift_degree_bookkeeping_random():
    rng = random.Random(3377)
    done = 0
    while done < 100:
        G = random_supertree(rng, rng.choice([2, 3]), rng.randint(3, 5))
        spec = random_shift_spec(rng, G)
        if spec is None:
            continue
        try:
            Gp = apply_shift(G, spec)
        except ResultNotSupertree:
            continue
        moved = len(spec.edges)
        for v in range(G.n):
            want = G.degrees[v]
            if v == spec.u:
                want -= moved
            elif v == spec.v:
                want += moved
            assert Gp.degrees[v] == want
        done += 1


def test_shift_disconnect_rejected():
    G = _tree(3, 9, CHAIN9_EDGES)
    spec = ShiftSpec(u=2, edges=((0, 1, 2), (2, 3, 4)), v=7)
    with pytest.raises(ResultNotSupertree):
        apply_shift(G, spec)


def test_shift_spec_validation():
    G = _tree(3, 7, H_EDGES)
    cases = [
        ShiftSpec(u=0, edges=((0, 5, 6),), v=1),
        ShiftSpec(u=3, edges=((0, 1, 2),), v=5),
        ShiftSpec(u=0, edges=((0, 3, 4),), v=3),
        ShiftSpec(u=0, edges=((0, 3, 4), (0, 3, 4)), v=5),
        ShiftSpec(u=0, edges=((0, 3, 4),), v=0),
        ShiftSpec(u=99, edges=(), v=1),
        ShiftSpec(u=0, edges=(), v=99),
    ]
    for spec in cases:
        with pytest.raises(InvalidSpec):
            apply_shift(G, spec)
    with pytest.raises(InvalidSpec):
        check_shift_hypothesis(G, [0.0] * 3, cases[0])


def test_shift_weak_needs_u_to_stay_interior():
    # hypothesis satisfied, but u drops to the boundary where f(u) > 0, so
    # the eigenfunction is inadmissible for the result and the eigenvalue
    # rises; the property suite keeps two edges at u to stay in scope
    G = _tree(2, 5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    pair = first_dirichlet_eigenpair(G)
    spec = ShiftSpec(u=1, edges=((0, 1),), v=3)
    hc = check_shift_hypothesis(G, pair.f, spec)
    assert hc.weak and hc.strict
    assert G.degrees[spec.u] - len(spec.edges) < 2
    lam_p = first_dirichlet_eigenpair(apply_shift(G, spec)).lam
    assert lam_p > pair.lam + _LAMBDA_TIE


def test_shift_strict_data_can_tie_when_u_demoted():
    G = _tree(3, 7, H_EDGES)
    pair = first_dirichlet_eigenpair(G)
    spec = ShiftSpec(u=1, edges=((1, 5, 6),), v=3)
    hc = check_shift_hypothesis(G, pair.f, spec)
    assert hc.weak and hc.strict
    assert G.degrees[spec.u] - len(spec.edges) < 2
    Gp = apply_shift(G, spec)
    assert canonical_code(Gp) == canonical_code(G)
    assert abs(first_dirichlet_eigenpair(Gp).lam - pair.lam) <= 1e-10


def test_hypothesis_checks_decide_weak_by_the_strict_comparison():
    # 0.02 - 0.0199999999 rounds just above the default slack, so
    # strictly_less calls the pair apart; the weak form reads the negation of
    # that one comparison, so the reversed pair fails it (an inequality of
    # its own, x >= y - slack, rounded the other way and passed both forms)
    lo, hi = 0.0199999999, 0.02
    assert strictly_less(lo, hi)
    G = _tree(2, 5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    f = [0.0, lo, hi, 0.5, 0.0]
    shift = check_shift_hypothesis(G, f, ShiftSpec(u=1, edges=((0, 1),), v=2))
    assert tuple(shift) == (False, False)
    f = [hi, 0.5, 0.0, lo, 0.0]
    spec = SwitchSpec(e1=(0, 1), e2=(3, 4), u1=frozenset({1}), v1=frozenset({4}))
    assert tuple(check_switch_hypothesis(G, f, spec)) == (False, False)


def test_shift_weak_never_increases_in_scope_small_sample():
    rng = random.Random(60902)
    weak_done = strict_done = 0
    while weak_done < 200:
        G = random_supertree(rng, rng.choice([2, 3]), rng.randint(3, 5))
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
        weak_done += 1
        if hc.strict and not pair.degenerate:
            assert strictly_less(lam_p, pair.lam)
            strict_done += 1
    assert strict_done >= 30


# ------------------------------------------------- degree-sequence calculus


def test_unit_transformation_examples():
    assert unit_transformation(_seq(3, [3, 3] + [1] * 9), 0).entries == tuple(
        [2, 4] + [1] * 9
    )
    assert unit_transformation(
        _seq(3, [3, 3, 3] + [1] * 12), 1
    ).entries == tuple([2, 3, 4] + [1] * 12)


def test_unit_transformation_preserves_shape():
    pi = _seq(3, [3, 4, 5] + [1] * 18)
    out = unit_transformation(pi, 0)
    assert (out.k, out.n, out.n0) == (pi.k, pi.n, pi.n0)
    assert sum(out.entries) == sum(pi.entries)


def test_unit_transformation_errors():
    with pytest.raises(DegreeTooSmall):
        unit_transformation(_seq(3, [2, 2] + [1] * 5), 0)
    with pytest.raises(IndexOutOfRange):
        unit_transformation(_seq(3, [3, 3] + [1] * 9), 1)
    with pytest.raises(IndexOutOfRange):
        unit_transformation(_seq(3, [3, 3] + [1] * 9), -1)


def test_majorizes_examples():
    two_four = _seq(3, [2, 4] + [1] * 9)
    three_three = _seq(3, [3, 3] + [1] * 9)
    assert majorizes(two_four, two_four)
    assert majorizes(three_three, two_four)
    assert not majorizes(two_four, three_three)
    with pytest.raises(LengthMismatch):
        majorizes(two_four, _seq(3, [2, 2] + [1] * 5))
    with pytest.raises(LengthMismatch):
        majorizes(_seq(2, [2] * 5 + [1] * 2), _seq(3, [2, 2] + [1] * 5))


def test_majorizes_order_properties_random():
    rng = random.Random(2244)
    groups: dict[tuple[int, int], list] = {}
    for pi in all_feasible(3, 13):
        groups.setdefault((pi.n, pi.n0), []).append(pi)
    pool = [g for g in groups.values() if len(g) >= 2]
    for _ in range(200):
        group = rng.choice(pool)
        a, b = rng.choice(group), rng.choice(group)
        if majorizes(a, b) and majorizes(b, a):
            assert a.entries == b.entries
        c = rng.choice(group)
        if majorizes(a, b) and majorizes(b, c):
            assert majorizes(a, c)


def test_chain_examples():
    start = _seq(3, [3, 3] + [1] * 9)
    target = _seq(3, [2, 4] + [1] * 9)
    assert unit_transform_chain(start, start) == []
    assert unit_transform_chain(start, target) == [0]
    with pytest.raises(NotMajorized):
        unit_transform_chain(target, start)


def test_chain_rejects_interior_count_mismatch():
    wide = _seq(3, [5] + [1] * 10)
    narrow = _seq(3, [2, 4] + [1] * 9)
    assert majorizes(wide, narrow)
    with pytest.raises(NotMajorized, match="interior counts"):
        unit_transform_chain(wide, narrow)


def test_chain_multi_step_replay():
    start = _seq(3, [4, 4, 4] + [1] * 18)
    target = _seq(3, [2, 3, 7] + [1] * 18)
    chain = unit_transform_chain(start, target)
    assert len(chain) >= 2
    cur = start
    for p in chain:
        cur = unit_transformation(cur, p)
    assert cur.entries == target.entries


def test_chain_replay_random_walks():
    rng = random.Random(7181)
    starts = [pi for pi in all_feasible(3, 13) if pi.n0 >= 2]
    for _ in range(200):
        start = rng.choice(starts)
        cur = start
        for _ in range(rng.randint(1, 6)):
            spots = [
                p for p in range(cur.n0 - 1) if cur.entries[p] >= 3
            ]
            if not spots:
                break
            cur = unit_transformation(cur, rng.choice(spots))
        assert majorizes(start, cur)
        replay = start
        for p in unit_transform_chain(start, cur):
            replay = unit_transformation(replay, p)
        assert replay.entries == cur.entries


def test_chain_matches_the_rescanning_reference_and_replays():
    # every majorized pair with equal interior count, k=2 n<=18 and k=3
    # n<=21: the in-place chain gives the reference's positions, and
    # replaying them through unit_transformation lands on the target
    pairs = 0
    for k, n_max in ((2, 18), (3, 21)):
        groups: dict[tuple[int, int], list] = {}
        for pi in all_feasible(k, n_max):
            groups.setdefault((pi.n, pi.n0), []).append(pi)
        for group in groups.values():
            for start in group:
                for end in group:
                    if not majorizes(start, end):
                        continue
                    chain = unit_transform_chain(start, end)
                    assert chain == reference_unit_transform_chain(start, end)
                    cur = start
                    for p in chain:
                        cur = unit_transformation(cur, p)
                    assert cur.entries == end.entries
                    pairs += 1
    assert pairs == 7440


def test_long_chain_is_linear():
    # 3^1000 down to 2^999,1002 (k=2) takes 6,069 unit steps; rescanning
    # from position 0 with a re-sorted sequence per step took seconds
    n0 = 1000
    start = _seq(2, [3] * n0 + [1] * (n0 + 2))
    end = _seq(2, [2] * (n0 - 1) + [n0 + 2] + [1] * (n0 + 2))
    began = time.perf_counter()
    chain = unit_transform_chain(start, end)
    assert time.perf_counter() - began < 1.0
    assert len(chain) == 6069
    cur = list(start.interior)
    for p in chain:
        cur[p] -= 1
        cur[p + 1] += 1
        cur.sort()
    assert tuple(cur) == end.interior
