"""Spectral layer: interior Laplacian blocks and the first Dirichlet pair."""

from __future__ import annotations

import itertools
import math
import random
import statistics
import sys
from fractions import Fraction

import numpy as np
import pytest

from supertrees import (
    NoInteriorVertices,
    build_supertree,
    canonical_code,
    enumerate_family,
    enumerate_supertrees,
    first_dirichlet_eigenpair,
    first_dirichlet_eigenvalues,
    fk1_sweep,
    fk2_sweep,
    serialize_sht,
    spectral,
)
from supertrees.cli import main
from supertrees.enumeration import _grow_classes, _members
from supertrees.slo import relabel
from support import (
    apply_vertex_permutation,
    broom,
    random_boundary_zero,
    random_supertree,
    reference_bisected_eigenvalue,
    reference_eigenpair,
    reference_inverse_iteration,
    reference_laplacian,
    reference_second_eigenvalue,
)

TWO_INTERIOR = ((0, 1, 2), (0, 3, 4), (1, 5, 6))


def star(k: int, d: int):
    edges = [tuple(range(k))]
    n = k
    for _ in range(d - 1):
        edges.append((0,) + tuple(range(n, n + k - 1)))
        n += k - 1
    return build_supertree(k, n, edges)


def spider(legs: int):
    """A k=2 star of legs two-edge legs: lambda_2 = ... = lambda_legs = 2."""
    edges = [(0, 1 + i) for i in range(legs)]
    edges += [(1 + i, 1 + legs + i) for i in range(legs)]
    return build_supertree(2, 1 + 2 * legs, edges)


def test_laplacian_matrix_two_interior():
    G = build_supertree(3, 7, TWO_INTERIOR)
    blocks, picked = spectral._laplacian_blocks([G])
    assert np.flatnonzero(picked).tolist() == [0, 1]
    assert np.array_equal(blocks[0], np.array([[2.0, -0.5], [-0.5, 2.0]]))


def test_laplacian_reduces_to_graph_laplacian_for_pairs():
    G = build_supertree(2, 5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    expected = np.zeros((5, 5))
    for u, v in G.edges:
        expected[u, u] += 1
        expected[v, v] += 1
        expected[u, v] -= 1
        expected[v, u] -= 1
    interior = [1, 2]
    assert np.array_equal(
        spectral._laplacian_blocks([G])[0][0], expected[np.ix_(interior, interior)]
    )


def test_star_eigenvalue_is_center_degree():
    for k in (2, 3, 4):
        for d in range(2, 6):
            pair = first_dirichlet_eigenpair(star(k, d))
            assert abs(pair.lam - d) <= 1e-12
            assert pair.gap == math.inf
            assert not pair.degenerate
            assert pair.f[0] == pytest.approx(1.0, abs=1e-12)


def test_two_interior_eigenpair():
    pair = first_dirichlet_eigenpair(build_supertree(3, 7, TWO_INTERIOR))
    assert abs(pair.lam - 1.5) <= 1e-10
    assert abs(pair.gap - 1.0) <= 1e-10
    root = 1.0 / math.sqrt(2.0)
    assert pair.f[0] == pytest.approx(root, abs=1e-10)
    assert pair.f[1] == pytest.approx(root, abs=1e-10)
    assert np.all(pair.f[2:] == 0.0)


def test_chain_and_bouquet_eigenvalues():
    chain = build_supertree(3, 9, ((0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)))
    bouquet = build_supertree(3, 9, ((0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8)))
    assert first_dirichlet_eigenpair(chain).lam == pytest.approx(
        2.0 - math.sqrt(2.0) / 2.0, abs=1e-12
    )
    assert first_dirichlet_eigenpair(bouquet).lam == pytest.approx(1.0, abs=1e-12)


def test_path_eigenvalue_for_pairs():
    # the interior of a k=2 path with m edges is a path on m-1 vertices, so
    # lambda = 2 - 2cos(pi/m); the bound is absolute, and at m=400 (lambda
    # about 6e-5) it is loose in relative terms: certifying small lambda
    # relatively is a separate problem (ROADMAP items 7 and 4)
    for m in (3, 50, 400):
        G = build_supertree(2, m + 1, [(i, i + 1) for i in range(m)])
        pair = first_dirichlet_eigenpair(G)
        assert abs(pair.lam - (2.0 - 2.0 * math.cos(math.pi / m))) <= 1e-14
        assert np.all(pair.f[1:m] > 0.0)


def test_eigenpair_consistency_random():
    rng = random.Random(628)
    for _ in range(60):
        G = random_supertree(rng, rng.choice((2, 3, 4)), rng.randrange(2, 7))
        pair = first_dirichlet_eigenpair(G)
        assert pair.lam > 0.0
        assert pair.residual <= 1e-10
        interior = [v for v in range(G.n) if G.degrees[v] >= 2]
        boundary = [v for v in range(G.n) if G.degrees[v] == 1]
        assert np.all(pair.f[boundary] == 0.0)
        assert min(pair.f[v] for v in interior) > 0.0
        assert np.linalg.norm(pair.f) == pytest.approx(1.0, abs=1e-12)
        # quadratic form agrees with the eigenvalue on the eigenfunction
        f = pair.f
        assert f @ reference_laplacian(G) @ f == pytest.approx(pair.lam, abs=1e-12)


def test_rayleigh_bounds_first_eigenvalue():
    rng = random.Random(2718)
    for _ in range(100):
        G = random_supertree(rng, rng.choice((2, 3, 4)), rng.randrange(2, 7))
        lam = first_dirichlet_eigenpair(G).lam
        g = np.array(random_boundary_zero(rng, G))
        assert g @ reference_laplacian(G) @ g / (g @ g) >= lam - 1e-10


def test_no_interior_vertices_raises():
    single = build_supertree(3, 3, [(0, 1, 2)])
    with pytest.raises(NoInteriorVertices):
        first_dirichlet_eigenpair(single)
    with pytest.raises(NoInteriorVertices):
        spectral._laplacian_blocks([single])
    with pytest.raises(NoInteriorVertices):
        first_dirichlet_eigenvalues([star(3, 2), single])


def test_scatter_assembly_matches_reference():
    rng = random.Random(4242)
    trees = [
        random_supertree(rng, k, rng.randrange(1, 9))
        for k in range(2, 7)
        for _ in range(20)
    ]
    for k, m in ((2, 10), (3, 6)):
        trees += [G for layer in _grow_classes(k, m) for _, G in layer]
    for G in trees:
        interior = [v for v in range(G.n) if G.degrees[v] >= 2]
        if interior:
            blocks, picked = spectral._laplacian_blocks([G])
            assert np.flatnonzero(picked).tolist() == interior
            want = reference_laplacian(G)[np.ix_(interior, interior)]
            assert np.array_equal(blocks[0], want)


def _with_interior(rng: random.Random, k: int, n0: int):
    """A randomly grown supertree with exactly n0 interior vertices: a
    pendant edge at a boundary vertex adds one, elsewhere none."""
    edges, degrees = [tuple(range(k))], [1] * k
    while sum(d >= 2 for d in degrees) < n0:
        v = rng.randrange(len(degrees))
        edges.append((v,) + tuple(range(len(degrees), len(degrees) + k - 1)))
        degrees[v] += 1
        degrees += [1] * (k - 1)
    perm = list(range(len(degrees)))
    rng.shuffle(perm)
    return apply_vertex_permutation(build_supertree(k, len(degrees), edges), perm)


def _reference_trees():
    """Interior sizes 1 to 120 for k = 2..5, k=2 paths up to 200 edges,
    brooms and stars."""
    rng = random.Random(1729)
    trees = [_with_interior(rng, 2 + n0 % 4, n0) for n0 in range(1, 121)]
    trees += [_with_interior(rng, k, rng.randrange(1, 121)) for k in (2, 3, 4, 5)]
    trees += [build_supertree(2, m + 1, [(i, i + 1) for i in range(m)])
              for m in range(2, 201)]
    trees += [broom(3, handle, bristles)
              for handle in (2, 5, 20, 60) for bristles in (0, 2, 7, 30)]
    trees += [star(k, d) for k in (2, 3, 4, 5) for d in (2, 3, 6)]
    interiors = {sum(d >= 2 for d in G.degrees) for G in trees}
    assert set(range(1, 121)) <= interiors and max(interiors) == 199
    return trees


def test_eigenpair_equals_reference_arithmetic_bitwise():
    for G in _reference_trees():
        pair = first_dirichlet_eigenpair(G)
        lam, f, gap, degenerate, residual = reference_inverse_iteration(G)
        assert pair.lam.hex() == lam.hex()
        assert pair.gap.hex() == gap.hex()
        assert pair.residual.hex() == residual.hex()
        assert pair.degenerate == degenerate
        assert [x.hex() for x in pair.f.tolist()] == [x.hex() for x in f.tolist()]
    assert first_dirichlet_eigenpair(star(3, 4)).gap == math.inf


def test_eigenpair_within_tolerance_of_eigh_reference():
    # eigenvalues alone and one inverse-iteration step against LAPACK's
    # eigenvectors; the worst differences seen are 6.9e-15 (lambda),
    # 6.4e-15 (gap), 1.3e-12 (f) and residuals up to 1.7e-13
    for G in _reference_trees():
        pair = first_dirichlet_eigenpair(G)
        lam, f, gap, degenerate, _ = reference_eigenpair(G)
        assert abs(pair.lam - lam) <= 1e-13
        assert pair.gap == gap == math.inf or abs(pair.gap - gap) <= 1e-13
        assert np.max(np.abs(pair.f - f)) <= 1e-11
        assert pair.residual <= 1e-12
        assert pair.degenerate == degenerate


def test_shift_below_exact_eigenvalues_never_singular(capsys, tmp_path):
    # lambda computed exactly (r = 1, integral lambda) or nearly singular
    # shifted blocks on long paths: every solve and every CLI run succeeds
    exact = [(star(k, d), d) for k in (2, 3, 4) for d in (2, 5)]
    exact.append((build_supertree(2, 4, [(0, 1), (1, 2), (2, 3)]), 1))
    trees = [G for G, _ in exact]
    trees.append(build_supertree(3, 9, ((0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8))))
    trees += [build_supertree(2, m + 1, [(i, i + 1) for i in range(m)])
              for m in (4, 50, 100, 200, 399, 400)]
    for G, lam in exact:
        assert first_dirichlet_eigenpair(G).lam == lam
    for G in trees:
        pair = first_dirichlet_eigenpair(G)
        assert np.all(np.isfinite(pair.f))
        assert np.all(pair.f[[v for v in range(G.n) if G.degrees[v] >= 2]] > 0.0)
        assert pair.residual <= 1e-12
        path = tmp_path / "tree.sht"
        path.write_text(serialize_sht(G))
        assert main(["eigen", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"lambda={pair.lam:.12f}\n") and err == ""


def test_cached_member_pairs_serve_every_k_and_stack():
    # the member-pair index is cached per k; calls interleaving k and stack
    # size must each match the element-wise reference
    rng = random.Random(5150)
    for _ in range(3):
        for k in (2, 3, 4, 5):
            G = random_supertree(rng, k, rng.randrange(2, 9))
            perms = [rng.sample(range(G.n), G.n) for _ in range(3)]
            stack = [G] + [apply_vertex_permutation(G, p) for p in perms]
            for trees in ([G], stack):
                picked = [[v for v in range(H.n) if H.degrees[v] >= 2] for H in trees]
                want = np.array([
                    reference_laplacian(H)[np.ix_(rows, rows)]
                    for H, rows in zip(trees, picked)
                ])
                blocks = spectral._laplacian_blocks(trees)[0]
                assert blocks.shape == want.shape
                assert np.array_equal(blocks, want)


def _mixed_groups():
    """Supertrees from several (k, n0) groups, most holding several vertex
    counts n, interleaved, and the set of their (k, n0) keys."""
    rng = random.Random(99)
    groups = [
        [random_supertree(rng, 2, 6) for _ in range(40)],
        [star(3, d) for d in (2, 3, 4)],
        [build_supertree(3, 7, TWO_INTERIOR), star(3, 3)],
        [random_supertree(rng, 4, 4) for _ in range(10)],
        [_with_interior(rng, 3, 4) for _ in range(12)],
        [_with_interior(rng, 2, 5) for _ in range(12)],
    ]
    trees = [G for group in itertools.zip_longest(*groups) for G in group if G]
    keys = {(G.k, sum(d >= 2 for d in G.degrees)) for G in trees}
    return trees, keys


def test_eigenvalues_of_mixed_groups_in_input_order():
    trees, keys = _mixed_groups()
    assert len(keys) >= 5
    sizes: dict[tuple[int, int], set[int]] = {}
    for G in trees:
        sizes.setdefault((G.k, sum(d >= 2 for d in G.degrees)), set()).add(G.n)
    assert sum(len(ns) > 1 for ns in sizes.values()) >= 3
    assert first_dirichlet_eigenvalues(trees) == [
        first_dirichlet_eigenpair(G).lam for G in trees
    ]
    single = build_supertree(3, 3, [(0, 1, 2)])
    with pytest.raises(NoInteriorVertices):
        first_dirichlet_eigenvalues(trees[:7] + [single] + trees[7:])


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    solver = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_one_eigvalsh_per_group_and_never_eigh(monkeypatch):
    trees, keys = _mixed_groups()
    calls = _count_calls(monkeypatch, "eigvalsh")
    eigh = _count_calls(monkeypatch, "eigh")
    first_dirichlet_eigenvalues(trees)
    assert len(calls) == len(keys)
    assert sum(shape[0] for shape in calls) == len(trees)
    calls.clear()
    for G in trees:
        first_dirichlet_eigenpair(G)
    assert len(calls) == len(trees)
    assert eigh == []


def test_one_eigvalsh_per_interior_size_per_sweep_and_never_eigh(monkeypatch):
    # a sweep scores every family through one call, which solves each
    # (k, n0) stack once, whatever the families and vertex counts in it: the
    # four benchmark sweeps make 29 calls for 165 families
    calls = _count_calls(monkeypatch, "eigvalsh")
    eigh = _count_calls(monkeypatch, "eigh")
    total = families = 0
    for sweep in (lambda: fk1_sweep(3, 13), lambda: fk1_sweep(2, 10),
                  lambda: fk2_sweep(3, 13, 2), lambda: fk2_sweep(2, 13, 2)):
        calls.clear()
        certs = sweep()
        sizes: dict[int, int] = {}
        for cert in certs:
            n0 = sum(d >= 2 for d in cert.winner.degrees)
            sizes[n0] = sizes.get(n0, 0) + len(cert.all_lambdas)
        assert len(calls) == len(sizes) < len(certs)
        assert sorted((shape[1], shape[0]) for shape in calls) == sorted(sizes.items())
        total += len(calls)
        families += len(certs)
    assert (total, families) == (29, 165)
    assert eigh == []


def test_stacked_eigenvalues_equal_single_solves():
    everyone = []
    for cert in fk1_sweep(3, 9) + fk1_sweep(2, 8) + fk2_sweep(2, 10, 2):
        fam = cert.family
        if fam.kind == "pi":
            members = enumerate_supertrees(fam.pi)
        else:
            members = enumerate_family(fam.n, fam.n0, fam.k, fam.d)
        single = [first_dirichlet_eigenpair(G).lam for G in members]
        assert first_dirichlet_eigenvalues(members) == single
        rows = {canonical_code(G): lam for G, lam in zip(members, single)}
        assert dict(cert.all_lambdas) == rows
        everyone += members
    # blocks of every interior size in one call, in input order
    assert first_dirichlet_eigenvalues(everyone) == [
        first_dirichlet_eigenpair(G).lam for G in everyone
    ]
    assert first_dirichlet_eigenvalues([]) == []


def _benchmark_classes():
    """Every class of the four benchmark sweeps, once each (2,320)."""
    classes = {}
    for certs in (fk1_sweep(3, 13), fk1_sweep(2, 10), fk2_sweep(3, 13, 2),
                  fk2_sweep(2, 13, 2)):
        for cert in certs:
            classes.update(_members(cert.family))
    return list(classes.values())


def _spectra(trees):
    """Every Dirichlet eigenvalue of each supertree, ascending, from one
    stacked eigvalsh call per (k, n0)."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, G in enumerate(trees):
        groups.setdefault((G.k, sum(d >= 2 for d in G.degrees)), []).append(i)
    spectra = {}
    for idx in groups.values():
        blocks = spectral._laplacian_blocks([trees[i] for i in idx])[0]
        spectra.update(zip(idx, np.linalg.eigvalsh(blocks)))
    return [spectra[i] for i in range(len(trees))]


def test_inertia_tests_agree_with_eigvalsh():
    # at 0.999 lambda_1, halfway from lambda_1 to lambda_2, one random sigma
    # per tree, and at lambda_1 -+ 1e-12 max(1, lambda_1) with eigvalsh's
    # lambda_1: 13,324 sigma over the benchmark classes and the reference
    # trees, each asked in floats and exactly, as "is lambda_1 <= sigma?"
    rng = random.Random(1917)
    trees = _benchmark_classes()
    assert len(trees) == 2320
    trees += _reference_trees()
    checks = 0
    for G, values in zip(trees, _spectra(trees)):
        plan = spectral._inertia_plan(G)
        lam = float(values[0])
        near = 1e-12 * max(1.0, lam)
        sigmas = [0.999 * lam, rng.uniform(0.0, 2.0 * max(G.degrees)),
                  lam - near, lam + near]
        sigmas += [float(values[0] + values[1]) / 2] if len(values) > 1 else []
        for sigma in sigmas:
            below = lam <= sigma
            assert (spectral._log_det_slopes(plan, sigma) is None) == below
            assert spectral._exact_below(plan, Fraction(sigma)) == below
            checks += 1
    assert checks == 13324


def test_exact_test_where_a_pivot_can_vanish():
    # an exact zero pivot makes (k - 1) sigma a root of a monic integer
    # polynomial (the determinant of a subtree's block), so an integer t.
    # Every t up to 2 (k - 1) max degree on the 2,320 benchmark classes
    # (k = 2 and 3) gives 22,644 tests. At 4,041 of them the first pivot
    # that is not positive is exactly 0, at a vertex, a hub or the root.
    # eigvalsh rounds an eigenvalue at sigma either way, and no other lies
    # within 1e-6 of one. The float pass counts the pivots that are not
    # positive, stepping past a vanishing one, and returns None where the
    # count reaches stop; that count lies between the eigenvalues below
    # sigma and those at or below it, so None must hold where the first
    # reach stop and must not where the second stay below it
    trees = _benchmark_classes()
    checks = 0
    for G, values in zip(trees, _spectra(trees)):
        plan = spectral._inertia_plan(G)
        scale = G.k - 1
        for t in range(2 * scale * max(G.degrees) + 1):
            below = values[0] <= t / scale + 1e-9
            assert spectral._exact_below(plan, Fraction(t, scale)) == below
            fewest = sum(values < t / scale - 1e-9)
            most = sum(values <= t / scale + 1e-9)
            for stop in (1, 2):
                none = spectral._log_det_slopes(plan, t / scale, stop) is None
                assert (fewest >= stop) <= none <= (most >= stop)
            checks += 1
    assert checks == 22644


def test_zero_pivot_counts_below_in_floats_and_fractions():
    # sigma = 2 is the eigenvalue of the last interior vertex's own block on
    # the k=2 path with three edges (spectrum 1, 3) and on TWO_INTERIOR
    # (1.5, 2.5), though not of either whole block; sigma = d is the whole
    # spectrum of star(k, d). So the first pivot is 0 in both arithmetics,
    # and each reads it as below; just under a star's d nothing is below
    path = build_supertree(2, 4, [(0, 1), (1, 2), (2, 3)])
    cases = [(path, 2), (build_supertree(3, 7, TWO_INTERIOR), 2),
             (star(3, 4), 4), (star(2, 5), 5)]
    for G, sigma in cases:
        plan = spectral._inertia_plan(G)
        assert plan[0][-1] - plan[1][-1] * sigma == 0
        lam = _spectra([G])[0][0]
        assert lam < sigma + 1e-9
        assert spectral._exact_below(plan, Fraction(sigma))
        assert spectral._log_det_slopes(plan, float(sigma)) is None
        # with stop = 2 the pass steps past the zero pivot instead of
        # dividing by it, and counts one
        assert spectral._log_det_slopes(plan, float(sigma), 2) is not None
        under = Fraction(sigma) - Fraction(1, 10**9)
        assert spectral._exact_below(plan, under) == (lam < sigma - 1e-9)
    for pivot, below in ((0, True), (-1, True), (1, False)):
        assert spectral._exact_below(((pivot,), (0,), (-1,)), 0) == below


def test_bisected_eigenvalue_matches_lapack():
    # the worst relative difference over the benchmark classes is 3.2e-14,
    # and no 12-decimal print moves; on long paths both stay within eps
    # times the norm bound 4 of 4 sin^2(pi / 2m)
    trees = _benchmark_classes()
    lams = first_dirichlet_eigenvalues(trees)
    for G, lam in zip(trees, lams):
        bisected, plan = spectral._bisected_eigenvalue(G)
        assert abs(bisected - lam) <= 1e-13 * lam
        assert f"{bisected:.12f}" == f"{lam:.12f}"
        assert spectral._log_det_slopes(plan, bisected) is None
        assert spectral._log_det_slopes(plan, math.nextafter(bisected, 0.0))
    for m in (200, 400, 1000):
        G = build_supertree(2, m + 1, [(i, i + 1) for i in range(m)])
        exact = 4.0 * math.sin(math.pi / (2 * m)) ** 2
        assert abs(spectral._bisected_eigenvalue(G)[0] - exact) <= 4 * sys.float_info.epsilon
    with pytest.raises(NoInteriorVertices):
        spectral._bisected_eigenvalue(build_supertree(3, 3, [(0, 1, 2)]))


def _counted_passes(monkeypatch) -> list:
    """Patches _log_det_slopes, the one pass _bisected_eigenvalue makes, to
    log each call as (sigma, whether it returned None, the line it was
    called from, stop). A solve's first pass is always Laguerre's, at
    sigma = 0, so a pass is Laguerre's when it comes from the same line as
    the first; the polish's gallop and bisection call from other lines."""
    log = []
    slopes = spectral._log_det_slopes

    def counted(plan, sigma, stop=1):
        out = slopes(plan, sigma, stop)
        log.append((sigma, out is None, sys._getframe(1).f_lineno, stop))
        return out

    monkeypatch.setattr(spectral, "_log_det_slopes", counted)
    return log


def test_laguerre_equals_reference_bisection_bitwise(monkeypatch):
    # every benchmark class and reference tree: the float bisection ends on,
    # in a median of 10 passes (at most 19) against bisection's 55 or so.
    # On 569 trees with r > 1 a Laguerre step rounds onto a sigma strictly
    # above lambda where the test is true, and the gallop down from there
    # still ends on lambda
    trees = _benchmark_classes() + _reference_trees()
    want = [reference_bisected_eigenvalue(G) for G in trees]
    slopes = spectral._log_det_slopes
    log = _counted_passes(monkeypatch)
    passes, past = [], 0
    for G, lam in zip(trees, want):
        log.clear()
        got, plan = spectral._bisected_eigenvalue(G)
        assert got.hex() == lam.hex()
        passes.append(len(log))
        laguerre = log[0][2]
        past += sum(d >= 2 for d in G.degrees) > 1 and any(
            line == laguerre and below and sigma > lam
            for sigma, below, line, _ in log)
        assert slopes(plan, lam) is None
        assert slopes(plan, math.nextafter(lam, 0.0)) is not None
    assert (statistics.median(passes), max(passes), past) == (10, 19, 569)


def test_one_interior_vertex_lands_on_its_degree(monkeypatch):
    # with r = 1 the first step is (k - 1) d / (k - 1) up to two roundings:
    # exact for d = 4, one ulp past 49 = 1 / (1 / 49). Either way a gallop
    # down from the floor finds the float below where the test is false
    log = _counted_passes(monkeypatch)
    for k in (2, 3, 4, 5):
        for d in (2, 3, 4, 6, 49):
            log.clear()
            assert spectral._bisected_eigenvalue(star(k, d))[0] == d
            assert len(log) <= 8
            assert log[1][1:3] == (True, log[0][2]) and log[1][0] >= d
    log.clear()
    spectral._bisected_eigenvalue(star(2, 49))
    assert log[1][0] == math.nextafter(49.0, math.inf)


def test_slopes_stop_where_the_count_turns_positive():
    # a pivot exactly 0 or at the smallest normal float reads as below, so
    # the pass returns None; one just above does not
    path = build_supertree(2, 4, [(0, 1), (1, 2), (2, 3)])
    plan = spectral._inertia_plan(path)
    assert spectral._exact_below(plan, 2)
    assert spectral._log_det_slopes(plan, 2.0) is None
    tiny = sys.float_info.min
    for pivot, below in ((0.0, True), (tiny, True), (-tiny, True), (2 * tiny, False)):
        plan = ((pivot,), (0,), (-1,))
        assert (spectral._log_det_slopes(plan, 0.0) is None) == below
    # s1 and s2 of the k=2 path with three edges (spectrum 1, 3) at sigma = 0
    s1, s2 = spectral._log_det_slopes(spectral._inertia_plan(path), 0.0)
    assert (s1, s2) == pytest.approx((1 + 1 / 3, 1 + 1 / 9), rel=1e-15)


def test_laguerre_passes_on_clustered_spectra(monkeypatch):
    # a star of 1,000 two-edge legs has lambda_2 = ... = lambda_1000 = 2
    # just above lambda_1 near 1: 18 passes, where Newton's step took 715.
    # A k=3 broom with a 2,000-edge handle runs out of _LAGUERRE_PASSES
    # steps, and the polish bisects: 68 passes
    cases = [(G, reference_bisected_eigenvalue(G), most)
             for G, most in ((spider(1000), 20), (broom(3, 2000, 1000), 70))]
    log = _counted_passes(monkeypatch)
    for G, lam, most in cases:
        log.clear()
        assert spectral._bisected_eigenvalue(G)[0] == lam
        assert len(log) <= most


def test_second_eigenvalue_equals_reference_bisection_bitwise(monkeypatch):
    # lambda_2 from the search with lambda_1 as its pole, on the 2,642
    # trees with r > 1 among the benchmark classes, the reference trees,
    # the 1,000-leg spider and the k=3 broom with a 2,000-edge handle: the
    # float the reference bisection ends on, in a median of 9 passes (at
    # most 68, the broom; 55 on the spider, whose lambda_2 has multiplicity
    # 999) against its 52 and more
    trees = _benchmark_classes() + _reference_trees()
    trees += [spider(1000), broom(3, 2000, 1000)]
    trees = [G for G in trees if sum(d >= 2 for d in G.degrees) > 1]
    assert len(trees) == 2642
    want = [reference_second_eigenvalue(G) for G in trees]
    log = _counted_passes(monkeypatch)
    passes = []
    for G, second in zip(trees, want):
        lam, plan = spectral._bisected_eigenvalue(G)
        log.clear()
        assert spectral._bisected_eigenvalue(G, plan, lam)[0].hex() == second.hex()
        assert {stop for *_, stop in log} == {2}
        passes.append(len(log))
    assert (statistics.median(passes), max(passes), sum(passes)) == (9, 68, 27303)


def test_deflation_hands_over_to_the_polish(monkeypatch):
    # where the deflated s1 or s2 is not positive, Laguerre stops and the
    # polish gallops up from its last iterate by the float floor, and the
    # search still ends on the reference lambda_2. Each case names which of
    # the two fails. On two benchmark classes an iterate lands on sigma = 1,
    # where a pivot vanishes that stop = 2 steps past, and s2 comes out
    # nan. Poles other than lambda_1 trip the guard at the first iterate,
    # sigma = 0: a pole at 0, where 1 / (pole - sigma) would divide by zero;
    # 1 / s1, where the deflated s1 is 0 and Laguerre's step would divide
    # by zero; 1 / sqrt(s2), where the deflated s2 is 0 and the step would
    # run on; -1e-200, where the pole's term squared overflows. A pole at -2
    # lets an iterate pass lambda_1, where s1 turns negative alone
    first = build_supertree(2, 13, [(0, 1), (0, 2), (0, 4), (0, 6), (1, 3), (2, 8),
                                    (3, 5), (3, 7), (5, 9), (5, 11), (8, 10), (10, 12)])
    second = build_supertree(2, 13, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 6),
                                     (3, 7), (6, 8), (6, 10), (6, 12), (7, 9), (9, 11)])
    cases = [(first, None, (False, True)), (second, None, (False, True)),
             (first, -2.0, (True, False))]
    for G in (spider(30), build_supertree(3, 7, TWO_INTERIOR)):
        s1, s2 = spectral._log_det_slopes(spectral._inertia_plan(G), 0.0, 2)
        assert 1 / (1 / s1) == s1 and (1 / (1 / math.sqrt(s2))) ** 2 == s2
        cases += [(G, 0.0, (True, True)), (G, 1 / s1, (True, True)),
                  (G, 1 / math.sqrt(s2), (False, True)), (G, -1e-200, (False, True))]
    slopes = spectral._log_det_slopes
    log = _counted_passes(monkeypatch)
    for G, pole, fails in cases:
        lam, plan = spectral._bisected_eigenvalue(G)
        pole = lam if pole is None else pole
        log.clear()
        got = spectral._bisected_eigenvalue(G, plan, pole)[0]
        assert got == reference_second_eigenvalue(G)
        laguerre = [sigma for sigma, _, line, _ in log if line == log[0][2]]
        for sigma in laguerre:
            s1, s2 = slopes(plan, sigma, 2)
            t = 1 / (pole - sigma) if sigma != pole else math.inf
            # positive at every iterate but the last
            want = fails if sigma == laguerre[-1] else (False, False)
            assert (not s1 - t > 0, not s2 - t * t > 0) == want
        assert (sigma == pole) == (pole == 0.0)
        floor = sys.float_info.epsilon * 2 * max(G.degrees)
        assert log[len(laguerre)][0] == sigma + floor


def test_tree_eigenpair_agrees_with_lapack():
    # the pure-Python pair that eigen and relabel print, against the dense
    # one, on the 2,671 benchmark classes and reference trees. In units of
    # eps * 2 * (max degree), which bounds eps * ||M||, lambda and gap lie
    # within 3 and 3.9 units of LAPACK's (numpy 2.4.6), and f within 0.31
    # sqrt(r) units / gap, the docstring's O(sqrt(r) eps ||M|| / gap) bound
    # with constant 1. Of the 12-decimal prints, no lambda, 2 gaps and the
    # f tables of 30 trees differ; relabel orders every tree the same
    for G in _benchmark_classes() + _reference_trees():
        want, got = first_dirichlet_eigenpair(G), spectral._tree_eigenpair(G)
        unit = sys.float_info.epsilon * 2 * max(G.degrees)
        r = sum(d >= 2 for d in G.degrees)
        assert abs(got.lam - want.lam) <= 8 * unit
        assert got.gap == want.gap == math.inf or abs(got.gap - want.gap) <= 8 * unit
        assert got.degenerate == want.degenerate
        error = max(abs(a - b) for a, b in zip(got.f, want.f.tolist()))
        assert error <= math.sqrt(r) * unit / want.gap
        assert got.residual <= 1e-12
        assert relabel(G, got.f) == relabel(G, want.f)
