"""The benchmark's own tests: planted wrong answers must raise ops_failed,
the independent references must agree with the paper's counts, and the
traced run must account for its wall time.

    python3 -m pytest bench -q
"""

import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from common import ROOT, SRC, is_slo, slo_tree, degree_entries, random_interior, relabel

sys.path.insert(0, str(SRC))

import eigen  # noqa: E402
import query  # noqa: E402
import run  # noqa: E402
import supertrees as st  # noqa: E402
import sweep  # noqa: E402


def _failed(ops) -> int:
    return sum(op.error is not None for op in ops)


def test_sweep_references_match_the_paper_counts():
    assert [sweep.family_count(3, 13), sweep.family_count(2, 10)] == [18, 66]
    assert [sweep.family_count(3, 13, 2), sweep.family_count(2, 13, 2)] == [15, 66]
    state = sweep.setup(1, None)
    assert [state.free_trees[n] for n in range(3, 11)] == [1, 2, 3, 6, 11, 23, 47, 106]


def test_sweep_fails_on_a_wrong_class_total():
    state = sweep.setup(1, None)
    state.sweeps = [s for s in state.sweeps if s[0] == "fk1_sweep(2,10)"]
    assert _failed(sweep.cycle(state)) == 0
    state.free_trees[10] += 1
    ops = sweep.cycle(state)
    n10 = sum(1 for cert in st.fk1_sweep(2, 10) if cert.winner.n == 10)
    assert _failed(ops) == n10 > 0


def test_eigen_fails_on_a_perturbed_reference():
    state = eigen.setup(3, None)
    state.cases = sorted(state.cases, key=lambda c: len(c.interior))[:5]
    assert _failed(eigen.cycle(state)) == 0
    state.cases[0].lam *= 1 + 1e-6
    assert _failed(eigen.cycle(state)) == 1


def test_query_fails_on_a_flipped_exit_code(tmp_path):
    state = query.setup(5, tmp_path)
    seen, sample = set(), []
    for q in state.queries:
        if q.argv[0] not in seen:
            seen.add(q.argv[0])
            sample.append(q)
    assert len(seen) == 13  # every subcommand is in the mix
    state.queries = sample
    assert _failed(query.cycle(state)) == 0
    state.queries[0].code = 1 - min(state.queries[0].code, 1)
    assert _failed(query.cycle(state)) == 1


def test_known_defects_stay_out_of_the_timed_mix(tmp_path):
    state = query.setup(5, tmp_path)
    probes = {q.name for q in state.probes}
    assert probes == {"slo-find path k=2 m=400", state.probes[1].name}
    assert not probes & {q.name for q in state.queries}


def test_trace_accounts_for_the_wall_time(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    state = sweep.setup(1, None)
    state.sweeps = state.sweeps[:2]
    _, first, detail = run._per_layer(sweep, state, 1)
    _, second, _ = run._per_layer(sweep, state, 1)
    counts = {k: v for k, v in first.items() if k.endswith((".calls", "classes_scored"))}
    assert counts == {k: second[k] for k in counts}
    assert counts["core.canonical_code.calls"] > 0
    assert abs(detail["layer_sum_plus_outside_s"] - first["trace.wall_s"]) < 1e-6
    assert first["trace.overhead_s"] == first["trace.wall_s"] - first["trace.untraced_wall_s"]
    spans = (tmp_path / "trace-sweep-seed1.jsonl").read_text().splitlines()
    assert len(spans) == sum(calls for calls, _ in detail["functions"].values())


def test_trace_wraps_every_binding():
    from spans import Tracer

    original = st.core.canonical_code
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = st.enumeration.canonical_code
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert st.core.canonical_code is wrapped and st.canonical_code is wrapped
    finally:
        tracer.uninstall()
    assert st.enumeration.canonical_code is original


def test_own_slo_checker_agrees_with_the_library():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.choice((2, 3, 4))
        n, edges, order = slo_tree(k, degree_entries(k, random_interior(rng, rng.randint(2, 12), 4)))
        edges, order = relabel(rng, n, edges, order)
        G = st.build_supertree(k, n, edges)
        for candidate in (order, order[:1] + rng.sample(order[1:], n - 1)):
            assert is_slo(k, n, edges, candidate) == (not st.check_slo(G, candidate))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eigen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        assert not line.startswith("{")


def test_host_scaling_leaves_out_its_samples():
    from hostspeed import REFERENCE_S, Scaler

    handler = signal.getsignal(signal.SIGALRM)
    steady = Scaler(sampler=lambda: REFERENCE_S)  # a host at reference speed
    _, raw, scaled = steady.time(time.sleep, 0.35)
    assert len(steady.samples) >= 4  # before, at least two inside, after
    assert raw == pytest.approx(0.35, abs=0.02) and scaled == pytest.approx(raw)
    halved = Scaler(sampler=lambda: 2 * REFERENCE_S)  # a host at half speed
    _, raw, scaled = halved.time(time.sleep, 0.2, inside=False)
    assert len(halved.samples) == 2 and scaled == pytest.approx(raw / 2)
    cold = Scaler(sampler=lambda: 2 * REFERENCE_S, exponent=0.5)
    _, raw, scaled = cold.time(time.sleep, 0.2)
    assert scaled == pytest.approx(raw / 2**0.5)
    assert signal.getsignal(signal.SIGALRM) is handler
