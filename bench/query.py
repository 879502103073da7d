"""Workload `query`: cold command-line invocations, one process per op.

Each op runs `python -m supertrees.cli ...` in a fresh interpreter (the
console script cannot be relied on to be installed) and waits for it, so
at most one child is alive. A cycle is 104 seeded queries covering every
subcommand; it is the only workload that pays the cold import, the CLI
formatting, and the `slo` and `transforms` layers. The family queries are a
fixed catalogue (k=2 n<=15, k=3 n<=17) chosen so that a cycle costs about
the same on every seed; the seed draws every other input.

Every expectation is derived without the code under test: exit codes, key
fields, lambda within 1e-9 of the benchmark's own dense reference, orders
checked by the benchmark's own S1-S5 checker, rewired edge sets built by
the benchmark, class counts from networkx. An op fails on a wrong exit
code, a wrong field, or a `Traceback` on stderr.

Inputs the library is known to fail on are kept out of the timed mix and
run after it as `known_defects`, reported by name on every run: slo-find on
a shuffled k=2 path with 400 edges (RecursionError), and slo-check of a
reversed order at about 1,000 edges, which prints a witness per violating
pair (about half a million lines) where one per adjacent pair is linear.
"""

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from common import (
    Op,
    certainly_not_slo,
    child_env,
    degree_entries,
    degrees,
    dense_lambda,
    dirichlet_block,
    is_slo,
    is_tree,
    majorized_by,
    networkx_counts,
    path,
    random_interior,
    random_tree,
    relabel,
    sht_text,
    slo_tree,
    sorted_edges,
)
from hostspeed import COLD_EXPONENT, Scaler

CHILD = Path(__file__).with_name("cli_child.py")
TIMEOUT_S = 120.0
LAMBDA_TOL = 1e-9

# verify-fk1 families as (k, interior degrees), 0.02-1.0 s each
FK1 = (
    (2, (2, 2, 2, 2, 6)),
    (2, (2, 2, 2, 2, 3, 5)),
    (2, (2, 2, 2, 4, 6)),
    (2, (2, 2, 2, 2, 2, 2, 6)),
    (2, (2, 2, 2, 2, 2, 2, 3, 5)),
    (2, (2,) * 8 + (6,)),
    (2, (2,) * 9 + (5,)),
    (3, (2, 2, 2, 4)),
    (3, (2, 2, 2, 3, 3)),
    (3, (2, 2, 2, 2, 2, 3)),
)
# verify-fk2 families as (n, n0, k, d), 0.03-0.9 s each
FK2 = (
    (13, 5, 2, 2),
    (14, 4, 2, 2),
    (15, 3, 2, 2),
    (15, 6, 2, 3),
    (14, 5, 2, 3),
    (17, 5, 3, 2),
    (17, 4, 3, 2),
    (15, 4, 3, 2),
)


@dataclass
class Query:
    name: str
    argv: list[str]
    code: int  # expected exit code
    check: Callable[[str, str], str | None]  # (stdout, stderr) -> error


@dataclass
class State:
    work: Path
    queries: list[Query]
    probes: list[Query]
    host: Scaler = field(default_factory=lambda: Scaler(exponent=COLD_EXPONENT))


def _csv(values) -> str:
    return ",".join(map(str, values))


def _field(lines, key: str) -> str | None:
    for line in lines:
        if line.startswith(key + "="):
            return line[len(key) + 1 :]
    return None


def _close(text: str | None, ref: float) -> bool:
    try:
        return abs(float(text) - ref) <= LAMBDA_TOL
    except (TypeError, ValueError):
        return False


def _exactly(expected: str):
    def check(out, err):
        return None if out == expected else f"stdout {out[:80]!r}, expected {expected[:80]!r}"

    return check


def _rejected(out, err):
    """Bad input: a one-line error on stderr (the exit code is checked apart)."""
    return None if err.strip() else "no error message on stderr"


def _certificate(ref: float):
    def check(out, err):
        lines = out.splitlines()
        if not lines or "unique=true slo_match=true" not in lines[0]:
            return f"certificate line {lines[:1]}"
        if lines[1:2] != ["canonical_code,lambda,is_winner,is_slo"]:
            return "missing table header"
        winners = [row.split(",") for row in lines[2:] if row.split(",")[2:3] == ["true"]]
        if len(winners) != 1 or winners[0][3] != "true":
            return f"{len(winners)} winner rows"
        if not _close(winners[0][1], ref):
            return f"winner lambda {winners[0][1]}, reference {ref:.12f}"
        return None

    return check


class _Mix:
    """Builds queries with their expectations, writing input files."""

    def __init__(self, rng, work: Path, prefix: str):
        self.rng = rng
        self.work = work
        self.prefix = prefix
        self.queries: list[Query] = []

    def _file(self, text: str) -> str:
        target = self.work / f"{self.prefix}{len(self.queries):03d}.sht"
        target.write_text(text, encoding="utf-8")
        return str(target)

    def _tree(self, k: int, n0: int):
        n, edges = random_tree(self.rng, k, n0)
        edges, _ = relabel(self.rng, n, edges)
        return n, edges

    def _slo(self, k: int, n0: int, dmax: int):
        entries = degree_entries(k, random_interior(self.rng, n0, dmax))
        n, edges, order = slo_tree(k, entries)
        edges, order = relabel(self.rng, n, edges, order)
        return n, edges, order

    def add(self, name, argv, code, check) -> None:
        self.queries.append(Query(name, [str(a) for a in argv], code, check))

    def fk1(self, k: int, interior) -> None:
        entries = degree_entries(k, interior)
        n, edges, _ = slo_tree(k, entries)
        self.add(
            f"verify-fk1 k={k} n={n}",
            ["verify-fk1", "--k", k, "--pi", _csv(entries)],
            0,
            _certificate(dense_lambda(k, n, edges)),
        )

    def fk2(self, n: int, n0: int, k: int, d: int) -> None:
        m = (n - 1) // (k - 1)
        dm = max(2, d)
        flattest = [dm] * (n0 - 1) + [(k * m - (n - n0)) - (n0 - 1) * dm]
        entries = degree_entries(k, flattest)
        assert len(entries) == n
        size, edges, _ = slo_tree(k, entries)
        self.add(
            f"verify-fk2 n={n} n0={n0} k={k} d={d}",
            ["verify-fk2", "--n", n, "--n0", n0, "--k", k, "--d", d],
            0,
            _certificate(dense_lambda(k, size, edges)),
        )

    def enumerate_spec(self, k: int, n_lo: int, n_hi: int) -> tuple[int, list[int]]:
        while True:
            entries = degree_entries(
                k, random_interior(self.rng, self.rng.randint(2, 6), 5)
            )
            if n_lo <= len(entries) <= n_hi:
                return k, entries

    def enumerate(self, k: int, entries, counts) -> None:
        expected = counts.get(f"{k}:{_csv(entries)}", 0)

        def check(out, err):
            lines = out.splitlines()
            rows = lines[2:]
            if lines[:2] != [f"count={expected}", "canonical_code"]:
                return f"header {lines[:2]}, expected count={expected}"
            if len(rows) != expected or len(set(rows)) != expected:
                return f"{len(rows)} codes listed, {len(set(rows))} distinct"
            return None

        self.add(
            f"enumerate k={k} n={len(entries)}",
            ["enumerate", "--k", k, "--pi", _csv(entries)],
            0,
            check,
        )

    def eigen(self, k: int, n0: int) -> None:
        n, edges = self._tree(k, n0)
        ref = dense_lambda(k, n, edges)
        interior = [d >= 2 for d in degrees(n, edges)]

        def check(out, err):
            lines = out.splitlines()
            if not _close(_field(lines, "lambda"), ref):
                return f"lambda {_field(lines, 'lambda')}, reference {ref:.12f}"
            if lines[3:4] != ["vertex_id,is_interior,f_value"] or len(lines) != 4 + n:
                return "vertex table shape"
            for row in lines[4:]:
                v, inner, f = row.split(",")
                value = float(f)
                if (inner == "true") != interior[int(v)]:
                    return f"vertex {v} interior flag {inner}"
                if (value <= 0.0) if interior[int(v)] else (value != 0.0):
                    return f"f({v}) = {f}"
            return None

        self.add(f"eigen k={k} n0={n0}", ["eigen", self._file(sht_text(k, n, edges))], 0, check)

    def relabel(self, k: int, n0: int) -> None:
        n, edges = self._tree(k, n0)
        block, _ = dirichlet_block(k, n, edges)
        x = np.abs(np.linalg.eigh(block)[1][:, 0])
        ref = np.sort(np.concatenate([x / np.linalg.norm(x), np.zeros(n - len(x))]))

        def check(out, err):
            lines = out.splitlines()
            if lines[:1] != ["vertex_id,s,i,p,f_value"] or len(lines) != 1 + n:
                return "label table shape"
            rows = [row.split(",") for row in lines[1:]]
            if sorted(int(r[0]) for r in rows) != list(range(n)):
                return "vertex ids are not 0..n-1"
            values = np.array([float(r[4]) for r in rows])
            if np.max(np.abs(np.sort(values) - ref)) > 1e-8:
                return "f values differ from the reference eigenvector"
            roots = [r for r in rows if r[1:4] == ["0", "1", "1"]]
            if len(roots) != 1 or float(roots[0][4]) < values.max() - 1e-12:
                return "label (0,1,1) is not the unique maximum of f"
            return None

        self.add(f"relabel k={k} n0={n0}", ["relabel", self._file(sht_text(k, n, edges))], 0, check)

    def slo_find(self, k: int, n0: int, dmax: int = 4) -> None:
        n, edges, _ = self._slo(k, n0, dmax)
        self.add(
            f"slo-find k={k} m={len(edges)}",
            ["slo-find", self._file(sht_text(k, n, edges))],
            0,
            self._order_check(k, n, edges),
        )

    @staticmethod
    def _order_check(k, n, edges):
        def check(out, err):
            line = out.strip()
            if not line.startswith("order "):
                return f"stdout {line[:40]!r}"
            if not is_slo(k, n, edges, [int(v) for v in line.split()[1:]]):
                return "printed order is not spiral-like"
            return None

        return check

    def slo_find_none(self, k: int, n0: int) -> None:
        while True:
            n, edges = self._tree(k, n0)
            if certainly_not_slo(n, edges):
                break
        self.add(
            f"slo-find-none k={k} m={len(edges)}",
            ["slo-find", self._file(sht_text(k, n, edges))],
            1,
            _exactly("none\n"),
        )

    def slo_check(self, k: int, n0: int, dmax: int = 4) -> None:
        n, edges, order = self._slo(k, n0, dmax)
        self.add(
            f"slo-check k={k} m={len(edges)}",
            ["slo-check", self._file(sht_text(k, n, edges)), "--order", _csv(order)],
            0,
            _exactly("ok\n"),
        )

    def slo_check_violated(self, k: int, n0: int, dmax: int = 4, reverse: bool = False) -> None:
        n, edges, order = self._slo(k, n0, dmax)
        if reverse:
            order = order[::-1]
        else:
            # swap the last interior vertex with the first boundary vertex
            deg = degrees(n, edges)
            j = next(i for i, v in enumerate(order) if deg[v] == 1)
            order[j - 1], order[j] = order[j], order[j - 1]
        limit = 4 * n + len(edges)

        def check(out, err):
            lines = out.splitlines()
            rules = {line[len("violation rule=") :][:2] for line in lines}
            if not lines or not all(line.startswith("violation rule=S") for line in lines):
                return "expected only violation lines"
            if not rules <= {"S1", "S2", "S3", "S4", "S5"}:
                return f"rules {sorted(rules)}"
            if len(lines) > limit:
                return f"{len(lines)} witness lines, more than linear ({limit})"
            return None

        self.add(
            f"slo-check-{'reversed' if reverse else 'swapped'} k={k} m={len(edges)}",
            ["slo-check", self._file(sht_text(k, n, edges)), "--order", _csv(order)],
            1,
            check,
        )

    def validate(self, k: int, n0: int) -> None:
        n, edges = self._tree(k, n0)
        self.add(
            f"validate k={k} m={len(edges)}",
            ["validate", self._file(sht_text(k, n, edges))],
            0,
            _exactly(f"ok k={k} n={n} m={len(edges)}\n"),
        )

    def validate_cycle(self, n0: int) -> None:
        n, edges = self._tree(2, n0)
        deg = degrees(n, edges)
        b = self.rng.choice([v for v in range(n) if deg[v] >= 2])
        a, c = self.rng.sample([w for e in edges if b in e for w in e if w != b], 2)
        edges.append((a, c))  # closes the triangle a-b-c
        self.add(f"validate-cycle m={len(edges)}", ["validate", self._file(sht_text(2, n, edges))], 2, _rejected)

    def validate_directive(self, k: int, n0: int) -> None:
        n, edges = self._tree(k, n0)
        text = sht_text(k, n, edges).replace("\ne ", "\nx ", 1)
        self.add(f"validate-directive k={k}", ["validate", self._file(text)], 2, _rejected)

    def slo_construct(self, k: int, n0: int, dmax: int = 5) -> None:
        entries = degree_entries(k, random_interior(self.rng, n0, dmax))

        def check(out, err):
            lines = out.splitlines()
            try:
                kk = int(lines[0].split()[1])
                n = int(lines[1].split()[1])
                edges = [tuple(map(int, line.split()[1:])) for line in lines if line.startswith("e ")]
                order = [int(v) for v in lines[-1].split()[1:]]
            except (IndexError, ValueError):
                return "unparseable output"
            if kk != k or n != len(entries) or not is_tree(k, n, edges):
                return "output is not a supertree of the right size"
            if sorted(degrees(n, edges)) != sorted(entries):
                return "degree sequence differs"
            if not lines[-1].startswith("order ") or not is_slo(k, n, edges, order):
                return "printed order is not spiral-like"
            return None

        self.add(
            f"slo-construct k={k} n0={n0}",
            ["slo-construct", "--k", k, "--pi", _csv(entries)],
            0,
            check,
        )

    def _majorized_pair(self, k: int, n0: int):
        while True:
            flat = random_interior(self.rng, n0, 5)
            p, q = sorted(self.rng.sample(range(n0), 2))
            if flat[p] < 3:
                continue
            spread = list(flat)
            spread[p] -= 1
            spread[q] += 1
            hi, lo = degree_entries(k, flat), degree_entries(k, sorted(spread))
            lam_hi = dense_lambda(k, *slo_tree(k, hi)[:2])
            lam_lo = dense_lambda(k, *slo_tree(k, lo)[:2])
            if abs(lam_hi - lam_lo) > 1e-6 and majorized_by(lo, hi):
                return hi, lo, lam_hi, lam_lo

    def majorize(self, k: int, n0: int) -> None:
        hi, lo, lam_hi, lam_lo = self._majorized_pair(k, n0)
        decreased = lam_lo < lam_hi

        def check(out, err):
            lines = out.splitlines()
            if lines[:1] != ["majorized=true"]:
                return f"first line {lines[:1]}"
            if not _close(_field(lines, "lambda_pi"), lam_hi):
                return f"lambda_pi {_field(lines, 'lambda_pi')}, reference {lam_hi:.12f}"
            if not _close(_field(lines, "lambda_pi_prime"), lam_lo):
                return f"lambda_pi_prime {_field(lines, 'lambda_pi_prime')}, reference {lam_lo:.12f}"
            if _field(lines, "strict_decrease") != ("true" if decreased else "false"):
                return f"strict_decrease={_field(lines, 'strict_decrease')}"
            return None

        self.add(
            f"majorize k={k} n0={n0}",
            ["majorize", "--k", k, "--pi", _csv(hi), "--pi-prime", _csv(lo)],
            0 if decreased else 1,
            check,
        )

    def majorize_not(self, k: int, n0: int) -> None:
        hi, lo, _, _ = self._majorized_pair(k, n0)
        self.add(
            f"majorize-not k={k} n0={n0}",
            ["majorize", "--k", k, "--pi", _csv(lo), "--pi-prime", _csv(hi)],
            2,
            _exactly("majorized=false\n"),
        )

    def switch(self, k: int, n0: int, valid: bool = True) -> None:
        n, edges = self._tree(k, n0)
        edges = sorted_edges(edges)
        deg = degrees(n, edges)
        c = self.rng.choice([v for v in range(n) if deg[v] >= 2])
        i1, i2 = self.rng.sample([i for i, e in enumerate(edges) if c in e], 2)
        size = self.rng.randint(1, k - 2)
        u1 = self.rng.sample([v for v in edges[i1] if v != c], size)
        v1 = self.rng.sample([v for v in edges[i2] if v != c], size)
        argv = ["switch", self._file(sht_text(k, n, edges)), "--e1", i1, "--e2", i2]
        if not valid:
            self.add(f"switch-invalid k={k}", argv + ["--u1", _csv(v1), "--v1", _csv(v1)], 2, _rejected)
            return
        rewired = [e for i, e in enumerate(edges) if i not in (i1, i2)]
        rewired.append(tuple((set(edges[i1]) - set(u1)) | set(v1)))
        rewired.append(tuple((set(edges[i2]) - set(v1)) | set(u1)))
        self.add(
            f"switch k={k} m={len(edges)}",
            argv + ["--u1", _csv(u1), "--v1", _csv(v1)],
            0,
            _exactly(sht_text(k, n, rewired)),
        )

    def shift(self, k: int, n0: int, valid: bool = True) -> None:
        while True:
            n, edges = self._tree(k, n0)
            edges = sorted_edges(edges)
            deg = degrees(n, edges)
            hubs = [v for v in range(n) if deg[v] >= 3]
            if hubs:
                break
        u = self.rng.choice(hubs)
        through = [i for i, e in enumerate(edges) if u in e]
        anchor = self.rng.choice(through)
        v = self.rng.choice([w for w in edges[anchor] if w != u])
        others = [i for i in through if i != anchor]
        bundle = sorted(self.rng.sample(others, self.rng.randint(1, len(others))))
        argv = ["shift", self._file(sht_text(k, n, edges)), "--u", u, "--edges", _csv(bundle)]
        if not valid:
            self.add(f"shift-invalid k={k}", argv + ["--v", u], 2, _rejected)
            return
        moved = [
            tuple(v if w == u else w for w in e) if i in bundle else e
            for i, e in enumerate(edges)
        ]
        self.add(
            f"shift k={k} m={len(edges)}",
            argv + ["--v", v],
            0,
            _exactly(sht_text(k, n, moved)),
        )

    def unit(self, k: int, n0: int, valid: bool = True) -> None:
        while True:
            interior = random_interior(self.rng, n0, 6)
            spots = [p for p in range(n0 - 1) if interior[p] >= 3]
            if spots and interior[0] == 2:
                break
        entries = degree_entries(k, interior)
        argv = ["unit", "--k", k, "--pi", _csv(entries)]
        if not valid:
            self.add(f"unit-invalid k={k}", argv + ["--p", 0], 2, _rejected)
            return
        p = self.rng.choice(spots)
        moved = list(interior)
        moved[p] -= 1
        moved[p + 1] += 1
        self.add(
            f"unit k={k} n0={n0}",
            argv + ["--p", p],
            0,
            _exactly(f"pi={_csv(degree_entries(k, sorted(moved)))}\n"),
        )


def _grid(count: int, ks, lo: int, hi: int) -> list[tuple[int, int]]:
    """(k, size) pairs with sizes spread evenly over [lo, hi] and k taken in
    turn, so the seed draws shapes and labels but not the amount of work."""
    return [(ks[i % len(ks)], lo + (hi - lo) * i // max(count - 1, 1)) for i in range(count)]


def setup(seed: int, work: Path) -> State:
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    mix = _Mix(rng, work, "mix")
    for k, interior in FK1:
        mix.fk1(k, interior)
    for spec in FK2:
        mix.fk2(*spec)
    specs = [mix.enumerate_spec(2, 8, 12) for _ in range(6)]
    specs += [mix.enumerate_spec(3, 7, 9) for _ in range(2)]
    counts = networkx_counts([(k, len(entries)) for k, entries in specs])
    for k, entries in specs:
        mix.enumerate(k, entries, counts)
    for k, n0 in _grid(10, (2, 3, 4), 20, 45):
        mix.eigen(k, n0)
    for k, n0 in _grid(8, (2, 3, 4), 20, 40):
        mix.relabel(k, n0)
    for k, n0 in _grid(6, (2, 3, 4), 15, 80):
        mix.slo_find(k, n0)
    for k, n0 in _grid(2, (2, 3, 4), 20, 100):
        mix.slo_find_none(k, n0)
    for k, n0 in _grid(4, (2, 3, 4), 15, 80):
        mix.slo_check(k, n0)
    for k, n0 in _grid(2, (2, 3), 666, 666):
        mix.slo_check(k, n0, dmax=3)  # about 1,000 edges
    for k, n0 in _grid(2, (2, 3, 4), 10, 30):
        mix.slo_check_violated(k, n0)
    for k, n0 in _grid(8, (2, 3, 4), 50, 450):
        mix.validate(k, n0)
    mix.validate_cycle(40)
    mix.validate_directive(3, 40)
    for k, n0 in _grid(6, (2, 3, 4), 5, 60):
        mix.slo_construct(k, n0)
    for k, n0 in _grid(7, (2, 3), 4, 12):
        mix.majorize(k, n0)
    mix.majorize_not(3, 8)
    for i, (k, n0) in enumerate(_grid(7, (3, 4), 10, 80)):
        mix.switch(k, n0, valid=i < 6)
    for i, (k, n0) in enumerate(_grid(7, (2, 3, 4), 10, 80)):
        mix.shift(k, n0, valid=i < 6)
    for i, (k, n0) in enumerate(_grid(6, (2, 3), 3, 20)):
        mix.unit(k, n0, valid=i < 5)
    queries = mix.queries
    rng.shuffle(queries)

    defects = _Mix(rng, work, "defect")
    n, edges = path(400)
    edges, _ = relabel(rng, n, edges)
    defects.add(
        "slo-find path k=2 m=400",
        ["slo-find", defects._file(sht_text(2, n, edges))],
        0,
        defects._order_check(2, n, edges),
    )
    defects.slo_check_violated(2, 666, dmax=3, reverse=True)
    return State(work, queries, defects.queries)


def spawn(argv, env, out_path, err_path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall seconds, peak
    RSS in MB). A child still running after TIMEOUT_S is killed."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def run_query(state: State, q: Query, traced: bool = False) -> Op:
    env = child_env()
    out_path, err_path = state.work / "stdout", state.work / "stderr"
    trace_path = state.work / "trace.json"
    if traced:
        argv = [sys.executable, str(CHILD), *q.argv]
        env["SUPERTREES_BENCH_TRACE"] = str(trace_path)
        env["SUPERTREES_BENCH_SPAWN"] = repr(time.perf_counter())
    else:
        argv = [sys.executable, "-m", "supertrees.cli", *q.argv]
    if traced:  # unscaled, so that no sample falls inside the child's import_s
        code, seconds, rss = spawn(argv, env, out_path, err_path)
        scaled = seconds
    else:
        (code, _, rss), seconds, scaled = state.host.time(spawn, argv, env, out_path, err_path)
    out = out_path.read_text(encoding="utf-8", errors="replace")
    err = err_path.read_text(encoding="utf-8", errors="replace")
    if "Traceback" in err:
        error = "traceback: " + err.strip().splitlines()[-1]
    elif code != q.code:
        error = f"exit {code}, expected {q.code}"
    else:
        error = q.check(out, err)
    trace = None
    if traced:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace["process_s"] = seconds
        trace["stdout_bytes"] = out_path.stat().st_size
    return Op(q.name, seconds, error, trace, rss, scaled)


def cycle(state: State, traced: bool = False) -> list[Op]:
    return [run_query(state, q, traced) for q in state.queries]


def known_defects(state: State) -> list[Op]:
    return [run_query(state, q) for q in state.probes]


def peak_rss_mb(ops) -> float:
    """The largest child's peak RSS."""
    return max(op.rss_mb for op in ops)
