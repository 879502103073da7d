"""Shared pieces of the benchmark.

Everything here is independent of the code under test: seeded input
generators, reference eigenvalues from the benchmark's own assembly of the
Dirichlet block, the paper's greedy SLO construction, a linear spiral-like
ordering checker, and summary statistics. Inputs are plain edge lists over
vertex ids 0..n-1.
"""

import json
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"


@dataclass
class Op:
    """One timed operation: its name, wall seconds, and why it failed (None
    when every check passed). `trace` holds a child's spans in a traced
    query, `rss_mb` the peak RSS of the child process that ran the op, and
    `scaled_s` the wall seconds at reference host speed (see hostspeed.py)."""

    name: str
    seconds: float
    error: str | None = None
    trace: dict | None = None
    rss_mb: float = 0.0
    scaled_s: float = 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ comes first."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# --- references -------------------------------------------------------------


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return deg


def dirichlet_block(k: int, n: int, edges) -> tuple[np.ndarray, list[int]]:
    """Interior block of the Laplacian: degree on the diagonal, -1/(k-1)
    between interior vertices sharing an edge."""
    deg = degrees(n, edges)
    interior = [v for v in range(n) if deg[v] >= 2]
    index = {v: i for i, v in enumerate(interior)}
    block = np.zeros((len(interior), len(interior)))
    for v, i in index.items():
        block[i, i] = deg[v]
    w = -1.0 / (k - 1)
    for e in edges:
        inner = [index[v] for v in e if v in index]
        for a in inner:
            for b in inner:
                if a != b:
                    block[a, b] = w
    return block, interior


def dense_lambda(k: int, n: int, edges) -> float:
    block, _ = dirichlet_block(k, n, edges)
    return float(np.linalg.eigvalsh(block)[0])


def path_lambda(m: int) -> float:
    """First Dirichlet eigenvalue of the k=2 path with m edges."""
    return 2.0 - 2.0 * math.cos(math.pi / m)


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


# --- generators -------------------------------------------------------------


def random_tree(rng, k: int, n0: int) -> tuple[int, list[tuple[int, ...]]]:
    """Random recursive supertree grown until it has exactly n0 interior
    vertices: each new edge hangs k-1 fresh vertices off a uniformly chosen
    existing vertex."""
    edges = [tuple(range(k))]
    n = k
    deg = [1] * k
    interior = 0
    while interior < n0:
        v = rng.randrange(n)
        edges.append((v,) + tuple(range(n, n + k - 1)))
        if deg[v] == 1:
            interior += 1
        deg[v] += 1
        deg.extend([1] * (k - 1))
        n += k - 1
    return n, edges


def path(m: int) -> tuple[int, list[tuple[int, ...]]]:
    return m + 1, [(i, i + 1) for i in range(m)]


def broom(k: int, handle: int, bristles: int) -> tuple[int, list[tuple[int, ...]]]:
    """A loose path of `handle` edges with `bristles` pendant edges on its
    far end; the interior is the handle's joints plus the far end."""
    edges = []
    n, tip = 1, 0
    for _ in range(handle):
        edges.append((tip,) + tuple(range(n, n + k - 1)))
        tip = n + k - 2
        n += k - 1
    for _ in range(bristles):
        edges.append((tip,) + tuple(range(n, n + k - 1)))
        n += k - 1
    return n, edges


def random_interior(rng, n0: int, dmax: int) -> list[int]:
    """n0 interior degrees in [2, dmax], ascending. Any such list is the
    interior of a feasible degree sequence with m = sum - n0 + 1 edges."""
    return sorted(rng.randint(2, dmax) for _ in range(n0))


def degree_entries(k: int, interior) -> list[int]:
    m = sum(interior) - len(interior) + 1
    n = 1 + m * (k - 1)
    return sorted(interior) + [1] * (n - len(interior))


def slo_tree(k: int, entries) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """The paper's greedy SLO-supertree: the t-th created vertex takes the
    t-th entry and spawns that many edges (one fewer off the root), each
    with k-1 fresh ids. Creation order is a spiral-like ordering."""
    edges = []
    created = 1
    for t, d in enumerate(entries):
        for _ in range(d - (1 if t else 0)):
            edges.append((t,) + tuple(range(created, created + k - 1)))
            created += k - 1
    return created, edges, list(range(created))


def relabel(rng, n: int, edges, order=None):
    """Shuffle vertex ids; returns the mapped edges and ordering."""
    perm = list(range(n))
    rng.shuffle(perm)
    mapped = [tuple(perm[v] for v in e) for e in edges]
    return mapped, (None if order is None else [perm[v] for v in order])


def sht_text(k: int, n: int, edges) -> str:
    """Canonical .sht text: sorted ids inside edges, edges sorted."""
    lines = [f"k {k}", f"n {n}"]
    lines += ["e " + " ".join(map(str, e)) for e in sorted(tuple(sorted(e)) for e in edges)]
    return "\n".join(lines) + "\n"


def sorted_edges(edges) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(e)) for e in edges)


# --- independent checks -----------------------------------------------------


def _depths(n: int, edges, root: int) -> list[int]:
    at = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for v in e:
            at[v].append(ei)
    depth = [-1] * n
    depth[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for ei in at[u]:
                for w in edges[ei]:
                    if depth[w] < 0:
                        depth[w] = depth[u] + 1
                        nxt.append(w)
        frontier = nxt
    return depth


def is_tree(k: int, n: int, edges) -> bool:
    """k-uniform, connected and acyclic on ids 0..n-1."""
    if any(len(set(e)) != k or min(e) < 0 or max(e) >= n for e in edges):
        return False
    if len(edges) * (k - 1) != n - 1:
        return False
    return min(_depths(n, edges, 0)) >= 0


def is_slo(k: int, n: int, edges, order) -> bool:
    """Rules S1-S5 checked on adjacent positions, which decides them: S1,
    S3 and S5 are monotonicity rules, S2 says parent positions never drop
    along the children, S4 that each edge's lower k-1 vertices sit in
    consecutive positions."""
    if sorted(order) != list(range(n)):
        return False
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    deg = degrees(n, edges)
    depth = _depths(n, edges, order[0])
    parent = [-1] * n
    for e in edges:
        top = min(e, key=depth.__getitem__)
        lower = [pos[v] for v in e if v != top]
        if max(lower) - min(lower) != k - 2:
            return False
        for v in e:
            if v != top:
                parent[v] = top
    seq = list(order)
    inner = [v for v in seq if deg[v] >= 2]
    if any(depth[a] > depth[b] for a, b in zip(seq, seq[1:])):
        return False
    if any(deg[a] == 1 and deg[b] >= 2 for a, b in zip(seq, seq[1:])):
        return False
    if any(deg[a] > deg[b] for a, b in zip(inner, inner[1:])):
        return False
    parents = [pos[parent[v]] for v in seq[1:]]
    return all(a <= b for a, b in zip(parents, parents[1:]))


def certainly_not_slo(n: int, edges) -> bool:
    """A necessary condition for an SLO fails from every admissible root.

    S5 puts a minimum-degree interior vertex first; S1 with S3 then needs
    every interior vertex no deeper than every boundary vertex.
    """
    deg = degrees(n, edges)
    interior = [v for v in range(n) if deg[v] >= 2]
    dmin = min(deg[v] for v in interior)
    for root in (v for v in interior if deg[v] == dmin):
        depth = _depths(n, edges, root)
        deepest = max(depth[v] for v in interior)
        shallowest = min(depth[v] for v in range(n) if deg[v] == 1)
        if deepest <= shallowest:
            return False
    return True


def majorized_by(low, high) -> bool:
    """Whether degree sequence `low` is majorized by `high`: equal totals and
    every proper prefix sum of `low` at most that of `high` (both in the
    canonical ascending-interior arrangement)."""
    if len(low) != len(high) or sum(low) != sum(high):
        return False
    a = b = 0
    for x, y in zip(low[:-1], high[:-1]):
        a += x
        b += y
        if a > b:
            return False
    return True


# --- statistics and environment ---------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def networkx_counts(requests) -> dict:
    """Free-tree oracle: for each (k, n) in `requests`, the number of
    supertree classes per degree sequence, from networkx.nonisomorphic_trees
    on n + m nodes (bipartite trees whose edge side has all degrees k; for
    k=2 the ordinary trees on n nodes). Runs in a child interpreter so the
    parent's peak RSS does not carry networkx. Keys are "k:d1,d2,...".
    """
    code = r"""
import json, sys
from collections import Counter
import networkx as nx
out = Counter()
for k, n in json.loads(sys.argv[1]):
    m = (n - 1) // (k - 1)
    nodes = n if k == 2 else n + m
    for T in nx.nonisomorphic_trees(nodes):
        if k == 2:
            degs = [d for _, d in T.degree()]
        else:
            a, b = nx.bipartite.sets(T)
            side = [s for s in (a, b) if len(s) == m and all(T.degree(x) == k for x in s)]
            if not side:
                continue
            degs = [T.degree(x) for x in T if x not in side[0]]
        out[f"{k}:" + ",".join(map(str, sorted(degs, key=lambda d: (d == 1, d))))] += 1
print(json.dumps(out))
"""
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(sorted(set(requests)))],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def steal_s() -> float:
    """CPU time the hypervisor has taken from the host so far, summed
    over CPUs (the steal column of /proc/stat); 0 where unavailable."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def src_loc() -> int:
    """Lines under src/supertrees/, counted as `wc -l` counts them."""
    return sum(
        p.read_bytes().count(b"\n")
        for p in sorted((SRC / "supertrees").rglob("*.py"))
        if "__pycache__" not in p.parts
    )


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "src_loc": src_loc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }
