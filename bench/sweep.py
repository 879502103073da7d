"""Workload `sweep`: the acceptance suite's four exhaustive sweeps, jobs=1.

One op is one family certificate; a pass is the four sweep calls, 165
families and 2,553 scored classes. The sweep API returns a whole sweep's
certificates at once and times no family apart, so each family is given
the pass's wall time over its 165 families: the latency percentiles are
both the mean time per family. (Attributing per sweep call would put the
p50 on fk1_sweep(2,10), a 0.4 s call too noisy on a shared host to gate.)
The per-call wall times are recorded in the info line. The sweep is
exhaustive, so the seed does not change it.

Checks per family: the certificate passed; the winner's eigenvalue agrees
within 1e-9 relative with numpy.linalg.eigh of the benchmark's own Dirichlet
block; each sweep returns the family count of an independent partition
count; and the per-n class totals of fk1_sweep(2,10) equal the free-tree
counts of networkx.nonisomorphic_trees. A family failing any check fails.
"""

from dataclasses import dataclass, field

import supertrees as st

from common import Op, dense_lambda, networkx_counts, rel_err, self_peak_rss_mb
from hostspeed import Scaler

TOTALS_CHECKED = "fk1_sweep(2,10)"


def _partitions(total: int, parts: int, low: int) -> int:
    """Partitions of total into `parts` parts, each at least low."""
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(
        _partitions(total - first, parts - 1, first)
        for first in range(low, total // parts + 1)
    )


def family_count(k: int, n_max: int, d: int | None = None) -> int:
    """Families of fk1_sweep(k, n_max) (d None: one per degree sequence with
    an interior vertex) or of fk2_sweep(k, n_max, d) (one per nonempty
    (n, n0) with interior degrees at least d)."""
    count = 0
    for n in range(k, n_max + 1):
        if (n - 1) % (k - 1):
            continue
        m = (n - 1) // (k - 1)
        for n0 in range(1, n + 1):
            ways = _partitions(k * m - (n - n0), n0, max(2, d or 2))
            count += ways if d is None else min(ways, 1)
    return count


@dataclass
class State:
    # (label, library function, arguments, expected family count)
    sweeps: list[tuple[str, str, tuple, int]]
    # free trees per vertex count n, the class totals of TOTALS_CHECKED
    free_trees: dict[int, int]
    # wall seconds of each sweep call, one entry per pass
    call_s: dict[str, list[float]] = field(default_factory=dict)
    host: Scaler = field(default_factory=Scaler)


def setup(seed: int, work) -> State:
    free: dict[int, int] = {}
    for key, count in networkx_counts([(2, n) for n in range(3, 11)]).items():
        n = key.count(",") + 1
        free[n] = free.get(n, 0) + count
    return State(
        sweeps=[
            ("fk1_sweep(3,13)", "fk1_sweep", (3, 13), family_count(3, 13)),
            ("fk1_sweep(2,10)", "fk1_sweep", (2, 10), family_count(2, 10)),
            ("fk2_sweep(3,13,2)", "fk2_sweep", (3, 13, 2), family_count(3, 13, 2)),
            ("fk2_sweep(2,13,2)", "fk2_sweep", (2, 13, 2), family_count(2, 13, 2)),
        ],
        free_trees=free,
    )


def _family_errors(state: State, label: str, certs, expected: int) -> list:
    if len(certs) != expected:
        why = f"{label} gave {len(certs)} families, expected {expected}"
        return [why] * max(len(certs), expected)
    errors = []
    for cert in certs:
        G = cert.winner
        err = rel_err(cert.winner_lambda, dense_lambda(G.k, G.n, G.edges))
        if not cert.passed:
            errors.append(f"unique={cert.unique} slo_match={cert.slo_match}")
        elif err > 1e-9:
            errors.append(f"winner lambda relative error {err:.3g}")
        else:
            errors.append(None)
    if label == TOTALS_CHECKED:
        totals: dict[int, int] = {}
        for cert in certs:
            totals[cert.winner.n] = totals.get(cert.winner.n, 0) + len(cert.all_lambdas)
        for i, cert in enumerate(certs):
            n = cert.winner.n
            if errors[i] is None and totals[n] != state.free_trees.get(n):
                errors[i] = f"{totals[n]} classes at n={n}, networkx has {state.free_trees.get(n)}"
    return errors


def cycle(state: State, traced: bool = False) -> list[Op]:
    names, errors, total, scaled = [], [], 0.0, 0.0
    for label, fname, args, expected in state.sweeps:
        fn = getattr(st, fname)  # looked up per call so a traced run sees the wrapper
        certs, seconds, scaled_s = state.host.time(fn, *args, inside=not traced)
        scaled += scaled_s
        state.call_s.setdefault(label, []).append(seconds)
        total += seconds
        found = _family_errors(state, label, certs, expected)
        names += [f"{label}#{i}" for i in range(len(found))]
        errors += found
    return [
        Op(name, total / len(names), err, scaled_s=scaled / len(names))
        for name, err in zip(names, errors)
    ]


def peak_rss_mb(ops) -> float:
    return self_peak_rss_mb()
