"""Benchmark of the supertrees library and command line.

    python3 bench/run.py --workload {sweep,eigen,query} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace {0,1}] [--out FILE]

Run from the root of a checkout; the library is imported from its src/.
Workloads (see each module's docstring for why it exists):

  sweep  the acceptance suite's four exhaustive sweeps; op = one family
  eigen  first_dirichlet_eigenpair on single supertrees; op = one call
  query  cold `python -m supertrees.cli` processes; op = one process

All are closed loops with one client. A run repeats whole cycles of its
workload until about --seconds have passed, then prints every end-to-end
metric with its unit: ops_per_s (the median over cycles), latency_p50_s,
latency_p90_s (over the inputs of a cycle, each taking the median of its
timings in the run), peak_rss_mb and setup_s (the median of three set-ups,
two of them in fresh interpreters, since set-up includes the cold import).
The run holds itself and its children on one CPU, and times are scaled
to a reference host speed by calibration samples taken around and inside
every op and set-up (see hostspeed.py); the info line holds the same
metrics unscaled. Every op's output is
checked; `ops_failed` counts the ops that raised, exited wrongly, or gave a
wrong answer. The last line is one JSON object with the keys correct,
attempted, failed and metrics.

With --trace 1 the run times one untraced cycle, then the same cycle with
spans around every public function of core, enumeration, spectral, slo,
transforms and cli (see spans.py), and prints the per-layer metrics
instead: calls and self time per function and layer, the time outside any
wrapped call, and the tracing overhead as traced minus untraced wall time.
Spans are written to bench/.work/trace-<workload>-seed<N>.jsonl.

--all runs each workload in its own process and writes the results to
--out (default bench/.work/results.json).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

from hostspeed import Scaler, one_cpu  # imports nothing that counts as set-up

if __name__ == "__main__":
    one_cpu()
    SETUP = Scaler()
    SETUP.start()  # set-up time counts numpy's import and the library's

from common import SRC, WORK, environment, percentile, steal_s  # noqa: E402
from spans import Tracer, layer_metrics, write_spans  # noqa: E402

WORKLOADS = ("sweep", "eigen", "query")
SETUP_SAMPLES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--out", type=Path, default=WORK / "results.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("pass --workload or --all")
    return args


def _setup_in_child(args) -> tuple[float, float]:
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["setup_s"], sample["scaled_s"]


def _timed(module, state, seconds: float) -> list[list]:
    """Whole cycles until the next one would end more than half a cycle
    after `seconds`; at least one."""
    cycles = []
    start = time.perf_counter()
    while True:
        cycles.append(module.cycle(state))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(cycles) / 2 > seconds:
            return cycles


def _end_to_end(module, cycles, setup_samples, seconds=lambda op: op.scaled_s) -> dict:
    """Throughput is the median over the run's cycles of a cycle's ops over
    its timed seconds. Latency percentiles run over the inputs of a cycle,
    each input's latency being the median of its timings in the run. Times
    are `seconds(op)`: by default those at reference host speed."""
    rates = [len(cycle) / sum(seconds(op) for op in cycle) for cycle in cycles]
    latencies = [statistics.median(seconds(op) for op in repeats) for repeats in zip(*cycles)]
    return {
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "latency_p50_s": (percentile(latencies, 0.5), "s"),
        "latency_p90_s": (percentile(latencies, 0.9), "s"),
        "peak_rss_mb": (module.peak_rss_mb([op for cycle in cycles for op in cycle]), "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def _per_layer(module, state, seed: int) -> tuple[list, dict, dict]:
    plain = module.cycle(state)
    tracer = Tracer()
    tracer.install()
    try:
        ops = module.cycle(state, traced=True)
    finally:
        tracer.uninstall()
    records = [tracer.record()] + [op.trace for op in ops if op.trace]
    write_spans(WORK / f"trace-{module.__name__}-seed{seed}.jsonl", records)
    metrics, detail = layer_metrics(records)
    wall = sum(op.seconds for op in ops)
    plain_wall = sum(op.seconds for op in plain)
    metrics["cli.import_s"] = sum(r.get("import_s", 0.0) for r in records)
    metrics["cli.process_s"] = sum(r.get("process_s", 0.0) for r in records)
    metrics["cli.stdout_bytes"] = sum(r.get("stdout_bytes", 0) for r in records)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.overhead_s"] = wall - plain_wall
    metrics["trace.outside_s"] = wall - detail["top_s"]
    metrics["trace.ops_per_s"] = len(ops) / wall
    metrics["trace.untraced_ops_per_s"] = len(plain) / plain_wall
    detail["layer_sum_plus_outside_s"] = (
        sum(v for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
        + metrics["cli.main.self_s"]
        + metrics["trace.outside_s"]
    )
    detail["untraced_failed"] = sum(op.error is not None for op in plain)
    return ops, metrics, detail


def _units(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "ops/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("max_rel_err", "classes_per_build")):
        return "ratio"
    return "count"


def run_one(args) -> int:
    if not (SRC / "supertrees" / "__init__.py").is_file():
        print(f"bench: no library at {SRC / 'supertrees'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = import_module(args.workload)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        state = module.setup(args.seed, work)
        setup_s, scaled_setup_s = SETUP.stop()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "scaled_s": scaled_setup_s}))
            return 0
        samples = [(setup_s, scaled_setup_s)]
        samples += [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        info = environment(args.workload, args.seed)
        info["setup_samples_s"] = [raw for raw, _ in samples]
        info["setup_scaled_s"] = [scaled for _, scaled in samples]
        started, stolen = time.perf_counter(), steal_s()
        if args.trace:
            ops, raw, detail = _per_layer(module, state, args.seed)
            metrics = {name: (value, _units(name)) for name, value in raw.items()}
            info.update(detail)
        else:
            cycles = _timed(module, state, args.seconds)
            ops = [op for cycle in cycles for op in cycle]
            info["cycle_s"] = [sum(op.seconds for op in cycle) for cycle in cycles]
            info["cycle_scaled_s"] = [sum(op.scaled_s for op in cycle) for cycle in cycles]
            metrics = _end_to_end(module, cycles, info["setup_scaled_s"])
            raw = _end_to_end(module, cycles, info["setup_samples_s"], lambda op: op.seconds)
            info["unscaled"] = {name: value for name, (value, _) in raw.items()}
            xs = state.host.samples
            info["host_samples_s"] = {
                "n": len(xs), "min": min(xs), "median": statistics.median(xs), "max": max(xs)
            }
        info["run_s"] = time.perf_counter() - started
        info["steal_s"] = steal_s() - stolen
        if hasattr(state, "call_s"):
            info["sweep_call_s"] = state.call_s
        failures = [(op.name, op.error) for op in ops if op.error is not None]
        info["slowest"] = [
            (op.name, op.seconds) for op in sorted(ops, key=lambda op: -op.seconds)[:5]
        ]
        info["ops"] = len(ops)
        info["ops_failed"] = len(failures)
        info["failures"] = failures[:20]
        if hasattr(module, "known_defects"):
            info["known_defects"] = [
                {"input": op.name, "passed": op.error is None, "error": op.error}
                for op in module.known_defects(state)
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"ops {len(ops)}")
    print(f"ops_failed {len(failures)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, error in failures[:20]:
        print(f"failed: {name}: {error}")
    for defect in info.get("known_defects", []):
        state_word = "passed" if defect["passed"] else f"FAILED ({defect['error']})"
        print(f"known defect: {defect['input']}: {state_word}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    SETUP.stop()  # --all times nothing itself: each workload has its own process
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        results[workload] = {**json.loads(lines[-2]), "result": json.loads(lines[-1])}
    print(f"{'workload':8} {'metric':36} {'value':>14} unit")
    for workload, res in results.items():
        result = res["result"]
        print(f"{workload:8} {'ops':36} {result['attempted']:>14}")
        print(f"{workload:8} {'ops_failed':36} {result['failed']:>14}")
        for name, metric in result["metrics"].items():
            print(f"{workload:8} {name:36} {metric['value']:>14.6g} {metric['unit']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results written to {args.out}")
    return 0


def main(argv=None) -> int:
    # on SIGTERM unwind normally, so a query child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
