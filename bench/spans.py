"""Spans around the library's public functions, for the traced run.

`Tracer.install` wraps every function named in the `__all__` of the layer
modules and rebinds the wrapper on every module of the package that holds
the original, so a call is recorded whichever binding it goes through
(`supertrees.enumeration.canonical_code` as well as
`supertrees.core.canonical_code`). A span is [name, start, end, parent];
parents precede their children in the list. Spans stay in memory until the
run writes them out.
"""

import functools
import importlib
import inspect
import json
import sys
import time

from common import degrees, dense_lambda, rel_err

LAYERS = ("core", "enumeration", "spectral", "slo", "transforms", "cli")


def _solved(args, kwargs, result):
    return (args[0] if args else kwargs["G"], result.lam)


# Small records kept per call, from which the layer counters are computed
# after the run; they are taken outside the span so they cost no span time.
KEEP = {
    "spectral.first_dirichlet_eigenpair": _solved,
    "enumeration.verify_fk_theorem1": lambda a, kw, r: len(r.all_lambdas),
    "enumeration.verify_fk_theorem2": lambda a, kw, r: len(r.all_lambdas),
    "slo.check_slo": lambda a, kw, r: len(r),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, list] = {name: [] for name in KEEP}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = KEEP.get(name)
        kept = self.kept.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                kept.append(keep(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"supertrees.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "supertrees" and not modname.startswith("supertrees."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def record(self) -> dict:
        """Spans and kept values in plain JSON types; a solved supertree
        becomes [k, n, edges, lambda]."""
        kept = dict(self.kept)
        kept["spectral.first_dirichlet_eigenpair"] = [
            [G.k, G.n, [list(e) for e in G.edges], lam]
            for G, lam in self.kept["spectral.first_dirichlet_eigenpair"]
        ]
        return {"spans": self.spans, "kept": kept}


def write_spans(path, records) -> None:
    """One JSON line per span: [record index, name, start, end, parent]."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(records):
            for span in rec["spans"]:
                fh.write(json.dumps([i, *span]) + "\n")


def summarize(records) -> dict:
    """Per-function calls and self time, per-layer self time, the time
    covered by top-level spans, and build_supertree calls made under an
    enumeration span. Self time is a span's duration minus the durations of
    its direct children."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    top = 0.0
    builds_in_enum = 0
    for rec in records:
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        in_enum = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
            if parent < 0:
                top += end - start
            under = parent >= 0 and in_enum[parent]
            in_enum[i] = under or name.startswith("enumeration.")
            if name == "core.build_supertree" and under:
                builds_in_enum += 1
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, s in self_s.items():
        layer_s[name.split(".", 1)[0]] += s
    return {
        "calls": calls,
        "self_s": self_s,
        "layer_s": layer_s,
        "top_s": top,
        "builds_in_enum": builds_in_enum,
    }


def layer_metrics(records) -> tuple[dict, dict]:
    """The per-layer metrics named in BENCHMARK.json that spans give, plus
    the full per-function table for the detail line."""
    summary = summarize(records)
    calls, self_s = summary["calls"], summary["self_s"]
    kept = {name: [x for rec in records for x in rec["kept"].get(name, [])] for name in KEEP}
    solved = kept["spectral.first_dirichlet_eigenpair"]
    scored = sum(kept["enumeration.verify_fk_theorem1"]) + sum(
        kept["enumeration.verify_fk_theorem2"]
    )
    builds = summary["builds_in_enum"]
    metrics = {f"{layer}.self_s": s for layer, s in summary["layer_s"].items() if layer != "cli"}
    for name in (
        "core.build_supertree",
        "core.canonical_code",
        "enumeration.enumerate_family",
        "enumeration.enumerate_supertrees",
        "spectral.first_dirichlet_eigenpair",
        "slo.construct_slo_supertree",
        "slo.find_slo_ordering",
        "slo.check_slo",
        "transforms.unit_transform_chain",
    ):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (
        "core.parse_sht",
        "enumeration.verify_fk_theorem1",
        "enumeration.verify_fk_theorem2",
        "transforms.apply_switch",
        "transforms.apply_shift",
        "cli.main",
    ):
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    metrics["enumeration.classes_scored"] = scored
    metrics["enumeration.classes_per_build"] = scored / builds if builds else 0.0
    metrics["spectral.interior_vertices"] = sum(
        sum(1 for d in degrees(n, edges) if d >= 2) for _, n, edges, _ in solved
    )
    metrics["spectral.max_rel_err"] = max(
        (rel_err(lam, dense_lambda(k, n, edges)) for k, n, edges, lam in solved),
        default=0.0,
    )
    metrics["slo.check_slo.witnesses"] = sum(kept["slo.check_slo"])
    table = {name: [calls[name], self_s[name]] for name in sorted(calls)}
    return metrics, {"functions": table, "top_s": summary["top_s"]}

