"""Spans around owssl's layer boundaries, recorded from outside the package.

`Tracer.install` wraps every public function of the owssl modules, a few
methods and the private helpers that carry a layer's work across a module
boundary. It rebinds each wrapper under every name an owssl module looks it
up by (for example `owssl.harness.solve_conditional` as well as
`owssl.sinkhorn.solve_conditional`), so nothing in the package changes.
Spans stay in memory as [name, start, end, parent] and are written out at the
end of a run. Only the standard library is imported, so the traced CLI
process pays nothing extra at start-up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("core", "sinkhorn", "harness", "threshold", "objectives", "theory", "evaluation", "cli")
# private helpers that another module calls by name, and the layer methods
EXTRA_FUNCTIONS = {
    "objectives": ("_colwise_cross_entropy",),
    "cli": ("_load_json", "_write_json", "_write_runlog", "_write_plot_data"),
}
METHODS = {
    "core": (("ProbMatrix", "__post_init__"),),
    "harness": (("LogitQueue", "push"), ("LogitQueue", "matrix"), ("ToyModel", "logits"),
                ("ToyModel", "predict")),
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_validation(counts, args, kwargs, result):
    counts["core.validated_cells"] += args[0].data.size


def _count_solve(counts, args, kwargs, result, labeled: bool):
    p = _arg(args, kwargs, 0, "p")
    n_free = p.n - (_arg(args, kwargs, 2, "labeled").n if labeled else 0)
    counts["sinkhorn.iters"] += result.iters_used
    counts["sinkhorn.cell_iters"] += p.k * n_free * result.iters_used


# work counted at the boundary where it happens: (counts, args, kwargs, result)
HOOKS = {
    "core.ProbMatrix.__post_init__": _count_validation,
    "sinkhorn.solve_conditional": functools.partial(_count_solve, labeled=True),
    "sinkhorn.solve_unconditional": functools.partial(_count_solve, labeled=False),
    "harness.LogitQueue.matrix": lambda c, a, kw, r: c.update({"harness.queue_columns_copied": r[0].shape[1]}),
    "harness.strong_view": lambda c, a, kw, r: c.update({"harness.strong_view_columns": r.shape[0]}),
    "threshold.make_pseudo_batch": lambda c, a, kw, r: c.update({"harness.retained_columns": int(r.mask.sum())}),
    "theory.monte_carlo_ecs": lambda c, a, kw, r: c.update({"theory.trials": r.trials}),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap the layer boundaries; returns the names that were not found."""
        missing = []
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"owssl.{layer}")
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            for n in EXTRA_FUNCTIONS.get(layer, ()):
                (names.append if hasattr(mod, n) else missing.append)(n)
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    missing.append(f"{cls_name}.{meth}")
                    continue
                fn = vars(cls)[meth]
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
                self._undo.append((cls, meth, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "owssl" and not mod_name.startswith("owssl."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def adopt(self, spans: list[list], counts: dict, parent: int) -> None:
        """Append spans recorded in another process below span `parent`."""
        base = len(self.spans)
        for name, start, end, up in spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up])
        self.counts.update(counts)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part its children cover (children never overlap)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def tail(durations: list[float]) -> tuple[float | None, float | None]:
    """The highest of p75..p99.9 with at least ten samples beyond it; none below 40 samples."""
    n = len(durations)
    if n < 40:
        return None, None
    pct = max(p for p in (75.0, 90.0, 95.0, 99.0, 99.9) if n * (100.0 - p) / 100.0 >= 10)
    cuts = statistics.quantiles(durations, n=1000, method="inclusive")
    return pct, cuts[int(round(pct * 10)) - 1]


def summarize(spans: list[list]) -> dict:
    """Per span name: count, inclusive and self seconds, median and tail duration."""
    own = self_times(spans)
    groups = defaultdict(list)
    for i, span in enumerate(spans):
        groups[span[0]].append(i)
    out = {}
    for name, idx in sorted(groups.items()):
        durs = [spans[i][2] - spans[i][1] for i in idx]
        pct, value = tail(durs)
        out[name] = {
            "count": len(idx),
            "total_s": sum(durs),
            "self_s": sum(own[i] for i in idx),
            "median_s": statistics.median(durs),
            "tail_pct": pct,
            "tail_s": value,
        }
    return out


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one round, from its spans and counters."""
    own = self_times(spans)
    total = defaultdict(float)
    outer = defaultdict(float)  # inclusive time of calls not made from the same layer
    self_by_layer = defaultdict(float)
    calls = Counter()
    sinkhorn_calls = []
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        total[name] += end - start
        calls[name] += 1
        self_by_layer[layer] += own[i]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            outer[name] += end - start
        if name in ("sinkhorn.solve_conditional", "sinkhorn.solve_unconditional"):
            sinkhorn_calls.append(end - start)
    sinkhorn_p50 = statistics.median(sinkhorn_calls)
    _, sinkhorn_tail = tail(sinkhorn_calls)  # None below 40 calls: the median stands in
    views = ("harness.weak_view", "harness.strong_view", "harness.local_view")
    return {
        "core.validations": calls["core.ProbMatrix.__post_init__"],
        "core.validated_cells": counts["core.validated_cells"],
        "core.validate_s": total["core.ProbMatrix.__post_init__"],
        "core.softmax_s": total["core.softmax_columns"] + total["core.softmax"],
        "sinkhorn.calls": calls["sinkhorn.solve_conditional"] + calls["sinkhorn.solve_unconditional"],
        "sinkhorn.iters": counts["sinkhorn.iters"],
        "sinkhorn.self_s": self_by_layer["sinkhorn"],
        "sinkhorn.ns_per_cell_iter": 1e9 * self_by_layer["sinkhorn"] / max(counts["sinkhorn.cell_iters"], 1),
        "sinkhorn.call_p50_ms": 1e3 * sinkhorn_p50,
        "sinkhorn.call_tail_ms": 1e3 * (sinkhorn_p50 if sinkhorn_tail is None else sinkhorn_tail),
        "harness.queue_push_s": total["harness.LogitQueue.push"],
        "harness.queue_matrix_s": total["harness.LogitQueue.matrix"],
        "harness.queue_columns_copied": counts["harness.queue_columns_copied"],
        "harness.forward_s": total["harness.ToyModel.logits"],
        "harness.views_s": sum(total[v] for v in views),
        "harness.train_self_s": sum(own[i] for i, s in enumerate(spans) if s[0] == "harness.train"),
        "harness.strong_view_useful_ratio": (counts["harness.retained_columns"]
                                             / max(counts["harness.strong_view_columns"], 1)),
        "harness.generate_dataset_s": total["harness.generate_dataset"],
        "threshold.update_s": total["threshold.update_state"],
        "threshold.pseudo_batch_s": total["threshold.make_pseudo_batch"],
        "objectives.self_s": self_by_layer["objectives"],
        "theory.mc_s": total["theory.monte_carlo_ecs"],
        "theory.trials": counts["theory.trials"],
        "evaluation.accuracy_s": outer["evaluation.clustering_accuracy"] + outer["evaluation.clustering_report"],
        "evaluation.hungarian_calls": calls["evaluation.hungarian"],
        "evaluation.hungarian_s": total["evaluation.hungarian"],
        "cli.read_s": sum(v for k, v in total.items() if k.startswith(("cli.read_", "cli._load_json"))),
        "cli.write_s": sum(v for k, v in total.items() if k.startswith(("cli.write_", "cli._write_"))),
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("ns_per_cell_iter", "ns"),
                         ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"
