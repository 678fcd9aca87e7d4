"""Per-layer tracing from outside the program.

The tracer replaces public functions of the ``regionbound`` modules with
wrappers for one run and puts the originals back afterwards; nothing in
the package changes.  A wrapper records a span (name, parent span, start,
end, operation index) in memory; at the end the spans are aggregated and
written out once.  A layer's self time is its spans' durations minus the
part covered by their direct child spans.

A target that no longer exists (a refactor removed or renamed it) is
reported as absent and its metrics read 0, instead of failing the run.
So is a counter whose measure no longer fits what the function returns:
the tracer's own bookkeeping never raises into the library call.
"""
from __future__ import annotations

import importlib
import json
import time
import weakref
from collections import defaultdict

# (metric, unit, better) reported by a traced run.  Values marked "/op" are
# totals of the traced pass divided by the operations it completed.
LAYER_METRICS = (
    ("gamma.column.calls", "calls/op", "lower"),
    ("gamma.column.misses", "calls/op", "lower"),
    ("gamma.column.hit_ratio", "ratio", "higher"),
    ("gamma.column.self_s", "s/op", "lower"),
    ("histogram.objects", "objects/op", "lower"),
    ("transfer.b_matrix.calls", "calls/op", "lower"),
    ("transfer.b_matrix.self_s", "s/op", "lower"),
    ("transfer.m_matrix.calls", "calls/op", "lower"),
    ("transfer.m_matrix.self_s", "s/op", "lower"),
    ("transfer.cells_built", "cells/op", "lower"),
    ("transfer.apply.self_s", "s/op", "lower"),
    ("transfer.compose.calls", "calls/op", "lower"),
    ("transfer.compose.self_s", "s/op", "lower"),
    ("transfer.skip_diag.self_s", "s/op", "lower"),
    ("transfer.self_s", "s/op", "lower"),
    ("kernels.mat_vec.self_s", "s/op", "lower"),
    ("kernels.mat_vec.madds", "madds/op", "lower"),
    ("kernels.mat_mat.self_s", "s/op", "lower"),
    ("kernels.mat_mat.madds", "madds/op", "lower"),
    ("kernels.column_sums.self_s", "s/op", "lower"),
    ("engine.evaluate.calls", "calls/op", "lower"),
    ("engine.evaluate.self_s", "s/op", "lower"),
    ("oracle.count_regions_1d.calls", "calls/op", "lower"),
    ("oracle.count_regions_1d.self_s", "s/op", "lower"),
    ("oracle.pattern_lower_bound.self_s", "s/op", "lower"),
    ("archspec.parse.self_s", "s", "lower"),
    ("archspec.resolve.self_s", "s", "lower"),
    ("setup.gamma.column.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.op_s", "s/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _matrix_cells(args, result):
    return result.rows * result.cols


def _mat_vec_madds(args, result):
    rows, v = args[0], args[1]
    return len(rows) * len(v)


def _mat_mat_madds(args, result):
    a, b = args[0], args[1]
    return len(a) * len(b) * (len(b[0]) if b else 0)


# (module, attribute path, span name, {counter: measure(args, result)})
TARGETS = (
    ("archspec", "parse", "archspec.parse", {}),
    ("archspec", "resolve", "archspec.resolve", {}),
    ("gamma", "GammaProvider.column", "gamma.column", {}),
    ("gamma", "column_by_recursion", "gamma.column_by_recursion", {}),
    ("gamma", "serra_gamma", "gamma.serra_gamma", {}),
    ("transfer", "b_matrix", "transfer.b_matrix",
     {"transfer.cells_built": _matrix_cells}),
    ("transfer", "m_matrix", "transfer.m_matrix",
     {"transfer.cells_built": _matrix_cells}),
    ("transfer", "maxpool_diag", "transfer.maxpool_diag",
     {"transfer.cells_built": _matrix_cells}),
    ("transfer", "skip_diag", "transfer.skip_diag",
     {"transfer.cells_built": _matrix_cells}),
    ("transfer", "identity", "transfer.identity",
     {"transfer.cells_built": _matrix_cells}),
    ("transfer", "compose", "transfer.compose",
     {"transfer.cells_built": _matrix_cells}),
    ("transfer", "apply", "transfer.apply", {}),
    ("kernels", "mat_vec", "kernels.mat_vec",
     {"kernels.mat_vec.madds": _mat_vec_madds}),
    ("kernels", "mat_mat", "kernels.mat_mat",
     {"kernels.mat_mat.madds": _mat_mat_madds}),
    ("kernels", "column_sums", "kernels.column_sums", {}),
    ("engine", "evaluate", "engine.evaluate",
     {"engine.stages": lambda args, result: len(result.per_stage),
      "engine.bound_bits": lambda args, result: result.bound.bit_length()}),
    ("oracle", "count_regions_1d", "oracle.count_regions_1d",
     {"oracle.regions": lambda args, result: result.count}),
    ("oracle", "pattern_lower_bound", "oracle.pattern_lower_bound", {}),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value), or None when it does not exist."""
    try:
        owner = importlib.import_module(f"regionbound.{module_name}")
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Wraps the TARGETS while installed; keeps spans and counts in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.broken: set[str] = set()  # counters whose measure raised
        self.op = -1  # operation index stamped on each span; -1 is set-up
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.max_nprime = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module_name, path, name, measures in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            if name == "gamma.column":
                measures = {"gamma.column.misses": self._column_miss}
            self._patch(owner, attr, self._span_wrapper(fn, name, measures))
        found = _resolve("histogram", "Histogram.__init__")
        if found is None:
            self.absent.append("histogram.objects")
        else:
            self._patch(*found[:2], self._count_wrapper(found[2]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, measures):
        spans, stack, counts = self.spans, self._stack, self.counts
        broken = self.broken
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end, self.op)
            for counter, measure in measures.items():
                try:
                    counts[counter] += measure(args, result)
                except Exception:
                    broken.add(counter)
            return result

        return wrapper

    def _count_wrapper(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["histogram.objects"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _column_miss(self, args, result) -> int:
        provider, nprime = args[0], args[1]
        self.max_nprime = max(self.max_nprime, nprime)
        seen = self._seen.setdefault(provider, set())
        if nprime in seen:
            return 0
        seen.add(nprime)
        return 1

    # -- output ---------------------------------------------------------------

    def missing(self) -> list[str]:
        """Targets that do not exist and counters that could not be read."""
        return self.absent + sorted(self.broken)

    def write_spans(self, path) -> None:
        """All spans as JSON lines; ``op`` is the operation (-1: set-up)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")

    def reset_counts(self) -> None:
        self.counts.clear()
        self.broken.clear()
        self.max_nprime = 0

    def _count(self, counter: str) -> int:
        return 0 if counter in self.broken else self.counts[counter]

    def self_times(self, setup: bool) -> dict[str, float]:
        """Self seconds per span name, over the set-up or the traced spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, parent, start, end, op) in enumerate(self.spans):
            if (op < 0) == setup:
                out[name] += end - start - child[sid]
        return out

    def layer_metrics(self, ops: int, op_s: float, overhead: float,
                      import_s: float) -> dict[str, float]:
        """The LAYER_METRICS of the traced pass over ``ops`` operations."""
        self_s = self.self_times(setup=False)
        setup_s = self.self_times(setup=True)
        c = self._count
        calls: dict[str, int] = defaultdict(int)
        for name, _, _, _, op in self.spans:
            if op >= 0:
                calls[name] += 1
        per = 1.0 / ops
        col_calls = calls["gamma.column"]
        misses = c("gamma.column.misses")
        known = col_calls and "gamma.column.misses" not in self.broken

        def gamma_s(times):
            # the table builders run inside column(); count them as its work
            return (times["gamma.column"] + times["gamma.column_by_recursion"]
                    + times["gamma.serra_gamma"])

        m = {
            "gamma.column.calls": col_calls * per,
            "gamma.column.misses": misses * per,
            "gamma.column.hit_ratio":
                (col_calls - misses) / col_calls if known else 0.0,
            "gamma.column.self_s": gamma_s(self_s) * per,
            "histogram.objects": c("histogram.objects") * per,
            "transfer.self_s": sum(v for k, v in self_s.items()
                                   if k.startswith("transfer.")) * per,
            "transfer.cells_built": c("transfer.cells_built") * per,
            "kernels.mat_vec.madds": c("kernels.mat_vec.madds") * per,
            "kernels.mat_mat.madds": c("kernels.mat_mat.madds") * per,
            "archspec.parse.self_s": setup_s["archspec.parse"],
            "archspec.resolve.self_s": setup_s["archspec.resolve"],
            "setup.gamma.column.self_s": gamma_s(setup_s),
            "trace.op_s": op_s,
            "trace.overhead_ratio": overhead,
            "cli.import_s": import_s,
        }
        for metric, _, _ in LAYER_METRICS:
            if metric in m:
                continue
            span, _, kind = metric.rpartition(".")
            m[metric] = (calls[span] if kind == "calls"
                         else self_s[span]) * per
        return m

    def context(self, ops: int) -> dict[str, float]:
        """Values of the traced pass that are results of the computation,
        not costs; they are reported without a better/worse direction."""
        per = 1.0 / ops
        return {
            "gamma.column.max_nprime": self.max_nprime,
            "engine.stages": self._count("engine.stages") * per,
            "engine.bound_bits": self._count("engine.bound_bits") * per,
            "oracle.regions": self._count("oracle.regions") * per,
            "trace.ops": ops,
        }
