"""Spans and counts at the package's module boundaries, recorded from outside.

The tracer replaces the name a caller module uses for a function of
another module (``mixedmeans.search:rado_increment`` is the name the search
module calls, ``mixedmeans.means:WeightSequence.head`` a method) with a
wrapper that opens a span around the call.  Calls inside one module are
not traced, so each span marks a crossing from one layer into another and
its name says which layer owns the callee.  A point the program no longer
has is reported as absent and skipped.
"""
from __future__ import annotations

import collections
import functools
import importlib
import itertools
import time

LAYERS = ("cli", "conditions", "reduction", "search", "functionals", "means")

WRAP_POINTS = (
    # the benchmark's own calls: one command-line verdict, or library calls
    "mixedmeans.cli:run",
    "mixedmeans:rado_increment",
    "mixedmeans:popoviciu_increment",
    "mixedmeans:product_form_lhs",
    "mixedmeans:x_to_y",
    "mixedmeans:y_to_x",
    # cli -> every other layer
    "mixedmeans.cli:nanjundiah_condition",
    "mixedmeans.cli:holland_condition",
    "mixedmeans.cli:gao_conditions",
    "mixedmeans.cli:critical_weight",
    "mixedmeans.cli:rado_increment",
    "mixedmeans.cli:popoviciu_increment",
    "mixedmeans.cli:violation_tolerance",
    "mixedmeans.cli:as_samples",
    "mixedmeans.cli:mixed_mean",
    "mixedmeans.cli:partial_mean_sequence",
    "mixedmeans.cli:certify",
    "mixedmeans.cli:violation_search",
    "mixedmeans.cli:weight_scan",
    # reduction -> conditions, means, search (certify reaches the numeric
    # fallback through the search module's attributes)
    "mixedmeans.reduction:holland_condition",
    "mixedmeans.reduction:gao_conditions",
    "mixedmeans.reduction:d_zero",
    "mixedmeans.reduction:as_samples",
    "mixedmeans.search:grid_max_F",
    "mixedmeans.search:grid_max_envelope",
    "mixedmeans.search:multistart_max_F",
    # search -> conditions, functionals, reduction
    "mixedmeans.search:holland_condition",
    "mixedmeans.search:gao_conditions",
    "mixedmeans.search:rado_increment",
    "mixedmeans.search:violation_tolerance",
    "mixedmeans.search:objective_F",
    "mixedmeans.search:boundary_bound",
    "mixedmeans.search:interior_bound",
    # functionals -> means
    "mixedmeans.functionals:as_samples",
    "mixedmeans.functionals:partial_mean_sequence",
    "mixedmeans.functionals:power_mean",
    "mixedmeans.means:WeightSequence.head",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _grid(dims_dropped):
    def count(counts, args, kwargs):
        cells = _arg(args, kwargs, 1, "resolution") ** (_arg(args, kwargs, 0, "w").n - dims_dropped)
        counts["grid_cells"] += cells
    return count


def _trials(index):
    def count(counts, args, kwargs):
        counts["trials"] += _arg(args, kwargs, index, "config").trials
    return count


# Work counts taken from a call's arguments, so a call that fails (a grid
# too large to allocate) still counts what it attempted.
COUNTERS = {
    "search.grid_max_F": _grid(1),
    "search.grid_max_envelope": _grid(2),
    "search.multistart_max_F": _trials(1),
    "search.violation_search": _trials(2),
}


def span_name(fn) -> str:
    """'<layer>.<qualified name>' of the function's defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _resolve(point):
    module_name, _, path = point.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    if not callable(fn) or not hasattr(fn, "__qualname__"):
        return None
    return owner, attr, fn


class Tracer:
    """Keeps per-name call counts, total and self time, parent-child call
    counts, work counters, and the first ``max_spans`` raw spans, all in
    memory; ``summary`` and ``spans`` are written out when the run ends."""

    def __init__(self, clock=time.perf_counter, max_spans=20_000):
        self._clock = clock
        self._max_spans = max_spans
        self._stack = []  # open spans: [id, name, start, time in children]
        self._ids = itertools.count(1)
        self._patched = []
        self.op = 0  # identifier shared by the spans of one operation
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = collections.Counter()  # (parent name, name) -> calls
        self.counts = collections.Counter()
        self.spans = []  # (op, id, parent id, name, start, end)
        self.dropped = 0

    def enter(self, name):
        self._stack.append([next(self._ids), name, self._clock(), 0.0])

    def exit(self):
        span_id, name, start, children = self._stack.pop()
        end = self._clock()
        duration = end - start
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.edges[(parent[1] if parent else "", name)] += 1
        if len(self.spans) < self._max_spans:
            self.spans.append((self.op, span_id, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                try:
                    count(self.counts, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counts["counter_misses"] += 1
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def install(self, points=WRAP_POINTS):
        """Wrap every point that resolves; return the span names wrapped and
        the points that did not resolve."""
        names, absent = set(), []
        for point in points:
            target = _resolve(point)
            if target is None:
                absent.append(point)
                continue
            owner, attr, fn = target
            name = span_name(fn)
            self._patched.append((owner, attr, fn, attr in vars(owner)))
            setattr(owner, attr, self.wrap(name, fn, COUNTERS.get(name)))
            names.add(name)
        return names, absent

    def uninstall(self):
        while self._patched:
            owner, attr, fn, own = self._patched.pop()
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)

    def summary(self):
        return {
            "spans": {name: list(rec) for name, rec in sorted(self.stats.items())},
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items())},
            "counts": dict(self.counts),
            "spans_dropped": self.dropped,
        }


def _named(*wanted):
    return lambda name: name in wanted


def _in_layer(layer):
    return lambda name: layer_of(name) == layer


def layer_metrics(summary, names, n_ops, overhead_ratio, time_scale=1.0):
    """Per-layer metrics per operation, from ``Tracer.summary()``, with
    times multiplied by ``time_scale``.  Returns {metric: (value, unit,
    absent)}; a metric is absent when none of the span names it is computed
    from was wrapped."""
    spans, counts = summary["spans"], summary["counts"]
    out = {}

    def total(select, field):
        scale = 1.0 if field == 0 else time_scale
        return scale * sum(rec[field] for name, rec in spans.items() if select(name))

    def put(metric, value, unit, needs):
        absent = not any(needs(name) for name in names)
        out[metric] = (0.0 if absent else value, unit, absent)

    for layer in LAYERS:
        mine = _in_layer(layer)
        put(f"{layer}.calls", total(mine, 0) / n_ops, "count/op", mine)
        put(f"{layer}.self_ms", 1e3 * total(mine, 2) / n_ops, "ms/op", mine)

    grid = _named("search.grid_max_F", "search.grid_max_envelope")
    cells = counts.get("grid_cells", 0)
    put("search.grid_cells", cells / n_ops, "cells/op", grid)
    put("search.grid_bytes_computed", 8 * cells / n_ops, "bytes/op", grid)

    searches = _named("search.violation_search", "search.multistart_max_F")
    trials = counts.get("trials", 0)
    evals = sum(
        n for edge, n in summary["edges"].items()
        if [layer_of(end) for end in edge.split(">")] == ["search", "functionals"]
    )
    put("search.trials", trials / n_ops, "trials/op", searches)
    put("search.evals_per_trial", evals / trials if trials else 0.0, "calls/trial", searches)

    objective = _named("reduction.objective_F")
    put("reduction.objective_F.calls", total(objective, 0) / n_ops, "count/op", objective)
    transform = _named("reduction.x_to_y", "reduction.y_to_x")
    put("reduction.transform_ms", 1e3 * total(transform, 1) / n_ops, "ms/op", transform)

    functionals = _in_layer("functionals")
    calls = total(functionals, 0)
    put("functionals.us_per_call", 1e6 * total(functionals, 1) / calls if calls else 0.0,
        "us/call", functionals)

    head = _named("means.WeightSequence.head")
    put("means.head_rebuilds", total(head, 0) / n_ops, "count/op", head)

    out["trace.overhead_ratio"] = (overhead_ratio, "ratio", False)
    return out
