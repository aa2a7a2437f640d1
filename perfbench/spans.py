"""Span tracing around rectconv's public functions, from outside the package.

A traced op replaces module attributes at the call sites (for example
``rectconv.quantiles.density_curve``, the name ``classical_locations``
actually calls) with wrappers that record one span per call: name, start,
end, parent span, thread and op id.  Parent stacks are per thread, because
experiment trials run in a thread pool; a span opened on a thread with an
empty stack takes as parent the innermost open span of the thread that
started the op.  Spans stay in memory and are written out at the end.

Self time is a span's duration minus the time its child spans cover,
where overlapping children (pool threads) are counted once.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    cpu0: float = 0.0
    cpu1: float = 0.0
    attrs: dict = field(default_factory=dict)


def _measure_points(args, kwargs, result):
    return {"points": len(result)}


def _measure_solve(args, kwargs, result):
    method = kwargs.get("method", args[4] if len(args) > 4 else "hybrid")
    return {"points": len(result), "method": method, "iters": [pt.iterations for pt in result]}


def _measure_entries(args, kwargs, result):
    return {"entries": int(result.size)}


def _measure_trial(args, kwargs, result):
    arrays = (result.singular_values_sq, result.left_vectors, result.right_vectors)
    return {"bytes": int(sum(a.nbytes for a in arrays if a is not None))}


_EXPERIMENT_FUNCTIONS = (
    "rigidity_experiment",
    "edge_universality_experiment",
    "delocalization_experiment",
    "local_law_experiment",
    "bbp_experiment",
    "t1_null_experiment",
    "rank_experiment",
)

# (module, attribute, span name, measure).  One layer function can have
# several call sites: each module that imported it by name holds its own
# reference.  freeconv.density is counted, not spanned, so the pointwise
# bisection of support_scan stays in support_scan's self time.
CALL_SITES = [
    ("rectconv.freeconv", "density_curve", "freeconv.density_curve", _measure_points),
    ("rectconv.quantiles", "density_curve", "freeconv.density_curve", _measure_points),
    ("rectconv.freeconv", "density", "freeconv.density", None),
    ("rectconv.freeconv", "support_scan", "freeconv.support_scan", None),
    ("rectconv.freeconv", "solve_many", "freeconv.solve_many", _measure_solve),
    ("rectconv.experiments", "solve_many", "freeconv.solve_many", _measure_solve),
    ("rectconv.quantiles", "classical_locations", "quantiles.classical_locations", None),
    ("rectconv.experiments", "classical_locations", "quantiles.classical_locations", None),
    ("rectconv.cli", "classical_locations", "quantiles.classical_locations", None),
    ("rectconv.quantiles", "eta_lower", "quantiles.eta_lower", None),
    ("rectconv.experiments", "eta_lower", "quantiles.eta_lower", None),
    ("rectconv.edge", "find_right_edge", "edge.find_right_edge", None),
    ("rectconv.experiments", "find_right_edge", "edge.find_right_edge", None),
    ("rectconv.cli", "find_right_edge", "edge.find_right_edge", None),
    ("rectconv.ensemble", "sample_noise", "ensemble.sample_noise", _measure_entries),
    ("rectconv.ensemble", "assemble_Wt", "ensemble.assemble_Wt", None),
    ("rectconv.ensemble", "singular_values_sq", "ensemble.singular_values_sq", None),
    ("rectconv.experiments", "run_trial", "ensemble.run_trial", _measure_trial),
    ("rectconv.experiments", "resolvent_quadratic_form", "ensemble.resolvent_quadratic_form", None),
    ("rectconv.experiments", "pi_quadratic_form", "ensemble.pi_quadratic_form", None),
    ("rectconv.experiments", "pi_split_norm", "ensemble.pi_split_norm", None),
    ("rectconv.experiments", "ks_2samp", "experiments.ks_2samp", None),
    ("rectconv.cli", "load_config", "cli.load_config", None),
    ("rectconv.cli", "main", "cli.main", None),
] + [("rectconv.cli", fn, "experiments.experiment", None) for fn in _EXPERIMENT_FUNCTIONS]

COUNT_ONLY = {"freeconv.density"}


class Tracer:
    """Collects spans and call counts while ops run under ``op()``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.solver_errors = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op: int | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: int):
        """Mark spans opened inside the block, on any thread, with op_id."""
        self._op = op_id
        self._op_stack = self._stack()
        try:
            yield
        finally:
            self._op = None

    def wrap(self, name: str, fn, measure=None):
        count_only = name in COUNT_ONLY

        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            if count_only:
                return fn(*args, **kwargs)
            stack = self._stack()
            try:
                parent = (stack or self._op_stack)[-1]
            except IndexError:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "SolverError" and not getattr(exc, "_counted", False):
                    exc._counted = True
                    with self._lock:
                        self.solver_errors += 1
                raise
            finally:
                end = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
                span = Span(sid, name, start, end, parent, threading.get_ident(), self._op, cpu0, cpu1)
                self.spans.append(span)
            if measure is not None:
                span.attrs = measure(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every call site for its wrapper; restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, measure in CALL_SITES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    note = f"{module_name}.{attr}"
                    if note not in self.missing:
                        self.missing.append(note)
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, measure))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _clusters(spans):
    """Maximal groups of spans whose intervals overlap, in time order."""
    groups = []
    for s in sorted(spans, key=lambda s: s.start):
        if groups and s.start <= max(x.end for x in groups[-1]):
            groups[-1].append(s)
        else:
            groups.append([s])
    return groups


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.sid] = (s.end - s.start) - _union_length(kids)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit; the order is the order of the printed table
LAYER_METRICS = {
    "freeconv.density_curve.calls": "count",
    "freeconv.density_curve.points": "count",
    "freeconv.density_curve.self_s": "s",
    "freeconv.density_curve.us_per_point": "us",
    "quantiles.density_points_per_table": "count",
    "freeconv.density.calls": "count",
    "freeconv.support_scan.self_s": "s",
    "freeconv.solve_many.calls": "count",
    "freeconv.solve_many.points": "count",
    "freeconv.solve_many.self_s": "s",
    "freeconv.solve_many.us_per_point": "us",
    "freeconv.solve_many.iters_p50": "count",
    "freeconv.solve_many.iters_max": "count",
    "freeconv.solve_many.fixed_point.us_per_point": "us",
    "freeconv.solver_errors": "count",
    "quantiles.classical_locations.calls": "count",
    "quantiles.classical_locations.self_s": "s",
    "quantiles.eta_lower.calls": "count",
    "quantiles.eta_lower.self_s": "s",
    "edge.find_right_edge.calls": "count",
    "edge.find_right_edge.self_s": "s",
    "ensemble.sample_noise.ms_per_trial": "ms",
    "ensemble.sample_noise.ns_per_entry": "ns",
    "ensemble.assemble_Wt.ms_per_trial": "ms",
    "ensemble.singular_values_sq.ms_per_trial": "ms",
    "ensemble.run_trial.calls": "count",
    "ensemble.run_trial.self_ms_per_trial": "ms",
    "ensemble.run_trial.bytes_per_trial": "bytes",
    "ensemble.resolvent_quadratic_form.calls": "count",
    "ensemble.resolvent_quadratic_form.us_per_call": "us",
    "ensemble.pi_quadratic_form.calls": "count",
    "ensemble.pi_split_norm.calls": "count",
    "experiments.self_s": "s",
    "experiments.trials_wall_s": "s",
    "experiments.cpu_s_per_trial": "s",
    "experiments.ks_2samp.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead": "ratio",
}

# the span or count a metric is read from, for saying why it is absent
_SOURCE = {
    "quantiles.density_points_per_table": "quantiles.classical_locations",
    "freeconv.solver_errors": None,
    "experiments.self_s": "experiments.experiment",
    "experiments.trials_wall_s": "ensemble.run_trial",
    "experiments.cpu_s_per_trial": "ensemble.run_trial",
    "cli.report_bytes": "cli.main",
    "trace.overhead": None,
}


def _source(metric: str) -> str | None:
    if metric in _SOURCE:
        return _SOURCE[metric]
    parts = metric.split(".")
    if parts[:3] == ["freeconv", "solve_many", "fixed_point"]:
        return "freeconv.solve_many (method=fixed_point)"
    return ".".join(parts[:2])


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, op_facts: list, overhead: float):
    """(metrics, absent) from the spans of n_ops traced ops.

    Counts and times are per traced op; rates are ratios of totals.
    ``absent`` maps a metric to the reason it reads 0 on this run.
    """
    selfs = self_times(tracer.spans)
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(name):
        return by_name.get(name, [])

    def self_sum(spans):
        return sum(selfs[s.sid] for s in spans)

    def attr_sum(spans, key):
        return sum(s.attrs.get(key, 0) for s in spans)

    def per_op(x):
        return x / n_ops

    m = {}
    dc = spans_of("freeconv.density_curve")
    dc_points = attr_sum(dc, "points")
    m["freeconv.density_curve.calls"] = per_op(len(dc))
    m["freeconv.density_curve.points"] = per_op(dc_points)
    m["freeconv.density_curve.self_s"] = per_op(self_sum(dc))
    m["freeconv.density_curve.us_per_point"] = _ratio(self_sum(dc), dc_points, 1e6)

    tables = spans_of("quantiles.classical_locations")
    table_ids = {s.sid for s in tables}
    in_tables = attr_sum([s for s in dc if s.parent in table_ids], "points")
    m["quantiles.density_points_per_table"] = _ratio(in_tables, len(tables))

    m["freeconv.density.calls"] = per_op(tracer.counts.get("freeconv.density", 0))
    m["freeconv.support_scan.self_s"] = per_op(self_sum(spans_of("freeconv.support_scan")))

    sm = spans_of("freeconv.solve_many")
    sm_points = attr_sum(sm, "points")
    iters = [i for s in sm for i in s.attrs.get("iters", ())]
    fp = [s for s in sm if s.attrs.get("method") == "fixed_point"]
    m["freeconv.solve_many.calls"] = per_op(len(sm))
    m["freeconv.solve_many.points"] = per_op(sm_points)
    m["freeconv.solve_many.self_s"] = per_op(self_sum(sm))
    m["freeconv.solve_many.us_per_point"] = _ratio(self_sum(sm), sm_points, 1e6)
    m["freeconv.solve_many.iters_p50"] = float(statistics.median(iters)) if iters else 0.0
    m["freeconv.solve_many.iters_max"] = float(max(iters)) if iters else 0.0
    m["freeconv.solve_many.fixed_point.us_per_point"] = _ratio(
        self_sum(fp), attr_sum(fp, "points"), 1e6
    )
    m["freeconv.solver_errors"] = float(tracer.solver_errors)

    for name in ("quantiles.classical_locations", "quantiles.eta_lower", "edge.find_right_edge"):
        spans = spans_of(name)
        m[f"{name}.calls"] = per_op(len(spans))
        m[f"{name}.self_s"] = per_op(self_sum(spans))

    trials = spans_of("ensemble.run_trial")
    n_trials = len(trials)
    noise = spans_of("ensemble.sample_noise")
    m["ensemble.sample_noise.ms_per_trial"] = _ratio(self_sum(noise), len(noise), 1e3)
    m["ensemble.sample_noise.ns_per_entry"] = _ratio(
        self_sum(noise), attr_sum(noise, "entries"), 1e9
    )
    for name in ("ensemble.assemble_Wt", "ensemble.singular_values_sq"):
        spans = spans_of(name)
        m[f"{name}.ms_per_trial"] = _ratio(self_sum(spans), len(spans), 1e3)
    m["ensemble.run_trial.calls"] = per_op(n_trials)
    m["ensemble.run_trial.self_ms_per_trial"] = _ratio(self_sum(trials), n_trials, 1e3)
    m["ensemble.run_trial.bytes_per_trial"] = _ratio(attr_sum(trials, "bytes"), n_trials)

    rqf = spans_of("ensemble.resolvent_quadratic_form")
    m["ensemble.resolvent_quadratic_form.calls"] = per_op(len(rqf))
    m["ensemble.resolvent_quadratic_form.us_per_call"] = _ratio(self_sum(rqf), len(rqf), 1e6)
    m["ensemble.pi_quadratic_form.calls"] = per_op(len(spans_of("ensemble.pi_quadratic_form")))
    m["ensemble.pi_split_norm.calls"] = per_op(len(spans_of("ensemble.pi_split_norm")))

    m["experiments.self_s"] = per_op(self_sum(spans_of("experiments.experiment")))
    groups = _clusters(trials)
    m["experiments.trials_wall_s"] = per_op(_union_length((s.start, s.end) for s in trials))
    trial_cpu = sum(max(s.cpu1 for s in g) - min(s.cpu0 for s in g) for g in groups)
    m["experiments.cpu_s_per_trial"] = _ratio(trial_cpu, n_trials)
    m["experiments.ks_2samp.self_s"] = per_op(self_sum(spans_of("experiments.ks_2samp")))

    m["cli.load_config.self_s"] = per_op(self_sum(spans_of("cli.load_config")))
    m["cli.main.self_s"] = per_op(self_sum(spans_of("cli.main")))
    m["cli.report_bytes"] = per_op(sum(f.get("report_bytes", 0) for f in op_facts))
    m["trace.overhead"] = overhead

    seen = set(by_name) | set(tracer.counts)
    if fp:
        seen.add("freeconv.solve_many (method=fixed_point)")
    absent = {}
    for metric in LAYER_METRICS:
        src = _source(metric)
        if m[metric] == 0.0 and src is not None and src not in seen:
            absent[metric] = f"no call to {src} on this workload"
    return m, absent
