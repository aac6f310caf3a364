"""Span recording around handopt's layer functions, installed from outside.

``Tracer.install`` replaces each target function with a wrapper at every
``handopt`` module that holds a reference to it (``from .x import f`` copies
the reference), so calls through any import path are seen. A span records
its name, its parent span, start and end; self time is a span's duration
minus the time its child spans cover. Per-call details needed for counts
(event dimension, cache keys, sizes) are gathered after the span closes
and that time is charged to no layer.

Nothing here runs unless a traced CLI run asks for it.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("cli.main", "handopt.cli", "main"),
    ("scenario.distances_m", "handopt.scenario", "ScenarioConfig.distances_m"),
    ("channel.sample_power", "handopt.channel", "sample_power"),
    ("estimators.coefficient_table", "handopt.estimators", "coefficient_table"),
    ("harness.run_two_cell", "handopt.harness", "run_two_cell"),
    ("harness.run_multicell", "handopt.harness", "run_multicell"),
    ("harness.run_table_sweep", "handopt.harness", "run_table_sweep"),
    ("harness.run_accuracy_study", "handopt.harness", "run_accuracy_study"),
    ("harness.opt_margin_tables", "handopt.harness", "opt_margin_tables"),
    ("harness.emit", "handopt.harness", "emit"),
    ("gaussian.y_stats", "handopt.gaussian", "y_stats"),
    ("gaussian.exact_prob", "handopt.gaussian", "exact_prob"),
    ("gaussian.bvn_cdf_lattice", "handopt.gaussian", "bvn_cdf_lattice"),
    ("gaussian.approx1", "handopt.gaussian", "approx1"),
    ("gaussian.approx2_bounds", "handopt.gaussian", "approx2_bounds"),
    ("gaussian.approx3_upper", "handopt.gaussian", "approx3_upper"),
    ("metrics.handover_series", "handopt.metrics", "handover_series"),
    ("metrics.outage_series", "handopt.metrics", "outage_series"),
    ("optimizer.solve_group", "handopt.optimizer", "solve_group"),
    ("optimizer.solve", "handopt.optimizer", "solve"),
)

SIMULATE = ("harness.run_two_cell", "harness.run_multicell", "harness.run_table_sweep")
APPROX = ("gaussian.approx1", "gaussian.approx2_bounds", "gaussian.approx3_upper")
SERIES = ("metrics.handover_series", "metrics.outage_series")
EXACT_BUCKETS = ("closed", "quad2", "quad3", "mc")

# Per-layer metrics of a traced run, with units, in output order.
LAYER_METRICS = (
    ("channel.sample_power.calls", "count"),
    ("channel.sample_power.self_s", "s"),
    ("harness.simulate.self_s", "s"),
    ("harness.accuracy.self_s", "s"),
    ("harness.opt_margin_tables.calls", "count"),
    ("harness.opt_margin_tables.s", "s"),
    ("harness.emit.s", "s"),
    ("harness.emit.bytes", "bytes"),
    ("estimators.coefficient_table.calls", "count"),
    ("estimators.coefficient_table.s", "s"),
    ("scenario.distances_m.calls", "count"),
    ("scenario.distances_m.s", "s"),
    ("gaussian.bvn_cdf_lattice.calls", "count"),
    ("gaussian.bvn_cdf_lattice.self_s", "s"),
    ("gaussian.bvn_cdf_lattice.cells", "count"),
    ("gaussian.bvn_cdf_lattice.distinct_frac", "ratio"),
    ("gaussian.y_stats.calls", "count"),
    ("gaussian.y_stats.self_s", "s"),
    ("gaussian.y_stats.distinct_frac", "ratio"),
    *((f"gaussian.exact_prob.calls.{b}", "count") for b in EXACT_BUCKETS),
    *((f"gaussian.exact_prob.self_s.{b}", "s") for b in EXACT_BUCKETS),
    ("gaussian.exact_prob.distinct_frac", "ratio"),
    ("gaussian.exact_prob.mc_draws", "count"),
    ("gaussian.approx.calls", "count"),
    ("gaussian.approx.self_s", "s"),
    ("metrics.series.calls", "count"),
    ("metrics.series.self_s", "s"),
    ("metrics.exact_prob_per_sample", "ratio"),
    ("optimizer.solve_group.calls", "count"),
    ("optimizer.solve_group.self_s", "s"),
    ("optimizer.solve_group.ms_p50", "ms"),
    ("optimizer.solve_group.ms_p90", "ms"),
    ("optimizer.solve.calls", "count"),
    ("optimizer.solve.self_s", "s"),
    ("optimizer.paths", "count"),
    ("optimizer.infeasible", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Span name prefix -> package module, for layer shares of the traced wall time.
LAYERS = ("cli", "scenario", "channel", "estimators", "harness", "gaussian", "metrics", "optimizer")


def _exact_prob_info(result, gv, ev, mc_samples=1_000_000, seed=0):
    """(bucket, Monte Carlo draws, cache key) of one exact_prob call.

    The bucket follows the method exact_prob ran: quadrature is split by the
    event dimension left after degenerate coordinates are resolved, which is
    what chooses between the 2- and 3-dim routines.
    """
    if result.method == "mc":
        bucket = "mc"
    elif result.method == "quadrature":
        from handopt.gaussian import _match_event, _strip_degenerate

        bucket = f"quad{_strip_degenerate(*_match_event(gv, ev))[0].shape[0]}"
    else:
        bucket = "closed"
    key = (gv.labels, gv.mu.tobytes(), gv.Sigma.tobytes(), ev.constraints)
    if result.method == "mc":
        key += (mc_samples, seed)
    return bucket, (mc_samples if result.method == "mc" else 0), key


def _bvn_info(result, mu, Sigma, xs, ys):
    key = tuple(np.asarray(a, dtype=float).tobytes() for a in (mu, Sigma, xs, ys))
    return result.size, key


def _emit_info(result, csv_path, json_path, *rest):
    return sum(os.path.getsize(p) for p in (csv_path, json_path) if p is not None)


def _series_info(result, process, n_last, *rest, **kwargs):
    return int(n_last) + 1


def _solve_info(result, problem):
    return len(result.paths), 0 if result.feasible else 1


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        # span: [name, parent index, start, end, end including detail capture, detail]
        self.spans = []
        self._stack = []
        self._pinned = {}  # keeps arrays alive so their id() stays a valid key

    def _y_stats_info(self, result, table0, table1, channels, distances_m, step_m,
                      y_times, p_times=(), **kwargs):
        self._pinned[id(table0)] = table0
        self._pinned[id(table1)] = table1
        return (id(table0), id(table1), channels, float(step_m),
                tuple(int(t) for t in y_times), tuple((int(s), int(t)) for s, t in p_times))

    def wrap(self, name, fn, detail=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = span[4] = perf_counter()
                stack.pop()
            if detail is not None:
                span[5] = detail(result, *args, **kwargs)
            span[4] = perf_counter()
            return result

        return wrapper

    def install(self):
        """Wrap every target at each handopt module that references it."""
        details = {
            "gaussian.exact_prob": _exact_prob_info,
            "gaussian.y_stats": self._y_stats_info,
            "gaussian.bvn_cdf_lattice": _bvn_info,
            "harness.emit": _emit_info,
            "metrics.handover_series": _series_info,
            "metrics.outage_series": _series_info,
            "optimizer.solve": _solve_info,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "handopt" or n.startswith("handopt."))]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), details.get(name)))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, details.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def _self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        own = [t1 - t0 for _, _, t0, t1, _, _ in self.spans]
        for _, parent, t0, _, t2, _ in self.spans:
            if parent >= 0:
                own[parent] -= t2 - t0
        return own

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times; trace.overhead_frac is left to the caller."""
        spans = self.spans
        own = self._self_times()
        calls, total, self_s = {}, {}, {}
        for i, (name, _, t0, t1, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + own[i]
        c = lambda *names: sum(calls.get(n, 0) for n in names)
        s = lambda *names: sum(self_s.get(n, 0.0) for n in names)
        tot = lambda n: total.get(n, 0.0)
        by_name = lambda n: [sp for sp in spans if sp[0] == n]
        frac = lambda keys: len(set(keys)) / len(keys) if keys else 0.0

        exact = by_name("gaussian.exact_prob")
        bvn = by_name("gaussian.bvn_cdf_lattice")
        groups = by_name("optimizer.solve_group")
        solves = by_name("optimizer.solve")
        series = {i for i, sp in enumerate(spans) if sp[0] in SERIES}

        def under_series(i):
            while i >= 0:
                if i in series:
                    return True
                i = spans[i][1]
            return False

        m = {
            "channel.sample_power.calls": c("channel.sample_power"),
            "channel.sample_power.self_s": s("channel.sample_power"),
            "harness.simulate.self_s": s(*SIMULATE),
            "harness.accuracy.self_s": s("harness.run_accuracy_study"),
            "harness.opt_margin_tables.calls": c("harness.opt_margin_tables"),
            "harness.opt_margin_tables.s": tot("harness.opt_margin_tables"),
            "harness.emit.s": tot("harness.emit"),
            "harness.emit.bytes": sum(sp[5] for sp in by_name("harness.emit")),
            "estimators.coefficient_table.calls": c("estimators.coefficient_table"),
            "estimators.coefficient_table.s": tot("estimators.coefficient_table"),
            "scenario.distances_m.calls": c("scenario.distances_m"),
            "scenario.distances_m.s": tot("scenario.distances_m"),
            "gaussian.bvn_cdf_lattice.calls": len(bvn),
            "gaussian.bvn_cdf_lattice.self_s": s("gaussian.bvn_cdf_lattice"),
            "gaussian.bvn_cdf_lattice.cells": sum(sp[5][0] for sp in bvn),
            "gaussian.bvn_cdf_lattice.distinct_frac": frac([sp[5][1] for sp in bvn]),
            "gaussian.y_stats.calls": c("gaussian.y_stats"),
            "gaussian.y_stats.self_s": s("gaussian.y_stats"),
            "gaussian.y_stats.distinct_frac": frac(
                [sp[5] for sp in by_name("gaussian.y_stats")]),
        }
        for b in EXACT_BUCKETS:
            m[f"gaussian.exact_prob.calls.{b}"] = sum(1 for sp in exact if sp[5][0] == b)
        for b in EXACT_BUCKETS:
            m[f"gaussian.exact_prob.self_s.{b}"] = sum(
                own[i] for i, sp in enumerate(spans)
                if sp[0] == "gaussian.exact_prob" and sp[5][0] == b)
        n_samples = sum(sp[5] for sp in spans if sp[0] in SERIES)
        under = sum(1 for i, sp in enumerate(spans)
                    if sp[0] == "gaussian.exact_prob" and under_series(sp[1]))
        group_ms = [1e3 * (sp[3] - sp[2]) for sp in groups]
        m.update({
            "gaussian.exact_prob.distinct_frac": frac([sp[5][2] for sp in exact]),
            "gaussian.exact_prob.mc_draws": sum(sp[5][1] for sp in exact),
            "gaussian.approx.calls": c(*APPROX),
            "gaussian.approx.self_s": s(*APPROX),
            "metrics.series.calls": c(*SERIES),
            "metrics.series.self_s": s(*SERIES),
            "metrics.exact_prob_per_sample": under / n_samples if n_samples else 0.0,
            "optimizer.solve_group.calls": len(groups),
            "optimizer.solve_group.self_s": s("optimizer.solve_group"),
            "optimizer.solve_group.ms_p50": _quantile(group_ms, 0.5),
            "optimizer.solve_group.ms_p90": _quantile(group_ms, 0.9),
            "optimizer.solve.calls": len(solves),
            "optimizer.solve.self_s": s("optimizer.solve"),
            "optimizer.paths": sum(sp[5][0] for sp in solves),
            "optimizer.infeasible": sum(sp[5][1] for sp in solves),
            "cli.main.self_s": s("cli.main"),
        })
        return m

    def layer_self_times(self) -> dict:
        """Self seconds summed per package module (the layer shares' numerators)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self._self_times()):
            out[span[0].split(".")[0]] += own
        return out


def _quantile(values, q):
    """Inclusive decile q (0.1 .. 0.9) of values, 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]
