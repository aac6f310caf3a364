"""Experiment harness: trial fan-out, margin policies, studies and file output.

Simulation runs draw one received-power trace per trial (seeded per trial,
so results do not depend on how trials are chunked across workers), run the
configured strength estimator, and apply a margin policy sample by sample.
The trial streams are a contract that the pinned runs and the benchmark
references hold: trial t of a simulate run draws from PCG64 seeded by
SeedSequence([seed, t]), and trial t at speed index vi of a table sweep
from SeedSequence([seed, vi, t]). The seed words of a chunk's trials are
computed together (channel.trial_generators), never through one
SeedSequence per trial.
Each chunk draws all of its traces in one sample_power call into one
cell-major buffer with the trials innermost; estimation, the decision
recursion and the tallies read that buffer in place, and the estimates
fill one second buffer of the same layout.
Every run decides through hybrid.serving_series, the one implementation of
the hysteresis rule: on two cells it is the paper's rule between BS0 and
BS1, on a cell row the serving cell faces the strongest other cell. A
policy is either a constant margin in dB or one of the optimizer-driven
policies "opt1" (handover-count objective), "opt2" (outage objective),
"opt3" (weighted blend). Optimizer policies look margins up in a
precomputed table indexed by sample and by the serving state one sample
earlier; the receding-horizon solve behind each entry is rooted at that
state with the configured base margin as the root conditioning width.

Sweeps reuse the same power traces for every policy cell at a given speed,
so policy comparisons are paired. Speed sweeps default to a fixed spatial
grid: positions stay at the reference sampling, speed acts through the
shadowing correlation between consecutive samples. Set mode="resampled" to
stretch the sample spacing instead.

All emitted files are written next to their destination and moved into
place, so a failed run never leaves a partial file.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import sample_power, trial_generators
from .errors import ConfigurationError
from .estimators import coefficient_table, estimate_series, window_estimates
from .gaussian import (
    EventSpec,
    GapProcess,
    approx1,
    approx2_bounds,
    approx3_upper,
    exact_prob,
    gap_below,
    gap_inside,
)
from .hybrid import count_switches, serving_series
from .metrics import handover_series, outage_series
from .optimizer import TrellisProblem, solve_group, _window_stats
from .scenario import ScenarioConfig, preset

# optimizer policy label -> the trellis objective it solves
_POLICY_OBJECTIVES = {"opt1": "min_handover", "opt2": "min_outage", "opt3": "pareto"}
_OPT_POLICIES = tuple(_POLICY_OBJECTIVES)
# every name of an optimizer policy (its label or its objective) -> label
_OPT_LABELS = {
    **{label: label for label in _POLICY_OBJECTIVES},
    **{objective: label for label, objective in _POLICY_OBJECTIVES.items()},
}

# Margin tables for the data-driven estimators have no power-free form;
# the optimizer models those runs with the rectangular-window table.
_TABLE_MODE = {"avg": "avg", "ls": "ls", "els": "avg", "gels": "avg"}

# Power samples (trials x cells x samples) one simulation chunk holds at most.
_CHUNK_SAMPLES = 6_000_000


# ---------------------------------------------------------------------------
# small utilities


def _worker_count(workers) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("HANDOPT_WORKERS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def config_fingerprint(config: ScenarioConfig) -> str:
    """Stable short hash of every field that affects results."""
    blob = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=_json_default
    )
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def _policy_label(policy) -> str:
    if isinstance(policy, str):
        if policy in _OPT_POLICIES:
            return policy
        raise ConfigurationError(f"unknown policy {policy!r}")
    return f"h={float(policy):g}"


def _as_fixed_margin(policy):
    """Constant margin value, or None for optimizer policies."""
    if isinstance(policy, str):
        return None
    h = float(policy)
    if not (math.isfinite(h) and h >= 0.0):
        raise ConfigurationError("constant margin must be finite and nonnegative")
    return h


def _chunk_bounds(n_trials: int, workers: int, n_bs: int, n_samples: int):
    budget = max(1, _CHUNK_SAMPLES // max(1, n_bs * n_samples))
    chunk = min(budget, -(-n_trials // workers))
    return [(t0, min(t0 + chunk, n_trials)) for t0 in range(0, n_trials, chunk)]


def _map_chunks(fn, bounds, workers: int):
    if workers <= 1 or len(bounds) <= 1:
        return [fn(t0, t1) for t0, t1 in bounds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda b: fn(*b), bounds))


# ---------------------------------------------------------------------------
# estimation plumbing


def _estimate_chunk(config: ScenarioConfig, d: np.ndarray, powers: np.ndarray, tables):
    """[T, S, N] estimates of a chunk of [T, S, N] traces: through the links'
    coefficient tables when the estimator has them, else through
    estimate_series. With tables, powers that are a view of a trial-innermost
    buffer are read in place and the result is such a view too.

    Open question: GELS gets the constant h_series = h_fixed_db, whatever
    the policy. Under optimizer margin tables its h > h_max restart
    therefore never sees the margin the decision actually applies."""
    if tables is not None:
        x = np.ascontiguousarray(np.moveaxis(powers, 0, -1))
        return np.moveaxis(window_estimates(tables, x), -1, 0)
    est, _ = estimate_series(
        d,
        powers,
        config.estimator,
        config.n_w,
        gels_gamma=config.gels_gamma,
        gels_h_max=config.h_max_db,
        reinit_all=config.gels_reinit_all,
        h_series=np.full(d.shape[1], config.h_fixed_db),
    )
    return est


def _cell_pairs(d: np.ndarray) -> np.ndarray:
    """[2, N] cell pair of every sample: (0, 1) on two cells, the nearest and
    second-nearest cell on a row. Margin-table columns 0 and 1 are the
    margins while serving the first or the second cell of the pair."""
    if d.shape[0] == 2:
        return np.repeat([[0], [1]], d.shape[1], axis=1)
    return np.argsort(d, axis=0, kind="stable")[:2]


def _gap_process(config: ScenarioConfig, cell_a: int = 0, cell_b: int = 1):
    """Joint Gaussian machinery for one ordered pair of cells."""
    d = config.distances_m()
    mode = _TABLE_MODE[config.estimator]
    chs = config.channels
    t_a = coefficient_table(d[cell_a], config.n_w, mode)
    t_b = coefficient_table(d[cell_b], config.n_w, mode)
    return GapProcess(t_a, t_b, (chs[cell_a], chs[cell_b]), d[[cell_a, cell_b]], config.step_m)


# ---------------------------------------------------------------------------
# optimizer margin tables


def _policy_problem_kwargs(config: ScenarioConfig, label: str) -> dict:
    objective = _POLICY_OBJECTIVES.get(label)
    if objective == "min_handover":
        return {"objective": objective, "p_out_cap": config.p_out_cap, "p_han_cap": 1.0}
    if objective == "min_outage":
        return {"objective": objective, "p_out_cap": 1.0, "p_han_cap": config.p_han_cap}
    if objective == "pareto":
        return {
            "objective": objective,
            "p_out_cap": 1.0,
            "p_han_cap": 1.0,
            "pareto_z": config.pareto_weight,
        }
    raise ConfigurationError(f"unknown optimizer policy {label!r}")


def _trellis_problem(config: ScenarioConfig, stats, horizon: int, root_b: int, label: str):
    """Receding-horizon problem of one optimizer policy on prepared stats."""
    return TrellisProblem(
        horizon=horizon,
        root_b=root_b,
        root_margin=config.h_fixed_db,
        stats=stats,
        outage_threshold_db=config.resolved_outage_threshold(),
        h_max=config.h_max_db,
        h_step=config.h_step_db,
        **_policy_problem_kwargs(config, label),
    )


def opt_margin_tables(
    config: ScenarioConfig,
    policies=_OPT_POLICIES,
    *,
    channels=None,
) -> dict:
    """Precompute margin lookup tables for the optimizer policies.

    Returns {policy: [N, 2] array}: row t holds the margin applied at
    sample t when the serving cell one sample earlier was the first or the
    second cell of that sample's pair (_cell_pairs). Row 0 is the base
    margin. One receding-horizon solve pair per sample is shared across
    policies. Every policy must be an optimizer policy (opt1-3).

    Each cell pair keeps one GapProcess for the whole call, and every root
    reads its window from that process's block law (GapProcess.block_stats).
    The roots of one block share the block's memo, so each outage lattice
    table of a (pair, block, sample, cell) is built once for all of them.
    """
    policies = list(policies)
    for p in policies:
        if p not in _OPT_POLICIES:
            raise ConfigurationError(f"unknown optimizer policy {p!r}")
    d = config.distances_m()
    n_samples = d.shape[1]
    chs = tuple(channels) if channels is not None else config.channels
    mode = _TABLE_MODE[config.estimator]
    pair = _cell_pairs(d)

    cell_tables = {}
    processes = {}

    def process_for(a: int, b: int) -> GapProcess:
        if (a, b) not in processes:
            for cell in (a, b):
                if cell not in cell_tables:
                    cell_tables[cell] = coefficient_table(d[cell], config.n_w, mode)
            processes[a, b] = GapProcess(
                cell_tables[a], cell_tables[b], (chs[a], chs[b]), d[[a, b]], config.step_m
            )
        return processes[a, b]

    out = {p: np.full((n_samples, 2), config.h_fixed_db) for p in policies}
    if not policies or n_samples < 2:
        return out

    for t in range(1, n_samples):
        root_n = t - 1
        m = min(config.horizon, n_samples - 1 - root_n)
        process = process_for(*pair[:, root_n].tolist())
        stats = _window_stats(process, root_n, m)
        problems = [
            _trellis_problem(config, stats, m, root_b, p)
            for p in policies
            for root_b in (0, 1)
        ]
        sols = solve_group(problems, process.block_memo(root_n))
        for i, p in enumerate(policies):
            out[p][t] = (sols[2 * i].h_first, sols[2 * i + 1].h_first)
    return out


# ---------------------------------------------------------------------------
# simulation core


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated policy cell.

    Empirical side: per-trial switch counts, the switch-time event log, and
    per-sample occupancy/outage tallies split by connection branch. On two
    cells the branches are the serving states; on a cell row they are
    serving-the-nearest-cell versus serving-any-other. The trip outage
    aggregate sums branch-conditional outage frequencies, matching the
    definition of the per-sample outage probability (conditioned on the
    connection state, both branches charged). Per-trial outage-sample
    counts are kept as the unconditional companion. Analytic side (when
    requested): per-sample switch and outage probability series with
    standard errors, whose sums are the trip aggregates.
    """

    policy: str
    speed_mps: float
    n_trials: int
    switch_counts: np.ndarray
    outage_counts: np.ndarray
    conn_counts: np.ndarray
    outage_branch_counts: np.ndarray
    switch_times: tuple
    margin_table: np.ndarray
    base_seed: int
    config: ScenarioConfig
    analytic_p_h: np.ndarray = None
    analytic_p_o: np.ndarray = None
    analytic_se_h: np.ndarray = None
    analytic_se_o: np.ndarray = None

    @classmethod
    def from_tallies(cls, tallies, **fields) -> "RunResult":
        """Result from a (switches, outages, switch times, conn, outb) tuple."""
        switches, outages, times, conn, outb = tallies
        return cls(
            switch_counts=switches,
            outage_counts=outages,
            conn_counts=conn,
            outage_branch_counts=outb,
            switch_times=times,
            **fields,
        )

    @property
    def mean_switches(self) -> float:
        return float(np.mean(self.switch_counts))

    @property
    def se_switches(self) -> float:
        if self.n_trials < 2:
            return 0.0
        return float(np.std(self.switch_counts, ddof=1) / math.sqrt(self.n_trials))

    @property
    def outage_sum(self) -> float:
        """Sum over samples of serving-branch-conditional outage frequencies.

        Branches a sample never visited contribute nothing; a visited
        branch contributes its conditional frequency at full weight however
        rarely it is occupied, mirroring the analytic conditional sum.
        """
        conn = self.conn_counts
        frac = self.outage_branch_counts / np.maximum(conn, 1)
        return float(frac[conn > 0].sum())

    @property
    def mean_outage_samples(self) -> float:
        return float(np.mean(self.outage_counts))

    @property
    def se_outage_samples(self) -> float:
        if self.n_trials < 2:
            return 0.0
        return float(np.std(self.outage_counts, ddof=1) / math.sqrt(self.n_trials))

    @property
    def analytic_handover_sum(self):
        return None if self.analytic_p_h is None else float(self.analytic_p_h.sum())

    @property
    def analytic_outage_sum(self):
        return None if self.analytic_p_o is None else float(self.analytic_p_o.sum())

    def aggregates(self) -> dict:
        return {
            "avg_handovers": self.mean_switches,
            "se_handovers": self.se_switches,
            "avg_outage": self.outage_sum,
            "avg_outage_samples": self.mean_outage_samples,
            "se_outage_samples": self.se_outage_samples,
        }


def _tally(series, powers, beta, init, first):
    """Per-trial and per-sample counts of one policy's serving series.

    series is [T, N] and powers [T, S, N]; views of trial-innermost buffers
    are read in place. Branch 0 of conn/outb tallies the samples served by
    the first cell of their pair, branch 1 the rest: on two cells the
    serving states, on a cell row the pairwise reduction (nearest cell
    versus any other). Outage is the post-decision serving power at or
    below beta.
    """
    serving = np.ascontiguousarray(series.T)  # [N, T]
    n, t = serving.shape
    # flat index of powers[trial, serving cell, sample] in the [S, N, T] order
    flat = serving.astype(np.intp) * (n * t)
    flat += (np.arange(n) * t)[:, None]
    flat += np.arange(t)
    low = np.take(np.moveaxis(powers, 0, -1), flat) <= beta
    branch = serving != first[:, None]
    on = np.count_nonzero(branch, axis=1)
    low_on = np.count_nonzero(low & branch, axis=1)
    conn = np.stack([t - on, on])
    outb = np.stack([np.count_nonzero(low, axis=1) - low_on, low_on])
    return count_switches(series, init), np.count_nonzero(low, axis=0), series, conn, outb


def _decide(est, powers, h_tables, beta, pair, init, h_fallback):
    """Serving-cell recursions and tallies for every policy on shared traces."""
    out = {}
    for label, h_table in h_tables.items():
        series = serving_series(est, h_table, pair, init, h_fallback)
        out[label] = _tally(series, powers, beta, init, pair[0])
    return out


def _simulate_policies(
    config: ScenarioConfig,
    policies,
    n_trials: int,
    *,
    seed_parts,
    channels=None,
    workers=None,
    log_events=True,
):
    """Shared-trace simulation of several policies; dict label -> arrays."""
    if n_trials < 1:
        raise ConfigurationError("n_trials must be >= 1")
    d = config.distances_m()
    n_bs, n_samples = d.shape
    chs = tuple(channels) if channels is not None else config.channels
    beta = config.resolved_outage_threshold()
    labels = [_policy_label(p) for p in policies]
    if len(set(labels)) != len(labels):
        raise ConfigurationError("duplicate policies in one run")

    opt_needed = [l for l in labels if l in _OPT_POLICIES]
    margin_tables = opt_margin_tables(config, opt_needed, channels=chs) if opt_needed else {}
    h_tables = {}
    for policy, label in zip(policies, labels):
        fixed = _as_fixed_margin(policy)
        h_tables[label] = margin_tables[label] if fixed is None else np.full((n_samples, 2), fixed)

    if config.estimator in ("avg", "ls"):
        tables = np.stack([coefficient_table(row, config.n_w, config.estimator) for row in d])
    else:
        tables = None

    pair = _cell_pairs(d)
    init = config.b_init if n_bs == 2 else int(pair[0, 0])

    def run_chunk(t0: int, t1: int):
        rngs = trial_generators(seed_parts, t0, t1)
        # [T, S, N] view of the trial-innermost buffer every stage reads
        powers = np.moveaxis(sample_power(chs, d, config.step_m, rngs).cell_major_db, -1, 0)
        est = _estimate_chunk(config, d, powers, tables)
        return _decide(est, powers, h_tables, beta, pair, init, config.h_fixed_db)

    workers_n = _worker_count(workers)
    bounds = _chunk_bounds(n_trials, workers_n, n_bs, n_samples)
    pieces = _map_chunks(run_chunk, bounds, workers_n)

    results = {}
    for label in labels:
        switches = np.concatenate([p[label][0] for p in pieces])
        outages = np.concatenate([p[label][1] for p in pieces])
        conn = sum(p[label][3] for p in pieces)
        outb = sum(p[label][4] for p in pieces)
        times = None
        if log_events:
            series = np.concatenate([p[label][2] for p in pieces], axis=0)
            changed = np.empty(series.shape, dtype=bool)
            changed[:, 0] = series[:, 0] != init
            np.not_equal(series[:, 1:], series[:, :-1], out=changed[:, 1:])
            # row-major order lists each trial's changes in sample order
            samples = np.flatnonzero(changed) % n_samples
            times = tuple(np.split(samples, np.cumsum(switches)[:-1]))
        results[label] = (switches, outages, times, conn, outb)
    return results, h_tables


def run_two_cell(
    config: ScenarioConfig,
    policy,
    n_trials: int,
    *,
    seed=None,
    workers=None,
    log_events: bool = True,
    analytic=None,
    mc_samples: int = 1_000_000,
) -> RunResult:
    """Simulate one policy on a two-cell scenario.

    analytic selects the probability-chain evaluation added to the result
    ("pairwise" or "exact"); it is available for constant-margin policies
    only, since the chains assume a margin sequence fixed in advance.
    """
    if config.layout.n_bs != 2:
        raise ConfigurationError("run_two_cell needs a two-cell layout")
    base_seed = config.seed if seed is None else int(seed)
    results, h_tables = _simulate_policies(
        config,
        [policy],
        n_trials,
        seed_parts=[base_seed],
        workers=workers,
        log_events=log_events,
    )
    label = _policy_label(policy)
    extra = {}
    if analytic is not None:
        fixed = _as_fixed_margin(policy)
        if fixed is None:
            raise ConfigurationError(
                "analytic chains need a constant-margin policy"
            )
        process = _gap_process(config)
        n_last = config.trace().n_samples - 1
        depth = config.resolved_depth()
        beta = config.resolved_outage_threshold()
        p01, p10, se_h = handover_series(
            process, n_last, fixed, depth,
            b_init=config.b_init, method=analytic, mc_samples=mc_samples,
            seed=base_seed,
        )
        _, _, po, _, se_o = outage_series(
            process, n_last, fixed, depth, beta,
            b_init=config.b_init, method=analytic, mc_samples=mc_samples,
            seed=base_seed,
        )
        extra = {
            "analytic_p_h": p01 + p10,
            "analytic_p_o": po,
            "analytic_se_h": se_h,
            "analytic_se_o": se_o,
        }
    return RunResult.from_tallies(
        results[label],
        margin_table=h_tables[label],
        policy=label,
        speed_mps=config.speed_mps,
        n_trials=n_trials,
        base_seed=base_seed,
        config=config,
        **extra,
    )


def run_multicell(
    config: ScenarioConfig,
    policy,
    n_trials: int,
    *,
    seed=None,
    workers=None,
    log_events: bool = True,
) -> RunResult:
    """Simulate one policy on a multi-cell row scenario."""
    if config.layout.n_bs < 3:
        raise ConfigurationError("run_multicell needs at least three cells")
    base_seed = config.seed if seed is None else int(seed)
    results, h_tables = _simulate_policies(
        config,
        [policy],
        n_trials,
        seed_parts=[base_seed],
        workers=workers,
        log_events=log_events,
    )
    label = _policy_label(policy)
    return RunResult.from_tallies(
        results[label],
        margin_table=h_tables[label],
        policy=label,
        speed_mps=config.speed_mps,
        n_trials=n_trials,
        base_seed=base_seed,
        config=config,
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Speed x policy grid for aggregate tables."""

    speeds: tuple = (5.0, 20.0, 40.0)
    policies: tuple = (0.0, 2.0, 4.0, "opt1", "opt2", "opt3")
    n_trials: int = 1000
    mode: str = "fixed-grid"

    def __post_init__(self):
        object.__setattr__(self, "speeds", tuple(float(v) for v in self.speeds))
        object.__setattr__(self, "policies", tuple(self.policies))
        if self.mode not in ("fixed-grid", "resampled"):
            raise ConfigurationError("sweep mode must be 'fixed-grid' or 'resampled'")
        if self.n_trials < 1:
            raise ConfigurationError("n_trials must be >= 1")
        for v in self.speeds:
            if not (v > 0 and math.isfinite(v)):
                raise ConfigurationError("speeds must be positive")
        # equal column labels would overwrite one speed's results with another's
        columns = [f"v={v:g}" for v in self.speeds]
        if len(set(columns)) != len(columns):
            raise ConfigurationError(f"speeds share a column label: {columns}")


def _speed_variant(config: ScenarioConfig, v: float, mode: str):
    """(config, channels) pair realizing speed v under the sweep mode."""
    if mode == "resampled":
        return config.with_updates(speed_mps=v), None
    scale = config.speed_mps / v
    channels = tuple(
        replace(ch, coherence_m=ch.coherence_m * scale) for ch in config.channels
    )
    return config, channels


def run_table_sweep(
    config: ScenarioConfig,
    spec: SweepSpec = None,
    *,
    seed=None,
    workers=None,
    log_events: bool = False,
) -> dict:
    """Simulate every (policy, speed) cell; {(label, speed): RunResult}.

    Power traces are drawn once per (speed, trial) and shared by all
    policies, so policy orderings are paired comparisons.
    """
    spec = spec if spec is not None else SweepSpec()
    base_seed = config.seed if seed is None else int(seed)
    out = {}
    for vi, v in enumerate(spec.speeds):
        cfg_v, channels_v = _speed_variant(config, v, spec.mode)
        results, h_tables = _simulate_policies(
            cfg_v,
            spec.policies,
            spec.n_trials,
            seed_parts=[base_seed, vi],
            channels=channels_v,
            workers=workers,
            log_events=log_events,
        )
        for policy in spec.policies:
            label = _policy_label(policy)
            out[(label, v)] = RunResult.from_tallies(
                results[label],
                margin_table=h_tables[label],
                policy=label,
                speed_mps=v,
                n_trials=spec.n_trials,
                base_seed=base_seed,
                config=cfg_v,
            )
    return out


def sweep_table(results: dict, spec: SweepSpec):
    """(fieldnames, rows) for the aggregate table: one row per metric x policy."""
    fields = ["metric", "policy"] + [f"v={v:g}" for v in spec.speeds]
    rows = []
    for metric in ("avg_handovers", "avg_outage"):
        for policy in spec.policies:
            label = _policy_label(policy)
            row = {"metric": metric, "policy": label}
            for v in spec.speeds:
                row[f"v={v:g}"] = results[(label, v)].aggregates()[metric]
            rows.append(row)
    return fields, rows


def sweep_summary(config: ScenarioConfig, spec: SweepSpec, results: dict, seed) -> dict:
    cells = {}
    for policy in spec.policies:
        label = _policy_label(policy)
        cells[label] = {
            f"v={v:g}": results[(label, v)].aggregates() for v in spec.speeds
        }
    return {
        "schema": "table-sweep-v1",
        "config_hash": config_fingerprint(config),
        "base_seed": config.seed if seed is None else int(seed),
        "mode": spec.mode,
        "n_trials": spec.n_trials,
        "speeds": list(spec.speeds),
        "policies": [_policy_label(p) for p in spec.policies],
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# accuracy study


@dataclass(frozen=True)
class AccuracyStudy:
    """Probability-method comparison over random chain events.

    mae holds mean absolute errors against the exact estimate, mre the
    mean relative errors. Chain probabilities span decades as k grows, so
    the two tell different stories: mre is the one that tracks how the
    bounds degrade with dimension.
    """

    k: int
    m_split: int
    fieldnames: tuple
    rows: tuple
    mae: dict
    mre: dict


def run_accuracy_study(
    k: int,
    m_split: int,
    n_instances: int = 100,
    seed: int = 0,
    *,
    config: ScenarioConfig = None,
    mc_samples: int = 400_000,
    csv_path=None,
    json_path=None,
) -> AccuracyStudy:
    """Compare the approximate evaluators against the exact one.

    Instances are switch-event chains along the two-cell path: a lower exit
    at a random sample followed by k-1 in-band samples at the base margin,
    a k-dimensional box probability. Evaluated series: exact, blockwise B1
    (blocks of m_split), eigenvalue sandwich LB2/UB2 and the split upper
    bound UB3. k up to 10 is accepted; 4, 6 and 8 are the standard sizes.
    """
    if not 2 <= k <= 10:
        raise ConfigurationError("k must lie in 2..10")
    if not 1 <= m_split <= k:
        raise ConfigurationError("m_split must lie in 1..k")
    if n_instances < 1:
        raise ConfigurationError("n_instances must be >= 1")
    if seed < 0:
        raise ConfigurationError("seed must be a nonnegative integer")
    config = config if config is not None else preset("paper-vi")
    if config.layout.n_bs != 2:
        raise ConfigurationError("the accuracy study runs on a two-cell layout")
    process = _gap_process(config)
    n_samples = process.n_samples
    if n_samples < k + 1:
        raise ConfigurationError("trace too short for the requested chain length")
    h = config.h_fixed_db
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    roots = rng.integers(0, n_samples - k, size=n_instances)

    fields = (
        "instance", "root", "k", "m_split",
        "exact", "exact_stderr", "b1", "b1_stderr",
        "lb2", "ub2", "ub3", "ub3_stderr",
    )
    rows = []
    err = {"b1": [], "lb2": [], "ub2": [], "ub3": []}
    rel = {"b1": [], "lb2": [], "ub2": [], "ub3": []}
    violations = 0
    for i, j in enumerate(roots):
        j = int(j)
        constraints = [gap_below(j, h)] + [gap_inside(t, h) for t in range(j + 1, j + k)]
        ev = EventSpec(tuple(constraints))
        gv = process.joint(ev.labels)
        s_ex, s_b1, s_u3 = (
            int(x) for x in np.random.SeedSequence([seed, 2, i]).generate_state(3)
        )
        exact = exact_prob(gv, ev, mc_samples, s_ex)
        b1 = approx1(gv, ev, group_size=m_split, mc_samples=mc_samples, seed=s_b1)
        lb2, ub2 = approx2_bounds(gv, ev)
        ub3 = approx3_upper(gv, ev, m_split, mc_samples=mc_samples, seed=s_u3)
        rows.append(
            {
                "instance": i,
                "root": j,
                "k": k,
                "m_split": m_split,
                "exact": exact.estimate,
                "exact_stderr": exact.stderr,
                "b1": b1.estimate,
                "b1_stderr": b1.stderr,
                "lb2": lb2,
                "ub2": ub2,
                "ub3": ub3.estimate,
                "ub3_stderr": ub3.stderr,
            }
        )
        ref = max(exact.estimate, np.finfo(float).tiny)
        for name, est in (
            ("b1", b1.estimate), ("lb2", lb2), ("ub2", ub2), ("ub3", ub3.estimate)
        ):
            err[name].append(abs(est - exact.estimate))
            rel[name].append(abs(est - exact.estimate) / ref)
        tol = 3.0 * exact.stderr
        if lb2 > exact.estimate + tol or ub2 < exact.estimate - tol:
            violations += 1
    mae = {name: float(np.mean(vals)) for name, vals in err.items()}
    mae["sandwich_violations"] = violations
    mre = {name: float(np.mean(vals)) for name, vals in rel.items()}
    study = AccuracyStudy(
        k=k, m_split=m_split, fieldnames=fields, rows=tuple(rows), mae=mae, mre=mre
    )
    if csv_path is not None or json_path is not None:
        summary = {
            "schema": "accuracy-study-v1",
            "config_hash": config_fingerprint(config),
            "seed": seed,
            "k": k,
            "m_split": m_split,
            "n_instances": n_instances,
            "mc_samples": mc_samples,
            "mae": mae,
            "mre": mre,
        }
        emit(csv_path, json_path, fields, rows, summary)
    return study


# ---------------------------------------------------------------------------
# file output


def _atomic_write(path, text: str):
    tmp = f"{path}.tmp"
    f = open(tmp, "w", newline="")
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def emit(csv_path, json_path, fieldnames, rows, summary) -> None:
    """Write a long-format CSV and/or a JSON summary atomically.

    Column order is exactly ``fieldnames``; an empty row list produces a
    header-only CSV. No timestamps or environment details are recorded, so
    rerunning the same configuration reproduces the bytes.
    """
    if csv_path is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        _atomic_write(csv_path, buf.getvalue())
    if json_path is not None:
        _atomic_write(
            json_path,
            json.dumps(summary, sort_keys=True, indent=2, default=_json_default) + "\n",
        )


def trellis_rows(solution):
    """(fieldnames, rows) dump of every candidate path of one solve."""
    fields = ("path", "states", "events", "margins", "cost", "feasible", "violation", "chosen")
    rows = []
    for idx, p in enumerate(solution.paths):
        rows.append(
            {
                "path": idx,
                "states": "-".join(str(s) for s in p.states),
                "events": "|".join(p.events),
                "margins": "|".join(f"{h:g}" for h in p.margins),
                "cost": p.cost,
                "feasible": p.feasible,
                "violation": p.violation,
                "chosen": p is solution.path,
            }
        )
    return fields, rows
