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
sample-major [N, S, T] buffer with the trials innermost, the only
chunk-sized array it holds: power (n, s, t) sits at flat index
n*S*T + s*T + t. Its samples are then walked in blocks of
estimators.block_samples(S, T) samples (_decide): each block's [K, S, T]
estimates fill one block buffer, every policy's serving recursion resumes
from the serving cells the block before left, and the block's tallies are
added, all reading the power buffer in place. gels, whose estimates are
not a linear filter, fills the same block buffer from its resumable walk
(estimators._gels), which carries its window moments from block to
block. Each worker thread allocates its power buffer once, at its first
and largest chunk, and every later chunk reuses its front, as it does the
block buffer's (_map_chunks). A run starts at most one thread per usable
CPU.
Every sample sees the same operations whatever the block, so results do
not depend on it. Switch times are logged per block as (trial, sample)
pairs, so a logged run holds no serving series either.
Every run decides through hybrid.serving_series, the one implementation of
the hysteresis rule: on two cells it is the paper's rule between BS0 and
BS1, on a cell row the serving cell faces the strongest other cell. A
policy is either a constant margin in dB or one of the optimizer-driven
policies "opt1" (handover-count objective), "opt2" (outage objective),
"opt3" (weighted blend). Optimizer policies look margins up in a
precomputed table indexed by sample and by the serving state one sample
earlier; the receding-horizon solve behind each entry is rooted at that
state with the configured base margin as the root conditioning width.

Every run becomes results in _simulate_policies, which returns one
finished RunResult per policy; the runners only choose its config, seeds
and speed, and run_two_cell adds its analytic series to the result.

Sweeps reuse the same power traces for every policy cell at a given speed,
so policy comparisons are paired. Each sweep speed is a config
(_speed_variant), which the simulator and the optimizer tables read alike.
Speed sweeps default to a fixed spatial grid: positions stay at the
reference sampling, speed acts through the shadowing correlation between
consecutive samples (every channel's coherence length is scaled). Set
mode="resampled" to stretch the sample spacing instead.

Runners and studies return results and write no files; the CLI writes
them through emit, which writes each file next to its destination and
moves it into place, so a failed run never leaves a partial file.
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
from .estimators import _gels, block_samples, coefficient_table, window_estimates
from .gaussian import (
    _BLOCK_SAMPLES,
    EventSpec,
    GapProcess,
    approx1,
    approx2_bounds,
    approx3_upper,
    exact_prob,
    gap_below,
    gap_inside,
    y_stats,
)
from .hybrid import count_switches, serving_series
from .metrics import _check_method_args, handover_series, outage_series
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

# estimator -> the coefficient rows the simulator estimates with and the
# optimizer models it by. ELS estimates are the LS rows' (see estimators).
# GELS has no power-free form; its optimizer model takes the
# rectangular-window rows and the simulator runs its walk (_block_estimates).
_TABLE_MODE = {"avg": "avg", "ls": "ls", "els": "ls", "gels": "avg"}

# Power samples (trials x cells x samples) one simulation chunk holds at
# most: 48 MB of float64 powers, beside which the chunk's block-sized
# estimates, decision temporaries and logged switches are small, whatever
# the estimator.
_CHUNK_SAMPLES = 6_000_000


# ---------------------------------------------------------------------------
# small utilities


def _worker_count(workers) -> int:
    """An explicit count must be >= 1; without one, HANDOPT_WORKERS if it
    holds an integer (at least 1), else 1."""
    if workers is not None:
        if int(workers) < 1:
            raise ConfigurationError("workers must be >= 1")
        return int(workers)
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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunk_bounds(n_trials: int, workers: int, n_bs: int, n_samples: int):
    budget = max(1, _CHUNK_SAMPLES // max(1, n_bs * n_samples))
    chunk = min(budget, -(-n_trials // workers))
    return [(t0, min(t0 + chunk, n_trials)) for t0 in range(0, n_trials, chunk)]


def _map_chunks(new_worker, bounds, threads: int):
    """[run(t0, t1) for every chunk], in chunk order. Thread i runs chunks
    i, i + threads, ... through one run = new_worker(), so a worker's
    first chunk is its largest and its buffers can serve every later one."""

    def stripe(i):
        run = new_worker()
        return [run(t0, t1) for t0, t1 in bounds[i::threads]]

    if threads <= 1:
        return stripe(0)
    out = [None] * len(bounds)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i, pieces in enumerate(pool.map(stripe, range(threads))):
            out[i::threads] = pieces
    return out


# ---------------------------------------------------------------------------
# estimation plumbing


def _block_estimates(
    config: ScenarioConfig, d: np.ndarray, x: np.ndarray, tables, block: int, buf: np.ndarray
):
    """Estimates of a chunk's [N, S, T] powers x by sample block: a function
    (n0, n1) -> [n1 - n0, S, T] estimates of samples n0 .. n1 - 1, for
    consecutive blocks of at most `block` samples.

    Every block is written into the front of buf, a flat buffer of at least
    min(block, N) * S * T values, so it is valid until the next call. With
    tables (avg, ls, and els, which estimates with the ls rows)
    window_estimates computes it. gels has no power-free form: its walk
    (estimators._gels) yields the block's samples one by one and keeps its
    window moments for the next block, so the blocks must come in sample
    order.

    GELS gets the constant h_series = h_fixed_db, whatever the policy. So
    its h > h_max restart fires at every sample when h_fixed_db > h_max_db,
    and the estimates are then the raw powers, as avg with n_w = 1 gives
    them; otherwise it never fires. An optimizer margin ends at h_max (the
    trellis grid does), so an applied margin would not fire it either."""
    n, n_bs, n_tr = x.shape
    if tables is None:
        walk = _gels(
            np.log10(d), x, np.full(n, config.h_fixed_db),
            config.gels_gamma, config.h_max_db, config.gels_reinit_all,
        )

    def estimate(n0: int, n1: int):
        out = buf[: (n1 - n0) * n_bs * n_tr].reshape(n1 - n0, n_bs, n_tr)
        if tables is None:
            for i in range(n1 - n0):
                out[i] = next(walk)[0]
        else:
            window_estimates(tables, x, n0, n1, out)
        return out

    return estimate


def _cell_pairs(d: np.ndarray) -> np.ndarray:
    """[2, N] cell pair of every sample: (0, 1) on two cells, the nearest and
    second-nearest cell on a row. Margin-table columns 0 and 1 are the
    margins while serving the first or the second cell of the pair."""
    if d.shape[0] == 2:
        return np.repeat([[0], [1]], d.shape[1], axis=1)
    return np.argsort(d, axis=0, kind="stable")[:2]


def _gap_process(config: ScenarioConfig, cell_a: int = 0, cell_b: int = 1):
    """Joint Gaussian machinery for one ordered pair of cells. Its block
    overlap, max(horizon, resolved depth), holds every trellis window and
    every chain term of the config in one block law."""
    d = config.distances_m()
    mode = _TABLE_MODE[config.estimator]
    chs = config.channels
    t_a = coefficient_table(d[cell_a], config.n_w, mode)
    t_b = coefficient_table(d[cell_b], config.n_w, mode)
    return GapProcess(
        t_a, t_b, (chs[cell_a], chs[cell_b]), d[[cell_a, cell_b]], config.step_m,
        overlap=max(config.horizon, config.resolved_depth()),
    )


# ---------------------------------------------------------------------------
# optimizer margin tables


def _trellis_problem(
    config: ScenarioConfig, stats, horizon: int, root_b: int, label: str, outage_threshold_db: float
):
    """Receding-horizon problem of one optimizer policy on prepared stats.

    Every policy gets the config's caps and pareto weight: each objective
    reads only its own setting (p_out_cap for min_handover, p_han_cap for
    min_outage, the weight for pareto). The caller resolves the outage
    threshold (config.resolved_outage_threshold()) once for all its
    problems."""
    return TrellisProblem(
        objective=_POLICY_OBJECTIVES[label],
        horizon=horizon,
        root_b=root_b,
        root_margin=config.h_fixed_db,
        stats=stats,
        outage_threshold_db=outage_threshold_db,
        h_max=config.h_max_db,
        h_step=config.h_step_db,
        p_out_cap=config.p_out_cap,
        p_han_cap=config.p_han_cap,
        pareto_z=config.pareto_weight,
    )


def opt_margin_tables(config: ScenarioConfig, policies=_OPT_POLICIES) -> dict:
    """Precompute margin lookup tables for the optimizer policies.

    Returns {policy: [N, 2] array}: row t holds the margin applied at
    sample t when the serving cell one sample earlier was the first or the
    second cell of that sample's pair (_cell_pairs). Row 0 is the base
    margin. One receding-horizon solve pair per sample is shared across
    policies. Every policy must be an optimizer policy (opt1-3). The
    config's channels and estimator set the gap law; a sweep passes its
    speed variant (_speed_variant) as the config.

    Each cell pair keeps one GapProcess (_gap_process) for the whole call,
    and every root reads its window from that process's block law
    (GapProcess.block_stats). The roots are solved in one solve_group call
    per (cell pair, block), so the stage tables of all their windows take
    one stacked build, in which each outage lattice table of a (pair,
    block, sample, cell) is integrated once.
    """
    policies = list(policies)
    for p in policies:
        if p not in _OPT_POLICIES:
            raise ConfigurationError(f"unknown optimizer policy {p!r}")
    d = config.distances_m()
    n_samples = d.shape[1]
    out = {p: np.full((n_samples, 2), config.h_fixed_db) for p in policies}
    if not policies or n_samples < 2:
        return out

    beta = config.resolved_outage_threshold()
    roots = {}  # (cell pair, block) -> its root samples, in trace order
    for n, (a, b) in enumerate(_cell_pairs(d)[:, :-1].T.tolist()):
        roots.setdefault((a, b, n // _BLOCK_SAMPLES), []).append(n)
    processes = {}
    for (a, b, _), ns in roots.items():
        if (a, b) not in processes:
            processes[a, b] = _gap_process(config, a, b)
        process = processes[a, b]
        problems = []
        for n in ns:
            m = min(config.horizon, n_samples - 1 - n)
            stats = _window_stats(process, n, m)
            problems += [
                _trellis_problem(config, stats, m, root_b, p, beta)
                for p in policies
                for root_b in (0, 1)
            ]
        sols = iter(solve_group(problems))
        for n in ns:
            for p in policies:
                out[p][n + 1] = (next(sols).h_first, next(sols).h_first)
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

    config is the scenario the cell ran: in a table sweep, the speed
    variant of the sweep's config (_speed_variant), while speed_mps is the
    cell's speed under either sweep mode.
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


class _Tally:
    """One policy's counts over a chunk of T trials and N samples, added
    one block of serving cells at a time.

    Branch 0 of conn/outb tallies the samples served by the first cell of
    their pair, branch 1 the rest: on two cells the serving states, on a
    cell row the pairwise reduction (nearest cell versus any other).
    Outage is the post-decision serving power at or below beta. With
    log_events each block's switches are kept as (trial, sample) pairs.
    """

    def __init__(self, n_tr: int, n: int, init, log_events: bool):
        self.serving = np.full(n_tr, init, dtype=np.int16)  # before the next block
        self.switches = np.zeros(n_tr, dtype=np.int64)
        self.outages = np.zeros(n_tr, dtype=np.int64)
        self.conn = np.zeros((2, n), dtype=np.int64)
        self.outb = np.zeros((2, n), dtype=np.int64)
        self.events = [] if log_events else None

    def add(self, serving, x, n0: int, beta, first):
        """Count the [K, T] serving cells of samples n0 .. n0 + K - 1; x is
        the chunk's [N, S, T] powers and first the pair's first cells."""
        k, t = serving.shape
        n1 = n0 + k
        # flat index of x[sample, serving cell, trial]
        flat = serving.astype(np.intp) * t
        flat += (np.arange(n0, n1) * (x.shape[1] * t))[:, None]
        flat += np.arange(t)
        low = np.take(x, flat) <= beta
        branch = serving != first[n0:n1, None]
        on = np.count_nonzero(branch, axis=1)
        low_on = np.count_nonzero(low & branch, axis=1)
        self.conn[:, n0:n1] = t - on, on
        self.outb[:, n0:n1] = np.count_nonzero(low, axis=1) - low_on, low_on
        self.switches += count_switches(serving.T, self.serving)
        self.outages += np.count_nonzero(low, axis=0)
        if self.events is not None:
            changed = np.empty(serving.shape, dtype=bool)
            np.not_equal(serving[0], self.serving, out=changed[0])
            np.not_equal(serving[1:], serving[:-1], out=changed[1:])
            sample, trial = np.nonzero(changed)
            self.events.append((trial, sample + n0))
        self.serving = serving[-1]

    def counts(self):
        """(switches [T], outage samples [T], the switch samples of every
        trial, trial-major, or None without log_events, conn [2, N],
        outb [2, N])."""
        times = None
        if self.events is not None:
            trial, sample = (np.concatenate(a) for a in zip(*self.events))
            # blocks and their pairs come in sample order, so a stable sort
            # by trial keeps each trial's switches in sample order
            times = sample[np.argsort(trial, kind="stable")]
        return self.switches, self.outages, times, self.conn, self.outb


def _decide(estimate, x, h_tables, beta, pair, init, h_fallback, block, log_events):
    """Serving-cell recursions and tallies for every policy on shared traces,
    walked in blocks of `block` samples; {label: _Tally.counts()}.

    x is the C-contiguous [N, S, T] powers, read in place. estimate(n0, n1)
    gives the C-contiguous [K, S, T] estimates of samples n0 .. n1 - 1
    (serving_series reads a [T, S, K] view of them), and every policy
    decides and tallies a block, resuming from the serving cells the block
    before left, before the next block is estimated. Every sample sees the
    same operations whatever the block, so the counts do not depend on it;
    on whole arrays (estimate slicing [N, S, T] estimates, block = N) this
    is one block.
    """
    n, _, n_tr = x.shape
    tallies = {label: _Tally(n_tr, n, init, log_events) for label in h_tables}
    for n0 in range(0, n, block):
        n1 = min(n0 + block, n)
        est = estimate(n0, n1).transpose(2, 1, 0)
        for label, h_table in h_tables.items():
            tally = tallies[label]
            serving = serving_series(est, h_table, pair, tally.serving, h_fallback, n0)
            tally.add(serving.T, x, n0, beta, pair[0])
    return {label: tally.counts() for label, tally in tallies.items()}


def _simulate_policies(
    config: ScenarioConfig,
    policies,
    n_trials: int,
    *,
    seed_parts,
    speed_mps: float,
    workers,
    log_events: bool,
) -> dict:
    """Shared-trace simulation of several policies; {label: RunResult}.

    Trial t draws from SeedSequence([*seed_parts, t]); the results carry
    seed_parts[0] as their base seed and speed_mps as their speed.
    """
    if n_trials < 1:
        raise ConfigurationError("n_trials must be >= 1")
    threads = min(_worker_count(workers), _usable_cpus())
    d = config.distances_m()
    n_bs, n_samples = d.shape
    beta = config.resolved_outage_threshold()
    labels = [_policy_label(p) for p in policies]
    if len(set(labels)) != len(labels):
        raise ConfigurationError("duplicate policies in one run")

    opt_needed = [l for l in labels if l in _OPT_POLICIES]
    margin_tables = opt_margin_tables(config, opt_needed) if opt_needed else {}
    h_tables = {}
    for policy, label in zip(policies, labels):
        fixed = _as_fixed_margin(policy)
        h_tables[label] = margin_tables[label] if fixed is None else np.full((n_samples, 2), fixed)

    if config.estimator != "gels":
        mode = _TABLE_MODE[config.estimator]
        tables = np.stack([coefficient_table(row, config.n_w, mode) for row in d])
    else:
        tables = None

    pair = _cell_pairs(d)
    init = config.b_init if n_bs == 2 else int(pair[0, 0])

    def new_worker():
        # one worker's flat power and estimate-block buffers, allocated at its
        # first (largest) chunk; a chunk uses their fronts, and the block
        # buffer grows if a smaller chunk's longer blocks need more
        power = estimates = np.empty(0)

        def run_chunk(t0: int, t1: int):
            nonlocal power, estimates
            n_tr = t1 - t0
            # seed words hashed before the first chunk's buffer exists, and
            # dropped before its estimates; each generator is built as it draws
            gens = trial_generators(seed_parts, t0, t1)
            size = n_samples * n_bs * n_tr
            if power.size < size:
                power = np.empty(size)
            # the sample-major [N, S, T] powers every stage reads
            x = power[:size].reshape(n_samples, n_bs, n_tr)
            sample_power(config.channels, d, config.step_m, gens, x)
            del gens
            block = block_samples(n_bs, n_tr)
            size = min(block, n_samples) * n_bs * n_tr
            if estimates.size < size:
                estimates = np.empty(size)
            estimate = _block_estimates(config, d, x, tables, block, estimates)
            return _decide(
                estimate, x, h_tables, beta, pair, init, config.h_fixed_db, block, log_events
            )

        return run_chunk

    bounds = _chunk_bounds(n_trials, threads, n_bs, n_samples)
    pieces = _map_chunks(new_worker, bounds, min(threads, len(bounds)))

    results = {}
    for label in labels:
        switches = np.concatenate([p[label][0] for p in pieces])
        outages = np.concatenate([p[label][1] for p in pieces])
        conn = sum(p[label][3] for p in pieces)
        outb = sum(p[label][4] for p in pieces)
        times = None
        if log_events:
            samples = np.concatenate([p[label][2] for p in pieces])
            # the views np.split makes, without its per-piece overhead
            ends = np.cumsum(switches).tolist()
            times = tuple(samples[b:e] for b, e in zip([0] + ends[:-1], ends))
        results[label] = RunResult(
            policy=label,
            speed_mps=speed_mps,
            n_trials=n_trials,
            switch_counts=switches,
            outage_counts=outages,
            conn_counts=conn,
            outage_branch_counts=outb,
            switch_times=times,
            margin_table=h_tables[label],
            base_seed=seed_parts[0],
            config=config,
        )
    return results


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
    fixed = _as_fixed_margin(policy)
    if analytic is not None and fixed is None:
        raise ConfigurationError("analytic chains need a constant-margin policy")
    base_seed = config.seed if seed is None else int(seed)
    if analytic is not None:
        # checked before any trial is drawn, not after all of them
        _check_method_args(analytic, mc_samples, base_seed)
    (result,) = _simulate_policies(
        config,
        [policy],
        n_trials,
        seed_parts=[base_seed],
        speed_mps=config.speed_mps,
        workers=workers,
        log_events=log_events,
    ).values()
    if analytic is None:
        return result
    process = _gap_process(config)
    n_last = process.n_samples - 1
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
    return replace(
        result, analytic_p_h=p01 + p10, analytic_p_o=po, analytic_se_h=se_h, analytic_se_o=se_o
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
    (result,) = _simulate_policies(
        config,
        [policy],
        n_trials,
        seed_parts=[base_seed],
        speed_mps=config.speed_mps,
        workers=workers,
        log_events=log_events,
    ).values()
    return result


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


def _speed_variant(config: ScenarioConfig, v: float, mode: str) -> ScenarioConfig:
    """The config that realizes speed v under the sweep mode.

    resampled: the config at speed_mps = v. fixed-grid: the config at its
    own speed and sample spacing, with every channel's coherence_m scaled
    by speed_mps / v, so consecutive samples decorrelate as at speed v.
    """
    if mode == "resampled":
        return config.with_updates(speed_mps=v)
    scale = config.speed_mps / v
    return config.with_updates(
        channels=tuple(replace(ch, coherence_m=ch.coherence_m * scale) for ch in config.channels)
    )


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
        results = _simulate_policies(
            _speed_variant(config, v, spec.mode),
            spec.policies,
            spec.n_trials,
            seed_parts=[base_seed, vi],
            speed_mps=v,
            workers=workers,
            log_events=log_events,
        )
        out.update(((label, v), result) for label, result in results.items())
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
) -> AccuracyStudy:
    """Compare the approximate evaluators against the exact one.

    Instances are switch-event chains along the two-cell path: a lower exit
    at a random sample followed by k-1 in-band samples at the base margin,
    a k-dimensional box probability. Evaluated series: exact, blockwise B1
    (blocks of m_split), eigenvalue sandwich LB2/UB2 and the split upper
    bound UB3. k up to 10 is accepted; 4, 6 and 8 are the standard sizes.
    The study writes no files: the CLI's accuracy command emits its rows
    and summary.

    Each instance's law is one y_stats call on its own k labels, not a
    slice of the process's block laws (GapProcess.joint): the instances
    are few and scattered over the trace, and a k-label y_stats call costs
    a small part of the block law it would be sliced from.
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
        gv = y_stats(
            process.table0, process.table1, process.channels, process.distances_m,
            process.step_m, range(j, j + k), check=False,
        )
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
    return AccuracyStudy(
        k=k, m_split=m_split, fieldnames=fields, rows=tuple(rows), mae=mae, mre=mre
    )


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

    Each row is a dict whose keys are exactly ``fieldnames``; a row with a
    missing or an extra key raises ValueError before anything is written.
    Rows go through one csv.writer in ``fieldnames`` order, which gives the
    bytes csv.DictWriter writes for the same rows. An empty row list
    produces a header-only CSV. No timestamps or environment details are
    recorded, so rerunning the same configuration reproduces the bytes.
    """
    if csv_path is not None:
        fields = list(fieldnames)
        keys = set(fields)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        for row in rows:
            if row.keys() != keys:
                raise ValueError(
                    f"row keys {sorted(map(str, row))} are not the fieldnames {fields}"
                )
            writer.writerow([row[f] for f in fields])
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
