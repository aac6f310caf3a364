"""Reference implementations that tests compare the package against, and
whole-trace drivers of the kernels the package runs block by block."""

import math
import weakref
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np
import pytest
from scipy.special import ndtr

from handopt import gaussian
from handopt.channel import path_loss
from handopt.errors import ConfigurationError, HandoptError, NumericalConsistencyError
from handopt.estimators import (
    _EMIN_FLOOR,
    EPS_COND,
    _gels,
    _table,
    coefficient_table,
    window_estimates,
)
from handopt.gaussian import (
    _BLOCK_SAMPLES,
    _MC_CHUNK,
    EventSpec,
    GapProcess,
    _cholesky_jittered,
    bvn_cdf_lattice,
    exact_prob,
    gap_above,
    gap_below,
    gap_inside,
    power_below,
)
from handopt.harness import _OPT_POLICIES, _TABLE_MODE, _cell_pairs, _trellis_problem
from handopt.hybrid import serving_series
from handopt.optimizer import _COND_FLOOR, TrellisProblem, TrellisSolution, _stay_box, _window_stats


# --- the per-window estimators: one window object per sample ---------------


class SingularFitError(HandoptError):
    """A regression design matrix is singular or numerically unusable."""


@dataclass(frozen=True)
class FilterCoeffs:
    """One coefficient row G_s(n, i), i = window_start..time_index."""

    window_start: int
    time_index: int
    weights: np.ndarray
    tag: str  # "avg" | "ls"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != self.time_index - self.window_start + 1:
            raise ConfigurationError("coefficient count must match the window length")
        object.__setattr__(self, "weights", w)

    def apply(self, p_window: np.ndarray) -> float:
        """Contract the row against the window's power samples."""
        return float(np.dot(self.weights, np.asarray(p_window, dtype=float)))


@dataclass(frozen=True)
class LSIntermediates:
    """Windowed moments and closed-form line fit for one LS window.

    mean_power (P), mean_cross (Q), mean_logd (C) and mean_logd_sq (D) are
    the window averages of p, p*x, x and x^2 with x = log10 d. The fitted
    model is p ~ intercept_hat - slope_hat * x, and the coefficient split
    l(n) = sum_i [offset_coeffs(i) - slope_coeffs(i) * x_n] * p(i) is kept
    so callers can recombine rows at any evaluation distance.
    """

    mean_power: float
    mean_cross: float
    mean_logd: float
    mean_logd_sq: float
    intercept_hat: float
    slope_hat: float
    offset_coeffs: np.ndarray  # A_s(n, i)
    slope_coeffs: np.ndarray  # B_s(n, i)


@dataclass(frozen=True)
class GelsDiagnostics:
    """Model-validity diagnostics for ELS selection and the GELS trigger."""

    delta: float
    e1: float
    e2: float
    e_min: float
    e_r: float
    reinit_flag: bool
    tag: str


def window_start(n: int, n_w: int) -> int:
    if n < 0 or n_w < 1:
        raise ConfigurationError("need n >= 0 and n_w >= 1")
    return max(0, n - n_w + 1)


def ls_fit(
    p_window: np.ndarray, d_window: np.ndarray, start_index: int = 0
) -> Tuple[LSIntermediates, FilterCoeffs]:
    """Closed-form least-squares line through (log10 d, p) over one window.

    Raises SingularFitError when the window has fewer than two samples or
    the log-distances are (numerically) all equal.
    """
    p = np.asarray(p_window, dtype=float)
    d = np.asarray(d_window, dtype=float)
    if p.shape != d.shape or p.ndim != 1:
        raise ConfigurationError("power and distance windows must be equal-length 1-D arrays")
    cnt = p.size
    if cnt < 2:
        raise SingularFitError("LS needs at least two samples in the window")
    if np.any(d <= 0.0):
        raise ConfigurationError("distances must be positive")
    x = np.log10(d)
    P = p.mean()
    C = x.mean()
    Q = (p * x).mean()
    D = (x * x).mean()
    denom = D - C * C
    if denom <= EPS_COND * max(D, 1.0):
        raise SingularFitError("degenerate window: log-distances carry no spread")
    intercept = (P * D - Q * C) / denom
    slope = (P * C - Q) / denom
    offset = (D - C * x) / (denom * cnt)
    slope_c = (C - x) / (denom * cnt)
    inter = LSIntermediates(P, Q, C, D, intercept, slope, offset, slope_c)
    g = offset - slope_c * x[-1]
    coeffs = FilterCoeffs(start_index, start_index + cnt - 1, g, "ls")
    return inter, coeffs


def els_select(
    p_window: np.ndarray, d_window: np.ndarray, start_index: int = 0
) -> Tuple[FilterCoeffs, GelsDiagnostics]:
    """Pick AVG or LS for one window by in-window mean squared residual.

    e1 is the residual of the constant model, e2 of the fitted line; the
    lower error wins and exact ties go to LS. Singular LS windows fall
    back to AVG with e2 = inf.
    """
    p = np.asarray(p_window, dtype=float)
    cnt = p.size
    if cnt < 1:
        raise ConfigurationError("window must contain at least one sample")
    mean_p = p.mean()
    e1 = float(np.mean((p - mean_p) ** 2))
    try:
        inter, ls_row = ls_fit(p, d_window, start_index)
    except SingularFitError:
        inter, ls_row = None, None
    if inter is None:
        e2 = math.inf
    else:
        x = np.log10(np.asarray(d_window, dtype=float))
        resid = p - (inter.intercept_hat - inter.slope_hat * x)
        e2 = float(np.mean(resid**2))
    if e2 <= e1:
        coeffs = ls_row
        l_n = coeffs.apply(p)
    else:
        coeffs = FilterCoeffs(start_index, start_index + cnt - 1, np.full(cnt, 1.0 / cnt), "avg")
        l_n = mean_p
    delta = float(p[-1] - l_n)
    e_min = min(e1, e2)
    diag = GelsDiagnostics(delta, e1, e2, e_min, math.nan, False, coeffs.tag)
    return coeffs, diag


@dataclass
class GelsState:
    """Growing estimation window for one link, restarted on reinit."""

    start_index: int = 0
    log10_d: List[float] = field(default_factory=list)
    powers: List[float] = field(default_factory=list)

    @property
    def window_len(self) -> int:
        return len(self.powers)

    @property
    def current_index(self) -> int:
        return self.start_index + self.window_len - 1

    def restart(self):
        """Keep only the latest sample; the window begins again there."""
        self.start_index = self.current_index
        self.log10_d = self.log10_d[-1:]
        self.powers = self.powers[-1:]


def gels_step(
    state: GelsState,
    distance_m: float,
    power_db: float,
    h_db: float = 0.0,
    h_max_db: float = 10.0,
    gamma: float = 3.0,
) -> Tuple[float, GelsDiagnostics]:
    """Advance one link's GELS window by one sample, mutating ``state``.

    Runs the ELS selection on the grown window and forms the normalized
    residual e_r = (p(n) - l(n)) / sqrt(e_min). The window restarts when
    |e_r| > gamma or when h(n) > h_max_db; after a restart the estimate is
    the new sample itself. e_r is not formed when e_min is at the exact-fit
    floor, so noiseless data never triggers.
    """
    if gamma <= 0.0:
        raise ConfigurationError("gamma must be positive")
    if distance_m <= 0.0:
        raise ConfigurationError("distances must be positive")
    state.log10_d.append(math.log10(distance_m))
    state.powers.append(float(power_db))
    p = np.asarray(state.powers)
    d10 = np.asarray(state.log10_d)
    coeffs, diag = els_select(p, 10.0**d10, state.start_index)
    l_n = coeffs.apply(p)
    scale = max(1.0, abs(float(power_db)))
    if diag.e_min > (_EMIN_FLOOR * scale) ** 2:
        e_r = diag.delta / math.sqrt(diag.e_min)
    else:
        e_r = math.nan
    reinit = (math.isfinite(e_r) and abs(e_r) > gamma) or (h_db > h_max_db)
    if reinit:
        state.restart()
        l_n = float(power_db)
    out = GelsDiagnostics(diag.delta, diag.e1, diag.e2, diag.e_min, e_r, reinit, diag.tag)
    return l_n, out




def adaptive_series_loop(
    d, p, estimator, n_w=4, gels_gamma=3.0, gels_h_max=10.0, reinit_all=False, h_series=None
):
    """ELS or GELS estimates and modes of [T, S, N] powers, one els_select or
    gels_step per trial, link and sample: the reference for the package's
    ELS and GELS. The third result holds, per entry, the first sample of
    the window fitted there and its e_min, e_r (NaN for ELS) and e2 - e1."""
    n_tr, n_bs, n = p.shape
    out = np.empty_like(p)
    modes = np.zeros(p.shape, dtype=np.int8)
    diag = np.full(p.shape + (4,), np.nan)
    if estimator == "els":
        for t in range(n_tr):
            for s in range(n_bs):
                for i in range(n):
                    nb = window_start(i, n_w)
                    coeffs, dg = els_select(p[t, s, nb : i + 1], d[s, nb : i + 1], nb)
                    out[t, s, i] = coeffs.apply(p[t, s, nb : i + 1])
                    modes[t, s, i] = 1 if coeffs.tag == "ls" else 0
                    diag[t, s, i] = nb, dg.e_min, math.nan, dg.e2 - dg.e1
        return out, modes, diag
    h = np.zeros(n) if h_series is None else np.asarray(h_series, dtype=float)
    for t in range(n_tr):
        states = [GelsState() for _ in range(n_bs)]
        for i in range(n):
            triggered = False
            for s in range(n_bs):
                nb = states[s].start_index
                l_n, dg = gels_step(states[s], d[s, i], p[t, s, i], h[i], gels_h_max, gels_gamma)
                out[t, s, i] = l_n
                modes[t, s, i] = 2 if dg.reinit_flag else (1 if dg.tag == "ls" else 0)
                diag[t, s, i] = nb, dg.e_min, dg.e_r, dg.e2 - dg.e1
                triggered = triggered or dg.reinit_flag
            if reinit_all and triggered:
                for s in range(n_bs):
                    if modes[t, s, i] != 2:
                        states[s].restart()
                        out[t, s, i] = p[t, s, i]
                        modes[t, s, i] = 2
    return out, modes, diag


def avg_coeffs(n: int, n_w: int) -> FilterCoeffs:
    """Rectangular window row at sample n: every sample in the window
    weighted 1/count, the row coefficient_table's avg mode must hold."""
    nb = window_start(n, n_w)
    cnt = n - nb + 1
    return FilterCoeffs(nb, n, np.full(cnt, 1.0 / cnt), "avg")


# --- box-probability pieces before their shortcuts --------------------------


def check_psd_eigvalsh(Sigma, context="covariance"):
    """gaussian.check_psd with eigvalsh at every size: the reference for its
    1x1 and 2x2 closed forms."""
    Sigma = np.asarray(Sigma, dtype=float)
    sym = 0.5 * (Sigma + Sigma.T)
    eigmin = float(np.linalg.eigvalsh(sym).min()) if sym.size else 0.0
    tol = 1e-8 * max(float(np.trace(sym)), 0.0)
    if eigmin < -tol:
        raise NumericalConsistencyError(
            f"{context} is not PSD: min eigenvalue {eigmin:.3e} under tolerance {-tol:.3e}"
        )


def interval_prob_two_cdf(lo, hi, m, s):
    """Pr[lo < X <= hi], X ~ N(m, s^2), as a difference of two CDFs whatever
    the edges: the reference for gaussian._interval_prob's one-sided forms."""
    return ndtr((hi - m) / s) - ndtr((lo - m) / s)


def mc_box_prob(mu, Sigma, lo, hi, n_samples, seed):
    """Hit-or-miss Monte Carlo that draws every coordinate of every sample
    in the given order, with the chunks and binomial stderr of
    gaussian._mc_box_prob: the reference for its on-demand draws."""
    L, jittered = _cholesky_jittered(Sigma)
    k = mu.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = 0
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        z = rng.standard_normal((m, k))
        x = mu + z @ L.T
        inside = np.all((lo < x) & (x <= hi), axis=1)
        hits += int(inside.sum())
        done += m
    p = hits / n_samples
    pc = min(max(p, 1.0 / (n_samples + 2)), 1.0 - 1.0 / (n_samples + 2))
    stderr = math.sqrt(pc * (1.0 - pc) / n_samples)
    return p, stderr, jittered


def bvn_cdf_lattice_24(mu, Sigma, xs, ys):
    """gaussian.bvn_cdf_lattice with the 24-node rule of the floored laws for
    every law: the reference for the 12-node rule of the others."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "_LATTICE_RULE", (gaussian._GL_NODES, gaussian._GL_WEIGHTS))
        return bvn_cdf_lattice(mu, Sigma, xs, ys)


# --- the per-root trellis tables: one table object per root window -----------


class StageTables:
    """Lattice tables and stage grids of one stats window, built per root.

    The tables read only the stats window and its times, the margin grid,
    the root margin and the outage threshold, so one object serves both
    root states and every objective over that window. Every stage quantity
    is a ratio of one- or two-dimensional Gaussian boxes. The lattice holds
    every margin value the search can query (plus the root margin and
    +-inf), so each box is an exact difference of lattice CDFs: F holds the
    marginal normal CDFs of y_0..y_m, and bvn_cdf_lattice the pair CDFs.
    The pair quantities condition only on the root box, so each stage keeps
    one root-edge table: the joint CDF of (y_l, y_0) on the lattice × the
    edges of both root states' stay boxes, integrated over y_l, whose
    lattice borders lie one grid step apart. hc is indexed by root state,
    stage and edge, oc and po by stage and edge, which is all solve()'s
    per-edge scan reads.

    The outage lattice tables U (the CDF of (y_l, p_s(t_l)) on the lattice ×
    the threshold) do not read the root. outage_memo holds them keyed by
    everything they read: the bivariate law's bytes, the lattice and the
    threshold. Windows sliced from one GapProcess block carry bit-equal
    moments for equal coordinates, so tables over the windows of one block
    that share one memo build each U once.
    """

    def __init__(self, stats, times, grid, root_margin, outage_threshold_db, outage_memo):
        m = len(times) - 1
        k = grid.size
        self.grid = grid
        finite = np.unique(np.concatenate([-grid, grid, [-root_margin, root_margin]]))
        self.lattice = np.concatenate(([-np.inf], finite, [np.inf]))
        self._pos = {v: i for i, v in enumerate(self.lattice)}

        y_labels = [("y", t) for t in times]
        ys = stats.subset(y_labels)
        mu = ys.mu
        sd = np.sqrt(np.maximum(np.diag(ys.Sigma), 0.0))
        with np.errstate(invalid="ignore"):
            z = (self.lattice[None, :] - mu[:, None]) / np.maximum(sd[:, None], 1e-150)
        self.F = ndtr(np.where(np.isnan(z), -np.inf, z))
        root_edges = np.unique([-np.inf, -root_margin, root_margin, np.inf])
        rpos = {v: i for i, v in enumerate(root_edges)}
        # R[l][x, y] = P(y_l <= lattice[x], y_0 <= root_edges[y])
        R = {}
        for l in range(1, m + 1):
            gv = stats.subset([y_labels[l], y_labels[0]])
            R[l] = bvn_cdf_lattice(gv.mu, gv.Sigma, self.lattice, root_edges)
        ineg = np.fromiter((self._pos[-v] for v in grid), int, k)
        ipos = np.fromiter((self._pos[v] for v in grid), int, k)
        zeros = np.zeros(k, dtype=int)
        last = np.full(k, self.lattice.size - 1, dtype=int)
        # box_idx[u, switch]: (lo, hi) lattice index vectors over the margin grid
        box_idx = {
            (0, True): (zeros, ineg),
            (1, True): (ipos, last),
            (0, False): (ineg, last),
            (1, False): (zeros, ipos),
        }

        # hc[root_b, l, u, i]: P(stage l switches away from u at margin g[i]
        # | the stay box of root state root_b)
        self.hc = np.zeros((2, m + 1, 2, k))
        self.root_degenerate = np.zeros(2, dtype=bool)
        for root_b in (0, 1):
            root_box = _stay_box(root_b, root_margin)
            root_p = self._single(0, root_box)
            self.root_degenerate[root_b] = root_p < _COND_FLOOR
            r1, r2 = rpos[root_box[0]], rpos[root_box[1]]
            for l in range(1, m + 1):
                for u in (0, 1):
                    lo, hi = box_idx[u, True]
                    if self.root_degenerate[root_b]:
                        self.hc[root_b, l, u] = self.F[l, hi] - self.F[l, lo]
                    else:
                        box = R[l][hi, r2] - R[l][lo, r2] - R[l][hi, r1] + R[l][lo, r1]
                        self.hc[root_b, l, u] = box / root_p

        # oc[l][u_from, u_to, i]: outage of the branch's serving BS (u_to)
        # conditional on the stage's own gap event (same-sample conditioning)
        self.oc = np.zeros((m + 1, 2, 2, k))
        beta = outage_threshold_db
        lattice_key = self.lattice.tobytes()
        for l in range(1, m + 1):
            for u_to in (0, 1):
                # U[x] = P(y_l <= lattice[x], p_{u_to}(t_l) <= beta),
                # integrated over y_l like R
                gv = stats.subset([y_labels[l], ("p", u_to, times[l])])
                key = (gv.mu.tobytes(), gv.Sigma.tobytes(), lattice_key, beta)
                U = outage_memo.get(key)
                if U is None:
                    U = bvn_cdf_lattice(gv.mu, gv.Sigma, self.lattice, np.array([beta]))[:, 0]
                    outage_memo[key] = U
                p_marg = outage_marginal(stats, times[l], u_to, beta)
                for u_from in (0, 1):
                    lo, hi = box_idx[u_from, u_to != u_from]
                    num = U[hi] - U[lo]
                    den = self.F[l, hi] - self.F[l, lo]
                    self.oc[l, u_from, u_to] = np.where(
                        den < _COND_FLOOR, p_marg, num / np.maximum(den, _COND_FLOOR)
                    )

        # po[l][u_from, i]: stage outage probability, both branch
        # conditionals charged (u_to = u_from stays, u_to = 1 - u_from
        # switches, so summing over u_to covers exactly the two branches)
        self.po = self.oc.sum(axis=2)

    def _single(self, l: int, box) -> float:
        """P(y_l in box) for a box with lattice edges."""
        return float(self.F[l, self._pos[box[1]]] - self.F[l, self._pos[box[0]]])


def outage_marginal(stats, t: int, s: int, threshold: float) -> float:
    """P(p_s(t) <= threshold), the fallback of a degenerate stage box."""
    i = stats.labels.index(("p", s, t))
    return float(ndtr((threshold - stats.mu[i]) / max(math.sqrt(stats.Sigma[i, i]), 1e-150)))


def _table_inputs(problem) -> tuple:
    """The StageTables arguments: all the stage tables read of a problem."""
    return (
        problem.stats,
        problem.times,
        problem.grid,
        problem.root_margin,
        problem.outage_threshold_db,
    )


def stage_tables(problem) -> StageTables:
    """The per-root tables of a problem's window, with a private outage memo."""
    return StageTables(*_table_inputs(problem), {})


def edge_choices(problem, tables: StageTables):
    """Per-edge margin choice, cap excess and stage cost, each [m, 2, 2].

    Entry [l - 1, u_from, u_to] belongs to stage l taken along the edge
    u_from -> u_to. The margin index is the cheapest one the stage's cap
    admits; when the cap admits none, it is the minimal-excess index
    (smallest margin on ties) and the excess is that minimum, else 0.
    """
    m = problem.horizon
    k = tables.grid.size
    hc = tables.hc[problem.root_b]
    if problem.objective == "min_handover":
        cost = hc
        level = tables.oc[1:]
        cap = problem.p_out_cap
    elif problem.objective == "min_outage":
        cost = tables.po
        level = np.broadcast_to(hc[1:, :, None, :], (m, 2, 2, k))
        cap = problem.p_han_cap
    else:
        z = problem.pareto_z
        cost = z * hc + (1.0 - z) * tables.po
        level = np.zeros((m, 2, 2, k))  # uncapped: every margin is admitted
        cap = 1.0
    cost = np.broadcast_to(cost[1:, :, None, :], (m, 2, 2, k))
    ok = level <= cap
    over = level - cap
    forced = ~ok.any(axis=-1)
    least = np.argmin(over, axis=-1)
    idx = np.where(forced, least, np.argmin(np.where(ok, cost, np.inf), axis=-1))
    excess = np.where(forced, np.take_along_axis(over, least[..., None], axis=-1)[..., 0], 0.0)
    return idx, excess, np.take_along_axis(cost, idx[..., None], axis=-1)[..., 0]


def solve(problem, tables=None) -> TrellisSolution:
    """Optimize every path and rank them; the winner's first stage is the decision.

    Ranking: feasible before infeasible, then smaller violation, then cost,
    then fewer switches, then lexicographically smaller margin vector; on a
    full tie the first path in itertools.product((0, 1), repeat=m) order of
    the states wins.
    """
    m = problem.horizon
    to = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    frm = np.concatenate([np.full((2**m, 1), problem.root_b), to], axis=1)[:, :m]
    margins = np.zeros(to.shape)
    cost = np.zeros(2**m)
    violation = np.zeros(2**m)
    if m:
        tables = stage_tables(problem) if tables is None else tables
        idx, excess, stage_cost = edge_choices(problem, tables)
        margins = tables.grid[idx[np.arange(m), frm, to]]
        for l in range(m):
            # stage by stage, so every path's total rounds like a scalar sum
            cost = cost + stage_cost[l, frm[:, l], to[:, l]]
            e = excess[l, frm[:, l], to[:, l]]
            violation = np.where(e > violation, e, violation)
    n_switches = np.count_nonzero(frm != to, axis=1)
    order = np.lexsort(
        (*margins.T[::-1], n_switches, cost, violation, violation != 0.0)
    )
    return TrellisSolution(
        problem.objective, problem.root_b, to, margins, cost, violation, int(order[0])
    )


def solve_group(problems, outage_memo=None):
    """Solve problems, building one StageTables per distinct table input.

    Problems over the same stats window object, grid, root margin and
    outage threshold share one table object, whatever their root state and
    objective. Every table built here reads and fills outage_memo (a fresh
    dict when None).
    """
    problems = list(problems)  # keeps every stats object, so its id, alive
    memo = {} if outage_memo is None else outage_memo
    built = {}
    out = []
    for problem in problems:
        tables = None
        if problem.horizon > 0:
            stats, times, grid, root_margin, beta = inputs = _table_inputs(problem)
            key = (id(stats), times, grid.tobytes(), root_margin, beta)
            if key not in built:
                built[key] = StageTables(*inputs, memo)
            tables = built[key]
        out.append(solve(problem, tables))
    return out


def opt_margin_tables(config, policies=_OPT_POLICIES) -> dict:
    """harness.opt_margin_tables with one StageTables per root window: every
    root's six problems in one solve_group call, the outage tables shared
    through one memo per (cell pair, block)."""
    d = config.distances_m()
    n_samples = d.shape[1]
    mode = _TABLE_MODE[config.estimator]
    pair = _cell_pairs(d)
    chs = config.channels
    processes, memos = {}, {}
    beta = config.resolved_outage_threshold()
    out = {p: np.full((n_samples, 2), config.h_fixed_db) for p in policies}
    for t in range(1, n_samples):
        root_n = t - 1
        m = min(config.horizon, n_samples - 1 - root_n)
        a, b = pair[:, root_n].tolist()
        if (a, b) not in processes:
            processes[a, b] = GapProcess(
                coefficient_table(d[a], config.n_w, mode),
                coefficient_table(d[b], config.n_w, mode),
                (chs[a], chs[b]), d[[a, b]], config.step_m,
                overlap=max(config.horizon, config.resolved_depth()),
            )
        stats = _window_stats(processes[a, b], root_n, m)
        problems = [
            _trellis_problem(config, stats, m, root_b, p, beta)
            for p in policies
            for root_b in (0, 1)
        ]
        sols = solve_group(problems, memos.setdefault((a, b, root_n // _BLOCK_SAMPLES), {}))
        for i, p in enumerate(policies):
            out[p][t] = (sols[2 * i].h_first, sols[2 * i + 1].h_first)
    return out


# --- the per-label-set law: one y_stats call on each label set -------------


def label_law(process, labels):
    """The law of the labels from one y_stats call on exactly their samples,
    in their order: how GapProcess.joint built every law before it sliced
    them from block laws. Equal to the slice up to the last bits."""
    labels = tuple(gaussian._as_label(l) for l in labels)
    y_times = [l[1] for l in labels if l[0] == "y"]
    p_times = [(l[1], l[2]) for l in labels if l[0] == "p"]
    return gaussian.y_stats(
        process.table0, process.table1, process.channels, process.distances_m,
        process.step_m, y_times, p_times,
    ).subset(labels)


class LabelLawProcess(GapProcess):
    """A GapProcess on the tables, channels and trace of another whose joint
    laws are label_law's, not block slices."""

    def __init__(self, process):
        super().__init__(
            process.table0, process.table1, process.channels, process.distances_m,
            process.step_m, overlap=process.overlap,
        )

    def joint(self, labels):
        return label_law(self, labels)


# --- the pairwise chains term by term, one sweep per series ----------------

# process -> {constraint tuple: box probability}, dropped with the process
_BOXES = weakref.WeakKeyDictionary()


def _box(process, *cs) -> float:
    """exact_prob of the box of these constraints on the process's joint
    law, integrated once per process."""
    boxes = _BOXES.setdefault(process, {})
    p = boxes.get(cs)
    if p is None:
        ev = EventSpec(cs)
        p = boxes[cs] = exact_prob(process.joint(ev.labels), ev).estimate
    return p


def pairwise_chain(process, constraints) -> float:
    """Markov telescope of one chain term, re-derived from its first
    constraint: the value metrics._telescope must give by extending prefixes."""
    y_cs = [c for c in constraints if c[0][0] == "y"]
    p_cs = [c for c in constraints if c[0][0] == "p"]
    factors = y_cs[1:] + p_cs
    prev = y_cs[0]
    prob = marg = _box(process, prev)
    for k, c in enumerate(factors):
        if prob <= 0.0 or marg <= 0.0:
            return 0.0
        prob *= _box(process, prev, c) / marg
        if c[0][0] == "y" and k + 1 < len(factors):
            prev = c
            marg = _box(process, prev)
    return prob


def _band_constraints(h, times):
    out = []
    for t in times:
        if h[t] <= 0.0:
            return None
        out.append(gap_inside(t, h[t]))
    return out


def _pairwise_side_sum(process, h, t, depth, side, extra, conn, b_init):
    """Pr[b(t) = side] expanded term by term, each term conjoined with extra
    and validated as one EventSpec."""
    m = max(0, t - depth)
    j_lo = 0 if m == 0 else m + 1
    root = gap_below if side == 1 else gap_above
    total = 0.0
    for j in range(j_lo, t + 1):
        band = _band_constraints(h, range(j + 1, t + 1))
        if band is not None:
            ev = EventSpec(tuple([root(j, h[j])] + band + extra))
            total += pairwise_chain(process, ev.constraints)
    band = _band_constraints(h, range(j_lo, t + 1))
    w = (1.0 if b_init == side else 0.0) if m == 0 else conn[1 - side][m]
    if band is not None and w != 0.0:
        if band + extra:
            ev = EventSpec(tuple(band + extra))
            q = pairwise_chain(process, ev.constraints)
        else:
            q = 1.0
        total += q * w
    return total


def pairwise_connection(process, n_last, h, depth, b_init):
    """(p_bs1, p_bs0) of the pairwise chain at samples 0..n_last."""
    conn = (np.zeros(n_last + 1), np.zeros(n_last + 1))
    for t in range(n_last + 1):
        for side in (1, 0):
            conn[1 - side][t] = _pairwise_side_sum(process, h, t, depth, side, [], conn, b_init)
    return conn


def pairwise_handover(process, n_last, h, depth, b_init):
    """(p_h01, p_h10) of the pairwise chain, on a sweep of its own."""
    conn = pairwise_connection(process, n_last, h, depth, b_init)
    p01, p10 = np.zeros(n_last + 1), np.zeros(n_last + 1)
    for n in range(n_last + 1):
        for side, out in ((1, p01), (0, p10)):
            exit_c = gap_above(n, h[n]) if side == 1 else gap_below(n, h[n])
            out[n] = _pairwise_side_sum(process, h, n - 1, depth, side, [exit_c], conn, b_init)
    return p01, p10


def pairwise_outage(process, n_last, h, depth, threshold_db, b_init):
    """(p_o0, p_o1, p_o, p_o_mixture) of the pairwise chain, on a sweep of its own."""
    conn = pairwise_connection(process, n_last, h, depth, b_init)
    po0, po1, mix = np.zeros(n_last + 1), np.zeros(n_last + 1), np.zeros(n_last + 1)
    for n in range(n_last + 1):
        for side, out in ((0, po0), (1, po1)):
            total = _pairwise_side_sum(
                process, h, n, depth, side, [power_below(side, n, threshold_db)], conn, b_init
            )
            out[n] = total / conn[1 - side][n]
            mix[n] += total
    return po0, po1, po0 + po1, mix


# --- whole traces through the kernels the simulator runs by block ----------


def ar1_powers(channels, d, step_m, w):
    """[T, S, N] received powers from standard normals w [T, S, N] (the
    rows of links without shadowing are not read): each shadowed link runs
    its own AR(1) recursion u[k] = w[k] * scale + a * u[k-1] from
    u[0] = sigma * w[0], one sample at a time for every trial at once, and
    the mean path loss is added last."""
    out = np.empty(w.shape)
    for s, ch in enumerate(channels):
        u = np.zeros(w.shape[::2])
        sigma = ch.shadow_sigma_db
        if sigma != 0.0:
            a = math.exp(-step_m / ch.coherence_m)
            scale = sigma * math.sqrt(1.0 - a * a)
            u[:, 0] = w[:, s, 0] * sigma
            for k in range(1, w.shape[2]):
                u[:, k] = w[:, s, k] * scale + a * u[:, k - 1]
        out[:, s] = u + path_loss(ch, d[s])
    return out


def draw_powers(channels, d, step_m, rng, n_trials=None):
    """Received powers [S, N], or [n_trials, S, N], from one Generator drawn
    link by link: each shadowed link takes one standard_normal((n_trials,
    N)), filtered by ar1_powers. With one trial the stream is the one
    channel.sample_power draws for that trial."""
    n_tr = 1 if n_trials is None else int(n_trials)
    w = np.zeros((n_tr, len(channels), d.shape[1]))
    for s, ch in enumerate(channels):
        if ch.shadow_sigma_db != 0.0:
            w[:, s] = rng.standard_normal((n_tr, d.shape[1]))
    out = ar1_powers(channels, d, step_m, w)
    return out[0] if n_trials is None else out


def trial_powers(channels, d, step_m, seed_parts, t0, t1):
    """[t1 - t0, S, N] powers of trials t0 .. t1 - 1 of a simulator run: trial
    t draws its shadowed links in order from its own Generator, seeded by
    SeedSequence(seed_parts + [t]), filtered by ar1_powers."""
    active = [s for s, ch in enumerate(channels) if ch.shadow_sigma_db != 0.0]
    w = np.zeros((t1 - t0, len(channels), d.shape[1]))
    for i, t in enumerate(range(t0, t1)):
        rng = np.random.default_rng(np.random.SeedSequence([*seed_parts, t]))
        w[i, active] = rng.standard_normal((len(active), d.shape[1]))
    return ar1_powers(channels, d, step_m, w)


def table_estimates(tables, powers):
    """[T, S, N] estimates of [T, S, N] powers by window_estimates over the
    whole trace, on the simulator's sample-major [N, S, T] layout."""
    x = np.ascontiguousarray(powers.transpose(2, 1, 0))
    return window_estimates(tables, x).transpose(2, 1, 0)


def series_estimates(
    d, powers, estimator, n_w=4, *, gamma=3.0, h_max=10.0, reinit_all=False, h=None
):
    """[T, S, N] estimates and int8 modes (0 = avg, 1 = ls, 2 = restart) of
    [T, S, N] powers on [S, N] distances: the coefficient tables for avg and
    ls (modes None) and els, whose modes are the ls fit mask, and the _gels
    walk for gels, with h (default zeros) the margin its restart reads."""
    if estimator != "gels":
        mode = "ls" if estimator == "els" else estimator
        tables, fit = map(np.stack, zip(*(_table(row, n_w, mode) for row in d)))
        est = table_estimates(tables, powers)
        if estimator != "els":
            return est, None
        return est, np.broadcast_to(fit.astype(np.int8), est.shape).copy()
    n = d.shape[1]
    h = np.zeros(n) if h is None else h
    x = np.ascontiguousarray(powers.transpose(2, 1, 0))
    walk = _gels(np.log10(d), x, h, gamma, h_max, reinit_all)
    est, modes = map(np.stack, zip(*walk))  # [N, S, T]
    return est.transpose(2, 1, 0), modes.astype(np.int8).transpose(2, 1, 0)


def two_cell_decisions(est, h, b_init):
    """The [N, T] BS indicators b(n) by serving_series on [N, 2, T]
    estimates of two cells, under a scalar, [N] or [N, 2] margin h: the
    paper's rule on y = est[:, 0] - est[:, 1]."""
    n = est.shape[0]
    h = np.asarray(h, dtype=float)
    h_tab = np.broadcast_to(h[:, None] if h.ndim == 1 else h, (n, 2))
    return serving_series(est, h_tab, np.repeat([[0], [1]], n, axis=1), b_init, 0.0)


def window_problem(process, n, horizon, objective, **settings):
    """The trellis problem rooted at sample n of a GapProcess, on the window
    stats harness._trellis_problem reads; settings are the other
    TrellisProblem fields."""
    stats = _window_stats(process, n, horizon)
    return TrellisProblem(objective=objective, horizon=horizon, stats=stats, **settings)
