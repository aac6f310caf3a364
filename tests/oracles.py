"""Reference implementations that tests compare the package against."""

import math

import numpy as np
from scipy.special import ndtr

from handopt.estimators import FilterCoeffs, coefficient_table, window_start
from handopt.gaussian import (
    _BLOCK_SAMPLES,
    _MC_CHUNK,
    GapProcess,
    _cholesky_jittered,
    bvn_cdf_lattice,
)
from handopt.harness import _OPT_POLICIES, _TABLE_MODE, _cell_pairs, _trellis_problem
from handopt.optimizer import _COND_FLOOR, TrellisSolution, _stay_box, _window_stats


def avg_coeffs(n: int, n_w: int) -> FilterCoeffs:
    """Rectangular window row at sample n: every sample in the window
    weighted 1/count, the row coefficient_table's avg mode must hold."""
    nb = window_start(n, n_w)
    cnt = n - nb + 1
    return FilterCoeffs(nb, n, np.full(cnt, 1.0 / cnt), "avg")


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


def opt_margin_tables(config, policies=_OPT_POLICIES, *, channels=None) -> dict:
    """harness.opt_margin_tables with one StageTables per root window: every
    root's six problems in one solve_group call, the outage tables shared
    through one memo per (cell pair, block)."""
    d = config.distances_m()
    n_samples = d.shape[1]
    mode = _TABLE_MODE[config.estimator]
    pair = _cell_pairs(d)
    chs = tuple(channels) if channels is not None else config.channels
    processes, memos = {}, {}
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
            )
        stats = _window_stats(processes[a, b], root_n, m)
        problems = [
            _trellis_problem(config, stats, m, root_b, p) for p in policies for root_b in (0, 1)
        ]
        sols = solve_group(problems, memos.setdefault((a, b, root_n // _BLOCK_SAMPLES), {}))
        for i, p in enumerate(policies):
            out[p][t] = (sols[2 * i].h_first, sols[2 * i + 1].h_first)
    return out
