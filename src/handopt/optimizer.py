"""Receding-horizon trellis search for the hysteresis margin vector.

A trellis problem looks m samples ahead from the current serving state
b(n). Each of the 2^m serving-state sequences is a path; each stage of a
path maps to a gap event (switch or stay box at that sample), and the
per-stage margins h(n+1..n+m) are chosen by grid search to minimize the
objective along the path. The best path's first-stage decisions are
returned; the caller re-solves one sample later (receding horizon).

Stage quantities come from the joint Gaussian law of the gap process.
Objectives:

* min_handover: stage cost is the probability the stage performs a switch,
  conditioned on the root serving state. Planned and unplanned switches are
  costed by the same rule, so making a planned switch improbable is never
  free. Constraint: the conditional outage of the branch the path asserts
  (stay or switch) <= p_out_cap; committing to a branch whose conditional
  outage breaks the budget is forbidden, which is what pushes the margins
  down while the serving cell is still strong.
* min_outage: stage cost is the stage outage probability, the sum of the
  two branch-conditional outage terms leaving the stage's from-state: the
  serving outage given the stay box plus the target outage given the
  switch box. Both branches are charged at every stage; a wider margin
  deepens the selection behind the switch branch (lowering its term) while
  diluting the selection behind the stay branch (raising its term), which
  is the tradeoff the margin actually controls. Constraint: stage switch
  probability <= p_han_cap.
* pareto: z-weighted sum of the two stage costs, no caps.

Every objective is a sum of per-stage grid vectors indexed by the path's
from-state, and every cap is a per-stage mask indexed by the stage's
(from, to) edge. So a stage's margin choice depends only on the stage and
its edge: solve() scans each of the 4m edges once (masked argmin, or the
minimal-excess margin when the cap admits none) and gathers the results
over the 2^m paths, summing stage costs in stage order.

Every needed quantity reduces to one- and two-dimensional Gaussian boxes,
which the stage tables evaluate on a margin-value lattice: closed-form
normal CDFs in one dimension and bvn_cdf_lattice in two, exact at the
lattice points with no interpolation. The stage switch probabilities
condition on the root box only, so each stage needs just one root-edge
table: the CDF of (y_l, y_0) on the margin lattice × the edges of both
root states' stay boxes (+-root_margin, +-inf), integrated over y_l, whose
lattice borders lie one grid step apart. The tables read only the stats
window, the grid, the root margin and the outage threshold, so one build
serves both root states and every objective. solve_group builds the tables
of all its problems' windows in one stacked pass: one row range per
window, one stacked bvn_cdf_lattice call per table kind, and one per-edge
scan per objective setting over every row. The outage tables of a stage
do not read the root at all, and windows sliced from one GapProcess block
carry bit-equal moments for equal coordinates, so the stacked pass over
the roots of one block integrates each distinct outage law once. solve()
then only ranks its root's paths from the cached per-edge rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError
from .gaussian import GaussianVector, bvn_cdf_lattice

_COND_FLOOR = 1e-12

_OBJECTIVES = ("min_handover", "min_outage", "pareto")

_EVENT_LABELS = {(0, 1): "L", (0, 0): "M+N", (1, 1): "L+M", (1, 0): "N"}


@dataclass(frozen=True, eq=False)
class TrellisProblem:
    """Frozen statement of one receding-horizon margin optimization."""

    objective: str
    horizon: int
    root_b: int
    root_margin: float
    stats: GaussianVector
    outage_threshold_db: float
    h_max: float = 10.0
    h_step: float = 0.25
    p_out_cap: float = 1.0
    p_han_cap: float = 1.0
    pareto_z: float = 0.5
    _cache: dict = field(default_factory=dict, repr=False)
    # sample times t_0..t_m carried by the stats, ascending; checked once
    times: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.objective not in _OBJECTIVES:
            raise ConfigurationError(f"unknown objective {self.objective!r}")
        if not 0 <= self.horizon <= 12:
            raise ConfigurationError("horizon must lie in 0..12")
        if self.root_b not in (0, 1):
            raise ConfigurationError("root_b must be 0 or 1")
        if not (math.isfinite(self.root_margin) and self.root_margin >= 0):
            raise ConfigurationError("root_margin must be finite and nonnegative")
        if not (0 < self.h_step < math.inf and 0 <= self.h_max < math.inf):
            raise ConfigurationError("grid needs finite h_step > 0 and h_max >= 0")
        for cap in (self.p_out_cap, self.p_han_cap):
            if not 0.0 < cap <= 1.0:
                raise ConfigurationError("caps must lie in (0, 1]")
        if not 0.0 <= self.pareto_z <= 1.0:
            raise ConfigurationError("pareto_z must lie in [0, 1]")
        if not math.isfinite(self.outage_threshold_db):
            raise ConfigurationError("outage_threshold_db must be finite")
        ys = sorted(l[1] for l in self.stats.labels if l[0] == "y")
        if self.horizon > 0:
            if len(ys) != self.horizon + 1 or ys != list(
                range(ys[0], ys[0] + self.horizon + 1)
            ):
                raise ConfigurationError(
                    "stats must carry y at m+1 consecutive samples"
                )
            have_p = {(l[1], l[2]) for l in self.stats.labels if l[0] == "p"}
            for t in ys[1:]:
                if (0, t) not in have_p or (1, t) not in have_p:
                    raise ConfigurationError(
                        "stats must carry both received powers at every stage"
                    )
        object.__setattr__(self, "times", tuple(ys))

    @property
    def grid(self) -> np.ndarray:
        """The multiples of h_step up to h_max, rounded to 10 decimals."""
        n = math.floor(self.h_max / self.h_step + 1e-9)
        return np.round(np.arange(n + 1) * self.h_step, 10)


@dataclass(frozen=True)
class TrellisPath:
    """One serving-state sequence with its optimized margins."""

    states: tuple
    events: tuple
    margins: tuple = ()
    cost: float = math.nan
    feasible: bool = True
    violation: float = 0.0

    @property
    def n_switches(self) -> int:
        return sum(1 for e in self.events if e in ("L", "N"))


@dataclass(frozen=True, eq=False)
class TrellisSolution:
    """solve() output: every path's optimized margins, cost and violation.

    Path j's serving states are row j of states, the m binary digits of j
    with stage 1 most significant (itertools.product((0, 1), repeat=m)
    order). Row j of path_margins and entry j of path_costs and
    path_violations belong to path j; winner is the best path's index.
    """

    objective: str
    root_b: int
    states: np.ndarray
    path_margins: np.ndarray
    path_costs: np.ndarray
    path_violations: np.ndarray
    winner: int

    @cached_property
    def paths(self) -> tuple:
        """Every path as a TrellisPath, in path order, built on first read."""
        return tuple(
            TrellisPath(
                states=tuple(to),
                events=tuple(_EVENT_LABELS[edge] for edge in zip([self.root_b, *to], to)),
                margins=tuple(h.tolist()),
                cost=float(c),
                feasible=float(v) == 0.0,
                violation=float(v),
            )
            for to, h, c, v in zip(
                self.states.tolist(), self.path_margins, self.path_costs, self.path_violations
            )
        )

    @property
    def path(self) -> TrellisPath:
        return self.paths[self.winner]

    @property
    def margins(self) -> tuple:
        return tuple(self.path_margins[self.winner].tolist())

    @property
    def b_next(self) -> int:
        """The first-stage serving state; the root state when m = 0."""
        return int(self.states[self.winner, 0]) if self.states.shape[1] else self.root_b

    @property
    def h_first(self) -> float:
        """The first-stage margin; NaN when m = 0."""
        return float(self.path_margins[self.winner, 0]) if self.states.shape[1] else math.nan

    @property
    def cost(self) -> float:
        return float(self.path_costs[self.winner])

    @property
    def violation(self) -> float:
        return float(self.path_violations[self.winner])

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def _stay_box(u: int, h: float):
    return (-h, math.inf) if u == 0 else (-math.inf, h)


class _StackedTables:
    """Lattice tables and stage grids of many stats windows, stacked by row.

    windows lists (stats, times) pairs, which share the margin grid, the
    root margin and the outage threshold. Row q holds one sample of one
    window: window w owns rows row0[w] .. row0[w] + m_w, its root sample
    first, so its slice has the layout of one window's tables: F[q, x] is the normal CDF of its y at
    lattice[x], hc[root_b, q, u, i] the stage switch probability from u at
    margin grid[i] given the root state's stay box, oc[q, u_from, u_to, i]
    the outage of the branch's serving cell given the stage's own gap
    event, and po[q, u_from, i] the stage outage with both branches
    charged. Root rows of hc, oc and po are zero. root_degenerate[w, root_b]
    marks a root box without mass, where hc falls back to the unconditional
    stage switch probability.

    Every stage quantity is a ratio of one- or two-dimensional Gaussian
    boxes whose edges are lattice values, so each is an exact difference of
    lattice CDFs. The pair laws are read out of each window by index: the
    root-edge laws (y_l, y_0), whose CDFs on the lattice × the edges of both
    root states' stay boxes give hc, and the outage laws (y_l, p_s(t_l)),
    whose CDFs on the lattice × the threshold give oc. Each kind takes one
    stacked bvn_cdf_lattice call over its distinct laws.
    """

    def __init__(self, windows, grid, root_margin, outage_threshold_db):
        k = grid.size
        self.grid = grid
        finite = np.unique(np.concatenate([-grid, grid, [-root_margin, root_margin]]))
        self.lattice = np.concatenate(([-np.inf], finite, [np.inf]))
        root_edges = np.unique([-np.inf, -root_margin, root_margin, np.inf])
        beta = outage_threshold_db

        # per window: its y coordinates, then both powers at each stage
        n_rows = [len(times) for _, times in windows]
        self.row0 = np.concatenate(([0], np.cumsum(n_rows)))
        mu_y, var_y, pair_mu, pair_Sigma = [], [], [], []
        for (stats, times), n in zip(windows, n_rows):
            idx = stats.positions(
                [("y", t) for t in times] + [("p", s, t) for t in times[1:] for s in (0, 1)]
            )
            iy, ip = idx[:n], idx[n:].reshape(n - 1, 2)
            # pairs[l - 1]: (y_l, y_0), (y_l, p_0(t_l)), (y_l, p_1(t_l))
            partner = np.column_stack([np.full(n - 1, iy[0]), ip])
            pairs = np.stack(np.broadcast_arrays(iy[1:, None], partner), axis=-1)
            mu_y.append(stats.mu[iy])
            var_y.append(stats.Sigma[iy, iy])
            pair_mu.append(stats.mu[pairs])
            pair_Sigma.append(stats.Sigma[pairs[..., :, None], pairs[..., None, :]])
        mu_y = np.concatenate(mu_y)
        sd = np.sqrt(np.maximum(np.concatenate(var_y), 0.0))
        with np.errstate(invalid="ignore"):
            z = (self.lattice[None, :] - mu_y[:, None]) / np.maximum(sd[:, None], 1e-150)
        self.F = ndtr(np.where(np.isnan(z), -np.inf, z))

        stage = np.setdiff1d(np.arange(self.row0[-1]), self.row0[:-1])
        pair_mu, pair_Sigma = np.concatenate(pair_mu), np.concatenate(pair_Sigma)
        # R[j, x, e] = P(y_l <= lattice[x], y_0 <= root_edges[e]) of stage row j
        R = _lattice_tables(pair_mu[:, 0], pair_Sigma[:, 0], self.lattice, root_edges)
        # U[j, s, x] = P(y_l <= lattice[x], p_s(t_l) <= beta)
        U = _lattice_tables(
            pair_mu[:, 1:].reshape(-1, 2), pair_Sigma[:, 1:].reshape(-1, 2, 2),
            self.lattice, np.array([beta]),
        ).reshape(-1, 2, self.lattice.size)
        Fs = self.F[stage]

        pos = lambda v: np.searchsorted(self.lattice, v)
        ineg, ipos = pos(-grid), pos(grid)
        zeros = np.zeros(k, dtype=int)
        last = np.full(k, self.lattice.size - 1, dtype=int)
        # (lo, hi) lattice index vectors over the grid, [u] of the switch
        # box leaving u and [u_from, u_to] of the branch box
        sw_lo, sw_hi = np.stack([zeros, ipos]), np.stack([ineg, last])
        br_lo = np.stack([np.stack([ineg, zeros]), np.stack([ipos, zeros])])
        br_hi = np.stack([np.stack([last, ineg]), np.stack([last, ipos])])

        self.hc = np.zeros((2, self.row0[-1], 2, k))
        self.root_degenerate = np.zeros((len(windows), 2), dtype=bool)
        row_window = np.repeat(np.arange(len(windows)), n_rows)[stage]
        for root_b in (0, 1):
            lo, hi = _stay_box(root_b, root_margin)
            root_p = self.F[self.row0[:-1], pos(hi)] - self.F[self.row0[:-1], pos(lo)]
            self.root_degenerate[:, root_b] = degenerate = root_p < _COND_FLOOR
            r1, r2 = np.searchsorted(root_edges, [lo, hi])
            box = R[:, sw_hi, r2] - R[:, sw_lo, r2] - R[:, sw_hi, r1] + R[:, sw_lo, r1]
            marginal = Fs[:, sw_hi] - Fs[:, sw_lo]
            self.hc[root_b, stage] = np.where(
                degenerate[row_window, None, None],
                marginal,
                box / np.where(degenerate, 1.0, root_p)[row_window, None, None],
            )

        # a branch box without mass falls back to the marginal outage
        p_marg = _outage_marginal(pair_mu[:, 1:, 1], pair_Sigma[:, 1:, 1, 1], beta)
        u_to = np.arange(2)[:, None]
        num = U[:, u_to, br_hi] - U[:, u_to, br_lo]
        den = Fs[:, br_hi] - Fs[:, br_lo]
        self.oc = np.zeros((self.row0[-1], 2, 2, k))
        self.oc[stage] = np.where(
            den < _COND_FLOOR, p_marg[:, None, :, None], num / np.maximum(den, _COND_FLOOR)
        )
        # u_to = u_from stays, u_to = 1 - u_from switches, so summing over
        # u_to charges exactly the two branches
        self.po = self.oc.sum(axis=2)


def _lattice_tables(mu, Sigma, xs, ys):
    """bvn_cdf_lattice of each stacked law, one integration per distinct law bytes."""
    moments = np.ascontiguousarray(np.concatenate([mu, Sigma.reshape(-1, 4)], axis=1))
    _, first, inverse = np.unique(
        moments.view(np.dtype((np.void, moments.itemsize * 6))).ravel(),
        return_index=True, return_inverse=True,
    )
    return bvn_cdf_lattice(mu[first], Sigma[first], xs, ys)[inverse.ravel()]


def _outage_marginal(mu, var, threshold):
    """P(p <= threshold) of powers with these means and variances: the
    fallback of a degenerate stage box."""
    return ndtr((threshold - mu) / np.maximum(np.sqrt(var), 1e-150))


def _edge_choices(problem: TrellisProblem, grid, hc, oc, po):
    """Per-edge margin, cap excess and stage cost, stacked [..., n, 2, 2, 3].

    hc [..., n, 2, k], oc [n, 2, 2, k] and po [n, 2, k] hold n stage rows;
    entry [..., j, u_from, u_to] belongs to row j's stage taken along the
    edge u_from -> u_to. The margin is the cheapest grid value the stage's
    cap admits; when the cap admits none, it is the minimal-excess one
    (smallest margin on ties) and the excess is that minimum, else 0.
    """
    shape = hc.shape[:-2] + (2, 2, hc.shape[-1])
    if problem.objective == "min_handover":
        cost = hc
        level = oc
        cap = problem.p_out_cap
    elif problem.objective == "min_outage":
        cost = po
        level = hc[..., None, :]
        cap = problem.p_han_cap
    else:
        z = problem.pareto_z
        cost = z * hc + (1.0 - z) * po
        level = np.zeros(shape)  # uncapped: every margin is admitted
        cap = 1.0
    cost = np.broadcast_to(cost[..., None, :], shape)
    level = np.broadcast_to(level, shape)
    ok = level <= cap
    over = level - cap
    forced = ~ok.any(axis=-1)
    least = np.argmin(over, axis=-1)
    idx = np.where(forced, least, np.argmin(np.where(ok, cost, np.inf), axis=-1))
    excess = np.where(forced, np.take_along_axis(over, least[..., None], axis=-1)[..., 0], 0.0)
    stage_cost = np.take_along_axis(cost, idx[..., None], axis=-1)[..., 0]
    return np.stack([grid[idx], excess, stage_cost], axis=-1)


def _build_edges(problems) -> None:
    """Stack the tables of every problem's window and cache its per-edge choices.

    Problems with equal grid, root margin and outage threshold share one
    _StackedTables, where each distinct stats window owns a row range, and
    problems with equal objective settings share one per-edge scan of all
    its rows for both root states. Each problem's cache receives its
    tables and window ("tables") and its [4m, 3] edge rows ("edges"): row
    4(l - 1) + 2 u_from + u_to holds stage l's margin, cap excess and
    stage cost along that edge.
    """
    groups = {}
    for problem in problems:
        lattice = (problem.h_max, problem.h_step, problem.root_margin)
        groups.setdefault((*lattice, problem.outage_threshold_db), []).append(problem)
    for members in groups.values():
        window_of = {}  # stats object id -> its window's index
        windows = []
        for problem in members:
            if id(problem.stats) not in window_of:
                window_of[id(problem.stats)] = len(windows)
                windows.append((problem.stats, problem.times))
        head = members[0]
        tables = _StackedTables(windows, head.grid, head.root_margin, head.outage_threshold_db)
        scans = {}
        for problem in members:
            settings = (problem.objective, problem.p_out_cap, problem.p_han_cap, problem.pareto_z)
            if settings not in scans:
                scans[settings] = _edge_choices(
                    problem, tables.grid, tables.hc, tables.oc, tables.po
                )
            w = window_of[id(problem.stats)]
            q = tables.row0[w] + 1
            edges = scans[settings][problem.root_b, q : q + problem.horizon]
            problem._cache["tables"] = (tables, w)
            problem._cache["edges"] = edges.reshape(-1, 3)


@lru_cache(maxsize=None)
def _skeleton(m: int, root_b: int):
    """Path states [2^m, m], edge-row index [2^m, m] and switch counts of
    the trellis of depth m rooted at root_b, read-only and shared."""
    to = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    frm = np.concatenate([np.full((2**m, 1), root_b), to], axis=1)[:, :m]
    rows = 4 * np.arange(m) + 2 * frm + to
    n_switches = np.count_nonzero(frm != to, axis=1)
    for a in (to, rows, n_switches):
        a.setflags(write=False)
    return to, rows, n_switches


def solve(problem: TrellisProblem) -> TrellisSolution:
    """Optimize every path and rank them; the winner's first stage is the decision.

    Ranking: feasible before infeasible, then smaller violation, then cost,
    then fewer switches, then lexicographically smaller margin vector; on a
    full tie the first path in itertools.product((0, 1), repeat=m) order of
    the states wins. Reads the problem's cached edge rows, built here for
    the problem alone when solve_group has not built them.
    """
    m = problem.horizon
    to, rows, n_switches = _skeleton(m, problem.root_b)
    cost = np.zeros(2**m)
    violation = np.zeros(2**m)
    if m:
        if "edges" not in problem._cache:
            _build_edges([problem])
        picked = problem._cache["edges"][rows]
        margins = picked[:, :, 0]
        for l in range(m):
            # stage by stage, so every path's total rounds like a scalar sum
            cost = cost + picked[:, l, 2]
        if picked[:, :, 1].any():  # else no edge is forced: every violation is 0
            for l in range(m):
                e = picked[:, l, 1]
                violation = np.where(e > violation, e, violation)
    else:
        margins = np.zeros(to.shape)
    order = np.lexsort(
        (*margins.T[::-1], n_switches, cost, violation, violation != 0.0)
    )
    return TrellisSolution(
        problem.objective, problem.root_b, to, margins, cost, violation, int(order[0])
    )


def solve_group(problems):
    """Solve problems after one stacked table build for all of them.

    opt_margin_tables passes every root problem of one (cell pair, block):
    the tables of all their windows then take one stacked lattice call per
    table kind, and every solve only ranks its root's paths.
    """
    problems = list(problems)
    _build_edges([p for p in problems if p.horizon > 0 and "edges" not in p._cache])
    return [solve(p) for p in problems]


def _window_stats(process, n: int, horizon: int):
    """The stats a trellis rooted at sample n reads: y at n..n+horizon and
    both received powers at n+1..n+horizon, sliced from the block law of
    sample n (GapProcess.block_stats)."""
    if n + horizon >= process.n_samples:
        raise ConfigurationError("horizon runs past the end of the trace")
    y_times = list(range(n, n + horizon + 1))
    p_times = [(s, t) for t in y_times[1:] for s in (0, 1)]
    return process.block_stats(y_times, p_times)
