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
window, the grid, the root margin and the outage threshold, so solve_group
builds them once per window and shares them across both root states and
every objective. The outage tables of a stage do not read the root at all,
so tables over windows sliced from one GapProcess block share them through
the block's memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
        if self.horizon > 0:
            self.times  # validates label layout

    @property
    def times(self):
        """Sample times t_0..t_m carried by the stats, ascending."""
        ys = sorted(l[1] for l in self.stats.labels if l[0] == "y")
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
        return tuple(ys)

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


class _StageTables:
    """Lattice tables and stage grids of one stats window: the optimizer's one backend.

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
    that share the block's memo (GapProcess.block_memo) build each U once.
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
                p_marg = _outage_marginal(stats, times[l], u_to, beta)
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


def _outage_marginal(stats, t: int, s: int, threshold: float) -> float:
    """P(p_s(t) <= threshold), the fallback of a degenerate stage box."""
    i = stats.labels.index(("p", s, t))
    return float(ndtr((threshold - stats.mu[i]) / max(math.sqrt(stats.Sigma[i, i]), 1e-150)))


def _table_inputs(problem: TrellisProblem) -> tuple:
    """The _StageTables arguments: all the stage tables read of a problem."""
    return (
        problem.stats,
        problem.times,
        problem.grid,
        problem.root_margin,
        problem.outage_threshold_db,
    )


def _get_tables(problem: TrellisProblem) -> _StageTables:
    if "tables" not in problem._cache:
        problem._cache["tables"] = _StageTables(*_table_inputs(problem), {})
    return problem._cache["tables"]


def _edge_choices(problem: TrellisProblem, tables: _StageTables):
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


def solve(problem: TrellisProblem) -> TrellisSolution:
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
        tables = _get_tables(problem)
        idx, excess, stage_cost = _edge_choices(problem, tables)
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
    """Solve problems, building one _StageTables per distinct table input.

    Problems over the same stats window object, grid, root margin and
    outage threshold share one table object, whatever their root state and
    objective. Every table built here reads and fills outage_memo (a fresh
    dict when None); pass GapProcess.block_memo of the windows' block to
    share outage tables with the other roots of that block.
    """
    problems = list(problems)  # keeps every stats object, so its id, alive
    memo = {} if outage_memo is None else outage_memo
    built = {}
    out = []
    for pr in problems:
        if pr.horizon > 0 and "tables" not in pr._cache:
            stats, times, grid, root_margin, beta = inputs = _table_inputs(pr)
            key = (id(stats), times, grid.tobytes(), root_margin, beta)
            if key not in built:
                built[key] = _StageTables(*inputs, memo)
            pr._cache["tables"] = built[key]
        out.append(solve(pr))
    return out


def problem_from_process(
    process, n: int, horizon: int, objective: str, **settings
) -> TrellisProblem:
    """Assemble a TrellisProblem from a GapProcess at sample n.

    settings are the other TrellisProblem fields: root_b, root_margin and
    outage_threshold_db are required, the grid, caps and pareto_z optional.
    """
    return TrellisProblem(
        objective=objective, horizon=horizon, stats=_window_stats(process, n, horizon), **settings
    )


def _window_stats(process, n: int, horizon: int):
    """The stats a trellis rooted at sample n reads: y at n..n+horizon and
    both received powers at n+1..n+horizon, sliced from the block law of
    sample n (GapProcess.block_stats)."""
    if n + horizon >= process.n_samples:
        raise ConfigurationError("horizon runs past the end of the trace")
    y_times = list(range(n, n + horizon + 1))
    p_times = [(s, t) for t in y_times[1:] for s in (0, 1)]
    return process.block_stats(y_times, p_times)
