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
from-state, so the margin search is an exact per-stage scan.

Probability evaluation method "pairwise" reduces every needed quantity to
one- and two-dimensional boxes evaluated by deterministic segmented
quadrature on a margin-value lattice (exact at nominal lattice points, no
interpolation). The stage switch probabilities condition on the root box
only, so each stage needs just one root-edge table: the CDF of
(y_l, y_0) on the margin lattice × the edges of both root states' stay
boxes (+-root_margin, +-inf), integrated over y_l, whose lattice borders
lie one grid step apart. One such table per stage serves every problem of
a solve_group. Method "exact" computes the same boxes through exact_prob;
it is the slow reference used for verification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError
from .gaussian import EventSpec, YProcessStats, bvn_cdf_lattice, exact_prob

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
    stats: YProcessStats
    outage_threshold_db: float
    h_max: float = 10.0
    h_step: float = 0.25
    p_out_cap: float = 1.0
    p_han_cap: float = 1.0
    pareto_z: float = 0.5
    method: str = "pairwise"
    mc_samples: int = 1_000_000
    seed: int = 0
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
        if not (self.h_step > 0 and self.h_max >= 0):
            raise ConfigurationError("grid needs h_step > 0 and h_max >= 0")
        for cap in (self.p_out_cap, self.p_han_cap):
            if not 0.0 < cap <= 1.0:
                raise ConfigurationError("caps must lie in (0, 1]")
        if not 0.0 <= self.pareto_z <= 1.0:
            raise ConfigurationError("pareto_z must lie in [0, 1]")
        if self.method not in ("pairwise", "exact"):
            raise ConfigurationError(f"unknown method {self.method!r}")
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
        return np.round(
            np.arange(0.0, self.h_max + self.h_step / 2, self.h_step), 10
        )


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


@dataclass(frozen=True)
class TrellisSolution:
    """solve() output: first-stage decisions plus the full ranking."""

    b_next: int
    h_first: float
    margins: tuple
    cost: float
    feasible: bool
    violation: float
    path: TrellisPath
    paths: tuple
    objective: str


def build_trellis(problem: TrellisProblem):
    """All 2^m serving-state sequences rooted at b(n), with event labels."""
    m = problem.horizon
    if m > 12:
        raise ConfigurationError("horizon beyond 12 refused")
    if m == 0:
        return (TrellisPath(states=(), events=(), margins=(), cost=0.0),)
    paths = []
    for states in itertools.product((0, 1), repeat=m):
        prev = problem.root_b
        events = []
        for b in states:
            events.append(_EVENT_LABELS[(prev, b)])
            prev = b
        paths.append(TrellisPath(states=states, events=tuple(events)))
    return tuple(paths)


def _switch_box(u: int, h: float):
    """Gap box that moves service away from state u under margin h."""
    return (-math.inf, -h) if u == 0 else (h, math.inf)


def _stay_box(u: int, h: float):
    return (-h, math.inf) if u == 0 else (-math.inf, h)


class _StageTables:
    """Per-problem lattice tables and stage cost grids.

    The lattice holds every margin value the search can query (plus the
    root margin and +-inf), so each conditional below is an exact ratio of
    lattice CDF differences. The pair quantities condition only on the
    root box, so each stage keeps one root-edge table: the joint CDF of
    (y_l, y_0) on the lattice × the edges of both root states' stay boxes,
    integrated over y_l, whose lattice borders lie one grid step apart.
    The tables are shared across a solve_group.
    """

    def __init__(self, problem: TrellisProblem, share: "_StageTables" = None):
        self.problem = problem
        self.grid = problem.grid
        m = problem.horizon
        times = problem.times
        stats = problem.stats
        g = self.grid
        if share is not None:
            for name in (
                "lattice", "_pos", "mu_y", "sd_y", "F", "R", "_rpos", "U", "p_marg",
                "_exact_cache", "_ineg", "_ipos",
            ):
                if hasattr(share, name):
                    setattr(self, name, getattr(share, name))
        else:
            finite = np.unique(
                np.concatenate([-g, g, [-problem.root_margin, problem.root_margin]])
            )
            self.lattice = np.concatenate(([-np.inf], finite, [np.inf]))
            self._pos = {v: i for i, v in enumerate(self.lattice)}

            y_labels = [("y", t) for t in times]
            mu = np.array([stats.mean_of(l) for l in y_labels])
            sd = np.array([stats.sd_of(l) for l in y_labels])
            self.mu_y, self.sd_y = mu, sd

            if problem.method == "pairwise":
                with np.errstate(invalid="ignore"):
                    z = (self.lattice[None, :] - mu[:, None]) / np.maximum(
                        sd[:, None], 1e-150
                    )
                self.F = ndtr(np.where(np.isnan(z), -np.inf, z))
                root_edges = np.unique(
                    [-np.inf, -problem.root_margin, problem.root_margin, np.inf]
                )
                self._rpos = {v: i for i, v in enumerate(root_edges)}
                # R[l][x, y] = P(y_l <= lattice[x], y_0 <= root_edges[y])
                self.R = {}
                for l in range(1, m + 1):
                    gv = stats.joint([y_labels[l], y_labels[0]])
                    self.R[l] = bvn_cdf_lattice(gv.mu, gv.Sigma, self.lattice, root_edges)
                self.U = {}
                self.p_marg = {}
                beta = problem.outage_threshold_db
                for l in range(1, m + 1):
                    for s in (0, 1):
                        # U[(l, s)][x] = P(y_l <= lattice[x], p_s(t_l) <= beta),
                        # integrated over y_l like R
                        gv = stats.joint([y_labels[l], ("p", s, times[l])])
                        self.U[(l, s)] = bvn_cdf_lattice(
                            gv.mu, gv.Sigma, self.lattice, np.array([beta])
                        )[:, 0]
                        self.p_marg[(l, s)] = float(
                            ndtr(
                                (beta - gv.mu[1])
                                / max(math.sqrt(gv.Sigma[1, 1]), 1e-150)
                            )
                        )
                self._ineg = np.fromiter((self._pos[-v] for v in g), int, g.size)
                self._ipos = np.fromiter((self._pos[v] for v in g), int, g.size)
            else:
                self._exact_cache = {}

        self.root_box = _stay_box(problem.root_b, problem.root_margin)
        self._build_grids(share)

    # -- box probabilities ------------------------------------------------

    def _single(self, l: int, box) -> float:
        if self.problem.method == "pairwise":
            return float(self.F[l, self._pos[box[1]]] - self.F[l, self._pos[box[0]]])
        return self._exact_single(l, box)

    # exact backend: same boxes through exact_prob (Simpson quadrature)
    def _exact_single(self, l, box):
        t = self.problem.times[l]
        ev = EventSpec(((("y", t), box[0], box[1]),))
        key = ("s", l, box)
        if key not in self._exact_cache:
            gv = self.problem.stats.joint([("y", t)])
            self._exact_cache[key] = exact_prob(gv, ev).estimate
        return self._exact_cache[key]

    def _exact_pair(self, i, j, box_i, box_j):
        times = self.problem.times
        key = ("p", i, j, box_i, box_j)
        if key not in self._exact_cache:
            gv = self.problem.stats.joint([("y", times[i]), ("y", times[j])])
            ev = EventSpec(
                (
                    (("y", times[i]), box_i[0], box_i[1]),
                    (("y", times[j]), box_j[0], box_j[1]),
                )
            )
            self._exact_cache[key] = exact_prob(gv, ev).estimate
        return self._exact_cache[key]

    def _exact_pow(self, l, s, box):
        """P(p_s(t_l) <= threshold, y_l in box)."""
        t = self.problem.times[l]
        key = ("u", l, s, box)
        if key not in self._exact_cache:
            gv = self.problem.stats.joint([("p", s, t), ("y", t)])
            ev = EventSpec(
                (
                    (("p", s, t), -math.inf, self.problem.outage_threshold_db),
                    (("y", t), box[0], box[1]),
                )
            )
            self._exact_cache[key] = exact_prob(gv, ev).estimate
        return self._exact_cache[key]

    # -- stage grids -------------------------------------------------------

    def _box_idx(self, u: int, switch: bool):
        """(lo, hi) lattice index vectors over the margin grid."""
        k = self.grid.size
        zeros = np.zeros(k, dtype=int)
        last = np.full(k, self.lattice.size - 1, dtype=int)
        if switch:
            return (zeros, self._ineg) if u == 0 else (self._ipos, last)
        return (self._ineg, last) if u == 0 else (zeros, self._ipos)

    def _build_grids(self, share=None):
        m = self.problem.horizon
        g = self.grid
        k = g.size
        root_p = self._single(0, self.root_box)
        self._root_degenerate = root_p < _COND_FLOOR
        fast = self.problem.method == "pairwise"

        # hc[l][u, i]: P(stage l switches away from u at margin g[i] | root)
        self.hc = np.zeros((m + 1, 2, k))
        for l in range(1, m + 1):
            for u in (0, 1):
                if fast:
                    lo, hi = self._box_idx(u, switch=True)
                    if self._root_degenerate:
                        self.hc[l, u] = self.F[l, hi] - self.F[l, lo]
                    else:
                        r1 = self._rpos[self.root_box[0]]
                        r2 = self._rpos[self.root_box[1]]
                        R = self.R[l]
                        self.hc[l, u] = (
                            R[hi, r2] - R[lo, r2] - R[hi, r1] + R[lo, r1]
                        ) / root_p
                else:
                    for i, h in enumerate(g):
                        sw = _switch_box(u, h)
                        if self._root_degenerate:
                            self.hc[l, u, i] = self._single(l, sw)
                        else:
                            self.hc[l, u, i] = (
                                self._exact_pair(0, l, self.root_box, sw) / root_p
                            )

        if share is not None:
            self.oc = share.oc
            self.po = share.po
            return

        # oc[l][u_from, u_to, i]: outage of the branch's serving BS (u_to)
        # conditional on the stage's own gap event (same-sample conditioning)
        self.oc = np.zeros((m + 1, 2, 2, k))
        for l in range(1, m + 1):
            for u_from in (0, 1):
                for u_to in (0, 1):
                    s = u_to
                    if fast:
                        lo, hi = self._box_idx(u_from, switch=u_to != u_from)
                        num = self.U[(l, s)][hi] - self.U[(l, s)][lo]
                        den = self.F[l, hi] - self.F[l, lo]
                        self.oc[l, u_from, u_to] = np.where(
                            den < _COND_FLOOR,
                            self.p_marg[(l, s)],
                            num / np.maximum(den, _COND_FLOOR),
                        )
                    else:
                        for i, h in enumerate(g):
                            box = (
                                _switch_box(u_from, h)
                                if u_to != u_from
                                else _stay_box(u_from, h)
                            )
                            num = self._exact_pow(l, s, box)
                            den = self._single(l, box)
                            if den < _COND_FLOOR:
                                self.oc[l, u_from, u_to, i] = _outage_marginal(
                                    self.problem, l, s
                                )
                            else:
                                self.oc[l, u_from, u_to, i] = num / den

        # po[l][u_from, i]: stage outage probability, both branch
        # conditionals charged (u_to = u_from stays, u_to = 1 - u_from
        # switches, so summing over u_to covers exactly the two branches)
        self.po = self.oc.sum(axis=2)


def _outage_marginal(problem: TrellisProblem, l: int, s: int) -> float:
    """P(p_s(t_l) <= threshold), the fallback of a degenerate stage box."""
    gv = problem.stats.joint([("p", s, problem.times[l])])
    return float(
        ndtr(
            (problem.outage_threshold_db - gv.mu[0])
            / max(math.sqrt(gv.Sigma[0, 0]), 1e-150)
        )
    )


def _get_tables(problem: TrellisProblem) -> _StageTables:
    if "tables" not in problem._cache:
        problem._cache["tables"] = _StageTables(problem)
    return problem._cache["tables"]


def _stage_chain(problem, states):
    """(from, to) pairs along the path including the root edge."""
    prev = problem.root_b
    out = []
    for b in states:
        out.append((prev, b))
        prev = b
    return out


def _feasible_masks(problem, tables, states):
    """Per-stage boolean masks over the grid from the objective's caps.

    Caps are per-stage, so masks decouple. Stages with an empty mask are
    pinned at their minimal-violation margin (smallest h on ties) and the
    path carries the largest stage excess as its violation.
    """
    m = problem.horizon
    k = tables.grid.size
    chain = _stage_chain(problem, states)
    masks = np.ones((m, k), dtype=bool)
    forced = [None] * m
    violation = 0.0
    for l in range(1, m + 1):
        u_from, u_to = chain[l - 1]
        if problem.objective == "min_handover":
            level = tables.oc[l, u_from, u_to]
            cap = problem.p_out_cap
        elif problem.objective == "min_outage":
            level = tables.hc[l, u_from]
            cap = problem.p_han_cap
        else:
            masks[l - 1] = True
            continue
        ok = level <= cap
        masks[l - 1] = ok
        if not ok.any():
            excess = level - cap
            j = int(np.argmin(excess))
            forced[l - 1] = j
            violation = max(violation, float(excess[j]))
            masks[l - 1, j] = True
    return masks, forced, violation


def _stage_cost_vectors(problem, tables, states):
    """Per-stage cost grids [k] for the path, indexed by its from-states."""
    chain = _stage_chain(problem, states)
    m = problem.horizon
    out = []
    for l in range(1, m + 1):
        u_from = chain[l - 1][0]
        if problem.objective == "min_handover":
            vec = tables.hc[l, u_from]
        elif problem.objective == "min_outage":
            vec = tables.po[l, u_from]
        else:
            z = problem.pareto_z
            vec = z * tables.hc[l, u_from] + (1.0 - z) * tables.po[l, u_from]
        out.append(vec)
    return out


def _sum_cost_fn(stage_costs):
    """Vectorized cost over candidate margin index arrays [..., m]."""

    def cost(h_idx):
        total = np.zeros(h_idx.shape[:-1])
        for l, vec in enumerate(stage_costs):
            total = total + vec[h_idx[..., l]]
        return total

    return cost


def _decoupled_argmin(stage_costs, masks, forced):
    """Exact per-stage scan; valid whenever the cost is a sum over stages."""
    m = len(stage_costs)
    out = np.empty(m, dtype=int)
    for l in range(m):
        if forced[l] is not None:
            out[l] = forced[l]
            continue
        vals = stage_costs[l].copy()
        vals[~masks[l]] = np.inf
        out[l] = int(np.argmin(vals))
    return out


def optimize_path_hysteresis(path: TrellisPath, problem: TrellisProblem) -> TrellisPath:
    """Fill in the path's optimal margins, cost and feasibility.

    Every shipped objective decomposes into per-stage grid vectors, so the
    search is an exact per-stage scan.
    """
    m = problem.horizon
    if m == 0:
        return TrellisPath(states=(), events=(), margins=(), cost=0.0)
    if len(path.states) != m:
        raise ConfigurationError("path length does not match the horizon")
    tables = _get_tables(problem)
    if tables.grid.size == 0:
        raise ConfigurationError("empty hysteresis grid")
    masks, forced, violation = _feasible_masks(problem, tables, path.states)
    stage_costs = _stage_cost_vectors(problem, tables, path.states)
    cost_fn = _sum_cost_fn(stage_costs)
    h_idx = _decoupled_argmin(stage_costs, masks, forced)
    cost = float(cost_fn(h_idx[None, :])[0])
    return TrellisPath(
        states=path.states,
        events=path.events,
        margins=tuple(float(tables.grid[i]) for i in h_idx),
        cost=cost,
        feasible=violation == 0.0,
        violation=violation,
    )


def solve(problem: TrellisProblem) -> TrellisSolution:
    """Optimize every path and return the winner's first-stage decisions.

    Ranking: feasible before infeasible, then smaller violation, then cost,
    then fewer switches, then lexicographically smaller margin vector.
    """
    if problem.horizon == 0:
        empty = TrellisPath(states=(), events=(), margins=(), cost=0.0)
        return TrellisSolution(
            b_next=problem.root_b,
            h_first=math.nan,
            margins=(),
            cost=0.0,
            feasible=True,
            violation=0.0,
            path=empty,
            paths=(empty,),
            objective=problem.objective,
        )
    optimized = tuple(
        optimize_path_hysteresis(p, problem) for p in build_trellis(problem)
    )

    def key(p: TrellisPath):
        return (
            0 if p.feasible else 1,
            p.violation,
            p.cost,
            p.n_switches,
            p.margins,
        )

    best = min(optimized, key=key)
    return TrellisSolution(
        b_next=best.states[0],
        h_first=best.margins[0],
        margins=best.margins,
        cost=best.cost,
        feasible=best.feasible,
        violation=best.violation,
        path=best,
        paths=optimized,
        objective=problem.objective,
    )


def _shareable(a: TrellisProblem, b: TrellisProblem) -> bool:
    return (
        a.stats is b.stats
        and a.horizon == b.horizon
        and a.h_max == b.h_max
        and a.h_step == b.h_step
        and a.root_margin == b.root_margin
        and a.outage_threshold_db == b.outage_threshold_db
        and a.method == b.method
    )


def solve_group(problems):
    """Solve problems that share stats and grid, building tables once.

    Only the root-dependent stage grids are rebuilt per problem; the
    lattice CDF tables are shared. Problems that do not match the first
    one get their own tables, so the call is always safe.
    """
    problems = list(problems)
    base = None
    out = []
    for pr in problems:
        if pr.horizon > 0 and "tables" not in pr._cache:
            if base is not None and _shareable(base.problem, pr):
                pr._cache["tables"] = _StageTables(pr, share=base)
            else:
                pr._cache["tables"] = _StageTables(pr)
        if pr.horizon > 0 and base is None:
            base = pr._cache["tables"]
        out.append(solve(pr))
    return out


def verify_solution(problem: TrellisProblem, solution: TrellisSolution, tol_sigma: float = 3.0):
    """Recheck the winner's cap quantities with the exact method.

    Returns a dict with per-stage recomputed values and an 'ok' flag: every
    capped quantity must respect its cap within tol_sigma reported standard
    errors of the exact evaluation. A conditioning box without mass is
    replaced as in the stage tables: by the marginal outage (min_handover)
    or the unconditional stage switch probability (min_outage).
    """
    if problem.horizon == 0:
        return {"ok": True, "stages": []}
    times = problem.times
    chain = _stage_chain(problem, solution.path.states)
    stages = []
    ok = True
    stderr = 1e-6  # deterministic quadrature error figure from exact_prob
    for l in range(1, problem.horizon + 1):
        u_from, u_to = chain[l - 1]
        h = solution.margins[l - 1]
        t = times[l]
        if problem.objective == "min_handover":
            box = (
                _switch_box(u_from, h) if u_to != u_from else _stay_box(u_from, h)
            )
            gv = problem.stats.joint([("p", u_to, t), ("y", t)])
            num = exact_prob(
                gv,
                EventSpec(
                    (
                        (("p", u_to, t), -math.inf, problem.outage_threshold_db),
                        (("y", t), box[0], box[1]),
                    )
                ),
            ).estimate
            den = exact_prob(
                problem.stats.joint([("y", t)]),
                EventSpec(((("y", t), box[0], box[1]),)),
            ).estimate
            # same fallback as the stage tables: the marginal outage
            value = (
                _outage_marginal(problem, l, u_to) if den < _COND_FLOOR else num / den
            )
            cap = problem.p_out_cap
        elif problem.objective == "min_outage":
            sw = _switch_box(u_from, h)
            root_box = _stay_box(problem.root_b, problem.root_margin)
            den = exact_prob(
                problem.stats.joint([("y", times[0])]),
                EventSpec(((("y", times[0]), root_box[0], root_box[1]),)),
            ).estimate
            if den < _COND_FLOOR:
                # same fallback as the stage tables: the unconditional
                # stage switch probability
                value = exact_prob(
                    problem.stats.joint([("y", t)]),
                    EventSpec(((("y", t), sw[0], sw[1]),)),
                ).estimate
            else:
                gv = problem.stats.joint([("y", times[0]), ("y", t)])
                value = exact_prob(
                    gv,
                    EventSpec(
                        (
                            (("y", times[0]), root_box[0], root_box[1]),
                            (("y", t), sw[0], sw[1]),
                        )
                    ),
                ).estimate / den
            cap = problem.p_han_cap
        else:
            stages.append({"stage": l, "value": math.nan, "cap": math.nan})
            continue
        stage_ok = solution.feasible is False or value <= cap + tol_sigma * stderr
        ok &= stage_ok
        stages.append({"stage": l, "value": value, "cap": cap, "ok": stage_ok})
    return {"ok": bool(ok), "stages": stages}


def stage_profile(problem: TrellisProblem, solution: TrellisSolution):
    """Per-stage switch and outage probabilities of the winning path.

    Evaluated at the chosen margins, so pareto sweeps can report both
    coordinates of a solution without re-running the search.
    """
    if problem.horizon == 0:
        return {"handover": np.zeros(0), "outage": np.zeros(0)}
    tables = _get_tables(problem)
    chain = _stage_chain(problem, solution.path.states)
    idx = [int(np.argmin(np.abs(tables.grid - h))) for h in solution.margins]
    han = np.array(
        [tables.hc[l, chain[l - 1][0], idx[l - 1]] for l in range(1, problem.horizon + 1)]
    )
    out = np.array(
        [tables.po[l, chain[l - 1][0], idx[l - 1]] for l in range(1, problem.horizon + 1)]
    )
    return {"handover": han, "outage": out}


def problem_from_process(
    process,
    n: int,
    horizon: int,
    objective: str,
    *,
    root_b: int,
    root_margin: float,
    outage_threshold_db: float,
    h_max: float = 10.0,
    h_step: float = 0.25,
    p_out_cap: float = 1.0,
    p_han_cap: float = 1.0,
    pareto_z: float = 0.5,
    method: str = "pairwise",
) -> TrellisProblem:
    """Assemble a TrellisProblem from a GapProcess at sample n."""
    if n + horizon >= process.n_samples:
        raise ConfigurationError("horizon runs past the end of the trace")
    y_times = list(range(n, n + horizon + 1))
    p_times = [(s, t) for t in y_times[1:] for s in (0, 1)]
    stats = process.stats(y_times, p_times)
    return TrellisProblem(
        objective=objective,
        horizon=horizon,
        root_b=root_b,
        root_margin=root_margin,
        stats=stats,
        outage_threshold_db=outage_threshold_db,
        h_max=h_max,
        h_step=h_step,
        p_out_cap=p_out_cap,
        p_han_cap=p_han_cap,
        pareto_z=pareto_z,
        method=method,
    )
