"""Trellis margin optimizer against exhaustive and independent oracles.

Three layers of checking: a per-path scan (solve_by_paths) and an
exhaustive (state, margin)-grid enumeration that must match solve() bit for
bit (they consume the same stage tables but reimplement masking, fallback
and ranking from scratch), and a scipy-based recomputation of the
conditional probabilities behind those tables. verify_solution re-checks a
winner's capped quantities through exact_prob, independently of the tables.
"""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import multivariate_normal, norm

from handopt import optimizer
from handopt.channel import ChannelParams
from handopt.errors import ConfigurationError
from handopt.estimators import coefficient_table
from handopt.gaussian import EventSpec, exact_prob
from handopt.harness import _gap_process
from handopt.metrics import GapProcess
from handopt.optimizer import (
    _COND_FLOOR,
    _EVENT_LABELS,
    TrellisPath,
    TrellisProblem,
    _stay_box,
    _window_stats,
    solve,
    solve_group,
)
from handopt.scenario import preset

import oracles
from oracles import outage_marginal, stage_tables, window_problem

STEP = 6.24
INF = math.inf


def two_cell_process(start=950.0, n=12, n_w=4, sigma_db=None):
    x = start + STEP * np.arange(n)
    d = np.stack([x, 2000.0 - x])
    ch = ChannelParams() if sigma_db is None else ChannelParams(shadow_sigma_db=sigma_db)
    t0 = coefficient_table(d[0], n_w, "avg")
    t1 = coefficient_table(d[1], n_w, "avg")
    return GapProcess(t0, t1, (ch, ch), d, STEP, overlap=12)


def package_tables(problem):
    """The package's stacked tables of the problem's window, sliced to the
    per-window layout of the oracle's StageTables."""
    solve(problem)
    tables, w = problem._cache["tables"]
    rows = slice(tables.row0[w], tables.row0[w + 1])
    return SimpleNamespace(
        grid=tables.grid, lattice=tables.lattice, F=tables.F[rows], hc=tables.hc[:, rows],
        oc=tables.oc[rows], po=tables.po[rows], root_degenerate=tables.root_degenerate[w],
    )


def box_mass(tables, l, box):
    """P(y_l in box) for a box with lattice edges, from the tables' F."""
    lo, hi = np.searchsorted(tables.lattice, box)
    return float(tables.F[l, hi] - tables.F[l, lo])


def make_problem(rng, objective, horizon=1, start=None, sigma_db=None, **overrides):
    if start is None:
        start = float(rng.uniform(820.0, 1120.0))
    proc = two_cell_process(start=start, n=10, sigma_db=sigma_db)
    n_root = int(rng.integers(2, 10 - horizon - 1))
    kwargs = dict(
        root_b=int(rng.integers(0, 2)),
        root_margin=float(rng.choice([0.0, 0.5, 1.3, 2.0, 4.0])),
        outage_threshold_db=float(rng.uniform(-114.0, -96.0)),
        h_max=float(rng.choice([6.0, 10.0])),
        h_step=float(rng.choice([0.25, 0.5])),
        p_out_cap=float(rng.choice([0.02, 0.1, 0.35, 0.9])),
        p_han_cap=float(rng.choice([0.05, 0.3, 0.9])),
        pareto_z=float(rng.uniform(0.0, 1.0)),
    )
    kwargs.update(overrides)
    return window_problem(proc, n_root, horizon, objective, **kwargs)


# --- per-path oracle: the scan solve() replaced by one scan per edge ----------


def build_trellis(problem):
    """All 2^m serving-state sequences rooted at b(n), with event labels, in
    itertools.product order."""
    m = problem.horizon
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


def stage_chain(problem, states):
    """(from, to) pairs along the path including the root edge."""
    prev = problem.root_b
    out = []
    for b in states:
        out.append((prev, b))
        prev = b
    return out


def switch_box(u: int, h: float):
    """Gap box that moves service away from state u under margin h."""
    return (-INF, -h) if u == 0 else (h, INF)


def path_masks(problem, tables, states):
    """Per-stage boolean masks over the grid from the objective's caps.

    Stages with an empty mask are pinned at their minimal-violation margin
    (smallest h on ties) and the path carries the largest stage excess as
    its violation.
    """
    m = problem.horizon
    chain = stage_chain(problem, states)
    masks = np.ones((m, tables.grid.size), dtype=bool)
    forced = [None] * m
    violation = 0.0
    for l in range(1, m + 1):
        u_from, u_to = chain[l - 1]
        if problem.objective == "min_handover":
            level = tables.oc[l, u_from, u_to]
            cap = problem.p_out_cap
        elif problem.objective == "min_outage":
            level = tables.hc[problem.root_b, l, u_from]
            cap = problem.p_han_cap
        else:
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


def path_stage_costs(problem, tables, states):
    """Per-stage cost grids [k] for the path, indexed by its from-states."""
    out = []
    for l, (u_from, _) in enumerate(stage_chain(problem, states), start=1):
        if problem.objective == "min_handover":
            vec = tables.hc[problem.root_b, l, u_from]
        elif problem.objective == "min_outage":
            vec = tables.po[l, u_from]
        else:
            z = problem.pareto_z
            vec = z * tables.hc[problem.root_b, l, u_from] + (1.0 - z) * tables.po[l, u_from]
        out.append(vec)
    return out


def sum_cost_fn(stage_costs):
    """Vectorized cost over candidate margin index arrays [..., m]."""

    def cost(h_idx):
        total = np.zeros(h_idx.shape[:-1])
        for l, vec in enumerate(stage_costs):
            total = total + vec[h_idx[..., l]]
        return total

    return cost


def decoupled_argmin(stage_costs, masks, forced):
    """Exact per-stage scan; valid whenever the cost is a sum over stages."""
    out = np.empty(len(stage_costs), dtype=int)
    for l, vec in enumerate(stage_costs):
        if forced[l] is not None:
            out[l] = forced[l]
        else:
            out[l] = int(np.argmin(np.where(masks[l], vec, np.inf)))
    return out


def solve_by_paths(problem, tables=None):
    """(winner, paths) by optimizing each of the 2^m paths on its own, on
    the oracle's per-root tables unless tables are given."""
    tables = stage_tables(problem) if tables is None else tables
    paths = []
    for p in build_trellis(problem):
        masks, forced, violation = path_masks(problem, tables, p.states)
        costs = path_stage_costs(problem, tables, p.states)
        h_idx = decoupled_argmin(costs, masks, forced)
        paths.append(
            TrellisPath(
                states=p.states,
                events=p.events,
                margins=tuple(float(tables.grid[i]) for i in h_idx),
                cost=float(sum_cost_fn(costs)(h_idx[None, :])[0]),
                feasible=violation == 0.0,
                violation=violation,
            )
        )
    # then fewer switches, the L and N edges
    best = min(
        paths,
        key=lambda p: (
            0 if p.feasible else 1, p.violation, p.cost,
            sum(e in ("L", "N") for e in p.events), p.margins,
        ),
    )
    return best, tuple(paths)


def test_solve_matches_per_path_oracle():
    rng = np.random.default_rng(97)
    objectives = ("min_handover", "min_outage", "pareto")
    seen = {"infeasible": 0, "degenerate": 0}
    for i in range(120):
        objective = objectives[i % 3]
        horizon = 1 + (i // 3) % 4
        overrides = {}
        if i % 10 == 7:
            # threshold above the deliverable power, near-zero caps
            overrides = dict(outage_threshold_db=-95.0, p_out_cap=0.005, p_han_cap=1e-6)
        elif i % 10 == 9:
            # claiming BS0 deep inside BS1 territory under weak shadowing:
            # the root box carries no mass
            overrides = dict(start=1750.0, sigma_db=2.0, root_b=0)
        problem = make_problem(rng, objective, horizon=horizon, **overrides)
        sol = solve(problem)
        best, paths = solve_by_paths(problem)
        assert sol.paths == paths
        assert sol.path == best
        assert sol.path is sol.paths[sol.winner]
        assert sol.winner == paths.index(best)
        assert (sol.cost, sol.violation, sol.feasible) == (
            best.cost, best.violation, best.feasible
        )
        assert (sol.b_next, sol.h_first, sol.margins) == (
            best.states[0], best.margins[0], best.margins
        )
        seen["infeasible"] += all(not p.feasible for p in paths)
        seen["degenerate"] += package_tables(problem).root_degenerate[problem.root_b]
    assert seen["infeasible"] >= 8 and seen["degenerate"] >= 8


def test_ranking_ties_fall_to_smaller_margins_then_first_path():
    # crafted min_handover tables: path (0, 0) breaks its cap, while (0, 1)
    # and (1, 1) are feasible at zero cost with one switch each, so only
    # the margin vectors rank them
    proc = two_cell_process(n=10)
    problem = window_problem(
        proc, 2, 2, "min_handover",
        root_b=0, root_margin=2.0, outage_threshold_db=-105.0, p_out_cap=0.5,
    )
    tables = stage_tables(problem)

    def solve_crafted():
        # solve() ranks the edge rows cached on the problem: scan the
        # crafted tables into them
        problem._cache["edges"] = optimizer._edge_choices(
            problem, tables.grid, tables.hc[problem.root_b, 1:], tables.oc[1:], tables.po[1:]
        ).reshape(-1, 3)
        sol = solve(problem)
        assert (sol.path, sol.paths) == solve_by_paths(problem, tables)
        return sol

    tables.hc = np.ones_like(tables.hc)
    tables.oc = np.zeros_like(tables.oc)
    hc = tables.hc[problem.root_b]  # a view: writes reach the tables
    hc[1, 0] = 0.0
    hc[2, 0] = 0.0
    tables.oc[1, 0, 0, :4] = 1.0  # stage 1 of (0, 1) needs h >= g[4]
    tables.oc[2, 0, 0] = 1.0  # (0, 0) cannot stay at stage 2
    hc[2, 1, 6] = 0.0  # (1, 1) is free only at g[6]
    g = tables.grid
    sol = solve_crafted()
    by_states = {p.states: p for p in sol.paths}
    assert by_states[(0, 1)].margins == (g[4], g[0])
    assert by_states[(1, 1)].margins == (g[0], g[6])
    assert sol.path.states == (1, 1)  # (g0, g6) < (g4, g0)

    # equal margin vectors as well: the first path in trellis order wins
    tables.oc[1, 0, 0] = 0.0
    hc[2, 1] = 0.0
    sol = solve_crafted()
    assert sol.path.states == (0, 1)


# --- exhaustive (b, h)-grid enumeration at m = 1 ------------------------------


def brute_force_m1(problem):
    """Evaluate every (next-state, margin) pair and rank like solve().

    Reads the oracle's per-root stage tables (the probability layer is
    validated separately) but reimplements feasibility, forced fallback and
    ranking.
    """
    tables = stage_tables(problem)
    g = tables.grid
    candidates = []
    for b in (0, 1):
        u_from, u_to = problem.root_b, b
        if problem.objective == "min_handover":
            level = tables.oc[1, u_from, u_to]
            cap = problem.p_out_cap
        elif problem.objective == "min_outage":
            level = tables.hc[problem.root_b, 1, u_from]
            cap = problem.p_han_cap
        else:
            level = None
        if problem.objective == "min_handover":
            cost_vec = tables.hc[problem.root_b, 1, u_from]
        elif problem.objective == "min_outage":
            cost_vec = tables.po[1, u_from]
        else:
            z = problem.pareto_z
            cost_vec = z * tables.hc[problem.root_b, 1, u_from] + (1.0 - z) * tables.po[1, u_from]
        n_sw = 0 if b == u_from else 1
        violation = 0.0
        if level is None:
            allowed = range(g.size)
        else:
            allowed = [i for i in range(g.size) if level[i] <= cap]
            if not allowed:
                excess = level - cap
                j = min(range(g.size), key=lambda i: (excess[i], i))
                allowed = [j]
                violation = float(excess[j])
        best = min(allowed, key=lambda i: (cost_vec[i], i))
        candidates.append(
            (
                0 if violation == 0.0 else 1,
                violation,
                float(cost_vec[best]),
                n_sw,
                (float(g[best]),),
                b,
            )
        )
    feas, violation, cost, _, margins, b = min(candidates)
    return {
        "b_next": b,
        "h_first": margins[0],
        "margins": margins,
        "cost": cost,
        "feasible": feas == 0,
        "violation": violation,
    }


def test_solve_m1_matches_exhaustive_grid():
    rng = np.random.default_rng(90)
    objectives = itertools.cycle(("min_handover", "min_outage", "pareto"))
    for _ in range(15):
        problem = make_problem(rng, next(objectives))
        sol = solve(problem)
        ref = brute_force_m1(problem)
        assert sol.b_next == ref["b_next"]
        assert sol.h_first == ref["h_first"]
        assert sol.margins == ref["margins"]
        assert sol.cost == ref["cost"]
        assert sol.feasible == ref["feasible"]
        assert sol.violation == ref["violation"]


# --- independent probability layer at m = 1 -----------------------------------


def scipy_box2(gv, lows, highs):
    dist = multivariate_normal(mean=gv.mu, cov=gv.Sigma)
    cap = gv.mu + 40.0 * np.sqrt(np.diag(gv.Sigma))
    total = 0.0
    for picks in itertools.product((0, 1), repeat=2):
        corner = [highs[i] if p else lows[i] for i, p in enumerate(picks)]
        if any(np.isneginf(corner)):
            continue
        total += (-1) ** (2 - sum(picks)) * dist.cdf(np.minimum(corner, cap))
    return float(total)


def scipy_stage_tables(problem):
    """hc / oc / po at stage 1 recomputed from scipy mvn CDFs."""
    t0, t1 = problem.times
    stats = problem.stats
    g = np.round(np.arange(0.0, problem.h_max + problem.h_step / 2, problem.h_step), 10)
    beta = problem.outage_threshold_db
    root_lo, root_hi = (
        (-problem.root_margin, INF)
        if problem.root_b == 0
        else (-INF, problem.root_margin)
    )
    gv_y0 = stats.subset([("y", t0)])
    root_p = float(
        norm.cdf((root_hi - gv_y0.mu[0]) / math.sqrt(gv_y0.Sigma[0, 0]))
        - norm.cdf((root_lo - gv_y0.mu[0]) / math.sqrt(gv_y0.Sigma[0, 0]))
    )
    gv_pair = stats.subset([("y", t0), ("y", t1)])
    gv_y1 = stats.subset([("y", t1)])
    sd1 = math.sqrt(gv_y1.Sigma[0, 0])
    hc = np.zeros((2, g.size))
    for u in (0, 1):
        for i, h in enumerate(g):
            lo, hi = (-INF, -h) if u == 0 else (h, INF)
            if root_p < 1e-12:
                hc[u, i] = float(
                    norm.cdf((hi - gv_y1.mu[0]) / sd1)
                    - norm.cdf((lo - gv_y1.mu[0]) / sd1)
                )
            else:
                hc[u, i] = (
                    scipy_box2(gv_pair, [root_lo, lo], [root_hi, hi]) / root_p
                )
    oc = np.zeros((2, 2, g.size))
    for u_from in (0, 1):
        for u_to in (0, 1):
            gv_py = stats.subset([("p", u_to, t1), ("y", t1)])
            p_marg = float(
                norm.cdf((beta - gv_py.mu[0]) / math.sqrt(gv_py.Sigma[0, 0]))
            )
            for i, h in enumerate(g):
                if u_to != u_from:
                    lo, hi = (-INF, -h) if u_from == 0 else (h, INF)
                else:
                    lo, hi = (-h, INF) if u_from == 0 else (-INF, h)
                den = float(
                    norm.cdf((hi - gv_y1.mu[0]) / sd1)
                    - norm.cdf((lo - gv_y1.mu[0]) / sd1)
                )
                if den < 1e-12:
                    oc[u_from, u_to, i] = p_marg
                else:
                    num = scipy_box2(gv_py, [-INF, lo], [beta, hi])
                    oc[u_from, u_to, i] = num / den
    return g, hc, oc, oc.sum(axis=1)


def quad_box2(gv, lo, hi):
    """P(lo < X <= hi) for a bivariate law by adaptive quadrature over X.

    The inner conditional CDF steps where the conditional mean crosses a
    finite Y edge; those points are passed to quad as breakpoints.
    """
    mu, S = gv.mu, gv.Sigma
    s0 = math.sqrt(S[0, 0])
    beta = S[1, 0] / S[0, 0]
    s_cond = math.sqrt(S[1, 1] - beta * S[1, 0])
    a = max(lo[0], mu[0] - 12.0 * s0)
    b = min(hi[0], mu[0] + 12.0 * s0)

    def f(x):
        m = mu[1] + beta * (x - mu[0])
        dens = math.exp(-0.5 * ((x - mu[0]) / s0) ** 2) / (s0 * math.sqrt(2 * math.pi))
        return dens * (ndtr((hi[1] - m) / s_cond) - ndtr((lo[1] - m) / s_cond))

    steps = [mu[0] + (e - mu[1]) / beta for e in (lo[1], hi[1]) if math.isfinite(e)]
    steps = sorted(x for x in steps if a < x < b)
    return quad(f, a, b, points=steps or None, epsabs=1e-15, epsrel=1e-13, limit=400)[0]


def test_stage_tables_match_adaptive_quadrature_at_high_correlation():
    # paper-vi at 2 m/s: adjacent gaps correlate at rho ~ 0.988, where a
    # 24-node rule over a tail segment tens of dB wide errs by ~1e-6
    config = preset("paper-vi").with_updates(speed_mps=2.0)
    proc = _gap_process(config)
    beta = config.resolved_outage_threshold()
    for root_b in (0, 1):
        problem = window_problem(
            proc, 40, 1, "min_handover",
            root_b=root_b, root_margin=2.0, outage_threshold_db=beta,
        )
        t0, t1 = problem.times
        pair = problem.stats.subset([("y", t0), ("y", t1)])
        rho = pair.Sigma[0, 1] / math.sqrt(pair.Sigma[0, 0] * pair.Sigma[1, 1])
        assert rho > 0.98
        tables = package_tables(problem)
        y0 = problem.stats.subset([("y", t0)])
        y1 = problem.stats.subset([("y", t1)])
        cdf = lambda gv, x: ndtr((x - gv.mu[0]) / math.sqrt(gv.Sigma[0, 0]))
        r_lo, r_hi = (-2.0, INF) if root_b == 0 else (-INF, 2.0)
        root_p = cdf(y0, r_hi) - cdf(y0, r_lo)
        for u in (0, 1):
            for i, h in enumerate(tables.grid):
                lo, hi = (-INF, -h) if u == 0 else (h, INF)
                ref = quad_box2(pair, [r_lo, lo], [r_hi, hi]) / root_p
                assert abs(tables.hc[root_b, 1, u, i] - ref) < 1e-9
    # oc does not depend on the root state: check it once
    for u_from in (0, 1):
        for u_to in (0, 1):
            gv = problem.stats.subset([("p", u_to, t1), ("y", t1)])
            for i, h in enumerate(tables.grid):
                if u_to != u_from:
                    lo, hi = (-INF, -h) if u_from == 0 else (h, INF)
                else:
                    lo, hi = (-h, INF) if u_from == 0 else (-INF, h)
                ref = quad_box2(gv, [-INF, lo], [beta, hi]) / (cdf(y1, hi) - cdf(y1, lo))
                assert abs(tables.oc[1, u_from, u_to, i] - ref) < 1e-9


def test_stage_tables_match_scipy_recomputation():
    rng = np.random.default_rng(92)
    for objective in ("min_handover", "min_outage", "pareto"):
        for _ in range(2):
            problem = make_problem(rng, objective, root_margin=1.3)
            tables = package_tables(problem)
            g, hc, oc, po = scipy_stage_tables(problem)
            np.testing.assert_allclose(tables.hc[problem.root_b, 1], hc, atol=2e-7)
            np.testing.assert_allclose(tables.oc[1], oc, atol=2e-6)
            np.testing.assert_allclose(tables.po[1], po, atol=2e-6)


def test_solve_m1_decisions_certified_by_scipy():
    rng = np.random.default_rng(93)
    objectives = itertools.cycle(("min_handover", "min_outage", "pareto"))
    for _ in range(6):
        problem = make_problem(rng, next(objectives), root_margin=2.0)
        sol = solve(problem)
        g, hc, oc, po = scipy_stage_tables(problem)
        u_from = problem.root_b
        z = problem.pareto_z
        best = INF
        for b in (0, 1):
            if problem.objective == "min_handover":
                mask = oc[u_from, b] <= problem.p_out_cap
                cost_vec = hc[u_from]
            elif problem.objective == "min_outage":
                mask = hc[u_from] <= problem.p_han_cap
                cost_vec = po[u_from]
            else:
                mask = np.ones(g.size, bool)
                cost_vec = z * hc[u_from] + (1.0 - z) * po[u_from]
            if mask.any():
                best = min(best, float(cost_vec[mask].min()))
        if sol.feasible and best < INF:
            i_chosen = int(np.argmin(np.abs(g - sol.h_first)))
            if problem.objective == "min_handover":
                chosen_cost = hc[u_from, i_chosen]
            elif problem.objective == "min_outage":
                chosen_cost = po[u_from, i_chosen]
            else:
                chosen_cost = z * hc[u_from, i_chosen] + (1.0 - z) * po[u_from, i_chosen]
            assert abs(chosen_cost - sol.cost) < 1e-5
            assert sol.cost <= best + 1e-5  # optimal per the independent tables


# --- worked scenarios ----------------------------------------------------------


def test_min_handover_with_slack_cap_maxes_the_margin():
    # nothing ever drops near a -200 dB threshold, so every margin is
    # feasible and the switch probability is minimized at the grid top
    proc = two_cell_process(start=900.0, n=10)
    problem = window_problem(
        proc, 4, 1, "min_handover",
        root_b=0, root_margin=2.0, outage_threshold_db=-200.0,
    )
    sol = solve(problem)
    assert sol.b_next == 0  # cost tie between stay and switch; fewer switches
    assert sol.h_first == 10.0
    assert sol.feasible


def test_min_outage_prefers_the_stronger_side_at_depth_two():
    # deep in BS1 territory with the connection still on BS0: the (1, 1)
    # path serves the strong BS at stage 2 and wins on summed outage
    proc = two_cell_process(start=1090.0, n=10)
    problem = window_problem(
        proc, 5, 2, "min_outage",
        root_b=0, root_margin=2.0, outage_threshold_db=-104.0,
        p_han_cap=1.0,
    )
    sol = solve(problem)
    assert sol.b_next == 1

    # exhaustive path costing over the same tables agrees
    tables = package_tables(problem)
    best = None
    for states in itertools.product((0, 1), repeat=2):
        chain_from = (problem.root_b, states[0])
        cost = sum(
            float(tables.po[l + 1, chain_from[l]].min()) for l in range(2)
        )
        if best is None or cost < best[0]:
            best = (cost, states)
    assert best[1][0] == 1
    assert sol.cost == pytest.approx(best[0], abs=1e-12)


def test_pareto_endpoints_match_uncapped_single_objectives():
    rng = np.random.default_rng(94)
    for _ in range(3):
        base = dict(
            root_margin=float(rng.choice([0.0, 2.0])),
            p_out_cap=1.0,
            p_han_cap=1.0,
        )
        for z, objective in ((1.0, "min_handover"), (0.0, "min_outage")):
            problem_p = make_problem(rng, "pareto", pareto_z=z, **base)
            problem_s = TrellisProblem(
                objective=objective,
                horizon=problem_p.horizon,
                root_b=problem_p.root_b,
                root_margin=problem_p.root_margin,
                stats=problem_p.stats,
                outage_threshold_db=problem_p.outage_threshold_db,
                h_max=problem_p.h_max,
                h_step=problem_p.h_step,
                p_out_cap=1.0,
                p_han_cap=1.0,
            )
            a, b = solve(problem_p), solve(problem_s)
            assert a.b_next == b.b_next
            assert a.margins == b.margins
            assert a.cost == b.cost


def test_all_infeasible_reports_minimal_violation():
    # threshold above the deliverable power: outage is near-certain, so no
    # margin satisfies a 0.5% cap and the solver must degrade gracefully
    proc = two_cell_process(start=950.0, n=10)
    problem = window_problem(
        proc, 4, 2, "min_handover",
        root_b=0, root_margin=2.0, outage_threshold_db=-95.0,
        p_out_cap=0.005,
    )
    sol = solve(problem)
    assert not sol.feasible
    assert sol.violation > 0.0
    assert all(not p.feasible for p in sol.paths)
    # the reported violation is the smallest achievable stage excess
    tables = package_tables(problem)
    floors = []
    for p in sol.paths:
        masks, forced, violation = path_masks(problem, tables, p.states)
        assert p.violation == violation
        floors.append(violation)
    assert sol.violation == pytest.approx(min(floors), abs=0.0)
    assert (sol.path, sol.paths) == solve_by_paths(problem)


# --- structure and bookkeeping --------------------------------------------------


def test_build_trellis_enumerates_all_state_sequences():
    proc = two_cell_process(n=10)
    for m, expect in ((1, 2), (2, 4), (4, 16)):
        for root_b in (0, 1):
            problem = window_problem(
                proc, 2, m, "pareto",
                root_b=root_b, root_margin=0.0, outage_threshold_db=-105.0,
            )
            paths = solve(problem).paths
            assert len(paths) == expect
            assert [p.states for p in paths] == list(itertools.product((0, 1), repeat=m))
            assert [p.events for p in paths] == [p.events for p in build_trellis(problem)]
    # event labels follow the (prev, next) pairs from the root
    problem = window_problem(
        proc, 2, 2, "pareto",
        root_b=0, root_margin=0.0, outage_threshold_db=-105.0,
    )
    by_states = {p.states: p.events for p in solve(problem).paths}
    assert by_states[(0, 0)] == ("M+N", "M+N")
    assert by_states[(1, 0)] == ("L", "N")
    assert by_states[(1, 1)] == ("L", "L+M")
    assert by_states[(0, 1)] == ("M+N", "L")


def test_grid_covers_zero_to_h_max():
    proc = two_cell_process(n=10)
    problem = window_problem(
        proc, 2, 1, "pareto",
        root_b=0, root_margin=0.0, outage_threshold_db=-105.0,
    )
    g = problem.grid
    assert g.size == 41
    assert g[0] == 0.0 and g[-1] == 10.0
    np.testing.assert_allclose(np.diff(g), 0.25)


def test_zero_horizon_solution_is_trivial():
    proc = two_cell_process(n=10)
    problem = window_problem(
        proc, 2, 0, "min_outage",
        root_b=1, root_margin=2.0, outage_threshold_db=-105.0,
    )
    sol = solve(problem)
    assert sol.b_next == 1
    assert math.isnan(sol.h_first)
    assert sol.margins == ()
    assert sol.cost == 0.0 and sol.feasible
    assert sol.paths == build_trellis(problem)
    assert sol.path is sol.paths[0]


def test_problem_validation():
    proc = two_cell_process(n=10)
    stats = proc.block_stats([2, 3], [(0, 3), (1, 3)])
    good = dict(
        objective="min_outage", horizon=1, root_b=0, root_margin=2.0,
        stats=stats, outage_threshold_db=-105.0,
    )
    TrellisProblem(**good)
    for bad in (
        {"objective": "fastest"},
        {"horizon": 13},
        {"horizon": -1},
        {"root_b": 2},
        {"root_margin": -1.0},
        {"root_margin": math.inf},
        {"h_step": 0.0},
        {"h_step": math.inf},
        {"h_step": math.nan},
        {"h_max": math.inf},
        {"h_max": math.nan},
        {"p_out_cap": 0.0},
        {"p_han_cap": 1.5},
        {"pareto_z": 1.5},
        {"outage_threshold_db": math.nan},
    ):
        with pytest.raises(ConfigurationError):
            TrellisProblem(**{**good, **bad})
    # stats must carry consecutive gaps and both stage powers
    with pytest.raises(ConfigurationError):
        TrellisProblem(**{**good, "stats": proc.block_stats([2, 4], [(0, 4), (1, 4)])})
    with pytest.raises(ConfigurationError):
        TrellisProblem(**{**good, "stats": proc.block_stats([2, 3], [(0, 3)])})
    with pytest.raises(ConfigurationError):
        window_problem(
            proc, 8, 2, "pareto",
            root_b=0, root_margin=0.0, outage_threshold_db=-105.0,
        )


def test_solve_group_matches_individual_solves():
    proc = two_cell_process(start=960.0, n=10)
    stats = proc.block_stats([3, 4, 5], [(s, t) for t in (4, 5) for s in (0, 1)])
    shared = [
        TrellisProblem(
            objective=obj, horizon=2, root_b=rb, root_margin=2.0,
            stats=stats, outage_threshold_db=-105.0, p_out_cap=0.35,
            p_han_cap=0.9,
        )
        for obj in ("min_handover", "min_outage", "pareto")
        for rb in (0, 1)
    ]
    expected = [
        solve(
            TrellisProblem(
                objective=p.objective, horizon=2, root_b=p.root_b,
                root_margin=2.0, stats=stats, outage_threshold_db=-105.0,
                p_out_cap=0.35, p_han_cap=0.9,
            )
        )
        for p in shared
    ]
    got = solve_group(shared)
    for a, b in zip(got, expected):
        assert a.b_next == b.b_next
        assert a.margins == b.margins
        assert a.cost == b.cost

    # a mismatched root margin forces private tables but identical answers
    odd = TrellisProblem(
        objective="pareto", horizon=2, root_b=0, root_margin=1.0,
        stats=stats, outage_threshold_db=-105.0,
    )
    got_odd = solve_group([shared[0], odd])[1]
    ref_odd = solve(
        TrellisProblem(
            objective="pareto", horizon=2, root_b=0, root_margin=1.0,
            stats=stats, outage_threshold_db=-105.0,
        )
    )
    assert got_odd.margins == ref_odd.margins
    assert got_odd.cost == ref_odd.cost


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_solve_group_equals_fresh_individual_solves(data):
    # few choices per field, so problems often share their table inputs
    proc = two_cell_process(start=data.draw(st.sampled_from([900.0, 980.0, 1060.0])), n=10)
    windows = []
    for _ in range(data.draw(st.integers(1, 3))):
        horizon = data.draw(st.integers(1, 3))
        windows.append((_window_stats(proc, data.draw(st.integers(0, 8 - horizon)), horizon), horizon))
    problems = []
    for _ in range(data.draw(st.integers(1, 8))):
        stats, horizon = data.draw(st.sampled_from(windows))
        h_max, h_step = data.draw(st.sampled_from([(10.0, 0.25), (6.0, 0.5), (1.0, 0.6)]))
        problems.append(
            TrellisProblem(
                objective=data.draw(st.sampled_from(["min_handover", "min_outage", "pareto"])),
                horizon=horizon,
                root_b=data.draw(st.integers(0, 1)),
                root_margin=data.draw(st.sampled_from([0.0, 0.6, 2.0])),
                stats=stats,
                outage_threshold_db=data.draw(st.sampled_from([-110.0, -104.0, -98.0])),
                h_max=h_max,
                h_step=h_step,
                p_out_cap=data.draw(st.sampled_from([0.05, 0.35, 1.0])),
                p_han_cap=data.draw(st.sampled_from([0.1, 0.9, 1.0])),
                pareto_z=data.draw(st.sampled_from([0.0, 0.3, 1.0])),
            )
        )
    got = solve_group(problems)
    for problem, a in zip(problems, got):
        # a fresh problem solved alone, and the per-root oracle
        for b in (solve(replace(problem, _cache={})), oracles.solve(problem)):
            assert a.paths == b.paths
            assert (a.b_next, a.margins, a.cost, a.violation) == (
                b.b_next, b.margins, b.cost, b.violation
            )
    # problems with equal grid, root margin and threshold share one stacked
    # table, and one window of it exactly when they share the stats object
    for pa, pb in itertools.combinations(problems, 2):
        same_lattice = (
            pa.grid.tobytes() == pb.grid.tobytes()
            and pa.root_margin == pb.root_margin
            and pa.outage_threshold_db == pb.outage_threshold_db
        )
        (ta, wa), (tb, wb) = pa._cache["tables"], pb._cache["tables"]
        assert (ta is tb) == same_lattice
        assert (ta is tb and wa == wb) == (same_lattice and pa.stats is pb.stats)


def stage_masses(tables, times, root_margin):
    """The stage tables with their conditioning undone: hc times the root
    box mass, oc times the stage box mass, where that mass clears the floor
    below which the tables fall back to unconditional values."""
    hc = tables.hc.copy()
    for root_b in (0, 1):
        if not tables.root_degenerate[root_b]:
            hc[root_b] *= box_mass(tables, 0, _stay_box(root_b, root_margin))
    oc = tables.oc.copy()
    for l in range(1, len(times)):
        for u_from, u_to in itertools.product((0, 1), repeat=2):
            box = switch_box if u_to != u_from else _stay_box
            for i, h in enumerate(tables.grid):
                den = box_mass(tables, l, box(u_from, h))
                if den >= _COND_FLOOR:
                    oc[l, u_from, u_to, i] *= den
    return tables.F, hc, oc


@settings(max_examples=40, deadline=None)
@given(
    st.floats(700.0, 1100.0),
    st.integers(1, 8),
    st.sampled_from([4.0, 8.0, 12.0]),
    st.integers(0, 12),
    st.integers(0, 99),
    st.sampled_from([0.0, 0.6, 2.0]),
    st.sampled_from([-110.0, -104.0, -98.0]),
)
def test_block_windows_equal_fresh_windows(start, n_w, sigma_db, horizon, root, root_margin, beta):
    # 100 samples span two blocks; roots on both sides of the block border
    proc = two_cell_process(start=start, n=100, n_w=n_w, sigma_db=sigma_db)
    n = min(root, 99 - horizon)
    y_times = list(range(n, n + horizon + 1))
    p_times = [(s, t) for t in y_times[1:] for s in (0, 1)]
    sliced = _window_stats(proc, n, horizon)
    fresh = oracles.label_law(
        proc, [("y", t) for t in y_times] + [("p", s, t) for s, t in p_times]
    )
    assert sliced.labels == fresh.labels
    for a, b in ((sliced.mu, fresh.mu), (sliced.Sigma, fresh.Sigma)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
    if horizon == 0:
        return
    # the tables divide by box masses that can be small, which magnifies
    # last-bit differences of the moments; the masses themselves agree
    times = tuple(y_times)
    built = [
        package_tables(
            TrellisProblem(
                objective="pareto", horizon=horizon, root_b=0, root_margin=root_margin,
                stats=gv, outage_threshold_db=beta,
            )
        )
        for gv in (sliced, fresh)
    ]
    assert built[0].root_degenerate.tolist() == built[1].root_degenerate.tolist()
    for a, b in zip(*(stage_masses(t, times, root_margin) for t in built)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_grid_holds_the_multiples_of_the_step_up_to_h_max():
    proc = two_cell_process(n=10)
    stats = proc.block_stats([2, 3], [(0, 3), (1, 3)])
    make = lambda h_max, h_step: TrellisProblem(
        objective="pareto", horizon=1, root_b=0, root_margin=2.0, stats=stats,
        outage_threshold_db=-105.0, h_max=h_max, h_step=h_step,
    )
    assert make(1.0, 0.6).grid.tolist() == [0.0, 0.6]
    assert make(0.5, 0.6).grid.tolist() == [0.0]
    assert make(0.3, 0.1).grid.tolist() == [0.0, 0.1, 0.2, 0.3]
    # the default grid is unchanged, bit for bit
    default = make(10.0, 0.25).grid
    assert default.tobytes() == np.round(np.arange(0.0, 10.125, 0.25), 10).tobytes()
    assert default.size == 41
    # a margin never exceeds h_max
    sol = solve(make(1.0, 0.6))
    assert max(sol.margins) <= 1.0


def verify_solution(problem, solution, tol_sigma=3.0):
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
    chain = stage_chain(problem, solution.path.states)
    stages = []
    ok = True
    stderr = 1e-6  # deterministic quadrature error figure from exact_prob

    def prob(*terms):
        """P(each (label, lo, hi) term holds), by exact_prob."""
        gv = problem.stats.subset([term[0] for term in terms])
        return exact_prob(gv, EventSpec(terms)).estimate

    for l in range(1, problem.horizon + 1):
        u_from, u_to = chain[l - 1]
        h = solution.margins[l - 1]
        t = times[l]
        if problem.objective == "min_handover":
            box = switch_box(u_from, h) if u_to != u_from else _stay_box(u_from, h)
            num = prob((("p", u_to, t), -INF, problem.outage_threshold_db), (("y", t), *box))
            den = prob((("y", t), *box))
            # same fallback as the stage tables: the marginal outage
            value = (
                outage_marginal(problem.stats, t, u_to, problem.outage_threshold_db)
                if den < _COND_FLOOR
                else num / den
            )
            cap = problem.p_out_cap
        elif problem.objective == "min_outage":
            switch = (("y", t), *switch_box(u_from, h))
            root = (("y", times[0]), *_stay_box(problem.root_b, problem.root_margin))
            den = prob(root)
            # same fallback as the stage tables: the unconditional stage
            # switch probability
            value = prob(switch) if den < _COND_FLOOR else prob(root, switch) / den
            cap = problem.p_han_cap
        else:
            stages.append({"stage": l, "value": math.nan, "cap": math.nan})
            continue
        stage_ok = solution.feasible is False or value <= cap + tol_sigma * stderr
        ok &= stage_ok
        stages.append({"stage": l, "value": value, "cap": cap, "ok": stage_ok})
    return {"ok": bool(ok), "stages": stages}


def test_verify_solution_confirms_feasible_winners():
    rng = np.random.default_rng(95)
    for objective in ("min_handover", "min_outage", "pareto"):
        problem = make_problem(
            rng, objective, horizon=2,
            p_out_cap=0.6, p_han_cap=0.9, root_margin=2.0,
        )
        sol = solve(problem)
        report = verify_solution(problem, sol)
        assert report["ok"]
        assert len(report["stages"]) == 2
        if objective == "pareto":
            assert all(math.isnan(s["value"]) for s in report["stages"])


def test_verify_solution_uses_the_stage_tables_fallbacks():
    # rooted on BS0 far inside BS1 territory with little shadowing: the root
    # box (y > 0) and the stay box (y > -h) carry no mass, so both sides
    # must fall back to the same substitutes (marginal outage for min_handover,
    # unconditional switch probability for min_outage)
    x = 1750.0 + STEP * np.arange(10)
    d = np.stack([x, 2000.0 - x])
    ch = ChannelParams(shadow_sigma_db=2.0)
    proc = GapProcess(
        coefficient_table(d[0], 4, "avg"), coefficient_table(d[1], 4, "avg"),
        (ch, ch), d, STEP, overlap=12,
    )
    for objective, kw in (
        ("min_handover", {"p_out_cap": 1.0}),
        ("min_outage", {"p_han_cap": 0.5, "h_max": 40.0}),
    ):
        problem = window_problem(
            proc, 4, 1, objective,
            root_b=0, root_margin=0.0, outage_threshold_db=-113.0, **kw,
        )
        sol = solve(problem)
        tables = package_tables(problem)
        i = int(np.argmin(np.abs(tables.grid - sol.h_first)))
        assert tables.root_degenerate[problem.root_b]
        if objective == "min_handover":
            assert sol.path.states == (0,)
            assert box_mass(tables, 1, (-sol.h_first, INF)) < 1e-12
            capped = tables.oc[1, 0, 0, i]
        else:
            capped = tables.hc[problem.root_b, 1, 0, i]
        assert 0.1 < capped < 0.9
        report = verify_solution(problem, sol)
        assert report["ok"]
        assert report["stages"][0]["value"] == pytest.approx(capped, abs=1e-6)


def test_degenerate_root_region_falls_back_to_marginals():
    # rooted far inside BS1 territory while claiming BS0 with a zero margin:
    # the conditioning event has essentially no mass
    proc = two_cell_process(start=1120.0, n=10)
    problem = window_problem(
        proc, 5, 1, "min_outage",
        root_b=0, root_margin=0.0, outage_threshold_db=-105.0,
    )
    sol = solve(problem)
    assert math.isfinite(sol.cost)
    assert sol.margins[0] in problem.grid


def test_min_outage_single_stage_always_stays():
    # with one stage both paths share cost and masks, so the switch count
    # tiebreak keeps the serving BS
    rng = np.random.default_rng(96)
    for _ in range(4):
        problem = make_problem(rng, "min_outage", p_han_cap=0.9)
        assert solve(problem).b_next == problem.root_b


def exhaustive_argmin(cost_fn, masks, forced):
    """Full Cartesian scan; first minimum in lexicographic order."""
    m = masks.shape[0]
    axes = []
    for l in range(m):
        axes.append(
            np.array([forced[l]])
            if forced[l] is not None
            else np.flatnonzero(masks[l])
        )
    mesh = np.stack(
        np.meshgrid(*axes, indexing="ij"), axis=-1
    ).reshape(-1, m)
    costs = cost_fn(mesh)
    return mesh[int(np.argmin(costs))]


def coordinate_descent(cost_fn, masks, forced, grid):
    """Cyclic coordinate descent, 3 sweeps from the grid midpoint."""
    m = masks.shape[0]
    x = np.empty(m, dtype=int)
    mid = (grid.size - 1) // 2
    for l in range(m):
        if forced[l] is not None:
            x[l] = forced[l]
        else:
            allowed = np.flatnonzero(masks[l])
            x[l] = allowed[int(np.argmin(np.abs(allowed - mid)))]
    for _ in range(3):
        for l in range(m):
            if forced[l] is not None:
                continue
            allowed = np.flatnonzero(masks[l])
            cand = np.tile(x, (allowed.size, 1))
            cand[:, l] = allowed
            costs = cost_fn(cand)
            x[l] = allowed[int(np.argmin(costs))]
    return x


def test_search_strategies_agree_on_stage_decomposable_costs():
    proc = two_cell_process(start=970.0, n=10)
    problem = window_problem(
        proc, 3, 2, "min_handover",
        root_b=0, root_margin=2.0, outage_threshold_db=-103.0,
        p_out_cap=0.25,
    )
    tables = package_tables(problem)
    sol = solve(problem)
    for got in sol.paths:
        masks, forced, _ = path_masks(problem, tables, got.states)
        costs = path_stage_costs(problem, tables, got.states)
        fn = sum_cost_fn(costs)
        a = decoupled_argmin(costs, masks, forced)
        b = exhaustive_argmin(fn, masks, forced)
        c = coordinate_descent(fn, masks, forced, tables.grid)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
        assert got.margins == tuple(float(tables.grid[i]) for i in a)
        assert got.cost == float(fn(a[None, :])[0])


def test_solve_is_idempotent_and_cached():
    proc = two_cell_process(n=10)
    problem = window_problem(
        proc, 3, 2, "pareto",
        root_b=0, root_margin=2.0, outage_threshold_db=-105.0,
    )
    first = solve(problem)
    assert "tables" in problem._cache
    second = solve(problem)
    assert first.margins == second.margins
    assert first.cost == second.cost


def test_solve_builds_trellis_paths_only_when_read(monkeypatch):
    built = []
    real = optimizer.TrellisPath
    monkeypatch.setattr(optimizer, "TrellisPath", lambda **kw: built.append(1) or real(**kw))
    rng = np.random.default_rng(98)
    for m in (1, 3, 4):
        problems = [make_problem(rng, obj, horizon=m) for obj in ("min_handover", "min_outage", "pareto")]
        sols = solve_group(problems)
        # the decisions read no path
        assert all(0 <= s.b_next <= 1 and s.h_first in p.grid for s, p in zip(sols, problems))
        assert built == []
        for sol, problem in zip(sols, problems):
            paths = sol.paths
            assert len(paths) == 2**m == len(built)
            assert sol.paths is paths  # built once
            assert sol.path is paths[sol.winner]
            assert (sol.margins, sol.cost, sol.violation, sol.feasible) == (
                sol.path.margins, sol.path.cost, sol.path.violation, sol.path.feasible
            )
            assert sol.b_next == sol.path.states[0]
            assert sol.h_first == sol.path.margins[0]
            assert paths == solve_by_paths(problem)[1]
            built.clear()
