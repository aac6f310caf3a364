"""Simulation harness: reproducibility, aggregation, table emission."""

import gc
import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handopt import (
    ConfigurationError,
    SingularFitError,
    coefficient_table,
    estimate_series,
    ls_fit,
    preset,
    problem_from_process,
    sample_power,
    solve,
)
from handopt import gaussian, harness, optimizer
from handopt.estimators import window_estimates
from handopt.harness import (
    RunResult,
    SweepSpec,
    _decide,
    _estimate_chunk,
    _gap_process,
    config_fingerprint,
    emit,
    opt_margin_tables,
    run_accuracy_study,
    run_multicell,
    run_table_sweep,
    run_two_cell,
    sweep_summary,
    sweep_table,
    trellis_rows,
)
from oracles import avg_coeffs


def noiseless(config):
    ch = replace(config.channels[0], shadow_sigma_db=0.0)
    return replace(config, channels=(ch,))


def test_noiseless_two_cell_crosses_once():
    cfg = noiseless(preset("vehicular-two-cell"))
    r = run_two_cell(cfg, 0.0, 4, seed=5)
    np.testing.assert_array_equal(r.switch_counts, [1, 1, 1, 1])
    # the averaging window trails the geometric midpoint by a couple samples
    for times in r.switch_times:
        assert times.size == 1
        assert 40 <= times[0] <= 45
    agg = r.aggregates()
    assert agg["avg_handovers"] == 1.0
    assert agg["se_handovers"] == 0.0
    assert agg["avg_outage"] == 0.0


def test_noiseless_cell_row_crosses_each_boundary():
    cfg = noiseless(preset("vehicular-cell-row"))
    r = run_multicell(cfg, 0.0, 2, seed=5)
    np.testing.assert_array_equal(r.switch_counts, [7, 7])
    assert r.conn_counts.shape == (2, 2004)
    assert r.outage_branch_counts.shape == (2, 2004)


def force_chunk(monkeypatch, config, trials):
    """Shrink the simulation memory budget to `trials` traces per chunk."""
    d = config.distances_m()
    monkeypatch.setattr(harness, "_CHUNK_SAMPLES", trials * d.size)


def test_results_do_not_depend_on_worker_count(monkeypatch):
    cfg = preset("vehicular-two-cell")
    kw = dict(n_trials=40, seed=11)
    force_chunk(monkeypatch, cfg, 7)
    a = run_two_cell(cfg, 2.0, workers=1, **kw)
    b = run_two_cell(cfg, 2.0, workers=3, **kw)
    np.testing.assert_array_equal(a.switch_counts, b.switch_counts)
    np.testing.assert_array_equal(a.conn_counts, b.conn_counts)
    np.testing.assert_array_equal(a.outage_branch_counts, b.outage_branch_counts)
    assert len(a.switch_times) == len(b.switch_times)
    for ta, tb in zip(a.switch_times, b.switch_times):
        np.testing.assert_array_equal(ta, tb)

    mc = preset("vehicular-cell-row")
    force_chunk(monkeypatch, mc, 2)
    am = run_multicell(mc, 2.0, 6, seed=11, workers=1)
    bm = run_multicell(mc, 2.0, 6, seed=11, workers=3)
    np.testing.assert_array_equal(am.switch_counts, bm.switch_counts)
    np.testing.assert_array_equal(am.outage_branch_counts, bm.outage_branch_counts)


def test_trial_streams_are_independent_of_chunking(monkeypatch):
    cfg = preset("vehicular-two-cell")
    force_chunk(monkeypatch, cfg, 12)
    a = run_two_cell(cfg, 2.0, 12, seed=3)
    force_chunk(monkeypatch, cfg, 1)
    b = run_two_cell(cfg, 2.0, 12, seed=3)
    np.testing.assert_array_equal(a.switch_counts, b.switch_counts)


def test_outage_sum_definition():
    cfg = preset("vehicular-two-cell")
    r = run_two_cell(cfg, 2.0, 25, seed=21)
    frac = r.outage_branch_counts / np.maximum(r.conn_counts, 1)
    want = float(frac[r.conn_counts > 0].sum())
    assert r.outage_sum == pytest.approx(want, rel=1e-12)
    agg = r.aggregates()
    assert agg["avg_outage"] == pytest.approx(want, rel=1e-12)
    assert set(agg) == {
        "avg_handovers",
        "se_handovers",
        "avg_outage",
        "avg_outage_samples",
        "se_outage_samples",
    }
    assert agg["avg_outage_samples"] == pytest.approx(
        r.outage_counts.mean() / 1.0, rel=1e-12
    )


def test_analytic_companion_tracks_empirical_sums():
    cfg = preset("vehicular-two-cell")
    r = run_two_cell(cfg, 2.0, 300, seed=9, analytic="pairwise", workers=4)
    assert r.analytic_p_h.shape == (81,)
    assert r.analytic_p_o.shape == (81,)
    assert np.all(np.isfinite(r.analytic_p_h))
    agg = r.aggregates()
    # the adjacent-pair chain is an approximation; hold it to coarse
    # agreement only, the exact per-sample match is covered elsewhere
    assert r.analytic_handover_sum == pytest.approx(agg["avg_handovers"], rel=0.45)
    assert r.analytic_outage_sum == pytest.approx(agg["avg_outage"], rel=0.25)


def test_policy_margin_tables():
    cfg = preset("vehicular-two-cell")
    opt = opt_margin_tables(cfg, ("opt2",))["opt2"]
    assert opt.shape == (81, 2)
    np.testing.assert_allclose(opt[0], cfg.h_fixed_db)
    grid = solve_grid = np.round(np.arange(0.0, cfg.h_max_db + 0.125, 0.25), 10)
    assert np.all(np.isin(opt[1:], solve_grid))


def tables_digest(tables) -> str:
    h = hashlib.sha256()
    for label in sorted(tables):
        h.update(label.encode())
        h.update(tables[label].astype("<f8").tobytes())
    return h.hexdigest()


def test_opt_margin_tables_are_pinned():
    # equality gate: the stage tables may change how they integrate, but the
    # optimized margins of the paper's scenario must stay bit for bit
    tables = opt_margin_tables(preset("paper-vi"))
    assert sorted(tables) == ["opt1", "opt2", "opt3"]
    assert tables_digest(tables) == (
        "566017a87196e109e554473afb63a556bfb7f224fb6d4ee4c03a2aec7d0c6993"
    )


def test_opt_margin_tables_build_one_stage_table_per_root_sample(monkeypatch):
    # the three policies x two root states of a root sample read one stats
    # window, grid, root margin and threshold, so they share one table
    roots = []

    class Counting(optimizer._StageTables):
        def __init__(self, stats, times, *rest):
            roots.append(times[0])
            super().__init__(stats, times, *rest)

    monkeypatch.setattr(optimizer, "_StageTables", Counting)
    cfg = preset("paper-vi").with_updates(start_offset_m=975.0, length_m=50.0)
    n_samples = cfg.trace().n_samples
    tables = opt_margin_tables(cfg)
    assert sorted(tables) == ["opt1", "opt2", "opt3"]
    assert roots == list(range(n_samples - 1))


def test_opt_margin_tables_reject_non_optimizer_policies():
    cfg = preset("paper-vi").with_updates(start_offset_m=975.0, length_m=50.0)
    for policies, name in ((("opt1", "opt9"), "opt9"), (("min_outage",), "min_outage"), ((2.0,), "2.0")):
        with pytest.raises(ConfigurationError, match=f"unknown optimizer policy '?{name}"):
            opt_margin_tables(cfg, policies)


@pytest.mark.parametrize(
    "updates", [{"start_offset_m": 970.0, "length_m": 60.0}, {}], ids=["table-two-cell", "paper-vi"]
)
def test_opt_margin_tables_build_each_block_and_outage_table_once(monkeypatch, updates):
    # every (block, stage sample, cell) outage table the roots read is built
    # once, and every block law by one y_stats call
    outage, laws = [], []
    real_bvn, real_y_stats = optimizer.bvn_cdf_lattice, gaussian.y_stats

    def counting_bvn(mu, Sigma, xs, ys):
        if np.size(ys) == 1:  # the root-edge tables carry 3 or 4 edges
            outage.append(1)
        return real_bvn(mu, Sigma, xs, ys)

    def counting_y_stats(*args, **kwargs):
        laws.append(1)
        return real_y_stats(*args, **kwargs)

    monkeypatch.setattr(optimizer, "bvn_cdf_lattice", counting_bvn)
    monkeypatch.setattr(gaussian, "y_stats", counting_y_stats)
    cfg = preset("paper-vi").with_updates(**updates)
    n_samples = cfg.trace().n_samples
    opt_margin_tables(cfg)
    block = gaussian._BLOCK_SAMPLES
    stages = {
        (n // block, t, s)
        for n in range(n_samples - 1)
        for t in range(n + 1, n + 1 + min(cfg.horizon, n_samples - 1 - n))
        for s in (0, 1)
    }
    assert len(outage) == len(stages)
    assert len(laws) == len({n // block for n in range(n_samples - 1)})
    if updates:
        assert (len(outage), len(laws)) == (2 * (n_samples - 1), 1)


def test_opt_margin_tables_share_nothing_across_calls():
    # no state outlives a call: alternating channel sets, with collections in
    # between that free the previous call's blocks, reproduce the digests
    # each set gives alone in a fresh interpreter (recorded before the
    # tables read block laws)
    cfg = preset("paper-vi").with_updates(start_offset_m=970.0, length_m=60.0)
    base = cfg.channels
    other = tuple(replace(ch, shadow_sigma_db=ch.shadow_sigma_db + 3.0) for ch in base)
    want = (
        "298a78940bf708e71b9105ad4113f0ca771e5c46bd465333ba055138ccbc3128",
        "dc10072a921e1a42aa0f33916d8e2738e98465ec19ddf3024108d920637193b7",
    )
    for k in (0, 1, 0, 1):
        tables = opt_margin_tables(cfg, channels=(base, other)[k])
        gc.collect()
        assert tables_digest(tables) == want[k], k


def test_sweep_table_layout():
    cfg = preset("vehicular-two-cell")
    spec = SweepSpec(speeds=(5.0, 20.0), policies=(0.0, "opt3"), n_trials=3)
    results = run_table_sweep(cfg, spec, seed=2)
    assert set(results) == {
        ("h=0", 5.0), ("h=0", 20.0), ("opt3", 5.0), ("opt3", 20.0),
    }
    fields, rows = sweep_table(results, spec)
    assert fields == ["metric", "policy", "v=5", "v=20"]
    assert [r["metric"] for r in rows] == [
        "avg_handovers", "avg_handovers", "avg_outage", "avg_outage",
    ]
    assert [r["policy"] for r in rows] == ["h=0", "opt3", "h=0", "opt3"]
    summary = sweep_summary(cfg, spec, results, 2)
    assert summary["schema"] == "table-sweep-v1"
    assert summary["config_hash"] == config_fingerprint(cfg)


def test_sweep_spec_rejects_speeds_that_share_a_column():
    for speeds in ((5.0, 5.0), (5.0, 5.0000001), (20.0, 5.0, 20.0)):
        with pytest.raises(ConfigurationError):
            SweepSpec(speeds=speeds)
    SweepSpec(speeds=(5.0, 5.001))


def test_fixed_grid_sweep_rescales_coherence():
    # the fixed-grid mode reuses one trace and speeds only rescale the
    # shadowing coherence, so faster runs decorrelate faster
    cfg = preset("vehicular-two-cell")
    spec = SweepSpec(speeds=(5.0, 40.0), policies=(0.0,), n_trials=20)
    results = run_table_sweep(cfg, spec, seed=7)
    slow = results[("h=0", 5.0)].aggregates()["avg_handovers"]
    fast = results[("h=0", 40.0)].aggregates()["avg_handovers"]
    assert fast > slow


def test_emit_is_byte_stable(tmp_path):
    rows = [
        {"a": 1, "b": "x"},
        {"a": 2, "b": "y"},
    ]
    summary = {"schema": "simulate-v1", "seed": 5, "nested": {"k": [1, 2]}}
    paths = []
    for tag in ("one", "two"):
        csv_p = tmp_path / f"{tag}.csv"
        json_p = tmp_path / f"{tag}.json"
        emit(csv_p, json_p, ["a", "b"], rows, summary)
        paths.append((csv_p.read_bytes(), json_p.read_bytes()))
    assert paths[0] == paths[1]
    text = (tmp_path / "one.csv").read_text()
    assert text.splitlines()[0] == "a,b"
    parsed = json.loads((tmp_path / "one.json").read_text())
    assert parsed["schema"] == "simulate-v1"

    empty_csv = tmp_path / "empty.csv"
    emit(empty_csv, None, ["a", "b"], [], None)
    assert empty_csv.read_text() == "a,b\r\n" or empty_csv.read_text() == "a,b\n"


def test_trellis_rows_structure():
    cfg = preset("vehicular-two-cell")
    proc = _gap_process(cfg)
    problem = problem_from_process(
        proc, 38, 2, "pareto",
        root_b=0, root_margin=2.0,
        outage_threshold_db=cfg.resolved_outage_threshold(),
    )
    sol = solve(problem)
    fields, rows = trellis_rows(sol)
    assert fields == (
        "path", "states", "events", "margins", "cost",
        "feasible", "violation", "chosen",
    )
    assert len(rows) == 4
    chosen = [r for r in rows if r["chosen"]]
    assert len(chosen) == 1
    assert chosen[0]["states"] == "-".join(str(s) for s in sol.path.states)
    for r in rows:
        assert set(r) == set(fields)
        assert "|" in r["events"] or r["events"] in ("L", "N", "M+N", "L+M")


def test_accuracy_study_shape():
    study = run_accuracy_study(4, 2, n_instances=3, seed=1, mc_samples=20_000)
    assert study.k == 4 and study.m_split == 2
    assert set(study.mae) == {"b1", "lb2", "ub2", "ub3", "sandwich_violations"}
    assert study.mae["sandwich_violations"] == 0
    assert len(study.rows) == 3
    for row in study.rows:
        assert row["lb2"] <= row["ub2"] + 1e-12
        for f in ("exact", "exact_stderr", "b1", "lb2", "ub2", "ub3"):
            assert f in study.fieldnames
            assert math.isfinite(row[f])


def test_accuracy_study_is_reproducible(tmp_path):
    a = run_accuracy_study(3, 1, n_instances=2, seed=4, mc_samples=10_000)
    b = run_accuracy_study(3, 1, n_instances=2, seed=4, mc_samples=10_000)
    assert a.rows == b.rows


def test_config_fingerprint_sensitivity():
    cfg = preset("vehicular-two-cell")
    assert config_fingerprint(cfg) == config_fingerprint(preset("vehicular-two-cell"))
    assert config_fingerprint(cfg) != config_fingerprint(
        replace(cfg, h_fixed_db=3.0)
    )
    assert len(config_fingerprint(cfg)) == 16


def test_compact_rows_reproduce_estimate_series():
    # the simulator contracts the links' [N, n_w] coefficient tables once per
    # chunk; its estimates are estimate_series' bit for bit
    cfg = preset("vehicular-two-cell")
    d = cfg.distances_m()
    rng = np.random.default_rng(31)
    powers = rng.normal(size=(3, 2, 81)) - 100.0
    for mode in ("avg", "ls"):
        est, _ = estimate_series(d, powers, mode, 4)
        tables = np.stack([coefficient_table(row, 4, mode) for row in d])
        assert _estimate_chunk(cfg, d, powers, tables).tobytes() == est.tobytes()


def test_window_longer_than_the_trace_is_clamped_to_it():
    # a window cannot reach before sample 0, so n_w = 20000 on an 81-sample
    # trace builds the n_w = 81 table and every estimate and law is the same
    wide = preset("vehicular-two-cell").with_updates(n_w=20000)
    d = wide.distances_m()
    n = d.shape[1]
    full = wide.with_updates(n_w=n)
    powers = np.random.default_rng(8).normal(-100.0, 6.0, size=(3, 2, n))
    for mode in ("avg", "ls"):
        tables = np.stack([coefficient_table(row, wide.n_w, mode) for row in d])
        assert tables.shape == (2, n, n)
        want = np.stack([coefficient_table(row, n, mode) for row in d])
        assert tables.tobytes() == want.tobytes()
        est, _ = estimate_series(d, powers, mode, wide.n_w)
        assert est.tobytes() == estimate_series(d, powers, mode, n)[0].tobytes()
        assert _estimate_chunk(wide, d, powers, tables).tobytes() == est.tobytes()
    labels = [("y", 0), ("y", 40), ("y", 80), ("p", 0, 40), ("p", 1, 80)]
    a, b = _gap_process(wide).joint(labels), _gap_process(full).joint(labels)
    assert a.mu.tobytes() == b.mu.tobytes()
    assert a.Sigma.tobytes() == b.Sigma.tobytes()
    ra, rb = run_two_cell(wide, 2.0, 6, seed=4), run_two_cell(full, 2.0, 6, seed=4)
    for field in ("switch_counts", "outage_counts", "conn_counts", "outage_branch_counts"):
        assert getattr(ra, field).tobytes() == getattr(rb, field).tobytes()
    assert [t.tobytes() for t in ra.switch_times] == [t.tobytes() for t in rb.switch_times]


def window_estimates_loop(d, powers, n_w, mode):
    """Row-by-row oracle for the simulator's estimates: every sample's window
    fitted on its own, LS falling back to the window mean where the fit is
    singular."""
    out = np.empty_like(powers)
    for c, s, n in np.ndindex(powers.shape):
        coeffs = avg_coeffs(n, n_w)
        nb = coeffs.window_start
        p = powers[c, s, nb : n + 1]
        if mode == "ls":
            try:
                _, coeffs = ls_fit(p, d[s, nb : n + 1], nb)
            except SingularFitError:
                pass
        out[c, s, n] = coeffs.apply(p)
    return out


@pytest.mark.parametrize("n_w", [1, 4, 9, 100])
@pytest.mark.parametrize("mode", ["avg", "ls"])
def test_compact_rows_equal_the_row_loop(n_w, mode):
    # ls_fit forms the weights in another order; they agree to ~3e-13
    cfg = preset("vehicular-two-cell")
    d = cfg.distances_m()
    powers = np.random.default_rng(5).normal(-100.0, 6.0, size=(3, 2, 81))
    tables = np.stack([coefficient_table(row, n_w, mode) for row in d])
    np.testing.assert_allclose(
        _estimate_chunk(cfg, d, powers, tables),
        window_estimates_loop(d, powers, n_w, mode),
        rtol=1e-10,
    )


@settings(max_examples=80, deadline=None)
@given(
    n_trials=st.integers(1, 5),
    n_bs=st.integers(1, 3),
    n=st.integers(1, 40),
    n_w=st.integers(1, 50),
    mode=st.sampled_from(["avg", "ls"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_estimates_equal_the_row_loop(n_trials, n_bs, n, n_w, mode, seed):
    # the trial-innermost kernel sums each window from its oldest sample on;
    # the row loop fits every window on its own
    rng = np.random.default_rng(seed)
    start = rng.uniform(100.0, 900.0, size=(n_bs, 1))
    step = rng.uniform(3.0, 10.0, size=(n_bs, 1))
    d = start + step * np.arange(n)
    powers = rng.normal(-100.0, 6.0, size=(n_trials, n_bs, n))
    tables = np.stack([coefficient_table(row, n_w, mode) for row in d])
    got = window_estimates(tables, np.ascontiguousarray(np.moveaxis(powers, 0, -1)))
    np.testing.assert_allclose(
        np.moveaxis(got, -1, 0), window_estimates_loop(d, powers, n_w, mode), rtol=1e-10
    )


def decide_two_cell_loop(est, powers, h_tables, beta, b_init):
    """Per-sample oracle for _decide on two cells: the hysteresis rule and
    every tally inside the sample loop."""
    c, _, n = est.shape
    y = est[:, 0, :] - est[:, 1, :]
    out = {}
    for label, h_table in h_tables.items():
        b = np.full(c, b_init, dtype=np.int8)
        switches = np.zeros(c, dtype=np.int64)
        outages = np.zeros(c, dtype=np.int64)
        conn = np.zeros((2, n), dtype=np.int64)
        outb = np.zeros((2, n), dtype=np.int64)
        series = np.empty((c, n), dtype=np.int16)
        for i in range(n):
            h = h_table[i][b]
            yi = y[:, i]
            b_new = ((yi < -h) | ((yi < h) & (b == 1))).astype(np.int8)
            switches += b_new != b
            p_serv = np.where(b_new == 0, powers[:, 0, i], powers[:, 1, i])
            low = p_serv <= beta
            outages += low
            conn[:, i] = np.bincount(b_new, minlength=2)
            outb[:, i] = np.bincount(b_new[low], minlength=2)
            series[:, i] = b_new
            b = b_new
        out[label] = (switches, outages, series, conn, outb)
    return out


def decide_multicell_loop(est, powers, h_tables, beta, near, second, h_fallback):
    """Per-sample oracle for _decide on a cell row: masked argmax, tallies
    in the loop."""
    c, n_bs, n = est.shape
    rows = np.arange(c)
    out = {}
    for label, h_table in h_tables.items():
        serving = np.full(c, near[0], dtype=np.int16)
        switches = np.zeros(c, dtype=np.int64)
        outages = np.zeros(c, dtype=np.int64)
        conn = np.zeros((2, n), dtype=np.int64)
        outb = np.zeros((2, n), dtype=np.int64)
        series = np.empty((c, n), dtype=np.int16)
        for i in range(n):
            prev = max(0, i - 1)
            h = np.where(
                serving == near[prev],
                h_table[i, 0],
                np.where(serving == second[prev], h_table[i, 1], h_fallback),
            )
            est_i = est[:, :, i]
            masked = est_i.copy()
            masked[rows, serving] = -np.inf
            cand = np.argmax(masked, axis=1).astype(np.int16)
            y_i = est_i[rows, serving] - est_i[rows, cand]
            sw = (y_i < -h) | ((y_i == -h) & (cand < serving))
            switches += sw
            serving = np.where(sw, cand, serving).astype(np.int16)
            low = powers[rows, serving, i] <= beta
            outages += low
            branch = (serving != near[i]).astype(np.int8)
            conn[:, i] = np.bincount(branch, minlength=2)
            outb[:, i] = np.bincount(branch[low], minlength=2)
            series[:, i] = serving
        out[label] = (switches, outages, series, conn, outb)
    return out


def decide_two_cell(est, powers, h_tables, beta, b_init):
    """_decide on two cells: the pair is (0, 1) at every sample."""
    pair = np.repeat([[0], [1]], est.shape[2], axis=1)
    return _decide(est, powers, h_tables, beta, pair, b_init, 0.0)


def decide_multicell(est, powers, h_tables, beta, near, second, h_fallback):
    """_decide on a cell row, starting on the nearest cell."""
    return _decide(est, powers, h_tables, beta, np.stack([near, second]), near[0], h_fallback)


def assert_same_decisions(got, want):
    assert got.keys() == want.keys()
    for label in want:
        for g, w in zip(got[label], want[label]):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("b_init", [0, 1])
def test_decide_two_cell_equals_the_per_sample_loop(b_init):
    rng = np.random.default_rng(6)
    c, n = 31, 70
    est = rng.normal(-95.0, 5.0, size=(c, 2, n))
    powers = est + rng.normal(0.0, 2.0, size=est.shape)
    h_tables = {
        "h=2": np.full((n, 2), 2.0),
        "opt": rng.choice([0.0, 1.5, 4.0], size=(n, 2)),
    }
    args = (est, powers, h_tables, -97.0, b_init)
    assert_same_decisions(decide_two_cell(*args), decide_two_cell_loop(*args))


@pytest.mark.parametrize("b_init", [0, 1])
def test_decide_two_cell_breaks_ties_like_the_per_sample_loop(b_init):
    # gaps on a half-dB grid sit exactly on +-h; zero-margin rows and
    # powers equal to the threshold test every tie
    rng = np.random.default_rng(9)
    c, n = 40, 50
    est = np.zeros((c, 2, n))
    est[:, 0, :] = rng.integers(-6, 7, size=(c, n)) * 0.5
    powers = np.round(rng.normal(-95.0, 1.0, size=(c, 2, n)))
    table = rng.integers(0, 4, size=(n, 2)) * 0.5
    table[::5] = 0.0
    h_tables = {"h=0": np.zeros((n, 2)), "h=1": np.ones((n, 2)), "opt": table}
    args = (est, powers, h_tables, -95.0, b_init)
    assert_same_decisions(decide_two_cell(*args), decide_two_cell_loop(*args))


def test_decide_multicell_equals_the_masked_argmax_loop():
    rng = np.random.default_rng(8)
    c, n_bs, n = 23, 8, 60
    est = rng.normal(-95.0, 6.0, size=(c, n_bs, n))
    powers = est + rng.normal(0.0, 2.0, size=est.shape)
    near = np.minimum(np.arange(n) // 8, n_bs - 1)
    second = np.minimum(near + 1, n_bs - 1)
    second[-8:] = n_bs - 2
    h_tables = {
        "h=2": np.full((n, 2), 2.0),
        "opt": rng.choice([0.0, 1.5, 4.0], size=(n, 2)),
    }
    args = (est, powers, h_tables, -97.0, near, second, 3.0)
    assert_same_decisions(decide_multicell(*args), decide_multicell_loop(*args))


def test_decide_multicell_breaks_ties_like_the_masked_argmax():
    # estimates on a 1-dB grid tie often; equal cells tie everywhere
    rng = np.random.default_rng(4)
    c, n_bs, n = 17, 6, 80
    est = np.round(rng.normal(-95.0, 1.5, size=(c, n_bs, n)))
    est[:, 3] = est[:, 1]
    est[:5] = -95.0
    near = np.repeat(np.arange(n_bs), -(-n // n_bs))[:n]
    second = (near + 1) % n_bs
    h_tables = {"h=0": np.zeros((n, 2)), "h=1": np.ones((n, 2))}
    args = (est, est, h_tables, -95.0, near, second, 0.0)
    assert_same_decisions(decide_multicell(*args), decide_multicell_loop(*args))

    # zero-sigma channels on the cell row: deterministic powers
    cfg = noiseless(preset("vehicular-cell-row"))
    d = cfg.distances_m()
    rngs = [np.random.default_rng(t) for t in range(3)]
    powers = sample_power(cfg.channels, d, cfg.step_m, rngs).powers_db
    assert np.all(powers == powers[0])
    tables = np.stack([coefficient_table(row, cfg.n_w, "avg") for row in d])
    est = _estimate_chunk(cfg, d, powers, tables)
    order = np.argsort(d, axis=0, kind="stable")
    args = (est, powers, {"h=0": np.zeros((d.shape[1], 2))}, -110.0, order[0], order[1], 0.0)
    assert_same_decisions(decide_multicell(*args), decide_multicell_loop(*args))


def test_multicell_results_do_not_depend_on_chunks_or_workers(monkeypatch):
    base = preset("vehicular-cell-row")
    channels = tuple(
        replace(ch, coherence_m=5.0 * (s + 1), shadow_sigma_db=0.0 if s == 2 else 6.0)
        for s, ch in enumerate(base.channels)
    )
    cfg = replace(base, channels=channels)
    force_chunk(monkeypatch, cfg, 1)
    runs = [run_multicell(cfg, 2.0, 5, seed=13)]
    monkeypatch.undo()
    runs.append(run_multicell(cfg, 2.0, 5, seed=13))
    force_chunk(monkeypatch, cfg, 2)
    runs.append(run_multicell(cfg, 2.0, 5, seed=13, workers=2))
    for r in runs[1:]:
        for field in ("switch_counts", "outage_counts", "conn_counts", "outage_branch_counts"):
            np.testing.assert_array_equal(getattr(r, field), getattr(runs[0], field))
        for ta, tb in zip(r.switch_times, runs[0].switch_times):
            np.testing.assert_array_equal(ta, tb)


def sha256_of(arrays):
    """Digest of dtypes, shapes and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_two_cell_run_is_pinned():
    # equality gate: the decision rule and its tallies may be restructured,
    # but a paper-vi run with its pairwise companion must stay bit for bit
    r = run_two_cell(preset("paper-vi"), 2.0, 200, seed=3, analytic="pairwise")
    arrays = [
        r.switch_counts, r.outage_counts, r.conn_counts, r.outage_branch_counts,
        r.margin_table, r.analytic_p_h, r.analytic_p_o, r.analytic_se_h, r.analytic_se_o,
        *r.switch_times,
    ]
    assert sha256_of(arrays) == (
        "97c9fa4c56ebde8515bb7202092bf501c90664527d05eb8ad79598492e18633d"
    )


def test_table_sweep_builds_no_per_trial_seed_sequence(monkeypatch):
    # trial streams come from channel.trial_generators; a per-trial
    # SeedSequence or default_rng in the simulator fails this run, whose
    # tallies and aggregates must stay those the per-trial streams gave
    def refuse(*args, **kwargs):
        raise AssertionError("per-trial SeedSequence in the simulator")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    cfg = replace(preset("paper-vi"), start_offset_m=900.0, length_m=200.0)
    spec = SweepSpec(speeds=(5.0, 20.0), policies=(0.0, 2.0, "opt2"), n_trials=30)
    results = run_table_sweep(cfg, spec, seed=4)
    arrays = []
    for key in sorted(results):
        r = results[key]
        arrays += [
            r.switch_counts, r.outage_counts, r.conn_counts, r.outage_branch_counts,
            np.array(list(r.aggregates().values())),
        ]
    assert sha256_of(arrays) == (
        "d13b08da196068d2277a57a77854efe3a317b0a3245fd207854e61014ef5ca1d"
    )


def test_cell_row_run_is_pinned():
    # equality gate: the serving-cell recursion and its tallies may be
    # restructured, but vehicular-cell-row runs must stay bit for bit
    arrays = []
    for h in (0.0, 2.0):
        r = run_multicell(preset("vehicular-cell-row"), h, 200, seed=3)
        arrays += [
            r.switch_counts, r.outage_counts, r.conn_counts, r.outage_branch_counts,
            r.margin_table, *r.switch_times,
        ]
    assert sha256_of(arrays) == (
        "319d76371950b5c79289740c8b80f1bff9d7d9dfe5b34e55397ad5fa578c314b"
    )


def test_public_sample_power_equals_the_harness_buffer(monkeypatch):
    # the simulator decides on [T, S, N] views of its trial-innermost buffer;
    # sample_power's powers_db is the same powers as a C-contiguous copy
    cfg = preset("vehicular-cell-row")
    seen = []
    real = harness._decide

    def spy(est, powers, *rest):
        seen.append(powers)
        return real(est, powers, *rest)

    monkeypatch.setattr(harness, "_decide", spy)
    run_multicell(cfg, 2.0, 5, seed=13, workers=1)
    (powers,) = seen
    assert np.moveaxis(powers, 0, -1).flags.c_contiguous
    rngs = [np.random.default_rng(np.random.SeedSequence([13, t])) for t in range(5)]
    public = sample_power(cfg.channels, cfg.distances_m(), cfg.step_m, rngs).powers_db
    assert public.flags.c_contiguous
    assert public.tobytes() == powers.tobytes()


def test_cell_row_chunk_holds_two_power_arrays():
    # a chunk keeps its powers and its estimates, both trial-innermost; the
    # decision and tally temporaries are a fraction of one power array each
    cfg = preset("vehicular-cell-row")
    d = cfg.distances_m()
    trials = harness._CHUNK_SAMPLES // d.size
    assert harness._chunk_bounds(trials, 1, *d.shape) == [(0, trials)]
    run_multicell(cfg, 2.0, 2, seed=1, workers=1)
    tracemalloc.start()
    try:
        run_multicell(cfg, 2.0, trials, seed=1, workers=1, log_events=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * trials * d.size * 8
