"""Simulation harness: reproducibility, aggregation, table emission."""

import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handopt import estimators, gaussian, harness, optimizer
from handopt.channel import sample_power
from handopt.errors import ConfigurationError
from handopt.estimators import coefficient_table, window_estimates
from handopt.hybrid import serving_series
from handopt.harness import (
    RunResult,
    SweepSpec,
    _block_estimates,
    _decide,
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
from handopt.optimizer import solve
from handopt.scenario import ScenarioConfig, preset
import oracles
from oracles import SingularFitError, avg_coeffs, ls_fit, series_estimates, window_problem


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


def chunk_estimates(config, d, powers, tables, block):
    """[T, S, N] estimates of [T, S, N] powers as the simulator computes them
    on its sample-major [N, S, T] layout, `block` samples at a time."""
    x = np.ascontiguousarray(powers.transpose(2, 1, 0))
    n = d.shape[1]
    buf = np.empty(min(block, n) * x[0].size)
    estimate = _block_estimates(config, d, x, tables, block, buf)
    # every block is written into the front of buf: copy each block out
    blocks = [estimate(n0, min(n0 + block, n)).copy() for n0 in range(0, n, block)]
    return np.concatenate(blocks).transpose(2, 1, 0)


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


def count_lattice_laws(monkeypatch):
    """Record the moments of every law the optimizer's lattice calls
    integrate: {"root": [...], "outage": [...]}, per call a list of one
    bytes key per law."""
    laws = {"root": [], "outage": []}
    real = optimizer.bvn_cdf_lattice

    def counting(mu, Sigma, xs, ys):
        # the root-edge tables carry 3 or 4 edges, the outage tables one
        kind = "outage" if np.size(ys) == 1 else "root"
        laws[kind].append([
            m.tobytes() + S.tobytes()
            for m, S in zip(np.reshape(mu, (-1, 2)), np.reshape(Sigma, (-1, 2, 2)))
        ])
        return real(mu, Sigma, xs, ys)

    monkeypatch.setattr(optimizer, "bvn_cdf_lattice", counting)
    return laws


def test_preset_lattice_tables_match_the_24_node_oracle(monkeypatch):
    # every law of the paper's scenario is unfloored and takes 12 nodes;
    # its tables stay within 1e-14 of the 24-node rule
    diffs = []
    real = optimizer.bvn_cdf_lattice

    def comparing(mu, Sigma, xs, ys):
        got = real(mu, Sigma, xs, ys)
        diffs.append(np.abs(got - oracles.bvn_cdf_lattice_24(mu, Sigma, xs, ys)).max())
        return got

    monkeypatch.setattr(optimizer, "bvn_cdf_lattice", comparing)
    opt_margin_tables(preset("paper-vi"))
    assert diffs and max(diffs) <= 1e-14


def test_opt_margin_tables_build_one_stage_table_per_root_sample(monkeypatch):
    # the three policies x two root states of a root sample read one stats
    # window, so the stacked build integrates one root-edge table per
    # (root, stage): the law of (y_l, y_0) of that root's window
    laws = count_lattice_laws(monkeypatch)
    cfg = preset("paper-vi").with_updates(start_offset_m=975.0, length_m=50.0)
    n_samples = cfg.distances_m().shape[1]
    tables = opt_margin_tables(cfg)
    assert sorted(tables) == ["opt1", "opt2", "opt3"]
    process = harness._gap_process(cfg)
    want = []
    for n in range(n_samples - 1):
        m = min(cfg.horizon, n_samples - 1 - n)
        window = optimizer._window_stats(process, n, m)
        for l in range(1, m + 1):
            gv = window.subset([("y", n + l), ("y", n)])
            want.append(gv.mu.tobytes() + gv.Sigma.tobytes())
    assert len(set(want)) == len(want)
    assert sorted(key for call in laws["root"] for key in call) == sorted(want)


def test_opt_margin_tables_reject_non_optimizer_policies():
    cfg = preset("paper-vi").with_updates(start_offset_m=975.0, length_m=50.0)
    for policies, name in ((("opt1", "opt9"), "opt9"), (("min_outage",), "min_outage"), ((2.0,), "2.0")):
        with pytest.raises(ConfigurationError, match=f"unknown optimizer policy '?{name}"):
            opt_margin_tables(cfg, policies)


@pytest.mark.parametrize(
    "name, updates",
    [
        ("paper-vi", {"start_offset_m": 970.0, "length_m": 60.0}),
        ("paper-vi", {}),
        ("vehicular-cell-row", {"start_offset_m": 937.0, "length_m": 1250.0}),
    ],
    ids=["table-two-cell", "paper-vi", "cell-row"],
)
def test_opt_margin_tables_build_each_block_and_outage_table_once(monkeypatch, name, updates):
    # the roots of one (cell pair, block) are solved by one solve_group
    # call, every block law is formed by one y_stats call, and every
    # (pair, block, stage sample, cell) outage table the roots read is
    # integrated once
    laws = count_lattice_laws(monkeypatch)
    y_stats_calls, groups = [], []
    real_y_stats, real_group = gaussian.y_stats, harness.solve_group

    def counting_y_stats(*args, **kwargs):
        y_stats_calls.append(1)
        return real_y_stats(*args, **kwargs)

    def counting_group(problems):
        groups.append(len(problems))
        return real_group(problems)

    monkeypatch.setattr(gaussian, "y_stats", counting_y_stats)
    monkeypatch.setattr(harness, "solve_group", counting_group)
    # the outage threshold is resolved once per call
    thresholds = []
    real_threshold = ScenarioConfig.resolved_outage_threshold

    def counting_threshold(config):
        thresholds.append(1)
        return real_threshold(config)

    monkeypatch.setattr(ScenarioConfig, "resolved_outage_threshold", counting_threshold)
    cfg = preset(name).with_updates(**updates)
    d = cfg.distances_m()
    n_samples = d.shape[1]
    pair = harness._cell_pairs(d)
    opt_margin_tables(cfg)
    block = gaussian._BLOCK_SAMPLES
    keys = {(*pair[:, n].tolist(), n // block) for n in range(n_samples - 1)}
    stages = {
        (*pair[:, n].tolist(), n // block, t, s)
        for n in range(n_samples - 1)
        for t in range(n + 1, n + 1 + min(cfg.horizon, n_samples - 1 - n))
        for s in (0, 1)
    }
    # one stacked call per (pair, block), each law in it distinct
    assert len(laws["outage"]) == len(groups) == len(keys)
    assert all(len(set(call)) == len(call) for call in laws["outage"])
    assert sum(len(call) for call in laws["outage"]) == len(stages)
    assert len(y_stats_calls) == len(keys)
    assert sum(groups) == 6 * (n_samples - 1)
    assert len(thresholds) == 1
    if name == "vehicular-cell-row":
        # the slice crosses two cell boundaries and three block borders
        assert len({k[:2] for k in keys}) == 3 and len({k[2] for k in keys}) == 4
    elif updates:
        assert (len(stages), len(keys)) == (2 * (n_samples - 1), 1)


@pytest.mark.parametrize(
    "name, updates, speed",
    [
        ("paper-vi", {"start_offset_m": 970.0, "length_m": 60.0}, 5.0),
        ("paper-vi", {"start_offset_m": 970.0, "length_m": 60.0}, 20.0),
        ("paper-vi", {"start_offset_m": 970.0, "length_m": 60.0}, 40.0),
        ("paper-vi", {"start_offset_m": 800.0, "length_m": 450.0}, None),
        ("vehicular-cell-row", {"start_offset_m": 937.0, "length_m": 1250.0}, None),
    ],
    ids=[
        "table-two-cell-v5", "table-two-cell-v20", "table-two-cell-v40",
        "paper-vi-block-border", "cell-row",
    ],
)
def test_opt_margin_tables_equal_the_per_root_oracle(name, updates, speed):
    # the stacked build per (cell pair, block) against one table object per
    # root window: on the table sweep's speed variants, on a paper-vi slice
    # that crosses the sample-64 block border and ends in truncated
    # horizons, and on a cell-row slice across two cell boundaries
    cfg = preset(name).with_updates(**updates)
    if speed is not None:
        cfg = harness._speed_variant(cfg, speed, SweepSpec().mode)
    elif name == "paper-vi":
        assert cfg.distances_m().shape[1] > gaussian._BLOCK_SAMPLES + cfg.horizon
    got = opt_margin_tables(cfg)
    want = oracles.opt_margin_tables(cfg)
    assert sorted(got) == sorted(want) == ["opt1", "opt2", "opt3"]
    for p in want:
        assert got[p].tobytes() == want[p].tobytes(), p


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
        tables = opt_margin_tables(replace(cfg, channels=(base, other)[k]))
        gc.collect()
        assert tables_digest(tables) == want[k], k


def test_els_margin_tables_are_the_ls_ones():
    # ELS estimates with the LS rows, so the optimizer models it by them
    cfg = preset("paper-vi").with_updates(start_offset_m=970.0, length_m=60.0)
    ls = opt_margin_tables(cfg.with_updates(estimator="ls"))
    els = opt_margin_tables(cfg.with_updates(estimator="els"))
    assert sorted(els) == sorted(ls) == ["opt1", "opt2", "opt3"]
    for p in ls:
        assert els[p].tobytes() == ls[p].tobytes(), p


def test_sweep_cells_carry_their_speed_variant():
    # a fixed-grid cell runs the config with scaled coherence lengths, and
    # its result names that config: its margin table is that config's
    cfg = preset("paper-vi").with_updates(start_offset_m=970.0, length_m=60.0)
    spec = SweepSpec(speeds=(5.0, 40.0), policies=(2.0, "opt1", "opt2", "opt3"), n_trials=3)
    results = run_table_sweep(cfg, spec, seed=4)
    for (label, v), result in results.items():
        if label.startswith("opt"):
            want = opt_margin_tables(result.config)[label]
            assert result.margin_table.tobytes() == want.tobytes(), (label, v)
        variant = harness._speed_variant(cfg, v, spec.mode)
        assert config_fingerprint(result.config) == config_fingerprint(variant)
        assert result.speed_mps == v


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


# printable ASCII plus the characters csv must quote
CSV_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126), st.sampled_from("\r\n\t")
    ),
    max_size=8,
)
CSV_VALUE = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), CSV_TEXT)


@st.composite
def csv_tables(draw):
    """Field names and dict rows of any width, a single field and no rows
    included."""
    fields = draw(st.lists(CSV_TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(
        st.lists(st.fixed_dictionaries({f: CSV_VALUE for f in fields}), max_size=5)
    )
    return fields, rows


@settings(max_examples=200, deadline=None)
@given(table=csv_tables())
def test_emit_writes_the_bytes_of_csv_dictwriter(tmp_path_factory, table):
    fields, rows = table
    out = tmp_path_factory.mktemp("emit")
    emit(out / "got.csv", None, fields, rows, None)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    harness._atomic_write(out / "want.csv", buf.getvalue())
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_emit_writes_one_field_and_empty_row_lists(tmp_path):
    emit(tmp_path / "one.csv", None, ("trial",), [{"trial": 0}, {"trial": "a,b"}], None)
    assert (tmp_path / "one.csv").read_bytes() == b'trial\r\n0\r\n"a,b"\r\n'
    emit(tmp_path / "none.csv", None, ("trial",), [], None)
    assert (tmp_path / "none.csv").read_bytes() == b"trial\r\n"


@pytest.mark.parametrize(
    "row", [{"a": 1}, {"a": 1, "b": 2, "c": 3}, {"a": 1, "c": 3}, {}]
)
def test_emit_rejects_rows_whose_keys_are_not_the_fieldnames(tmp_path, row):
    csv_p, json_p = tmp_path / "out.csv", tmp_path / "out.json"
    with pytest.raises(ValueError):
        emit(csv_p, json_p, ("a", "b"), [{"a": 0, "b": 0}, row], {"n": 1})
    assert list(tmp_path.iterdir()) == []


def test_trellis_rows_structure():
    cfg = preset("vehicular-two-cell")
    proc = _gap_process(cfg)
    problem = window_problem(
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
    # chunk; its estimates are the whole trace's bit for bit
    cfg = preset("vehicular-two-cell")
    d = cfg.distances_m()
    rng = np.random.default_rng(31)
    powers = rng.normal(size=(3, 2, 81)) - 100.0
    for mode in ("avg", "ls"):
        est, _ = series_estimates(d, powers, mode, 4)
        tables = np.stack([coefficient_table(row, 4, mode) for row in d])
        # any block, one sample or a size that does not divide N included
        for block in (1, 3, 7, 81):
            assert chunk_estimates(cfg, d, powers, tables, block).tobytes() == est.tobytes()


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
        est, _ = series_estimates(d, powers, mode, wide.n_w)
        assert est.tobytes() == series_estimates(d, powers, mode, n)[0].tobytes()
        assert chunk_estimates(wide, d, powers, tables, n).tobytes() == est.tobytes()
    # one label set from each of the trace's two block laws
    for labels in (
        [("y", 0), ("y", 40), ("y", 78), ("p", 0, 40), ("p", 1, 78)],
        [("y", 64), ("y", 80), ("p", 0, 72), ("p", 1, 80)],
    ):
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
        chunk_estimates(cfg, d, powers, tables, 81),
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
    # the sample-major kernel sums each window from its oldest sample on;
    # the row loop fits every window on its own
    rng = np.random.default_rng(seed)
    start = rng.uniform(100.0, 900.0, size=(n_bs, 1))
    step = rng.uniform(3.0, 10.0, size=(n_bs, 1))
    d = start + step * np.arange(n)
    powers = rng.normal(-100.0, 6.0, size=(n_trials, n_bs, n))
    tables = np.stack([coefficient_table(row, n_w, mode) for row in d])
    got = window_estimates(tables, np.ascontiguousarray(powers.transpose(2, 1, 0)))
    np.testing.assert_allclose(
        got.transpose(2, 1, 0), window_estimates_loop(d, powers, n_w, mode), rtol=1e-10
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


def decide_blocks(est, powers, h_tables, beta, pair, init, h_fallback, block):
    """_decide on whole [T, S, N] estimates, `block` samples at a time
    (block = N is one block), logging switch times, on the simulator's
    sample-major layout; and every policy's serving_series on the same
    inputs."""
    def estimate(n0, n1):
        return np.ascontiguousarray(est[..., n0:n1].transpose(2, 1, 0))

    x = np.ascontiguousarray(powers.transpose(2, 1, 0))
    decided = _decide(estimate, x, h_tables, beta, pair, init, h_fallback, block, True)
    series = {
        label: serving_series(estimate(0, est.shape[2]), h_table, pair, init, h_fallback).T
        for label, h_table in h_tables.items()
    }
    return decided, series


def decide_two_cell(est, powers, h_tables, beta, b_init, block):
    """_decide on two cells: the pair is (0, 1) at every sample."""
    pair = np.repeat([[0], [1]], est.shape[2], axis=1)
    return decide_blocks(est, powers, h_tables, beta, pair, b_init, 0.0, block)


def decide_multicell(est, powers, h_tables, beta, near, second, h_fallback, block):
    """_decide on a cell row, starting on the nearest cell."""
    pair = np.stack([near, second])
    return decide_blocks(est, powers, h_tables, beta, pair, near[0], h_fallback, block)


def switch_samples(series, init):
    """Trial-major samples at which [T, N] serving series that start from
    init change cell."""
    before = np.concatenate([np.full((len(series), 1), init, series.dtype), series[:, :-1]], 1)
    return np.flatnonzero(series != before) % series.shape[1]


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def assert_decides_like(decide, oracle, args, init):
    """decide(*args, block) equals the oracle in one block of all N samples
    and in blocks of 1, 3 and 7 samples: its tallies and switch times those
    of the oracle's serving series, which serving_series reproduces."""
    want = oracle(*args)
    n = args[0].shape[-1]
    for block in (n, 1, 3, 7):
        got, series = decide(*args, block)
        assert got.keys() == want.keys() == series.keys()
        for label, (switches, outages, serving, conn, outb) in want.items():
            times = switch_samples(serving, init)
            assert_same_arrays(got[label], (switches, outages, times, conn, outb))
            assert_same_arrays([series[label]], [serving])


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
    assert_decides_like(decide_two_cell, decide_two_cell_loop, args, b_init)


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
    assert_decides_like(decide_two_cell, decide_two_cell_loop, args, b_init)


def test_decide_counts_the_first_change_and_a_jump_over_cells_once():
    # one-hot estimates make the serving cells at zero margin; a change at
    # the first sample counts against the initial cell, and a jump over
    # several cells is one switch, in one block or in several
    def decided(cells, init):
        cells = np.array(cells)
        n_bs = cells.max() + 1
        est = (cells[:, None, :] == np.arange(n_bs)[:, None]).astype(float)
        pair = np.zeros((2, cells.shape[1]), dtype=np.intp)
        h_tables = {"h=0": np.zeros((cells.shape[1], 2))}
        counts = set()
        for block in (4, 1, 3):
            got, series = decide_blocks(
                est, np.zeros_like(est), h_tables, -100.0, pair, init, 0.0, block
            )
            np.testing.assert_array_equal(series["h=0"], cells)
            switches, _, times, _, _ = got["h=0"]
            counts.add((tuple(switches.tolist()), tuple(times.tolist())))
        (only,) = counts
        return only

    b = [[1, 1, 0, 1], [0, 0, 0, 0]]
    assert decided(b, 0) == ((3, 0), (0, 2, 3))
    assert decided(b, 1) == ((2, 1), (2, 3, 0))
    assert decided([[1]], 0) == ((1,), (0,))
    cells = [[3, 3, 5, 2], [4, 4, 4, 4]]
    assert decided(cells, 3) == ((2, 1), (2, 3, 0))


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
    assert_decides_like(decide_multicell, decide_multicell_loop, args, near[0])


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
    assert_decides_like(decide_multicell, decide_multicell_loop, args, near[0])

    # zero-sigma channels on the cell row: deterministic powers
    cfg = noiseless(preset("vehicular-cell-row"))
    d = cfg.distances_m()
    rngs = [np.random.default_rng(t) for t in range(3)]
    powers = sample_power(cfg.channels, d, cfg.step_m, rngs).transpose(2, 1, 0)
    assert np.all(powers == powers[0])
    tables = np.stack([coefficient_table(row, cfg.n_w, "avg") for row in d])
    est = chunk_estimates(cfg, d, powers, tables, d.shape[1])
    order = np.argsort(d, axis=0, kind="stable")
    args = (est, powers, {"h=0": np.zeros((d.shape[1], 2))}, -110.0, order[0], order[1], 0.0)
    assert_decides_like(decide_multicell, decide_multicell_loop, args, order[0, 0])


def force_block(monkeypatch, config, trials, samples):
    """Blocks of `samples` samples in chunks of `trials` traces."""
    values = samples * config.layout.n_bs * trials
    monkeypatch.setattr(estimators, "_EST_BLOCK_VALUES", values)


def assert_same_results(got, want):
    """Every RunResult field equal, arrays in dtype, shape and bytes."""
    for f in dataclasses.fields(RunResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "switch_times":
            assert [t.dtype for t in a] == [t.dtype for t in b]
            assert [t.tobytes() for t in a] == [t.tobytes() for t in b]
        elif isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


def test_multicell_results_do_not_depend_on_chunks_or_workers(monkeypatch):
    base = preset("vehicular-cell-row")
    channels = tuple(
        replace(ch, coherence_m=5.0 * (s + 1), shadow_sigma_db=0.0 if s == 2 else 6.0)
        for s, ch in enumerate(base.channels)
    )
    cfg = replace(base, channels=channels)
    want = run_multicell(cfg, 2.0, 5, seed=13)
    runs = []
    force_chunk(monkeypatch, cfg, 1)
    runs.append(run_multicell(cfg, 2.0, 5, seed=13))
    force_chunk(monkeypatch, cfg, 2)
    runs.append(run_multicell(cfg, 2.0, 5, seed=13, workers=2))
    monkeypatch.undo()
    # blocks of 1 and 3 samples, and of 7, which does not divide N = 2004
    assert cfg.distances_m().shape[1] % 7 != 0
    for samples in (1, 3, 7):
        force_block(monkeypatch, cfg, 5, samples)
        runs.append(run_multicell(cfg, 2.0, 5, seed=13))
        monkeypatch.undo()
    for r in runs:
        assert_same_results(r, want)

    # two cells: a window of 7 samples spans several blocks; the gels walk
    # carries its window moments from block to block; a fixed margin and an
    # opt2 table decide on shared traces
    for estimator in ("ls", "gels"):
        two = replace(
            preset("paper-vi"), estimator=estimator, n_w=7, start_offset_m=900.0, length_m=200.0
        )
        assert two.distances_m().shape[1] % 7 != 0

        def run(workers=1):
            return harness._simulate_policies(
                two, [2.0, "opt2"], 12, seed_parts=[13], speed_mps=two.speed_mps,
                workers=workers, log_events=True,
            )

        want = run()
        assert np.any(want["opt2"].margin_table[:, 0] != want["opt2"].margin_table[:, 1])
        runs = []
        for samples in (1, 3, 5):
            force_block(monkeypatch, two, 12, samples)
            runs.append(run())
            monkeypatch.undo()
        force_chunk(monkeypatch, two, 5)
        force_block(monkeypatch, two, 5, 3)
        runs.append(run(workers=2))
        monkeypatch.undo()
        for r in runs:
            assert r.keys() == want.keys()
            for label in want:
                assert_same_results(r[label], want[label])


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
    # but a paper-vi run with its pairwise companion must stay bit for bit.
    # Re-recorded when the chains' laws became slices of the block laws:
    # the analytic series moved by at most 2.8e-16, all else is unchanged.
    r = run_two_cell(preset("paper-vi"), 2.0, 200, seed=3, analytic="pairwise")
    arrays = [
        r.switch_counts, r.outage_counts, r.conn_counts, r.outage_branch_counts,
        r.margin_table, r.analytic_p_h, r.analytic_p_o, r.analytic_se_h, r.analytic_se_o,
        *r.switch_times,
    ]
    assert sha256_of(arrays) == (
        "710d530a205841d5dfa474f4da929c4c6672f4b6e65554e7778a801888e48553"
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
    # the simulator decides on its sample-major [N, S, T] buffer in place;
    # sample_power returns that buffer, C-contiguous
    cfg = preset("vehicular-cell-row")
    seen = []
    real = harness._decide

    def spy(estimate, x, *rest):
        seen.append((x.flags.c_contiguous, x.copy()))
        return real(estimate, x, *rest)

    monkeypatch.setattr(harness, "_decide", spy)
    run_multicell(cfg, 2.0, 5, seed=13, workers=1)
    ((contiguous, powers),) = seen
    assert contiguous
    rngs = [np.random.default_rng(np.random.SeedSequence([13, t])) for t in range(5)]
    public = sample_power(cfg.channels, cfg.distances_m(), cfg.step_m, rngs)
    assert public.flags.c_contiguous
    assert public.shape == powers.shape
    assert public.tobytes() == powers.tobytes()


def test_cell_row_chunk_holds_one_power_array():
    # a chunk keeps its trial-innermost powers; estimates, best cells, tally
    # indices and the rest are block-sized temporaries
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
    assert peak < 1.25 * trials * d.size * 8


def two_cell_chunk_peak(cfg):
    """tracemalloc peak of one full-size two-cell chunk, in power arrays."""
    d = cfg.distances_m()
    trials = harness._CHUNK_SAMPLES // d.size
    assert harness._chunk_bounds(trials, 1, *d.shape) == [(0, trials)]
    run_two_cell(cfg, 2.0, 2, seed=1, workers=1)
    tracemalloc.start()
    try:
        run_two_cell(cfg, 2.0, trials, seed=1, workers=1, log_events=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (trials * d.size * 8)


def test_paper_vi_avg_chunk_holds_one_power_array():
    # 37,037 trials in one chunk: the generators are built one draw block at
    # a time, so beside the powers the chunk holds 32 bytes of seed words
    # per trial and block-sized temporaries
    assert two_cell_chunk_peak(preset("paper-vi")) <= 1.15


def test_gels_chunk_holds_its_powers_and_block_sized_state():
    # the gels walk fills the same reused block buffer as avg/ls/els; beside
    # the powers the peak holds the walk's per-(link, trial) moments and its
    # per-sample temporaries (1.32 power arrays on paper-vi)
    assert two_cell_chunk_peak(replace(preset("paper-vi"), estimator="gels")) < 1.35


def test_logged_switch_times_do_not_grow_the_peak_with_the_trials():
    # switch times are kept per block as (trial, sample) pairs, not as
    # serving series: 3000 logged cell-row trials (9 chunks) peak within
    # 2 MB of 1000 (3 chunks)
    cfg = preset("vehicular-cell-row")
    run_multicell(cfg, 2.0, 2, seed=1, workers=1)
    peaks = []
    for trials in (1000, 3000):
        tracemalloc.start()
        try:
            run_multicell(cfg, 2.0, trials, seed=1, workers=1, log_events=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2e6


def test_gels_above_h_max_estimates_the_raw_powers():
    # the simulator gives GELS h = h_fixed_db at every sample, so with
    # h_fixed_db above h_max_db every sample restarts its window and the
    # run is the avg n_w = 1 run bit for bit
    base = preset("paper-vi").with_updates(h_fixed_db=12.0)
    assert base.h_fixed_db > base.h_max_db
    gels = run_two_cell(base.with_updates(estimator="gels"), 2.0, 300, seed=7)
    avg = run_two_cell(base.with_updates(estimator="avg", n_w=1), 2.0, 300, seed=7)
    assert_same_results(replace(gels, config=avg.config), avg)


def test_explicit_worker_counts_below_one_are_config_errors(monkeypatch):
    cfg = preset("vehicular-cell-row")
    for workers in (0, -1):
        with pytest.raises(ConfigurationError, match="workers"):
            run_multicell(cfg, 2.0, 10, workers=workers)
    # HANDOPT_WORKERS keeps its fallback: a count below one runs one worker
    want = run_multicell(cfg, 2.0, 10, workers=1)
    for env in ("0", "-3", "x"):
        monkeypatch.setenv("HANDOPT_WORKERS", env)
        assert_same_results(run_multicell(cfg, 2.0, 10), want)


def test_threads_are_capped_at_the_usable_cpus(monkeypatch):
    # the chunks run in this thread, so no pool is started: the run asks
    # _map_chunks for min(workers, usable CPUs) threads
    cfg = preset("vehicular-two-cell")
    asked = []
    real = harness._map_chunks

    def serial(new_worker, bounds, threads):
        asked.append(threads)
        return real(new_worker, bounds, 1)

    monkeypatch.setattr(harness, "_map_chunks", serial)
    for workers, cpus in ((100_000, 2), (3, 8), (1, 64)):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        run_two_cell(cfg, 2.0, 30, seed=2, workers=workers)
    assert asked == [2, 3, 1]


def test_a_huge_worker_count_runs_at_most_one_thread_per_cpu(monkeypatch):
    # the chunks run in this thread, so no pool is started; the run asks for
    # at most one thread per usable CPU and sizes its chunks for them
    cfg = preset("vehicular-two-cell")
    asked = []
    real = harness._map_chunks

    def serial(new_worker, bounds, threads):
        asked.append((threads, len(bounds)))
        return real(new_worker, bounds, 1)

    monkeypatch.setattr(harness, "_map_chunks", serial)
    want = run_two_cell(cfg, 2.0, 30, seed=2, workers=1)
    got = run_two_cell(cfg, 2.0, 30, seed=2, workers=100_000)
    monkeypatch.setenv("HANDOPT_WORKERS", "100000")
    env = run_two_cell(cfg, 2.0, 30, seed=2)
    cpus = harness._usable_cpus()
    assert asked[0] == (1, 1)
    assert asked[1] == asked[2] == (min(cpus, 30), min(cpus, 30))
    assert_same_results(got, want)
    assert_same_results(env, want)


def capture_chunks(monkeypatch):
    """Spy on the simulator's chunks: a list that gains (t0, t1, a copy of
    the chunk's powers, the address of their buffer, the thread) as each
    chunk's sample_power call returns."""
    chunks, pending = [], {}
    real_generators, real_power = harness.trial_generators, harness.sample_power

    def generators(seed_parts, t0, t1):
        pending[threading.get_ident()] = (t0, t1)
        return real_generators(seed_parts, t0, t1)

    def power(*args):
        x = real_power(*args)
        t0, t1 = pending.pop(threading.get_ident())
        address = x.__array_interface__["data"][0]
        chunks.append((t0, t1, x.copy(), address, threading.get_ident()))
        return x

    monkeypatch.setattr(harness, "trial_generators", generators)
    monkeypatch.setattr(harness, "sample_power", power)
    return chunks


@pytest.mark.parametrize("case", ["one-worker", "quiet-link", "two-workers"])
def test_chunk_buffers_equal_the_per_trial_recursion(monkeypatch, case):
    # 11 trials in chunks of 4, 4 and 3: every chunk's sample-major buffer
    # holds, bit for bit, the powers of the oracle's own per-trial, per-link
    # recursion, and each worker fills the front of one buffer for all its
    # chunks, the last and smaller one included
    cfg = preset("vehicular-cell-row").with_updates(start_offset_m=2500.0, length_m=1500.0)
    if case == "quiet-link":
        channels = list(cfg.channels)
        channels[3] = replace(channels[3], shadow_sigma_db=0.0)
        channels[5] = replace(channels[5], coherence_m=3.0)
        cfg = cfg.with_updates(channels=tuple(channels))
    workers = 2 if case == "two-workers" else 1
    d = cfg.distances_m()
    force_chunk(monkeypatch, cfg, 4)
    chunks = capture_chunks(monkeypatch)
    run_multicell(cfg, 2.0, 11, seed=9, workers=workers)
    assert sorted(c[:2] for c in chunks) == [(0, 4), (4, 8), (8, 11)]
    for t0, t1, x, _, _ in chunks:
        assert x.shape == (d.shape[1], d.shape[0], t1 - t0)
        want = oracles.trial_powers(cfg.channels, d, cfg.step_m, [9], t0, t1)
        assert x.transpose(2, 1, 0).tobytes() == want.tobytes()
    buffers = {}
    for *_, address, thread in chunks:
        buffers.setdefault(thread, set()).add(address)
    assert len(buffers) == min(workers, harness._usable_cpus())
    assert all(len(addresses) == 1 for addresses in buffers.values())


@pytest.mark.parametrize(
    "analytic,mc_samples", [("bogus", 1_000_000), ("exact", 100), ("pairwise", 2.5)]
)
def test_run_two_cell_checks_the_chain_method_before_drawing_a_trial(
    monkeypatch, analytic, mc_samples
):
    def no_draws(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(harness, "sample_power", no_draws)
    with pytest.raises(ConfigurationError):
        run_two_cell(preset("paper-vi"), 2.0, 3, analytic=analytic, mc_samples=mc_samples)
