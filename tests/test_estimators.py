"""Windowed strength estimators and their coefficient rows."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handopt import estimators
from handopt.errors import ConfigurationError
from handopt.estimators import _EMIN_FLOOR, EPS_COND, _gels, coefficient_table
from handopt.scenario import preset
from oracles import (
    GelsState,
    SingularFitError,
    adaptive_series_loop,
    avg_coeffs,
    els_select,
    gels_step,
    ls_fit,
    series_estimates,
    window_start,
)


def line_powers(d, intercept, slope):
    return intercept - slope * np.log10(d)


def test_window_start():
    assert window_start(0, 4) == 0
    assert window_start(2, 4) == 0
    assert window_start(3, 4) == 0
    assert window_start(9, 4) == 6
    with pytest.raises(ConfigurationError):
        window_start(-1, 4)
    with pytest.raises(ConfigurationError):
        window_start(3, 0)


def test_avg_coeffs_rectangular():
    c = avg_coeffs(5, 4)
    assert (c.window_start, c.time_index, c.tag) == (2, 5, "avg")
    np.testing.assert_allclose(c.weights, np.full(4, 0.25))
    # short ramp-up window
    c0 = avg_coeffs(1, 4)
    assert c0.window_start == 0
    np.testing.assert_allclose(c0.weights, [0.5, 0.5])
    assert c0.apply([3.0, 5.0]) == pytest.approx(4.0)


def test_ls_fit_recovers_line():
    rng = np.random.default_rng(9)
    for _ in range(25):
        intercept = rng.uniform(-50.0, 50.0)
        slope = rng.uniform(20.0, 45.0)
        d = np.sort(rng.uniform(100.0, 1500.0, size=6))
        p = line_powers(d, intercept, slope)
        inter, coeffs = ls_fit(p, d, start_index=10)
        assert inter.intercept_hat == pytest.approx(intercept, abs=1e-9)
        assert inter.slope_hat == pytest.approx(slope, abs=1e-9)
        assert coeffs.window_start == 10
        assert coeffs.time_index == 15
        # the coefficient row reproduces the model-form prediction
        assert coeffs.apply(p) == pytest.approx(p[-1], abs=1e-9)


def test_ls_filter_form_equals_model_form_on_noise():
    # equality is algebraic, so it must hold on arbitrary data
    rng = np.random.default_rng(10)
    d = np.linspace(300.0, 400.0, 8)
    for _ in range(10):
        p = rng.normal(-90.0, 8.0, size=8)
        inter, coeffs = ls_fit(p, d)
        model = inter.intercept_hat - inter.slope_hat * np.log10(d[-1])
        assert coeffs.apply(p) == pytest.approx(model, abs=1e-9)
        # the kept coefficient split recombines to the same row
        row = inter.offset_coeffs - inter.slope_coeffs * np.log10(d[-1])
        np.testing.assert_allclose(row, coeffs.weights, atol=1e-12)


def test_ls_fit_degenerate_windows():
    with pytest.raises(SingularFitError):
        ls_fit(np.array([1.0]), np.array([100.0]))
    with pytest.raises(SingularFitError):
        ls_fit(np.zeros(4), np.full(4, 250.0))
    with pytest.raises(ConfigurationError):
        ls_fit(np.zeros(3), np.array([10.0, -5.0, 20.0]))


def test_coefficient_table_avg():
    d = np.linspace(100.0, 200.0, 6)
    t = coefficient_table(d, 3, "avg")
    # rows are right-aligned on their own sample: column j weights n - 2 + j
    assert t.shape == (6, 3)
    np.testing.assert_allclose(t[0], [0, 0, 1])
    np.testing.assert_allclose(t[1], [0, 0.5, 0.5])
    np.testing.assert_allclose(t[4], np.full(3, 1 / 3))
    assert np.all(t[:2, 0] == 0.0) and t[0, 1] == 0.0
    for n in range(6):
        row = avg_coeffs(n, 3).weights
        assert t[n, 3 - row.size :].tobytes() == row.tobytes()


def test_coefficient_table_ls_matches_ls_fit():
    d = np.linspace(500.0, 620.0, 7)
    t = coefficient_table(d, 4, "ls")
    assert t.shape == (7, 4)
    # first row cannot fit a line and falls back to the rectangular row
    np.testing.assert_allclose(t[0], [0, 0, 0, 1])
    for n in range(1, 7):
        nb = window_start(n, 4)
        cnt = n - nb + 1
        _, coeffs = ls_fit(np.zeros(cnt), d[nb : n + 1], nb)
        np.testing.assert_allclose(t[n, 4 - cnt :], coeffs.weights, atol=1e-13)
        assert np.all(t[n, : 4 - cnt] == 0.0)
    with pytest.raises(ConfigurationError):
        coefficient_table(d, 4, "els")


def coefficient_table_loop(distances_m, n_w, mode):
    """Row-by-row oracle for coefficient_table's right-aligned rows."""
    from handopt.estimators import EPS_COND

    d = np.asarray(distances_m, dtype=float)
    table = np.zeros((d.size, n_w))
    x = np.log10(d)
    for n in range(d.size):
        nb = window_start(n, n_w)
        cnt = n - nb + 1
        row = None
        if mode == "ls" and cnt >= 2:
            xs = x[nb : n + 1]
            C = xs.mean()
            D = (xs * xs).mean()
            denom = D - C * C
            if denom > EPS_COND * max(D, 1.0):
                row = ((D - C * xs) - (C - xs) * xs[-1]) / (denom * cnt)
        if row is None:
            row = np.full(cnt, 1.0 / cnt)
        table[n, n_w - cnt :] = row
    return table


@pytest.mark.parametrize("mode", ["avg", "ls"])
def test_coefficient_table_equals_the_row_loop(mode):
    # window lengths below, at and above numpy's 8-element pairwise-sum
    # block, and longer than the trace; distances with and without spread,
    # and the rows a two-cell simulation contracts
    rng = np.random.default_rng(12)
    traces = [
        np.abs(1000.0 - 6.24 * np.arange(130)) + 1.0,
        np.exp(rng.normal(5.0, 2.0, 40)),
        np.full(30, 500.0),
        np.array([700.0]),
        *preset("vehicular-two-cell").distances_m(),
    ]
    for d in traces:
        for n_w in (1, 2, 4, 7, 8, 9, 17, 200):
            got = coefficient_table(d, n_w, mode)
            want = coefficient_table_loop(d, n_w, mode)
            # a window longer than the trace keeps only its last N columns;
            # the ones it drops weight samples before 0
            w = min(n_w, d.size)
            assert got.shape == (d.size, w)
            assert not want[:, : n_w - w].any()
            assert got.tobytes() == want[:, n_w - w :].tobytes()


@pytest.mark.parametrize("n_w", [1, 4, 9, 200])
@pytest.mark.parametrize("mode", ["avg", "ls"])
def test_estimate_series_avg_equals_table_product(mode, n_w):
    # n_w = 9 spans the whole trace and n_w = 200 runs past its start
    rng = np.random.default_rng(11)
    d = np.stack([np.linspace(700.0, 1200.0, 9), np.linspace(1300.0, 800.0, 9)])
    p = rng.normal(-100.0, 6.0, size=(2, 9))
    est, modes = series_estimates(d, p[None], mode, n_w)
    est = est[0]
    assert modes is None
    for s in range(2):
        table = coefficient_table(d[s], n_w, mode)
        w = min(n_w, 9)
        assert table.shape == (9, w)
        for n in range(9):
            nb = window_start(n, n_w)
            cnt = n - nb + 1
            assert np.all(table[n, : w - cnt] == 0.0)
            want = np.dot(table[n, w - cnt :], p[s, nb : n + 1])
            assert abs(est[s, n] - want) <= 1e-12


def test_estimate_series_batch_shape():
    rng = np.random.default_rng(12)
    d = np.stack([np.linspace(700.0, 1200.0, 9), np.linspace(1300.0, 800.0, 9)])
    p = rng.normal(-100.0, 6.0, size=(5, 2, 9))
    est, _ = series_estimates(d, p, "ls", 4)
    assert est.shape == (5, 2, 9)
    one, _ = series_estimates(d, p[3:4], "ls", 4)
    np.testing.assert_allclose(est[3], one[0], atol=1e-12)


def test_els_prefers_the_better_model():
    d = np.linspace(400.0, 520.0, 6)
    # exact line: LS residual is zero, ELS must pick it
    p = line_powers(d, 4.0, 33.0)
    coeffs, diag = els_select(p, d)
    assert coeffs.tag == "ls"
    assert diag.e2 <= diag.e1
    # power independent of distance: the constant model wins
    rng = np.random.default_rng(13)
    p_flat = np.full(6, -80.0) + 1e-3 * rng.normal(size=6)
    coeffs_flat, diag_flat = els_select(p_flat, d)
    assert coeffs_flat.tag in ("avg", "ls")
    est = coeffs_flat.apply(p_flat)
    assert est == pytest.approx(-80.0, abs=0.01)
    assert min(diag_flat.e1, diag_flat.e2) == diag_flat.e_min


def test_els_series_marks_modes():
    d = np.stack([np.linspace(400.0, 520.0, 6)])
    p = line_powers(d, 4.0, 33.0)
    est, modes = series_estimates(d, p[None], "els", 4)
    est, modes = est[0], modes[0]
    assert modes.shape == est.shape
    assert np.all((modes == 0) | (modes == 1))
    np.testing.assert_allclose(est[0, 1:], p[0, 1:], atol=1e-9)


def test_gels_tracks_noiseless_path_without_restarts():
    d = np.linspace(200.0, 800.0, 20)
    p = line_powers(d, -7.0, 35.0)
    state = GelsState()
    for i in range(20):
        est, diag = gels_step(state, d[i], p[i])
        assert not diag.reinit_flag
        assert est == pytest.approx(p[i], abs=1e-9)
    assert state.window_len == 20


def test_gels_restarts_on_model_break():
    d = np.linspace(200.0, 800.0, 30)
    p = line_powers(d, -7.0, 35.0).copy()
    rng = np.random.default_rng(14)
    p += rng.normal(0.0, 0.5, size=30)
    p[18:] += 60.0  # corner: the fitted line breaks down
    state = GelsState()
    flags = []
    for i in range(30):
        est, diag = gels_step(state, d[i], p[i], gamma=3.0)
        flags.append(diag.reinit_flag)
    assert any(flags[18:21])
    j = 18 + flags[18:].index(True)
    assert state.start_index >= j


def test_gels_margin_trigger():
    state = GelsState()
    gels_step(state, 100.0, -50.0)
    est, diag = gels_step(state, 110.0, -51.0, h_db=11.0, h_max_db=10.0)
    assert diag.reinit_flag
    assert est == pytest.approx(-51.0)
    assert state.window_len == 1
    with pytest.raises(ConfigurationError):
        gels_step(state, 100.0, -50.0, gamma=0.0)


def test_gels_series_reinit_all_propagates():
    rng = np.random.default_rng(15)
    d = np.stack([np.linspace(200.0, 800.0, 30), np.linspace(850.0, 250.0, 30)])
    p = np.stack([line_powers(d[0], 0.0, 35.0), line_powers(d[1], 0.0, 35.0)])
    p = p + rng.normal(0.0, 0.5, size=p.shape)
    p[0, 15:] += 60.0  # only link 0 breaks
    _, (modes_solo,) = series_estimates(d, p[None], "gels", 4)
    _, (modes_all,) = series_estimates(d, p[None], "gels", 4, reinit_all=True)
    t = int(np.flatnonzero(modes_solo[0] == 2)[0])
    assert modes_solo[1, t] != 2
    assert modes_all[1, t] == 2
    # the propagated restart resets the partner estimate to its raw sample
    (est_all,), _ = series_estimates(d, p[None], "gels", 4, reinit_all=True)
    assert est_all[1, t] == pytest.approx(p[1, t])


def test_estimate_series_validation():
    # the estimators' own checks on the run path: the tables' distances and
    # window, the walk's gamma
    d = np.ones((2, 5)) * 100.0
    p = np.zeros((2, 5, 1))
    for mode in ("avg", "ls"):
        with pytest.raises(ConfigurationError):
            coefficient_table(d, 4, mode)
        with pytest.raises(ConfigurationError, match="n_w"):
            coefficient_table(d[0], 0, mode)
    with pytest.raises(ConfigurationError, match="gamma"):
        next(_gels(np.log10(d), p, np.zeros(5), 0.0, 10.0, False))


def test_estimate_series_gels_tracks_lines_and_restarts():
    # the gels_step cases above, through the package's GELS
    d = np.linspace(200.0, 800.0, 30)[None]
    clean = line_powers(d, -7.0, 35.0)
    (est,), (modes,) = series_estimates(d, clean[None], "gels", 4)
    assert modes[0, 0] == 0 and (modes[0, 1:] == 1).all()
    np.testing.assert_allclose(est, clean, rtol=0, atol=1e-9)
    broken = clean + np.random.default_rng(14).normal(0.0, 0.5, size=30)
    broken[0, 18:] += 60.0  # corner: the fitted line breaks down
    (est,), (modes,) = series_estimates(d, broken[None], "gels", 4, gamma=3.0)
    j = 18 + int(np.flatnonzero(modes[0, 18:21] == 2)[0])
    assert est[0, j] == broken[0, j]
    # h > h_max restarts the window whatever the residual
    h = np.zeros(30)
    h[1] = 11.0
    (est,), (modes,) = series_estimates(d, clean[None], "gels", 4, h_max=10.0, h=h)
    assert modes[0, 1] == 2 and est[0, 1] == clean[0, 1]
    assert modes[0, 2] == 1 and (modes[0, 3:] == 1).all()


def ls_mean_rule(xs, ps):
    """The ELS/GELS window rule at the window's last sample in exact
    arithmetic on the float inputs. e1 - e2 = vpx^2 / vxx, so the line wins
    wherever the fit exists and the mean elsewhere."""
    X, P = [Fraction(v) for v in xs], [Fraction(v) for v in ps]
    k = len(P)
    mp, mx = sum(P) / k, sum(X) / k
    vxx = sum((v - mx) ** 2 for v in X) / k
    if not vxx > Fraction(EPS_COND) * max(vxx + mx * mx, 1):
        return float(mp)
    vpx = sum((v - mx) * (q - mp) for v, q in zip(X, P)) / k
    return float(mp + vpx / vxx * (X[-1] - mx))


def test_gels_does_not_restart_on_an_exact_two_sample_fit():
    # two samples 7250 m and 7243.76 m from a cell, as link 4 of the cell row
    # starts: the line through two points is exact, so e2 = 0, e_r is not
    # formed and the estimate is the second sample. An uncentred fit there
    # leaves rounding noise in e2 and restarted about one window in nine.
    d = np.array([[7250.0, 7243.76]])
    p = np.random.default_rng(16).normal(-140.0, 3.0, size=(200, 1, 2))
    est, modes = series_estimates(d, p, "gels", 4)
    assert not (modes[:, 0, 1] == 2).any()
    np.testing.assert_allclose(est[:, 0, 1], p[:, 0, 1], rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    n_trials=st.integers(1, 4),
    n_bs=st.integers(1, 3),
    n=st.integers(1, 40),
    n_w=st.integers(1, 8),
    estimator=st.sampled_from(["els", "gels"]),
    reinit_all=st.booleans(),
    block_values=st.sampled_from([1, 5, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_moment_kernel_equals_the_per_window_oracle(
    n_trials, n_bs, n, n_w, estimator, reinit_all, block_values, seed
):
    # positive distances from a random walk in log d whose steps run from
    # nearly equal neighbours to factors of 20; noisy line powers with
    # outliers, some with a jump the fitted line breaks at, and rare
    # h > h_max samples
    rng = np.random.default_rng(seed)
    walk = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 0.5, (n_bs, 1)), (n_bs, n))
    d = np.exp(rng.uniform(0.0, np.log(2e4), (n_bs, 1)) + np.cumsum(walk, axis=1))
    x = np.log10(d)
    line = rng.uniform(-50.0, 50.0, (n_bs, 1)) - rng.uniform(20.0, 45.0, (n_bs, 1)) * x
    sigma = rng.choice([0.0, 0.3, 3.0, 8.0])
    p = line + sigma * rng.normal(size=(n_trials, n_bs, n))
    p += np.where(rng.random(p.shape) < 0.1, rng.uniform(-20.0, 20.0, p.shape), 0.0)
    p[..., n // 2 :] += rng.choice([0.0, 40.0], size=(n_bs, 1))
    h = np.where(rng.random(n) < 0.05, 12.0, 0.0)

    # ELS contracts its rows in blocks of samples; 1 and 5 values give
    # blocks of one sample and of a few, 1 << 16 one block
    with mock.patch.object(estimators, "_EST_BLOCK_VALUES", block_values):
        est, modes = series_estimates(d, p, estimator, n_w, reinit_all=reinit_all, h=h)
    want, want_modes, diag = adaptive_series_loop(
        d, p, estimator, n_w, reinit_all=reinit_all, h_series=h
    )
    start, e_min, e_r, e2_over_e1 = np.moveaxis(diag, -1, 0)
    # the oracle's uncentred fit loses digits as its window's x spread
    # shrinks against |x|: kappa is max(mean x^2, 1) / var x where it fits
    kappa = np.ones(p.shape)
    for t, s, i in np.ndindex(p.shape):
        xs = x[s, int(start[t, s, i]) : i + 1]
        spread = xs.var() / max(np.mean(xs * xs), 1.0)
        if spread > EPS_COND:
            kappa[t, s, i] = 1.0 / spread
    scale = np.maximum(1.0, np.abs(p))
    rounding = 64 * np.finfo(float).eps * scale * kappa
    # a restart the oracle decides within its own rounding may go either
    # way; after one that differs the windows differ, so compare up to it
    with np.errstate(divide="ignore", invalid="ignore"):
        near_gamma = np.abs(np.abs(e_r) - 3.0) <= np.maximum(1e-9, rounding / np.sqrt(e_min))
    near_floor = np.abs(e_min - (_EMIN_FLOOR * scale) ** 2) <= rounding**2
    # e2 <= e1 wherever the fit exists, so where the oracle's rounding puts
    # e2 above e1 its AVG pick may be the package's LS
    near_tie = e2_over_e1 <= 2 * np.sqrt(e_min) * rounding + rounding**2
    unsure = near_tie | ((near_gamma | near_floor) if estimator == "gels" else False)
    differ = modes != want_modes
    if reinit_all:  # a restart on one link restarts its whole trial
        unsure = np.broadcast_to(unsure.any(axis=1, keepdims=True), p.shape)
        differ = np.broadcast_to(differ.any(axis=1, keepdims=True), p.shape)
    seen = np.cumsum(differ, axis=-1)
    assert unsure[differ & (seen == 1)].all()
    checked = seen == 0
    # estimates where the oracle's rounding is below the tolerance
    spread_ok = checked & (rounding <= 1e-9)
    assert np.abs(est - want)[spread_ok].max(initial=0.0) <= 1e-9
    if estimator == "els":
        assert est.tobytes() == series_estimates(d, p, "ls", n_w)[0].tobytes()
        assert (modes[..., 0] == 0).all() and (modes[..., 1:] <= 1).all()
    else:
        # the centred GELS sums keep their digits however small the spread:
        # every estimate of a window the oracle also fitted equals the exact
        # rule within 1e-9 dB
        for t, s, i in zip(*np.nonzero(checked & (modes != 2))):
            nb = int(start[t, s, i])
            exact = ls_mean_rule(x[s, nb : i + 1], p[t, s, nb : i + 1])
            assert abs(est[t, s, i] - exact) <= 1e-9
