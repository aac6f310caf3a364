"""Connection, handover and outage laws against brute-force simulation.

Every analytic number here is cross-checked by simulating the decision
chain directly: sample shadowed powers, filter them with the same
coefficient tables, run the hysteresis rule, count events.
"""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handopt import metrics
from handopt.channel import ChannelParams
from handopt.errors import ConfigurationError, DegenerateConditioningError
from handopt.estimators import coefficient_table
from handopt.harness import _gap_process
from handopt.metrics import GapProcess, connection_series, handover_series, outage_series
from handopt.scenario import preset
from oracles import (
    LabelLawProcess,
    draw_powers,
    pairwise_connection,
    pairwise_handover,
    pairwise_outage,
    table_estimates,
    two_cell_decisions,
)

STEP = 6.24
THRESH = -107.77
N = 16


def build_process(n_w=4, start=950.0):
    x = start + STEP * np.arange(N)
    d = np.stack([x, 2000.0 - x])
    ch = ChannelParams()
    t0 = coefficient_table(d[0], n_w, "avg")
    t1 = coefficient_table(d[1], n_w, "avg")
    return GapProcess(t0, t1, (ch, ch), d, STEP, overlap=12), d, (ch, ch), (t0, t1)


def simulate_decisions(d, channels, tables, h, trials, seed, b_init=0):
    rng = np.random.default_rng(seed)
    powers = draw_powers(channels, d, STEP, rng, n_trials=trials)
    est = table_estimates(np.stack(tables), powers)
    return two_cell_decisions(est.transpose(2, 1, 0), h, b_init).T, powers


TRIALS = 40_000


@pytest.fixture(scope="module")
def mc_run():
    proc, d, channels, tables = build_process()
    b, powers = simulate_decisions(d, channels, tables, 2.0, TRIALS, seed=101)
    return proc, d, b, powers


def test_connection_probs_sum_to_one(mc_run):
    proc = mc_run[0]
    for n in (2, 5, 9):
        p1, p0, se1, se0 = connection_series(proc, n, 2.0, depth=12, mc_samples=200_000)
        gap = abs(p1[n] + p0[n] - 1.0)
        assert gap <= 3.0 * (se1[n] + se0[n]) + 1e-9


def test_connection_prob_matches_simulation(mc_run):
    proc, _, b, _ = mc_run
    for n in (3, 8):
        p1, _, se1, _ = connection_series(proc, n, 2.0, depth=12, mc_samples=200_000)
        emp = float((b[:, n] == 1).mean())
        se = math.sqrt(emp * (1.0 - emp) / TRIALS)
        assert abs(emp - p1[n]) <= 4.0 * se + 3.0 * se1[n]


def test_handover_prob_matches_simulation(mc_run):
    proc, _, b, _ = mc_run
    for n in (1, 4, 9):
        p01, p10, stderr = handover_series(proc, n, 2.0, depth=12, mc_samples=200_000)
        prev = b[:, n - 1]
        emp10 = float(((prev == 0) & (b[:, n] == 1)).mean())
        emp01 = float(((prev == 1) & (b[:, n] == 0)).mean())
        for emp, ana in ((emp10, p10[n]), (emp01, p01[n])):
            se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / TRIALS)
            assert abs(emp - ana) <= 4.0 * se + 3.0 * stderr[n]


def test_handover_prob_at_first_sample(mc_run):
    proc, _, b, _ = mc_run
    p01, p10, stderr = handover_series(proc, 0, 2.0, depth=12, b_init=0)
    assert p01[0] == 0.0  # cannot leave BS1 when starting on BS0
    emp = float((b[:, 0] == 1).mean())
    se = math.sqrt(emp * (1.0 - emp) / TRIALS)
    assert abs(emp - p10[0]) <= 4.0 * se + 3.0 * stderr[0]

    _, p10_from_bs1, _ = handover_series(proc, 0, 2.0, depth=12, b_init=1)
    assert p10_from_bs1[0] == 0.0


def test_outage_components_match_simulation(mc_run):
    proc, _, b, powers = mc_run
    n = 8
    po0, po1, po, mix, stderr = outage_series(
        proc, n, 2.0, depth=12, threshold_db=THRESH, mc_samples=200_000
    )
    on0 = b[:, n] == 0
    on1 = b[:, n] == 1
    out0 = powers[on0, 0, n] <= THRESH
    out1 = powers[on1, 1, n] <= THRESH
    for emp_mask, count, ana in ((out0, on0.sum(), po0[n]), (out1, on1.sum(), po1[n])):
        emp = float(emp_mask.mean())
        se = math.sqrt(emp * (1.0 - emp) / count)
        assert abs(emp - ana) <= 4.0 * se + 3.0 * stderr[n]
    assert po[n] == pytest.approx(po0[n] + po1[n], abs=1e-12)

    # the mixture weighs each conditional term by its connection probability
    out_any = np.where(b[:, n] == 1, powers[:, 1, n], powers[:, 0, n]) <= THRESH
    emp_mix = float(out_any.mean())
    se = math.sqrt(emp_mix * (1.0 - emp_mix) / TRIALS)
    assert abs(emp_mix - mix[n]) <= 4.0 * se + 3.0 * stderr[n]


def test_pairwise_method_tracks_exact():
    proc, _, _, _ = build_process()
    for n in (4, 9):
        ex_p1, _, _, _ = connection_series(proc, n, 2.0, depth=12, method="exact")
        pw_p1, _, pw_se1, _ = connection_series(proc, n, 2.0, depth=12, method="pairwise")
        assert pw_se1[n] == 0.0  # deterministic chain of pair terms
        assert pw_p1[n] == pytest.approx(ex_p1[n], abs=5e-3)


def test_series_reuse_the_process_memo(monkeypatch):
    import handopt.gaussian as gaussian

    def run(proc):
        h = handover_series(proc, 12, 2.0, depth=8, method="pairwise")
        o = outage_series(proc, 12, 2.0, depth=8, threshold_db=THRESH, method="pairwise")
        return h + o

    proc, _, _, _ = build_process()
    first = run(proc)
    calls = []
    y_stats = gaussian.y_stats
    monkeypatch.setattr(
        gaussian, "y_stats", lambda *a, **k: calls.append(a) or y_stats(*a, **k)
    )
    second = run(proc)
    assert calls == []
    fresh, _, _, _ = build_process()
    for a, b, c in zip(first, second, run(fresh)):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
    assert calls  # the fresh process builds its own vectors


def test_per_sample_margin_series(mc_run):
    proc, d, _, _ = mc_run
    h_series = np.linspace(0.5, 4.0, N)
    p1, _, se1, _ = connection_series(proc, 6, h_series, depth=10, mc_samples=100_000)
    p1_flat, _, _, _ = connection_series(proc, 6, 2.0, depth=10, mc_samples=100_000)
    assert p1[6] != pytest.approx(p1_flat[6], abs=1e-4)

    proc2, d2, channels, tables = build_process()
    b, _ = simulate_decisions(d2, channels, tables, h_series, TRIALS, seed=55)
    emp = float((b[:, 6] == 1).mean())
    se = math.sqrt(emp * (1.0 - emp) / TRIALS)
    assert abs(emp - p1[6]) <= 4.0 * se + 3.0 * se1[6]


def test_degenerate_conditioning_is_reported():
    proc, _, _, _ = build_process()
    with pytest.raises(DegenerateConditioningError):
        outage_series(proc, 8, 60.0, depth=10, threshold_db=THRESH)


def test_argument_validation():
    proc, _, _, _ = build_process()
    with pytest.raises(ConfigurationError):
        connection_series(proc, 5, 2.0, depth=0)
    with pytest.raises(ConfigurationError):
        connection_series(proc, 5, 2.0, depth=8, method="fancy")
    with pytest.raises(ConfigurationError):
        connection_series(proc, 5, -1.0, depth=8)
    with pytest.raises(ConfigurationError):
        connection_series(proc, 5, np.full(3, 2.0), depth=8)  # too short
    with pytest.raises(ConfigurationError):
        connection_series(proc, N + 3, 2.0, depth=8)  # beyond the trace
    # a term of depth + 1 samples must fit one block law
    assert proc.overlap == 12
    with pytest.raises(ConfigurationError, match="block overlap"):
        connection_series(proc, 5, 2.0, depth=13)


@pytest.mark.parametrize("n_last", [-1, N, N + 3])
def test_series_reject_samples_beyond_the_trace_before_any_box(monkeypatch, n_last):
    proc, _, _, _ = build_process()
    calls = []
    monkeypatch.setattr(metrics, "exact_prob", lambda *a, **k: calls.append(a))
    for series in (
        lambda: connection_series(proc, n_last, 2.0, depth=8),
        lambda: handover_series(proc, n_last, 2.0, depth=8),
        lambda: outage_series(proc, n_last, 2.0, depth=8, threshold_db=THRESH),
    ):
        with pytest.raises(ConfigurationError):
            series()
    assert calls == []


@pytest.mark.parametrize(
    "bad",
    [
        {"seed": -1}, {"seed": 1.5}, {"seed": "abc"}, {"seed": True},
        {"mc_samples": 9_999}, {"mc_samples": 1e6},
    ],
)
def test_series_reject_bad_monte_carlo_arguments_before_any_box(monkeypatch, bad):
    proc, _, _, _ = build_process()
    calls = []
    monkeypatch.setattr(metrics, "exact_prob", lambda *a, **k: calls.append(a))
    for method in ("exact", "pairwise"):
        for series in (
            lambda: connection_series(proc, 5, 2.0, depth=8, method=method, **bad),
            lambda: handover_series(proc, 5, 2.0, depth=8, method=method, **bad),
            lambda: outage_series(proc, 5, 2.0, depth=8, threshold_db=THRESH, method=method, **bad),
        ):
            with pytest.raises(ConfigurationError, match="seed|mc_samples"):
                series()
    assert calls == []


def test_exact_method_is_seed_deterministic():
    proc, _, _, _ = build_process()
    a01, a10, _ = handover_series(proc, 9, 2.0, depth=12, mc_samples=50_000, seed=5)
    b01, b10, _ = handover_series(proc, 9, 2.0, depth=12, mc_samples=50_000, seed=5)
    assert a01[9] + a10[9] == b01[9] + b10[9]
    assert a01[9] == b01[9]


@pytest.mark.parametrize(
    "depth, b_init, digest",
    [
        (15, 0, "ea5c6b51af7dd528c7ab8f4a119e06ca43d2198b541f637fb7d6232099f449dc"),
        (2, 0, "4e0d9f54c3ddce95b1a3866df8a56291551b00e669a05ceb818213e22cc8b308"),
        (2, 1, "2802b63bbe9269908d5ad3ec60bba1984d753742bcf61117684a94d34cca5c0d"),
    ],
    # ids without the digest, so that a re-pin keeps the test's name
    ids=["depth15-b0", "depth2-b0", "depth2-b1"],
)
def test_exact_series_are_pinned(depth, b_init, digest):
    # equality gate: the chain sums may be restructured, but the exact
    # series on a short paper-vi trace must stay bit for bit. Re-recorded
    # when the chains' laws became slices of the block laws: one sample of
    # the connection and outage series moved, by at most 7.8e-16, and no
    # Monte Carlo hit count changed.
    cfg = preset("paper-vi").with_updates(start_offset_m=985.0, length_m=30.0)
    proc = _gap_process(cfg)
    n_last = proc.n_samples - 1
    kw = dict(b_init=b_init, method="exact", mc_samples=10_000, seed=7)
    arrays = [
        *connection_series(proc, n_last, 2.0, depth, **kw),
        *handover_series(proc, n_last, 2.0, depth, **kw),
        *outage_series(proc, n_last, 2.0, depth, cfg.resolved_outage_threshold(), **kw),
    ]
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.astype("<f8").tobytes())
    assert h.hexdigest() == digest


def _pairwise_series(proc, n_last, h, depth, threshold_db, b_init):
    kw = dict(b_init=b_init, method="pairwise")
    conn = connection_series(proc, n_last, h, depth, **kw)
    hand = handover_series(proc, n_last, h, depth, **kw)
    out = outage_series(proc, n_last, h, depth, threshold_db, **kw)
    for se in (conn[2], conn[3], hand[2], out[4]):
        assert not se.any()  # deterministic chain of pair terms
    return conn[:2] + hand[:2] + out[:4]


@pytest.mark.parametrize("h", [1.0, 2.0, 4.0])
def test_pairwise_series_equal_the_per_term_oracle_on_the_full_trace(h):
    # equality gate: one sweep per process and prefix telescopes must give
    # the per-term chains with their own sweeps bit for bit; at depth 15
    # the 81-sample trace moves the carry window
    cfg = preset("paper-vi")
    n_last = cfg.distances_m().shape[1] - 1
    depth, beta, b = cfg.resolved_depth(), cfg.resolved_outage_threshold(), cfg.b_init
    assert depth < n_last
    got = _pairwise_series(_gap_process(cfg), n_last, h, depth, beta, b)
    oracle = _gap_process(cfg)
    hs = np.full(n_last + 1, h)
    want = (
        pairwise_connection(oracle, n_last, hs, depth, b)
        + pairwise_handover(oracle, n_last, hs, depth, b)
        + pairwise_outage(oracle, n_last, hs, depth, beta, b)
    )
    for a, w in zip(got, want):
        np.testing.assert_array_equal(a, w)


@pytest.mark.parametrize("h", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("updates", [{}, {"start_offset_m": 975.0, "length_m": 50.0}])
def test_pairwise_series_on_block_slices_match_the_per_label_set_laws(updates, h):
    # the chains' laws are slices of one block law; the per-label-set laws
    # they replaced differ in the last bits only, and so do the series
    cfg = preset("paper-vi").with_updates(**updates)
    proc = _gap_process(cfg)
    n_last, depth = proc.n_samples - 1, cfg.resolved_depth()
    beta, b = cfg.resolved_outage_threshold(), cfg.b_init
    got = _pairwise_series(proc, n_last, h, depth, beta, b)
    want = _pairwise_series(LabelLawProcess(proc), n_last, h, depth, beta, b)
    for a, w in zip(got[2:], want[2:]):  # handover (2) and outage (4) series
        assert np.abs(a - w).max() <= 1e-13 * np.abs(w).max()


def test_exact_series_on_block_slices_match_the_per_label_set_laws():
    cfg = preset("paper-vi").with_updates(start_offset_m=975.0, length_m=50.0)
    proc = _gap_process(cfg)
    oracle = LabelLawProcess(proc)
    n_last, depth, beta = proc.n_samples - 1, cfg.resolved_depth(), cfg.resolved_outage_threshold()
    kw = dict(b_init=cfg.b_init, method="exact", mc_samples=10_000, seed=3)
    got, want = (
        (
            handover_series(p, n_last, 2.0, depth, **kw),
            outage_series(p, n_last, 2.0, depth, beta, **kw),
        )
        for p in (proc, oracle)
    )
    # handover: p01 + p10 and its stderr; outage: p_o and its stderr
    for (a, se_a), (w, se_w) in (
        ((got[0][0] + got[0][1], got[0][2]), (want[0][0] + want[0][1], want[0][2])),
        ((got[1][2], got[1][4]), (want[1][2], want[1][4])),
    ):
        assert np.all(np.abs(a - w) <= 4.0 * np.hypot(se_a, se_w) + 1e-15)


@pytest.mark.parametrize("method", ["pairwise", "exact"])
def test_chains_build_one_law_per_block(monkeypatch, method):
    # the whole paper-vi trace (81 samples) spans blocks 0 and 1, each
    # built once by one y_stats call however many terms read it
    import handopt.gaussian as gaussian

    calls = []
    y_stats = gaussian.y_stats
    monkeypatch.setattr(gaussian, "y_stats", lambda *a, **k: calls.append(a[5]) or y_stats(*a, **k))
    cfg = preset("paper-vi")
    proc = _gap_process(cfg)
    # the exact chain's terms stay within 2-dim quadrature at depth 1
    depth = cfg.resolved_depth() if method == "pairwise" else 1
    kw = dict(b_init=cfg.b_init, method=method, mc_samples=10_000)
    handover_series(proc, proc.n_samples - 1, 2.0, depth, **kw)
    assert [(ts[0], ts[-1]) for ts in calls] == [(0, 78), (64, 80)]


_SLICE = preset("paper-vi").with_updates(start_offset_m=985.0, length_m=30.0)
_SLICE_N = _SLICE.distances_m().shape[1]


@pytest.fixture(scope="module")
def slice_processes():
    # one process per side for every example, so the chain memo also
    # serves margins and depths it has seen before
    return _gap_process(_SLICE), _gap_process(_SLICE)


@settings(max_examples=40, deadline=None)
@given(
    h=st.lists(
        st.one_of(st.just(0.0), st.sampled_from([0.5, 2.0, 4.0]), st.floats(0.0, 8.0)),
        min_size=_SLICE_N, max_size=_SLICE_N,
    ),
    depth=st.integers(1, _SLICE_N + 1),
    b_init=st.sampled_from([0, 1]),
)
def test_pairwise_series_equal_the_per_term_oracle_on_random_margins(
    slice_processes, h, depth, b_init
):
    proc, oracle = slice_processes
    n_last = _SLICE_N - 1
    h = np.array(h)
    beta = _SLICE.resolved_outage_threshold()
    conn = pairwise_connection(oracle, n_last, h, depth, b_init)
    if min(conn[0].min(), conn[1].min()) < metrics._DEGENERATE_FLOOR:
        with pytest.raises(DegenerateConditioningError):
            outage_series(proc, n_last, h, depth, beta, b_init=b_init, method="pairwise")
        got = connection_series(proc, n_last, h, depth, b_init=b_init, method="pairwise")[:2]
        got += handover_series(proc, n_last, h, depth, b_init=b_init, method="pairwise")[:2]
        want = conn + pairwise_handover(oracle, n_last, h, depth, b_init)
    else:
        got = _pairwise_series(proc, n_last, h, depth, beta, b_init)
        want = (
            conn
            + pairwise_handover(oracle, n_last, h, depth, b_init)
            + pairwise_outage(oracle, n_last, h, depth, beta, b_init)
        )
    for a, w in zip(got, want):
        np.testing.assert_array_equal(a, w)


def counted_exact_prob(monkeypatch):
    """The events metrics hands to exact_prob from now on, in call order."""
    calls = []
    real = metrics.exact_prob

    def counting(gv, ev, *a, **k):
        calls.append(ev.constraints)
        return real(gv, ev, *a, **k)

    monkeypatch.setattr(metrics, "exact_prob", counting)
    return calls


def test_pairwise_series_integrate_each_box_once(monkeypatch):
    # the chain-pairwise slice: 117 distinct boxes, each integrated once
    # (the per-term chains asked for them 2445 times)
    cfg = preset("paper-vi").with_updates(start_offset_m=975.0, length_m=50.0)
    proc = _gap_process(cfg)
    calls = counted_exact_prob(monkeypatch)
    n_last, depth = proc.n_samples - 1, cfg.resolved_depth()
    kw = dict(b_init=cfg.b_init, method="pairwise")
    handover_series(proc, n_last, 2.0, depth, **kw)
    outage_series(proc, n_last, 2.0, depth, cfg.resolved_outage_threshold(), **kw)
    assert len(calls) == len(set(calls)) == 117


@pytest.mark.parametrize("method", ["pairwise", "exact"])
def test_returned_series_do_not_alias_the_chain_memo(method):
    proc, _, _, _ = build_process()
    kw = dict(method=method, mc_samples=10_000)

    def run():
        return connection_series(proc, 9, 2.0, 8, **kw) + handover_series(proc, 9, 2.0, 8, **kw)

    first = run()
    want = [a.copy() for a in first]
    for a in first:
        if a.flags.writeable:
            a[...] = -1.0
    for a, w in zip(run(), want):
        np.testing.assert_array_equal(a, w)


def test_exact_series_reintegrate_only_the_seeded_boxes(monkeypatch):
    # the chain memo keys a box of one or two constraints by its constraints
    # alone, and one of three or more also by mc_samples and the term seed
    proc, _, _, _ = build_process()
    calls = counted_exact_prob(monkeypatch)
    kw = dict(mc_samples=10_000)
    first = handover_series(proc, 5, 2.0, 3, seed=1, **kw)
    assert len(calls) == len(set(calls)) and any(len(c) < 3 for c in calls)
    calls.clear()
    handover_series(proc, 5, 2.0, 3, seed=2, **kw)
    assert calls and all(len(c) >= 3 for c in calls)
    calls.clear()
    handover_series(proc, 5, 2.0, 3, seed=1, mc_samples=20_000)
    assert calls and all(len(c) >= 3 for c in calls)
    calls.clear()
    for a, w in zip(handover_series(proc, 5, 2.0, 3, seed=1, **kw), first):
        np.testing.assert_array_equal(a, w)
    assert calls == []


def test_a_fresh_process_builds_its_own_chains(monkeypatch):
    kw = dict(method="pairwise")
    proc, _, _, _ = build_process()
    first = handover_series(proc, 9, 2.0, 8, **kw)
    other, _, _, _ = build_process(n_w=2)
    calls = counted_exact_prob(monkeypatch)
    second = handover_series(other, 9, 2.0, 8, **kw)
    assert calls
    assert not np.array_equal(first[1], second[1])
    reference, _, _, _ = build_process(n_w=2)
    for a, b in zip(second, handover_series(reference, 9, 2.0, 8, **kw)):
        np.testing.assert_array_equal(a, b)


def test_the_chain_memo_does_not_keep_a_process_alive():
    proc, _, _, _ = build_process()
    handover_series(proc, 9, 2.0, 8, method="pairwise")
    assert proc in metrics._CHAINS
    ref = weakref.ref(proc)
    del proc
    gc.collect()
    assert ref() is None
    assert all(p is not None for p in metrics._CHAINS)
