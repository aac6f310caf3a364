"""Joint Gaussian machinery: box probabilities, bounds and process stats.

Frozen reference numbers were computed with scipy.stats.multivariate_normal
(CDF inclusion-exclusion over box corners), which the package itself never
uses; see the loose tolerances on the quasi-Monte-Carlo cases.
"""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from handopt import (
    ChannelParams,
    ConfigurationError,
    EventSpec,
    GapProcess,
    GaussianVector,
    approx1,
    approx2_bounds,
    approx3_upper,
    bvn_cdf_lattice,
    coefficient_table,
    exact_prob,
    gap_below,
    gap_inside,
    gershgorin_bracket,
    path_loss,
    power_below,
    sample_power,
    y_stats,
)
from handopt.gaussian import check_psd

INF = math.inf


def make_gv(mu, Sigma, labels=None):
    mu = np.asarray(mu, float)
    labels = tuple(("y", i) for i in range(mu.size)) if labels is None else labels
    return GaussianVector(mu, np.asarray(Sigma, float), labels)


def box_event(labels, lows, highs):
    return EventSpec(tuple((l, lo, hi) for l, lo, hi in zip(labels, lows, highs)))


def scipy_box(mu, Sigma, lows, highs):
    """Independent CDF inclusion-exclusion reference."""
    import itertools

    mu = np.asarray(mu, float)
    k = mu.size
    dist = multivariate_normal(mean=mu, cov=np.asarray(Sigma, float))
    total = 0.0
    for picks in itertools.product((0, 1), repeat=k):
        corner = np.array([highs[i] if p else lows[i] for i, p in enumerate(picks)])
        if np.any(np.isneginf(corner)):
            continue
        sign = (-1) ** (k - sum(picks))
        total += sign * dist.cdf(np.minimum(corner, 1e30))
    return total


# --- exact_prob against frozen scipy values --------------------------------


def test_exact_prob_scalar_box():
    gv = make_gv([-2.0], [[4.0]])
    r = exact_prob(gv, box_event(gv.labels, [-3.0], [1.0]))
    assert r.estimate == pytest.approx(0.624655260005155, abs=1e-12)
    assert r.method == "closed-form"


def test_exact_prob_pair_box():
    gv = make_gv([0.3, -0.4], [[2.0, 0.9], [0.9, 1.5]])
    r = exact_prob(gv, box_event(gv.labels, [-1.0, -INF], [2.0, 0.5]))
    assert r.estimate == pytest.approx(0.5478094349903833, abs=1e-6)


def test_exact_prob_three_dim_box():
    Sigma = [[1.5, 0.6, 0.3], [0.6, 2.0, -0.4], [0.3, -0.4, 1.2]]
    gv = make_gv([1.0, -0.5, 0.2], Sigma)
    r = exact_prob(gv, box_event(gv.labels, [-INF, -2.0, -1.0], [0.5, 1.0, INF]))
    assert r.estimate == pytest.approx(0.1891524608863034, abs=1e-5)
    assert r.stderr <= 1e-4


def test_exact_prob_five_dim_box():
    rho = 0.7
    idx = np.arange(5)
    Sigma = 4.0 * rho ** np.abs(idx[:, None] - idx[None, :])
    gv = make_gv(np.linspace(-1.0, 1.0, 5), Sigma)
    ev = box_event(gv.labels, np.full(5, -2.0), np.full(5, 2.5))
    r = exact_prob(gv, ev, mc_samples=400_000, seed=3)
    assert r.stderr > 0.0  # Monte Carlo path
    assert r.estimate == pytest.approx(0.28340180535252, abs=max(4 * r.stderr, 1e-4))


def test_exact_prob_is_deterministic_for_seed():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(5, 5))
    gv = make_gv(rng.normal(size=5), A @ A.T + np.eye(5))
    ev = box_event(gv.labels, np.full(5, -1.0), np.full(5, 2.0))
    a = exact_prob(gv, ev, mc_samples=50_000, seed=7)
    b = exact_prob(gv, ev, mc_samples=50_000, seed=7)
    assert a.estimate == b.estimate
    c = exact_prob(gv, ev, mc_samples=50_000, seed=8)
    assert a.estimate != c.estimate  # different stream, same law


def test_exact_prob_complement_sums_to_one():
    gv = make_gv([0.5], [[2.0]])
    lo = exact_prob(gv, box_event(gv.labels, [-INF], [0.0])).estimate
    hi = exact_prob(gv, box_event(gv.labels, [0.0], [INF])).estimate
    assert lo + hi == pytest.approx(1.0, abs=1e-12)


# --- bivariate lattice -------------------------------------------------------


def test_bvn_lattice_matches_scipy_grid():
    mu = np.array([0.5, -0.3])
    Sigma = np.array([[2.0, 0.8], [0.8, 1.0]])
    xs = np.array([-INF, -1.0, 0.0, 1.5, INF])
    ys = np.array([-INF, -0.5, 0.7, INF])
    T = bvn_cdf_lattice(mu, Sigma, xs, ys)
    assert T.shape == (5, 4)
    frozen = {
        (-1.0, -0.5): 0.11386024768512115,
        (-1.0, 0.7): 0.14248308092195264,
        (0.0, -0.5): 0.24154459113534682,
        (0.0, 0.7): 0.3494129640756375,
        (1.5, -0.5): 0.38691699790174566,
        (1.5, 0.7): 0.6919768705883393,
    }
    for (x, y), want in frozen.items():
        i = int(np.where(xs == x)[0][0])
        j = int(np.where(ys == y)[0][0])
        assert T[i, j] == pytest.approx(want, abs=1e-8)
    assert T[0, 0] == 0.0
    assert T[-1, -1] == pytest.approx(1.0, abs=1e-10)
    # marginals on the infinite edges
    from scipy.stats import norm

    assert T[2, -1] == pytest.approx(norm.cdf((0.0 - 0.5) / math.sqrt(2.0)), abs=1e-10)


def test_bvn_lattice_box_assembly():
    mu = np.array([0.5, -0.3])
    Sigma = np.array([[2.0, 0.8], [0.8, 1.0]])
    xs = np.array([-INF, -1.0, 1.5, INF])
    ys = np.array([-INF, -0.5, 0.7, INF])
    T = bvn_cdf_lattice(mu, Sigma, xs, ys)
    box = T[2, 2] - T[1, 2] - T[2, 1] + T[1, 1]
    want = scipy_box(mu, Sigma, [-1.0, -0.5], [1.5, 0.7])
    assert box == pytest.approx(want, abs=1e-8)


def test_bvn_lattice_resolves_the_tails_at_high_correlation():
    # outside the lattice a single 24-node segment spans tens of dB while the
    # conditional CDF steps within ~1 dB; the +inf row is the exact Y marginal
    mu = np.array([0.722, 0.628])
    sd = np.array([8.06, 7.90])
    rho = 0.9888
    Sigma = np.array(
        [[sd[0] ** 2, rho * sd[0] * sd[1]], [rho * sd[0] * sd[1], sd[1] ** 2]]
    )
    lattice = np.concatenate(([-INF], np.arange(-10.0, 10.0 + 0.125, 0.25), [INF]))
    T = bvn_cdf_lattice(mu, Sigma, lattice, lattice)
    from scipy.integrate import quad
    from scipy.stats import norm

    assert T[-1, -2] == pytest.approx(norm.cdf((10.0 - mu[1]) / sd[1]), abs=1e-10)
    beta = Sigma[1, 0] / Sigma[0, 0]
    s_cond = math.sqrt(Sigma[1, 1] - beta * Sigma[1, 0])
    for i, j in ((1, 1), (1, 81), (40, 40), (81, 1)):
        x, y = lattice[i], lattice[j]
        f = lambda t: norm.pdf(t, mu[0], sd[0]) * norm.cdf(
            (y - mu[1] - beta * (t - mu[0])) / s_cond
        )
        step = mu[0] + (y - mu[1]) / beta
        lo = mu[0] - 12.0 * sd[0]
        want = quad(
            f, lo, x, points=[step] if lo < step < x else None,
            epsabs=1e-15, epsrel=1e-13, limit=400,
        )[0]
        assert T[i, j] == pytest.approx(want, abs=1e-10)


def test_bvn_lattice_requires_ascending_lattice():
    mu = np.zeros(2)
    Sigma = np.eye(2)
    with pytest.raises(ConfigurationError):
        bvn_cdf_lattice(mu, Sigma, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


# --- blockwise product and bounds -------------------------------------------


def random_instance(rng, k):
    A = rng.normal(size=(k, k))
    Sigma = A @ A.T + 0.5 * np.eye(k)
    mu = rng.normal(scale=1.5, size=k)
    lows = mu + rng.uniform(-3.0, 0.0, size=k) * np.sqrt(np.diag(Sigma))
    highs = lows + rng.uniform(0.5, 4.0, size=k) * np.sqrt(np.diag(Sigma))
    lows[rng.random(k) < 0.25] = -INF
    highs[rng.random(k) < 0.25] = INF
    gv = make_gv(mu, Sigma)
    return gv, box_event(gv.labels, lows, highs)


def test_approx1_with_full_group_is_exact():
    rng = np.random.default_rng(30)
    gv, ev = random_instance(rng, 5)
    full = approx1(gv, ev, group_size=5, mc_samples=30_000, seed=11)
    ref = exact_prob(gv, ev, mc_samples=30_000, seed=11)
    assert full.estimate == ref.estimate
    assert full.stderr == ref.stderr


def test_approx1_blocks_multiply_marginals():
    # independent coordinates: the blockwise product introduces no error,
    # so compare against the product of one-dimensional probabilities
    from scipy.stats import norm

    mu = np.array([0.0, 1.0, -1.0, 0.5])
    var = np.array([1.0, 2.0, 0.5, 1.5])
    lows = np.array([-1.0, -INF, -2.0, 0.0])
    highs = np.array([1.0, 1.5, INF, 2.0])
    gv = make_gv(mu, np.diag(var))
    ev = box_event(gv.labels, lows, highs)
    b1 = approx1(gv, ev, group_size=2)
    sd = np.sqrt(var)
    want = np.prod(norm.cdf((highs - mu) / sd) - norm.cdf((lows - mu) / sd))
    assert b1.estimate == pytest.approx(want, abs=5e-6)


def test_approx2_bounds_sandwich_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        k = int(rng.integers(2, 7))
        gv, ev = random_instance(rng, k)
        lb, ub = approx2_bounds(gv, ev)
        ref = exact_prob(gv, ev, mc_samples=200_000, seed=17)
        tol = 3.0 * max(ref.stderr, 1e-9)
        assert lb <= ref.estimate + tol
        assert ub >= ref.estimate - tol
        assert lb >= 0.0


def test_approx2_bounds_collapse_on_isotropic_covariance():
    gv = make_gv([0.2, -0.1, 0.4], 2.5 * np.eye(3))
    ev = box_event(gv.labels, [-1.0, -1.5, -INF], [2.0, 1.0, 0.8])
    lb, ub = approx2_bounds(gv, ev)
    ref = exact_prob(gv, ev)
    assert lb == pytest.approx(ub, rel=1e-9)
    assert lb == pytest.approx(ref.estimate, abs=1e-5)


def test_approx3_upper_bounds_exact():
    rng = np.random.default_rng(32)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        gv, ev = random_instance(rng, k)
        m_split = int(rng.integers(1, k + 1))
        ub = approx3_upper(gv, ev, m_split, mc_samples=200_000, seed=19)
        ref = exact_prob(gv, ev, mc_samples=200_000, seed=23)
        assert ref.estimate <= ub.estimate + 3.0 * (ref.stderr + ub.stderr) + 1e-9


def test_approx3_full_split_is_sqrt_of_exact():
    rng = np.random.default_rng(33)
    gv, ev = random_instance(rng, 4)
    ub = approx3_upper(gv, ev, 4, mc_samples=60_000, seed=29)
    ref = exact_prob(gv, ev, mc_samples=60_000, seed=29)
    assert ub.estimate == pytest.approx(math.sqrt(ref.estimate), rel=1e-12)


# --- eigenvalue bracket and PSD guard ----------------------------------------


def test_gershgorin_bracket_contains_spectrum():
    rng = np.random.default_rng(34)
    A = rng.normal(size=(6, 6))
    Sigma = A @ A.T + np.eye(6)
    lo, hi = gershgorin_bracket(Sigma, m_mem=6)
    w = np.linalg.eigvalsh(Sigma)
    assert lo <= w[0] + 1e-12
    assert hi >= w[-1] - 1e-12
    d_lo, d_hi = gershgorin_bracket(Sigma, m_mem=0)
    assert d_lo == pytest.approx(np.diag(Sigma).min())
    assert d_hi == pytest.approx(np.diag(Sigma).max())


def test_check_psd_flags_indefinite_matrix():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(Exception):
        check_psd(bad, "unit test")
    check_psd(np.eye(3))


def test_event_spec_validation():
    with pytest.raises(ConfigurationError):
        EventSpec((((["y"], 2), 0.0, 1.0),))  # unhashable label
    with pytest.raises(ConfigurationError):
        EventSpec(((("y", 2), 1.0, 0.0),))  # empty interval
    with pytest.raises(ConfigurationError):
        EventSpec(((("y", 2), 0.0, 1.0), (("y", 2), 0.5, 2.0)))  # duplicate label
    ev = EventSpec((gap_below(3, 2.0), power_below(0, 3, -100.0)))
    assert ev.labels == (("y", 3), ("p", 0, 3))


# --- gap process law ----------------------------------------------------------


def two_cell_tables(n=30, n_w=4, mode="avg"):
    x = 750.0 + 6.24 * np.arange(n)
    d = np.stack([x, 2000.0 - x])
    t0 = coefficient_table(d[0], n_w, mode)
    t1 = coefficient_table(d[1], n_w, mode)
    return d, t0, t1


def test_y_stats_mean_matches_filtered_path_loss():
    ch = ChannelParams(intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0)
    d, t0, t1 = two_cell_tables()
    stats = y_stats(t0, t1, (ch, ch), d, 6.24, y_times=[5, 12], p_times=[(0, 12)])
    pl0 = t0 @ path_loss(ch, d[0])
    pl1 = t1 @ path_loss(ch, d[1])
    assert stats.mean_of(("y", 5)) == pytest.approx(pl0[5] - pl1[5], rel=1e-12)
    assert stats.mean_of(("y", 12)) == pytest.approx(pl0[12] - pl1[12], rel=1e-12)
    assert stats.mean_of(("p", 0, 12)) == pytest.approx(
        path_loss(ch, d[0, 12]), rel=1e-12
    )


def test_y_stats_covariance_matches_simulation():
    ch = ChannelParams(intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0)
    d, t0, t1 = two_cell_tables()
    stats = y_stats(t0, t1, (ch, ch), d, 6.24, y_times=[8, 9], p_times=[(1, 9)])
    rng = np.random.default_rng(41)
    trials = 60_000
    trace = sample_power((ch, ch), d, 6.24, rng, n_trials=trials)
    est0 = trace.powers_db[:, 0, :] @ t0.T
    est1 = trace.powers_db[:, 1, :] @ t1.T
    y = est0 - est1
    cols = np.column_stack([y[:, 8], y[:, 9], trace.powers_db[:, 1, 9]])
    emp_mu = cols.mean(axis=0)
    emp_cov = np.cov(cols.T)
    np.testing.assert_allclose(emp_mu, stats.mu, atol=0.15)
    se = np.abs(stats.Sigma) * math.sqrt(2.0 / (trials - 1)) + 0.02
    np.testing.assert_array_less(np.abs(emp_cov - stats.Sigma), 4.0 * se)


def test_gap_process_prob_against_scipy():
    ch = ChannelParams(intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0)
    d, t0, t1 = two_cell_tables()
    proc = GapProcess(t0, t1, (ch, ch), d, 6.24)
    assert proc.n_samples == 30
    ev = EventSpec((gap_below(10, 2.0), gap_inside(11, 2.0)))
    r = proc.prob(ev)
    gv = proc.joint(ev.labels)
    want = scipy_box(gv.mu, gv.Sigma, [-INF, -2.0], [-2.0, 2.0])
    assert r.estimate == pytest.approx(want, abs=1e-7)


def test_y_stats_rejects_mismatched_tables():
    ch = ChannelParams()
    d, t0, t1 = two_cell_tables()
    with pytest.raises(ConfigurationError):
        y_stats(t0[:10], t1, (ch, ch), d, 6.24, y_times=[3])
    with pytest.raises(ConfigurationError):
        y_stats(t0, t1, (ch, ch), d, 6.24, y_times=[40])
