"""Joint Gaussian machinery: box probabilities, bounds and process stats.

Frozen reference numbers were computed with scipy.stats.multivariate_normal
(CDF inclusion-exclusion over box corners), which the package itself never
uses; see the loose tolerances on the quasi-Monte-Carlo cases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from handopt import gaussian
from handopt.channel import ChannelParams, path_loss
from handopt.errors import ConfigurationError, NumericalConsistencyError
from handopt.estimators import coefficient_table
from handopt.gaussian import (
    EventSpec,
    GapProcess,
    GaussianVector,
    _match_event,
    _mc_box_prob,
    _quad_dim2,
    _quad_dim3,
    _simpson,
    approx1,
    approx2_bounds,
    approx3_upper,
    bvn_cdf_lattice,
    check_psd,
    exact_prob,
    gap_below,
    gap_inside,
    power_below,
    y_stats,
)
from oracles import (
    bvn_cdf_lattice_24,
    check_psd_eigvalsh,
    draw_powers,
    interval_prob_two_cdf,
    mc_box_prob,
    table_estimates,
)

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


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"mc_samples": 20_000.0},
        {"mc_samples": True},
        {"mc_samples": 9_999},
    ],
)
def test_exact_prob_checks_its_arguments_in_every_dimension(k, kwargs):
    gv = make_gv(np.zeros(k), np.eye(k) + 0.3)
    ev = box_event(gv.labels, np.full(k, -1.0), np.full(k, 1.0))
    with pytest.raises(ConfigurationError):
        exact_prob(gv, ev, **kwargs)
    with pytest.raises(ConfigurationError):
        approx1(gv, ev, group_size=1, **kwargs)


# --- Monte Carlo boxes ---------------------------------------------------------


@st.composite
def mc_boxes(draw):
    """A 4-6 dim Gaussian with positive definite covariance and a box that
    holds between a few tenths of a percent and all of the mass."""
    k = draw(st.integers(4, 6))
    unit = st.floats(-1.5, 1.5)
    A = np.array(draw(st.lists(unit, min_size=k * k, max_size=k * k))).reshape(k, k)
    Sigma = A @ A.T + 0.25 * np.eye(k)
    mu = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    sd = np.sqrt(np.diag(Sigma))
    lo = mu + sd * np.array(draw(st.lists(st.floats(-3.0, 0.5), min_size=k, max_size=k)))
    hi = lo + sd * np.array(draw(st.lists(st.floats(0.5, 4.0), min_size=k, max_size=k)))
    for bound, side in ((lo, -INF), (hi, INF)):
        bound[np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))] = side
    return mu, Sigma, lo, hi, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mc_boxes())
def test_mc_box_prob_agrees_with_the_draw_everything_oracle(case):
    mu, Sigma, lo, hi, seed = case
    p, se, jittered = _mc_box_prob(mu, Sigma, lo, hi, 20_000, seed)
    q, se_q, _ = mc_box_prob(mu, Sigma, lo, hi, 20_000, seed + 1)
    assert not jittered
    assert abs(p - q) <= 4.0 * math.hypot(se, se_q)


def test_mc_box_prob_of_independent_coordinates_is_the_marginal_product():
    var = np.array([0.5, 1.0, 2.0, 4.0, 9.0])
    mu = np.array([0.3, -0.2, 1.0, 0.0, -1.5])
    lo = np.array([-1.0, -INF, 0.0, -2.0, -4.0])
    hi = np.array([1.5, 0.5, INF, 3.0, 0.0])
    gv = make_gv(mu, np.diag(var))
    r = exact_prob(gv, box_event(gv.labels, lo, hi), mc_samples=400_000, seed=31)
    sd = np.sqrt(var)
    want = float(np.prod(ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)))
    assert r.method == "mc"
    assert r.estimate == pytest.approx(want, abs=4.0 * r.stderr)


def test_mc_box_prob_ignores_an_unconstrained_coordinate():
    rng = np.random.default_rng(41)
    A = rng.normal(size=(5, 5))
    Sigma = A @ A.T + np.eye(5)
    mu = rng.normal(size=5)
    lo = mu - np.sqrt(np.diag(Sigma)) * np.array([1.0, 0.5, 2.0, 1.5, INF])
    hi = mu + np.sqrt(np.diag(Sigma)) * np.array([0.8, 1.5, 1.0, INF, INF])
    # The unconstrained fifth coordinate sorts last and rejects nothing; in
    # one chunk the first four coordinates read the same draws.
    gv5 = make_gv(mu, Sigma)
    five = exact_prob(gv5, box_event(gv5.labels, lo, hi), mc_samples=200_000, seed=5)
    gv4 = make_gv(mu[:4], Sigma[:4, :4])
    four = exact_prob(gv4, box_event(gv4.labels, lo[:4], hi[:4]), mc_samples=200_000, seed=5)
    assert five.method == four.method == "mc"
    assert five.estimate == four.estimate
    # and a 4-dim box with a free fourth coordinate is the 3-dim quadrature value
    ev = box_event(gv4.labels, [*lo[:3], -INF], [*hi[:3], INF])
    free = exact_prob(gv4, ev, mc_samples=200_000, seed=5)
    want = _quad_dim3(mu[:3], Sigma[:3, :3], lo[:3], hi[:3])
    assert free.method == "mc"
    assert free.estimate == pytest.approx(want, abs=4.0 * free.stderr)


def test_mc_box_prob_does_not_depend_on_the_label_order():
    import itertools

    rng = np.random.default_rng(43)
    A = rng.normal(size=(5, 5))
    gv = make_gv(rng.normal(size=5), A @ A.T + np.eye(5))
    lows = np.array([-1.0, -2.0, -INF, -0.5, -1.5])
    highs = np.array([1.0, 0.5, 1.0, INF, 2.5])
    constraints = list(zip(gv.labels, lows, highs))
    values = {
        exact_prob(gv, EventSpec(tuple(constraints[i] for i in p)), 50_000, 9).estimate
        for p in itertools.islice(itertools.permutations(range(5)), 0, None, 7)
    }
    assert len(values) == 1


def test_mc_box_prob_peak_memory_on_an_accuracy_box():
    # The 6-dim accuracy-k6 box at 400k draws: drawing every coordinate of a
    # 200k-sample chunk peaked at 36.9 MiB.
    import tracemalloc

    from handopt import preset
    from handopt.harness import _gap_process

    cfg = preset("paper-vi")
    h = cfg.h_fixed_db
    ev = EventSpec(tuple([gap_below(40, h)] + [gap_inside(t, h) for t in range(41, 46)]))
    gv = _gap_process(cfg).joint(ev.labels)
    tracemalloc.start()
    try:
        r = exact_prob(gv, ev, mc_samples=400_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.method == "mc"
    assert peak < 20 * 2**20


# --- trivariate quadrature ---------------------------------------------------


def simpson_dim3(mu, Sigma, lo, hi):
    """The former 2001 x 2001 Simpson rule, an oracle for well-conditioned
    boxes only: its x1 nodes span the marginal window, which misses the
    conditional one at high correlation."""
    from scipy.integrate import simpson
    from scipy.special import ndtr

    s0 = math.sqrt(Sigma[0, 0])
    a0 = max(lo[0], mu[0] - 8.5 * s0)
    b0 = min(hi[0], mu[0] + 8.5 * s0)
    s1m = math.sqrt(Sigma[1, 1])
    a1 = max(lo[1], mu[1] - 8.5 * s1m)
    b1 = min(hi[1], mu[1] + 8.5 * s1m)
    if not (a0 < b0 and a1 < b1):
        return 0.0
    x0 = np.linspace(a0, b0, 2001)
    x1 = np.linspace(a1, b1, 2001)

    beta10 = Sigma[1, 0] / Sigma[0, 0]
    s1c = math.sqrt(max(Sigma[1, 1] - beta10 * Sigma[1, 0], 1e-300))
    beta2 = Sigma[2, :2] @ np.linalg.inv(Sigma[:2, :2])
    s2c = math.sqrt(max(Sigma[2, 2] - beta2 @ Sigma[:2, 2], 1e-300))

    dens0 = np.exp(-0.5 * ((x0 - mu[0]) / s0) ** 2) / (s0 * math.sqrt(2 * math.pi))
    out = np.empty(x0.size)
    for i, xi in enumerate(x0):
        m1 = mu[1] + beta10 * (xi - mu[0])
        dens1 = np.exp(-0.5 * ((x1 - m1) / s1c) ** 2) / (s1c * math.sqrt(2 * math.pi))
        m2 = mu[2] + beta2[0] * (xi - mu[0]) + beta2[1] * (x1 - mu[1])
        inner = ndtr((hi[2] - m2) / s2c) - ndtr((lo[2] - m2) / s2c)
        out[i] = simpson(dens0[i] * dens1 * inner, x=x1)
    return float(simpson(out, x=x0))


def adaptive_dim3(mu, Sigma, lo, hi):
    """Nested adaptive quadrature over the Cholesky coordinates z (x = mu +
    L z), breaking each level at the steps of the conditional normal CDFs
    of the next coordinate; z2 is integrated in closed form."""
    from scipy.integrate import quad
    from scipy.special import ndtr

    L = np.linalg.cholesky(Sigma)
    w = 9.0

    def breaks(a, b, pairs):
        pts = [e / s for e, s in pairs if math.isfinite(e) and s != 0.0]
        return [p for p in pts if a < p < b] or None

    def inner(z0):
        m1 = mu[1] + L[1, 0] * z0
        a = max(-w, (lo[1] - m1) / L[1, 1])
        b = min(w, (hi[1] - m1) / L[1, 1])
        if not a < b:
            return 0.0
        m2 = mu[2] + L[2, 0] * z0

        def f(z1):
            m = m2 + L[2, 1] * z1
            return math.exp(-0.5 * z1 * z1) * (
                ndtr((hi[2] - m) / L[2, 2]) - ndtr((lo[2] - m) / L[2, 2])
            )

        pts = breaks(a, b, [(e - m2, L[2, 1]) for e in (lo[2], hi[2])])
        return quad(f, a, b, points=pts, epsabs=1e-15, epsrel=1e-13, limit=500)[0]

    a = max(-w, (lo[0] - mu[0]) / L[0, 0])
    b = min(w, (hi[0] - mu[0]) / L[0, 0])
    if not a < b:
        return 0.0
    pts = breaks(
        a, b,
        [(e - mu[1], L[1, 0]) for e in (lo[1], hi[1])]
        + [(e - mu[2], L[2, 0]) for e in (lo[2], hi[2])],
    )
    g = lambda z0: math.exp(-0.5 * z0 * z0) * inner(z0)
    return quad(g, a, b, points=pts, epsabs=1e-15, epsrel=1e-13, limit=500)[0] / (2 * math.pi)


def quad3(mu, Sigma, lo, hi):
    return _quad_dim3(*(np.asarray(v, float) for v in (mu, Sigma, lo, hi)))


def near_singular(noise):
    v = np.array([1.0, 0.999, 0.998])
    return 49.0 * np.outer(v, v) + noise * np.eye(3)


def test_quad_dim3_matches_simpson_on_well_conditioned_boxes():
    rng = np.random.default_rng(40)
    for _ in range(8):
        gv, ev = random_instance(rng, 3)
        mu, Sigma, lo, hi = _match_event(gv, ev)
        assert quad3(mu, Sigma, lo, hi) == pytest.approx(
            simpson_dim3(mu, Sigma, lo, hi), abs=1e-9
        )


def test_quad_dim3_matches_simpson_on_accuracy_study_blocks(monkeypatch):
    import handopt.gaussian as gaussian
    from handopt.harness import run_accuracy_study

    blocks = {}
    quad = gaussian._quad_dim3

    def record(mu, Sigma, lo, hi):
        blocks[b"".join(v.tobytes() for v in (mu, Sigma, lo, hi))] = (mu, Sigma, lo, hi)
        return quad(mu, Sigma, lo, hi)

    monkeypatch.setattr(gaussian, "_quad_dim3", record)
    for seed in (0, 1):
        run_accuracy_study(6, 3, n_instances=2, seed=seed, mc_samples=10_000)
    assert len(blocks) == 8  # two B1 blocks per instance; UB3's tail repeats one
    for mu, Sigma, lo, hi in blocks.values():
        assert quad(mu, Sigma, lo, hi) == pytest.approx(
            simpson_dim3(mu, Sigma, lo, hi), abs=1e-9
        )


@pytest.mark.parametrize(
    "Sigma, lo, hi",
    [
        # Simpson's marginal x1 grid is off by 1.3e-6 here
        (near_singular(1e-4), [-2.0, -INF, -2.0], [2.0, 2.0, INF]),
        # an x1 edge steps inside the x0 box on a 3e-5 sd scale
        (near_singular(1e-6), [-2.0, -INF, -INF], [2.0, 1.0, INF]),
        (near_singular(1e-6), [-2.0, -1.0, -INF], [2.0, 1.0, 0.5]),
        # x2 steps along x0 on a 0.014 sd scale whatever x1 does
        (
            [[1.0, 0.0, 0.9999], [0.0, 1.0, 0.0], [0.9999, 0.0, 1.0]],
            [-2.0, -1.0, -0.3], [2.0, 1.0, INF],
        ),
        # corners with one-sided infinite bounds
        (
            [[1.5, 0.6, 0.3], [0.6, 2.0, -0.4], [0.3, -0.4, 1.2]],
            [-INF, -2.0, -INF], [0.5, INF, 1.0],
        ),
        (
            [[1.5, 0.6, 0.3], [0.6, 2.0, -0.4], [0.3, -0.4, 1.2]],
            [0.5, -INF, -1.0], [INF, 1.0, INF],
        ),
    ],
)
def test_quad_dim3_matches_adaptive_quadrature(Sigma, lo, hi):
    mu = np.array([0.3, -0.2, 0.1])
    Sigma, lo, hi = (np.asarray(v, float) for v in (Sigma, lo, hi))
    assert quad3(mu, Sigma, lo, hi) == pytest.approx(
        adaptive_dim3(mu, Sigma, lo, hi), abs=1e-10
    )


def test_quad_dim3_reaches_the_degenerate_limit():
    # Sigma -> 49 v v^T: x = 7 v Z, and only the x0 box (resp. the x1 upper
    # edge) binds Z
    from scipy.stats import norm

    Sigma = near_singular(1e-8)
    p = quad3(np.zeros(3), Sigma, [-2.0, -INF, -2.0], [2.0, 2.0, INF])
    assert p == pytest.approx(norm.cdf(2 / 7) - norm.cdf(-2 / 7), abs=1e-9)
    p = quad3(np.zeros(3), Sigma, [-2.0, -INF, -INF], [2.0, 1.0, INF])
    assert p == pytest.approx(norm.cdf(1 / 6.993) - norm.cdf(-2 / 7), abs=1e-9)


def test_quad_dim3_empty_windows_return_zero():
    Sigma = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # the x0 box lies beyond the integration window
    assert quad3(np.zeros(3), Sigma, [9.0, -INF, -INF], [INF, INF, INF]) == 0.0
    # x1 given x0 in (-1, 1] stays 28 conditional sds under the x1 box
    assert quad3(np.zeros(3), Sigma, [-1.0, 5.0, -INF], [1.0, INF, INF]) == 0.0


# --- dimension-2 Simpson rule ------------------------------------------------


def quad_dim2_scipy(mu, Sigma, lo, hi):
    """_quad_dim2 as it was on scipy.integrate.simpson, kept as the oracle of
    the local port."""
    from scipy.integrate import simpson
    from scipy.special import ndtr

    s0 = math.sqrt(Sigma[0, 0])
    a = max(lo[0], mu[0] - 8.5 * s0)
    b = min(hi[0], mu[0] + 8.5 * s0)
    if not a < b:
        return 0.0
    x = np.linspace(a, b, 2001)
    beta = Sigma[1, 0] / Sigma[0, 0]
    m = mu[1] + beta * (x - mu[0])
    s1 = math.sqrt(max(Sigma[1, 1] - beta * Sigma[1, 0], 1e-300))
    dens = np.exp(-0.5 * ((x - mu[0]) / s0) ** 2) / (s0 * math.sqrt(2 * math.pi))
    inner = ndtr((hi[1] - m) / s1) - ndtr((lo[1] - m) / s1)
    return float(simpson(dens * inner, x=x))


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def simpson_integrand(rng, x, kind):
    if kind == 0:
        return rng.normal(size=x.size) * 10.0 ** rng.uniform(-30, 30)
    u = (x - x[0]) / (x[-1] - x[0])
    if kind == 1:
        return np.exp(-rng.uniform(0.0, 50.0) * (u - rng.uniform()) ** 2)
    return np.cos(rng.uniform(0.0, 40.0) * u) + rng.uniform(-1.0, 1.0) * u**3


def test_simpson_port_equals_scipy_bit_for_bit():
    from scipy.integrate import simpson

    rng = np.random.default_rng(17)
    for i in range(3000):
        a = rng.normal() * 10.0 ** rng.uniform(-3.0, 8.0)
        # very narrow intervals put the nodes a few thousand ulps apart, so
        # the spacings are far from equal
        rel = 1e-9 if i % 3 == 0 else 10.0 ** rng.uniform(-6.0, 2.0)
        x = np.linspace(a, a + rel * max(abs(a), 1e-3), 2001)
        y = simpson_integrand(rng, x, i % 3)
        assert same_bits(_simpson(y, x), simpson(y, x=x))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(-1e9, 1e9),
    st.floats(-9.0, 3.0),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
)
def test_simpson_port_equals_scipy_on_any_interval(a, log_rel, seed, kind):
    from scipy.integrate import simpson

    b = a + 10.0**log_rel * max(abs(a), 1.0)
    x = np.linspace(a, b, 2001)
    assume(np.all(np.diff(x) > 0))
    y = simpson_integrand(np.random.default_rng(seed), x, kind)
    assert same_bits(_simpson(y, x), simpson(y, x=x))


def test_quad_dim2_equals_the_scipy_rule_bit_for_bit():
    rng = np.random.default_rng(23)
    boxes = []
    for _ in range(300):
        A = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(2, 1))
        Sigma = A @ A.T + 1e-3 * np.eye(2)
        mu = rng.normal(size=2) * 10.0 ** rng.uniform(-1.0, 3.0)
        sd = np.sqrt(np.diag(Sigma))
        lo = mu + sd * rng.uniform(-4.0, 1.0, size=2)
        hi = lo + sd * rng.uniform(0.01, 4.0, size=2)
        lo[rng.random(2) < 0.3] = -INF
        hi[rng.random(2) < 0.3] = INF
        boxes.append((mu, Sigma, lo, hi))
    # the near-singular pair boxes Simpson is known to miss at rho >= 0.99999;
    # the port keeps that error exactly
    for rho in (0.9999, 0.99999, 0.999999):
        Sigma = np.array([[1.0, rho], [rho, 1.0]])
        boxes.append((np.zeros(2), Sigma, np.array([-INF, -INF]), np.array([INF, 0.3])))
        boxes.append((np.array([0.2, -0.1]), Sigma, np.array([-1.0, -INF]), np.array([2.0, 0.3])))
    for mu, Sigma, lo, hi in boxes:
        assert same_bits(_quad_dim2(mu, Sigma, lo, hi), quad_dim2_scipy(mu, Sigma, lo, hi))


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


def bivariate_laws(draw, n):
    """n bivariate laws with |rho| up to 1 - 1e-12 and sd(X) down to 1e-6."""
    mu = np.array([[draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))] for _ in range(n)])
    Sigma = np.empty((n, 2, 2))
    for b in range(n):
        sx = 10.0 ** draw(st.floats(-6.0, 1.2))
        sy = 10.0 ** draw(st.floats(-3.0, 1.2))
        rho = draw(st.sampled_from([-1.0, 1.0])) * (1.0 - 10.0 ** draw(st.floats(-12.0, 0.0)))
        Sigma[b] = [[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]]
    return mu, Sigma


def lattice_axis(draw, size):
    """An ascending lattice of finite points, with or without +-inf ends."""
    pts = sorted(draw(st.lists(st.floats(-30.0, 30.0), min_size=size[0], max_size=size[1])))
    lo = [-INF] if draw(st.booleans()) else []
    hi = [INF] if draw(st.booleans()) else []
    return np.array(lo + pts + hi)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stacked_bvn_lattice_equals_the_per_law_calls(data):
    n = data.draw(st.integers(1, 6))
    mu, Sigma = bivariate_laws(data.draw, n)
    xs = lattice_axis(data.draw, (0, 40))
    ys = lattice_axis(data.draw, (0, 5))
    stacked = bvn_cdf_lattice(mu, Sigma, xs, ys)
    assert stacked.shape == (n, xs.size, ys.size)
    for b in range(n):
        T = bvn_cdf_lattice(mu[b], Sigma[b], xs, ys)
        assert stacked[b].tobytes() == T.tobytes()
        # a CDF: nondecreasing along both axes, in [0, 1] up to the
        # integration error (at most ~1e-12 above 1, where sd(X) is far
        # below the lattice spacing)
        assert np.all(np.diff(T, axis=0) >= 0) and np.all(np.diff(T, axis=1) >= 0)
        assert np.all(T >= 0.0) and np.all(T <= 1.0 + 1e-10)
        if xs.size and xs[0] == -INF:
            assert np.all(T[0] == 0.0)
        if ys.size and ys[0] == -INF:
            assert np.all(T[:, 0] == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bvn_lattice_node_rule_matches_the_24_node_oracle(data):
    # laws with |rho| up to 1 - 1e-7 and sd 0.3-10: the floor binds for
    # |rho| above about 0.99988, independent of the sds
    n = data.draw(st.integers(1, 6))
    mu = np.array([[data.draw(st.floats(-20.0, 20.0)) for _ in range(2)] for _ in range(n)])
    Sigma = np.empty((n, 2, 2))
    floored = np.empty(n, bool)
    for b in range(n):
        sx, sy = (data.draw(st.floats(0.3, 10.0)) for _ in range(2))
        gap = 10.0 ** data.draw(st.floats(-7.0, 0.0))
        rho = data.draw(st.sampled_from([-1.0, 1.0])) * (1.0 - gap)
        Sigma[b] = [[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]]
        floored[b] = gap < 5e-5
        assume(gap < 5e-5 or gap > 2e-4)  # clear of the floor's border
    xs = lattice_axis(data.draw, (0, 40))
    ys = lattice_axis(data.draw, (0, 5))
    T = bvn_cdf_lattice(mu, Sigma, xs, ys)
    want = bvn_cdf_lattice_24(mu, Sigma, xs, ys)
    assert np.all(np.abs(T - want) <= 1e-14)
    assert T[floored].tobytes() == want[floored].tobytes()
    assert np.all(np.diff(T, axis=1) >= 0) and np.all(np.diff(T, axis=2) >= 0)
    assert np.all(T >= 0.0) and np.all(T <= 1.0 + 1e-10)


def test_stacked_bvn_lattice_runs_in_chunks(monkeypatch):
    # chunks of whole laws, one law where a single law exceeds the budget;
    # the last two laws are floored (|rho| > 0.9999) and keep the 24-node
    # rule, the others take 12 nodes
    mu = np.array([[0.0, 0.0], [1.0, -1.0], [-2.0, 0.5], [0.5, 0.2], [-1.0, 3.0]])
    Sigma = np.array([
        [[4.0, 1.9], [1.9, 1.0]],
        [[1.0, -0.99], [-0.99, 1.0]],
        [[9.0, 0.0], [0.0, 2.0]],
        [[4.0, 0.99999 * 6.0], [0.99999 * 6.0, 9.0]],
        [[0.25, -0.9999999 * 1.5], [-0.9999999 * 1.5, 9.0]],
    ])
    xs = np.concatenate(([-INF], np.arange(-10.0, 10.125, 0.25), [INF]))
    ys = np.array([-INF, -2.0, 2.0, INF])
    whole = bvn_cdf_lattice(mu, Sigma, xs, ys)
    oracle = bvn_cdf_lattice_24(mu, Sigma, xs, ys)
    assert whole[3:].tobytes() == oracle[3:].tobytes()
    assert np.any(whole[:3] != oracle[:3])
    assert np.abs(whole - oracle).max() <= 1e-14
    for chunk in (1, 10_000, 1 << 30):
        monkeypatch.setattr(gaussian, "_LATTICE_CHUNK", chunk)
        assert bvn_cdf_lattice(mu, Sigma, xs, ys).tobytes() == whole.tobytes()
        for order in ([4, 0, 3, 1, 2], [3], [1]):
            part = bvn_cdf_lattice(mu[order], Sigma[order], xs, ys)
            assert part.tobytes() == whole[order].tobytes()
    assert bvn_cdf_lattice(mu[:0], Sigma[:0], xs, ys).shape == (0, xs.size, ys.size)
    with pytest.raises(ConfigurationError):
        bvn_cdf_lattice(mu, Sigma[:2], xs, ys)


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


# --- PSD guard ---------------------------------------------------------------


def test_check_psd_flags_indefinite_matrix():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(Exception):
        check_psd(bad, "unit test")
    check_psd(np.eye(3))


def psd_raises(check, Sigma):
    try:
        check(Sigma, "unit test")
    except NumericalConsistencyError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-30])))
def test_check_psd_decides_1x1_exactly_as_eigvalsh(a):
    Sigma = np.array([[a]])
    assert psd_raises(check_psd, Sigma) == psd_raises(check_psd_eigvalsh, Sigma)


def rotated(lam, c, theta):
    """(a, b, d) of the 2x2 matrix with eigenvalues lam and -c * 1e-8 * lam
    rotated by theta: for c near 1 its smallest eigenvalue lies next to the
    tolerance -1e-8 * trace, on either side."""
    mu = -c * 1e-8 * lam
    cs, sn = math.cos(theta), math.sin(theta)
    return lam * cs * cs + mu * sn * sn, (lam - mu) * cs * sn, lam * sn * sn + mu * cs * cs


NEAR_TOLERANCE = st.builds(
    rotated, st.floats(1e-3, 1e3), st.floats(0.0, 2.0), st.floats(0.0, math.pi)
)


@settings(max_examples=500, deadline=None)
@given(abd=st.one_of(st.tuples(*[st.floats(-1e3, 1e3)] * 3), NEAR_TOLERANCE))
def test_check_psd_decides_2x2_in_closed_form_as_eigvalsh(abd):
    # the closed form and LAPACK round differently; away from a 1e-12 * trace
    # band around the tolerance they must agree
    a, b, d = abd
    Sigma = np.array([[a, b], [b, d]])
    eigmin = float(np.linalg.eigvalsh(Sigma).min())
    tol = 1e-8 * max(a + d, 0.0)
    assume(abs(eigmin + tol) > 1e-12 * abs(a + d))
    assert psd_raises(check_psd, Sigma) == psd_raises(check_psd_eigvalsh, Sigma)


def test_check_psd_keeps_its_error_at_every_size():
    for Sigma in ([[-1.0]], [[1.0, 2.0], [2.0, 1.0]], np.diag([1.0, 1.0, -1.0])):
        with pytest.raises(NumericalConsistencyError, match="event covariance is not PSD"):
            check_psd(np.array(Sigma), "event covariance")
    for Sigma in (np.zeros((0, 0)), [[0.0]], [[1.0, 1.0], [1.0, 1.0]], np.eye(3)):
        check_psd(np.array(Sigma))


EDGE = st.one_of(st.just(None), st.floats(-3.0, 3.0))


@st.composite
def one_sided_boxes(draw):
    """A 1-3 dim Gaussian box, each edge infinite (None) or finite in units of
    its coordinate's sd."""
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k, k))
    Sigma = A @ A.T + draw(st.sampled_from([1e-6, 1e-2, 1.0])) * np.eye(k)
    mu = rng.normal(size=k) * 5.0
    sd = np.sqrt(np.diag(Sigma))
    lo, hi = [], []
    for i in range(k):
        a, b = draw(EDGE), draw(EDGE)
        if a is not None and b is not None:
            a, b = min(a, b), max(a, b) + 0.01
        lo.append(-INF if a is None else mu[i] + sd[i] * a)
        hi.append(INF if b is None else mu[i] + sd[i] * b)
    return mu, Sigma, lo, hi


@settings(max_examples=150, deadline=None)
@given(box=one_sided_boxes())
def test_one_sided_boxes_equal_the_two_cdf_difference_bit_for_bit(box):
    mu, Sigma, lo, hi = box
    gv = make_gv(mu, Sigma)
    ev = box_event(gv.labels, lo, hi)
    got = exact_prob(gv, ev)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "_interval_prob", interval_prob_two_cdf)
        want = exact_prob(gv, ev)
    assert same_bits(got.estimate, want.estimate)
    assert (got.method, got.stderr) == (want.method, want.stderr)


def test_subset_checks_labels_and_equals_the_validated_construction():
    rng = np.random.default_rng(7)
    labels = [("y", 2), ("y", 3), ("p", 0, 3), ("p", 1, 3), ("y", 4)]
    a = rng.normal(size=(5, 5))
    Sigma = a @ a.T
    Sigma[0, 1] += 1e-15  # the parent symmetrises an off-by-a-bit input
    gv = GaussianVector(rng.normal(size=5), Sigma, labels)
    for pick in ([4, 0, 2], [1], [3, 2, 1, 0, 4], []):
        want = [labels[i] for i in pick]
        # labels normalise as in the constructor: numpy integers become ints
        sub = gv.subset([(l[0], *map(np.int64, l[1:])) for l in want])
        ref = GaussianVector(gv.mu[pick], gv.Sigma[np.ix_(pick, pick)], want)
        assert sub.labels == ref.labels
        for got, exp in ((sub.mu, ref.mu), (sub.Sigma, ref.Sigma)):
            assert (got.dtype, got.shape) == (exp.dtype, exp.shape)
            assert got.tobytes() == exp.tobytes()
    with pytest.raises(ConfigurationError, match="not in vector"):
        gv.subset([("y", 2), ("y", 9)])
    with pytest.raises(ConfigurationError, match="distinct"):
        gv.subset([("y", 3), ("p", 0, 3), ("y", 3)])
    with pytest.raises(ConfigurationError, match="bad coordinate label"):
        gv.subset([("q", 3)])



def test_known_labels_resolve_without_normalising(monkeypatch):
    # labels already in the vector are looked up as given; any other label
    # is normalised as before and resolves or raises as before
    labels = [("y", 2), ("y", 3), ("p", 0, 3)]
    gv = GaussianVector(np.arange(3.0), np.eye(3), labels)
    seen = []
    as_label = gaussian._as_label
    monkeypatch.setattr(gaussian, "_as_label", lambda l: seen.append(l) or as_label(l))
    assert gv.positions([("p", 0, 3), ("y", 2)]).tolist() == [2, 0]
    assert gv.subset([("y", 3), ("p", 0, 3)]).labels == (("y", 3), ("p", 0, 3))
    assert seen == []
    odd = [("y", np.int64(3)), ("p", 0.0, 3), ("y", 2.5)]  # 2.5 truncates to 2
    assert gv.positions(odd).tolist() == [1, 2, 0]
    sub = gv.subset(l for l in odd)
    assert sub.labels == (("y", 3), ("p", 0, 3), ("y", 2))
    assert all(type(i) is int for l in sub.labels for i in l[1:])
    assert sub.mu.tolist() == [1.0, 2.0, 0.0]
    for bad in ([["y", 2]], [("y",)], [("q", 2)], [("y", 9)]):
        with pytest.raises(ConfigurationError):
            gv.positions(bad)
        with pytest.raises(ConfigurationError):
            gv.subset(bad)
    with pytest.raises(ConfigurationError, match="distinct"):
        gv.subset([("y", 2), ("y", 2.0)])


def test_match_event_reads_a_joint_in_event_order_as_it_is():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 3))
    gv = GaussianVector(rng.normal(size=3), a @ a.T, [("y", 1), ("y", 2), ("p", 1, 2)])
    ev = EventSpec(((("p", 1, 2), -INF, 0.5), (("y", 1), -1.0, 1.0)))
    joint = gv.subset(ev.labels)
    mu, Sigma, lo, hi = _match_event(joint, ev)
    assert mu is joint.mu and Sigma is joint.Sigma
    assert lo.tolist() == [-INF, -1.0] and hi.tolist() == [0.5, 1.0]
    for got, want in zip(_match_event(gv, ev), (mu, Sigma, lo, hi)):
        assert got.tobytes() == want.tobytes()


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
    # windows inside the trace, and windows reaching back past sample 0
    for n_w, mode in ((4, "avg"), (9, "ls"), (200, "ls")):
        d, t0, t1 = two_cell_tables(n_w=n_w, mode=mode)
        stats = y_stats(t0, t1, (ch, ch), d, 6.24, y_times=[5, 12], p_times=[(0, 12)])
        assert stats.labels == (("y", 5), ("y", 12), ("p", 0, 12))
        pl0, pl1 = table_estimates(np.stack([t0, t1]), path_loss(ch, d)[None])[0]
        assert stats.mu[0] == pytest.approx(pl0[5] - pl1[5], rel=1e-12)
        assert stats.mu[1] == pytest.approx(pl0[12] - pl1[12], rel=1e-12)
        assert stats.mu[2] == pytest.approx(path_loss(ch, d[0, 12]), rel=1e-12)


def test_y_stats_covariance_matches_simulation():
    ch = ChannelParams(intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0)
    d, t0, t1 = two_cell_tables()
    stats = y_stats(t0, t1, (ch, ch), d, 6.24, y_times=[8, 9], p_times=[(1, 9)])
    rng = np.random.default_rng(41)
    trials = 60_000
    powers = draw_powers((ch, ch), d, 6.24, rng, n_trials=trials)
    est = table_estimates(np.stack([t0, t1]), powers)
    y = est[:, 0, :] - est[:, 1, :]
    cols = np.column_stack([y[:, 8], y[:, 9], powers[:, 1, 9]])
    emp_mu = cols.mean(axis=0)
    emp_cov = np.cov(cols.T)
    np.testing.assert_allclose(emp_mu, stats.mu, atol=0.15)
    se = np.abs(stats.Sigma) * math.sqrt(2.0 / (trials - 1)) + 0.02
    np.testing.assert_array_less(np.abs(emp_cov - stats.Sigma), 4.0 * se)


def test_gap_process_prob_against_scipy():
    ch = ChannelParams(intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0)
    d, t0, t1 = two_cell_tables()
    proc = GapProcess(t0, t1, (ch, ch), d, 6.24, overlap=12)
    assert proc.n_samples == 30
    ev = EventSpec((gap_below(10, 2.0), gap_inside(11, 2.0)))
    gv = proc.joint(ev.labels)
    r = exact_prob(gv, ev)
    want = scipy_box(gv.mu, gv.Sigma, [-INF, -2.0], [-2.0, 2.0])
    assert r.estimate == pytest.approx(want, abs=1e-7)


def test_block_stats_rejects_windows_that_are_not_psd(monkeypatch):
    # the block law is built unchecked; each window sliced from it is
    # checked, so only the windows that hold its indefinite pair fail
    real_y_stats = gaussian.y_stats

    def indefinite_y_stats(*args, **kwargs):
        gv = real_y_stats(*args, **kwargs)
        i, j = gv.positions([("y", 70), ("y", 71)])
        Sigma = gv.Sigma.copy()
        Sigma[i, j] = Sigma[j, i] = 2.0 * math.sqrt(Sigma[i, i] * Sigma[j, j])
        return GaussianVector(gv.mu, Sigma, gv.labels)

    monkeypatch.setattr(gaussian, "y_stats", indefinite_y_stats)
    ch = ChannelParams(intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0)
    d, t0, t1 = two_cell_tables(n=100)
    proc = GapProcess(t0, t1, (ch, ch), d, 6.24, overlap=12)
    assert proc.block_stats([69, 70], [(0, 71)]).mu.shape == (3,)
    with pytest.raises(NumericalConsistencyError, match="not PSD"):
        proc.block_stats([69, 70, 71])


def test_joint_laws_are_slices_of_the_two_block_laws_built_last(monkeypatch):
    # 150 samples hold blocks 0, 1 and 2; at overlap 5 block 1 spans
    # samples 64..132. A joint is the block law of its earliest sample,
    # sliced, and the two blocks built last are kept.
    real_y_stats = gaussian.y_stats
    built = []
    monkeypatch.setattr(
        gaussian, "y_stats", lambda *a, **k: built.append(a[5][0]) or real_y_stats(*a, **k)
    )
    ch = ChannelParams(intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0)
    d, t0, t1 = two_cell_tables(n=150)
    proc = GapProcess(t0, t1, (ch, ch), d, 6.24, overlap=5)
    labels = [("y", 66), ("p", 1, 69), ("y", 64)]
    gv = proc.joint(labels)
    ts = range(64, 133)
    block = real_y_stats(t0, t1, (ch, ch), d, 6.24, ts, [(s, t) for t in ts for s in (0, 1)])
    want = block.subset(labels)
    assert gv.labels == want.labels == tuple(labels)
    assert gv.mu.tobytes() == want.mu.tobytes()
    assert gv.Sigma.tobytes() == want.Sigma.tobytes()
    # the per-label-set law differs in the last bits at most
    fresh = real_y_stats(t0, t1, (ch, ch), d, 6.24, [66, 64], [(1, 69)]).subset(labels)
    np.testing.assert_allclose(gv.Sigma, fresh.Sigma, rtol=1e-14)
    assert built == [64]
    proc.joint([("y", 60), ("p", 0, 68)])  # block 0 reaches sample 68
    proc.joint([("y", 100)])
    assert built == [64, 0]
    proc.joint([("y", 130)])  # block 2 drops block 1, the older of the two
    proc.joint([("y", 10)])
    proc.joint([("y", 70)])
    assert built == [64, 0, 128, 64]
    for bad in ([("y", 60), ("y", 69)], [("y", 150)], [("y", -1)], [], [("p", 2, 70)]):
        with pytest.raises(ConfigurationError):
            proc.joint(bad)
    for overlap in (-1, 65, 1.5, True, None):
        with pytest.raises(ConfigurationError, match="overlap"):
            GapProcess(t0, t1, (ch, ch), d, 6.24, overlap=overlap)


def test_y_stats_rejects_mismatched_tables():
    ch = ChannelParams()
    d, t0, t1 = two_cell_tables()
    with pytest.raises(ConfigurationError):
        y_stats(t0[:10], t1, (ch, ch), d, 6.24, y_times=[3])
    with pytest.raises(ConfigurationError):
        y_stats(t0, t1, (ch, ch), d, 6.24, y_times=[40])


# --- box-probability invariants ----------------------------------------------


@st.composite
def split_boxes(draw):
    """A 1-3 dim Gaussian with positive definite covariance, a box, and an
    interior point c of one coordinate's interval."""
    k = draw(st.integers(1, 3))
    unit = st.floats(-2.0, 2.0)
    A = np.array(draw(st.lists(unit, min_size=k * k, max_size=k * k))).reshape(k, k)
    mu = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)))
    centers = draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
    half = st.one_of(st.just(INF), st.floats(0.05, 6.0))
    lows = [c - draw(half) for c in centers]
    highs = [c + draw(half) for c in centers]
    gv = make_gv(mu, A @ A.T + 0.25 * np.eye(k))
    return gv, lows, highs, draw(st.integers(0, k - 1)), centers


@settings(max_examples=120, deadline=None, derandomize=True)
@given(split_boxes())
def test_exact_prob_is_a_probability_and_additive_over_a_split(case):
    gv, lows, highs, j, centers = case
    whole = exact_prob(gv, box_event(gv.labels, lows, highs)).estimate
    assert 0.0 <= whole <= 1.0
    below, above = list(highs), list(lows)
    below[j] = above[j] = centers[j]
    left = exact_prob(gv, box_event(gv.labels, lows, below)).estimate
    right = exact_prob(gv, box_event(gv.labels, above, highs)).estimate
    assert left + right == pytest.approx(whole, abs=1e-10)


@st.composite
def near_singular_boxes(draw):
    """A 3-dim Gaussian x = mu + B z, B lower triangular with diagonal down
    to 1e-3 (condition number up to 1e10), and a box."""
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9))
    B = np.tril(np.array(entries).reshape(3, 3))
    B[np.diag_indices(3)] = [10.0 ** draw(st.floats(-3.0, 0.0)) for _ in range(3)]
    Sigma = B @ B.T
    eig = np.linalg.eigvalsh(Sigma)
    assume(eig[0] >= 1e-10 * eig[-1])
    sd = np.sqrt(np.diag(Sigma))
    mu = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    lo = mu + sd * np.array(draw(st.lists(st.floats(-3.0, 1.0), min_size=3, max_size=3)))
    hi = lo + sd * np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3)))
    for bound, side in ((lo, -INF), (hi, INF)):
        bound[np.array(draw(st.lists(st.booleans(), min_size=3, max_size=3)))] = side
    return mu, Sigma, lo, hi


@settings(max_examples=40, deadline=None, derandomize=True)
@given(near_singular_boxes())
def test_quad_dim3_does_not_depend_on_the_coordinate_order(case):
    # each order puts the steps of the conditional CDFs in other places
    import itertools

    mu, Sigma, lo, hi = case
    values = [
        quad3(mu[p], Sigma[np.ix_(p, p)], lo[p], hi[p])
        for p in map(list, itertools.permutations(range(3)))
    ]
    assert max(values) - min(values) <= 1e-10


def test_quad_dim3_pivots_a_middle_coordinate_fixed_by_the_first():
    # x1 = mu1 + 1.22 z0 + 2.2e-7 z1: given x0, x1 is fixed to within a few
    # hundred ulps of its variance. Factored in this order, l21 picks up a
    # relative error of ~0.5%, and unpivoted orders differed by 1.7e-3.
    import itertools

    B = np.array([
        [0.58132516793195799, 0.0, 0.0],
        [1.2212210127754139, 2.2139939963883098e-07, 0.0],
        [0.64298729624526574, -0.81998065433033307, 0.015138977989595173],
    ])
    Sigma = B @ B.T
    mu = np.array([0.6322085327513304, 0.16194570514110068, -0.04425327528257564])
    lo = np.array([-0.10761599795185062, -1.550246477565081, -0.7214816757727838])
    hi = np.array([2.0671291302605925, 1.0863508296156503, 0.32119711711418486])
    values = [
        quad3(mu[p], Sigma[np.ix_(p, p)], lo[p], hi[p])
        for p in map(list, itertools.permutations(range(3)))
    ]
    assert max(values) - min(values) <= 1e-10
    # nested adaptive quad in z coordinates, where B is exact
    assert values[0] == pytest.approx(0.296288715889212, abs=1e-10)
