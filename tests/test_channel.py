"""Channel model: log-distance path loss and AR(1) shadowing."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handopt.channel import (
    _DRAW_BLOCK,
    ChannelParams,
    path_loss,
    sample_power,
    trial_generators,
)
from handopt.errors import ConfigurationError
from oracles import draw_powers, trial_powers

VEHICULAR = ChannelParams(
    intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0, coherence_m=20.0
)
STEP = 6.24


def sample_shadowing(params, n_samples, step_m, rng, n_trials=None):
    """One link's stationary AR(1) shadowing, shape [n_samples] or
    [n_trials, n_samples], drawn and filtered by sample_power: a zero mean
    path loss, and every trial drawing from rng in turn."""
    n_tr = 1 if n_trials is None else int(n_trials)
    flat = replace(params, intercept_db=0.0, slope_db=0.0)
    x = sample_power((flat,), np.ones((1, n_samples)), step_m, [rng] * n_tr)
    out = np.ascontiguousarray(x[:, 0].T)
    return out[0] if n_trials is None else out


def test_path_loss_reference_point():
    # 35 dB/decade at 1200 m; value frozen from independent arithmetic
    assert path_loss(VEHICULAR, 1200.0) == pytest.approx(
        -107.77134361166686, rel=1e-13
    )
    shifted = ChannelParams(intercept_db=30.0, slope_db=35.0)
    assert path_loss(shifted, 1200.0) == pytest.approx(
        30.0 - 107.77134361166686, rel=1e-13
    )


def test_path_loss_vectorizes():
    d = np.array([10.0, 100.0, 1000.0])
    out = path_loss(VEHICULAR, d)
    assert out.shape == (3,)
    assert out[1] - out[0] == pytest.approx(-35.0, rel=1e-12)
    assert out[2] - out[1] == pytest.approx(-35.0, rel=1e-12)
    assert isinstance(path_loss(VEHICULAR, 50.0), float)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ConfigurationError):
        path_loss(VEHICULAR, 0.0)
    with pytest.raises(ConfigurationError):
        path_loss(VEHICULAR, np.array([10.0, -1.0]))


def test_channel_params_validation():
    with pytest.raises(ConfigurationError):
        ChannelParams(shadow_sigma_db=-1.0)
    with pytest.raises(ConfigurationError):
        ChannelParams(coherence_m=0.0)
    with pytest.raises(ConfigurationError):
        ChannelParams(slope_db=math.inf)
    with pytest.raises(ConfigurationError):
        VEHICULAR.ar_coeff(0.0)


def test_ar_coeff_reference_value():
    assert VEHICULAR.ar_coeff(STEP) == pytest.approx(0.7319815282283126, rel=1e-14)


def test_sample_shadowing_stationary_moments():
    rng = np.random.default_rng(71)
    n, trials = 24, 40_000
    u = sample_shadowing(VEHICULAR, n, STEP, rng, n_trials=trials)
    assert u.shape == (trials, n)
    assert abs(u.mean()) < 0.1

    var = u.var(axis=0, ddof=1)
    se_var = 36.0 * math.sqrt(2.0 / (trials - 1))
    assert np.all(np.abs(var - 36.0) < 4.0 * se_var)

    prod = u[:, :-1] * u[:, 1:]
    cov1 = prod.mean()
    se_cov = prod.mean(axis=1).std(ddof=1) / math.sqrt(trials)
    a = VEHICULAR.ar_coeff(STEP)
    assert abs(cov1 - 36.0 * a) < 4.0 * se_cov


def test_sample_shadowing_zero_sigma_and_shapes():
    quiet = ChannelParams(shadow_sigma_db=0.0)
    rng = np.random.default_rng(0)
    u = sample_shadowing(quiet, 7, STEP, rng)
    assert u.shape == (7,)
    assert np.all(u == 0.0)
    with pytest.raises(ConfigurationError):
        sample_shadowing(VEHICULAR, 0, STEP, rng)


def test_sample_shadowing_seed_determinism():
    a = sample_shadowing(VEHICULAR, 16, STEP, np.random.default_rng(5), n_trials=3)
    b = sample_shadowing(VEHICULAR, 16, STEP, np.random.default_rng(5), n_trials=3)
    np.testing.assert_array_equal(a, b)


def test_sample_power_mean_and_shapes():
    quiet = ChannelParams(intercept_db=10.0, slope_db=35.0, shadow_sigma_db=0.0)
    d = np.array([[100.0, 200.0, 400.0], [400.0, 200.0, 100.0]])
    rng = np.random.default_rng(1)
    trace = sample_power((quiet, quiet), d, STEP, [rng])
    assert trace.shape == (3, 2, 1)
    np.testing.assert_allclose(
        trace[:, :, 0], np.stack([path_loss(quiet, d[0]), path_loss(quiet, d[1])], axis=1)
    )
    batch = sample_power((quiet, quiet), d, STEP, [rng] * 5)
    assert batch.shape == (3, 2, 5)


def test_sample_power_validates_distance_shape():
    rng = np.random.default_rng(2)
    with pytest.raises(ConfigurationError):
        sample_power((VEHICULAR,), np.ones((2, 4)), STEP, [rng])


def test_sample_shadowing_matches_an_ar1_filter_bit_for_bit():
    # the recursion x[:, k] += a x[:, k-1] performs the same two
    # roundings per sample as lfilter([1], [1, -a])
    from scipy.signal import lfilter

    for coherence in (3.0, 20.0, 137.0, 1000.0):
        ch = ChannelParams(shadow_sigma_db=7.5, coherence_m=coherence)
        a = ch.ar_coeff(STEP)
        got = sample_shadowing(ch, 300, STEP, np.random.default_rng(9), n_trials=4)
        w = np.random.default_rng(9).standard_normal((4, 300))
        x = w * (7.5 * math.sqrt(1.0 - a * a))
        x[:, 0] = w[:, 0] * 7.5
        np.testing.assert_array_equal(got, lfilter([1.0], [1.0, -a], x, axis=-1))


def test_batched_sample_power_equals_per_trial_calls():
    channels = (
        ChannelParams(shadow_sigma_db=6.0, coherence_m=20.0),
        ChannelParams(shadow_sigma_db=0.0, coherence_m=50.0),
        ChannelParams(intercept_db=3.0, shadow_sigma_db=8.0, coherence_m=3.0),
        ChannelParams(shadow_sigma_db=4.0, coherence_m=1000.0),
    )
    d = np.stack([np.linspace(50.0 + 100 * s, 1500.0 - 90 * s, 57) for s in range(4)])
    seeds = [np.random.SeedSequence([17, t]) for t in range(6)]
    batch = sample_power(channels, d, STEP, [np.random.default_rng(s) for s in seeds])
    assert batch.shape == (57, 4, 6)
    assert batch.flags.c_contiguous
    batch = batch.transpose(2, 1, 0)
    for t, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        single = draw_powers(channels, d, STEP, rng)
        np.testing.assert_array_equal(batch[t], single)
        # the zero-sigma link draws nothing: three links of 57 draws each
        after = np.random.default_rng(s)
        after.standard_normal(3 * 57)
        assert rng.standard_normal() == after.standard_normal()
    quiet = np.broadcast_to(path_loss(channels[1], d[1]), (6, 57))
    np.testing.assert_array_equal(batch[:, 1], quiet)


@settings(max_examples=60)
@given(
    prefix=st.lists(st.integers(0, 2**70 - 1), min_size=1, max_size=4),
    t0=st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)),
    n=st.integers(0, 6),
)
def test_trial_generators_equal_per_trial_seed_sequences(prefix, t0, n):
    # a prefix int below 2**70 takes up to three 32-bit words, so with the
    # trial word the entropy often runs past SeedSequence's 4-word pool
    t1 = min(t0 + n, 2**32)
    gens = list(trial_generators(prefix, t0, t1))
    assert len(gens) == t1 - t0
    for t, g in zip(range(t0, t1), gens):
        oracle = np.random.default_rng(np.random.SeedSequence(list(prefix) + [t]))
        np.testing.assert_array_equal(
            g.standard_normal((2, 17)), oracle.standard_normal((2, 17))
        )


def test_trial_generators_reject_indices_past_one_word(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(np.random, "PCG64", refuse)
    for t0, t1 in ((2**32 - 1, 2**32 + 1), (2**32, 2**32 + 3), (-1, 2)):
        with pytest.raises(ConfigurationError):
            trial_generators([3], t0, t1)
    with pytest.raises(ConfigurationError):
        trial_generators([-1], 0, 2)


def test_a_chunk_holds_at_most_one_draw_block_of_generators(monkeypatch):
    # trial_generators hashes the seed words of every trial up front and
    # builds each Generator when sample_power's draw loop reaches its trial
    class Counted(np.random.PCG64):
        built = live = peak = 0

        def __init__(self, seed):
            super().__init__(seed)
            Counted.built += 1
            Counted.live += 1
            Counted.peak = max(Counted.peak, Counted.live)
            weakref.finalize(self, Counted.release)

        @staticmethod
        def release():
            Counted.live -= 1

    monkeypatch.setattr(np.random, "PCG64", Counted)
    channels = (VEHICULAR, ChannelParams(shadow_sigma_db=0.0), VEHICULAR)
    d = np.stack([np.linspace(100.0, 900.0, 40), np.full(40, 500.0), np.linspace(900, 100, 40)])
    gens = trial_generators([7, 1], 3, 103)
    assert Counted.built == 0
    x = sample_power(channels, d, STEP, gens, np.empty((40, 3, 100)))
    assert Counted.built == 100
    assert 1 <= Counted.peak <= _DRAW_BLOCK
    monkeypatch.undo()
    want = trial_powers(channels, d, STEP, [7, 1], 3, 103)
    assert x.transpose(2, 1, 0).tobytes() == want.tobytes()


def test_sample_power_fills_the_front_of_a_reused_buffer():
    # a smaller call after a larger one writes the front of the same buffer;
    # the rows of a link without shadowing hold its mean, not the values a
    # shadowed link left there
    channels = (VEHICULAR, ChannelParams(shadow_sigma_db=0.0))
    d = np.stack([np.linspace(100.0, 900.0, 30), np.linspace(900.0, 100.0, 30)])
    buf = np.empty(30 * 2 * 9)
    full = buf.reshape(30, 2, 9)
    sample_power(channels[::-1], d[::-1], STEP, trial_generators([2], 0, 9), full)
    front = buf[: 30 * 2 * 5].reshape(30, 2, 5)
    x = sample_power(channels, d, STEP, trial_generators([2], 9, 14), front)
    assert x is front
    assert x.transpose(2, 1, 0).tobytes() == trial_powers(channels, d, STEP, [2], 9, 14).tobytes()


def test_sample_power_checks_its_generators_and_buffer():
    channels = (VEHICULAR, VEHICULAR)
    d = np.full((2, 12), 300.0)
    with pytest.raises(ConfigurationError):
        sample_power(channels, d, STEP, trial_generators([2], 0, 3), np.empty((12, 2, 4)))
    with pytest.raises(ConfigurationError):
        sample_power(channels, d, STEP, trial_generators([2], 0, 3), np.empty((12, 3, 3)))
