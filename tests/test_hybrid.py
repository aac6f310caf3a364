"""The hysteresis decision rule: scalar spec and series form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handopt.errors import ConfigurationError
from handopt.hybrid import serving_series
from oracles import two_cell_decisions


def decide(b_prev: int, y: float, h: float) -> int:
    """The paper's scalar hysteresis comparison, the oracle of serving_series
    on two cells: the connected BS indicator b(n) from b(n-1), y(n) and h(n)."""
    if h < 0.0:
        raise ConfigurationError("h must be nonnegative")
    if b_prev not in (0, 1):
        raise ConfigurationError("b_prev must be 0 or 1")
    if y < -h:
        return 1
    if y < h and b_prev == 1:
        return 1
    return 0


def test_decide_core_regions():
    assert decide(0, -3.0, 2.0) == 1  # strong side: always BS1
    assert decide(1, -3.0, 2.0) == 1
    assert decide(0, 3.0, 2.0) == 0  # weak side: always BS0
    assert decide(1, 3.0, 2.0) == 0
    assert decide(0, 0.5, 2.0) == 0  # dead zone keeps previous
    assert decide(1, 0.5, 2.0) == 1


def test_decide_tie_conventions():
    # y exactly at +h releases to BS0 even from BS1
    assert decide(1, 2.0, 2.0) == 0
    assert decide(0, 2.0, 2.0) == 0
    # y exactly at -h is inside the keep region, not the switch region
    assert decide(0, -2.0, 2.0) == 0
    assert decide(1, -2.0, 2.0) == 1


def test_decide_validation():
    with pytest.raises(ConfigurationError):
        decide(0, 1.0, -0.5)
    with pytest.raises(ConfigurationError):
        decide(2, 1.0, 0.5)


def scalar_loop(y, h_tab, b_init):
    """b(n) of the [N, T] gaps y by the scalar rule, margin h_tab[n, b(n-1)]."""
    out = np.empty(y.shape, dtype=np.int8)
    for t in range(y.shape[1]):
        prev = b_init
        for i in range(y.shape[0]):
            prev = decide(prev, y[i, t], h_tab[i, prev])
            out[i, t] = prev
    return out


def gap_decisions(y, h, b_init=0):
    """b(n) of the [N, T] gaps y as serving_series decides the [N, 2, T]
    estimates [y, 0]."""
    return two_cell_decisions(np.stack([y, np.zeros_like(y)], axis=1), h, b_init)


def test_decide_series_matches_scalar_loop():
    rng = np.random.default_rng(7)
    y = rng.normal(scale=4.0, size=(30, 50))
    h = rng.uniform(0.0, 3.0, size=30)
    got = gap_decisions(y, h, b_init=1)
    np.testing.assert_array_equal(got, scalar_loop(y, np.stack([h, h], axis=1), 1))
    # a state-dependent table: column b(n-1) holds the margin in force
    table = rng.uniform(0.0, 3.0, size=(30, 2))
    table[::7] = 0.0
    for b_init in (0, 1):
        got = gap_decisions(y, table, b_init=b_init)
        assert got.dtype == np.int16
        np.testing.assert_array_equal(got, scalar_loop(y, table, b_init))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 5),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
def test_decide_series_equals_the_scalar_rule_on_random_tables(n, trials, b_init, seed):
    rng = np.random.default_rng(seed)
    # margins and gaps on a coarse grid so ties y = +-h occur often; a few
    # gaps are NaN or infinite, which the scalar rule sends to BS0 (NaN,
    # +inf) or BS1 (-inf)
    table = rng.integers(0, 4, size=(n, 2)) * 0.5
    y = rng.integers(-8, 9, size=(n, trials)) * 0.5
    odd = rng.random(y.shape)
    y[odd < 0.15] = rng.choice([np.nan, np.inf, -np.inf], size=np.count_nonzero(odd < 0.15))
    with np.errstate(invalid="ignore"):
        got = gap_decisions(y, table, b_init)
    np.testing.assert_array_equal(got, scalar_loop(y, table, b_init))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 5),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
def test_cell_recursion_on_two_cells_is_the_paper_rule(n, trials, b_init, seed):
    # the cell-row recursion on two cells' estimates, against the paper's
    # rule on their gap; a half-dB grid puts y on +-h and h on 0 often
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 4, size=(n, 2)) * 0.5
    est = rng.integers(-6, 7, size=(n, 2, trials)) * 0.5
    pair = np.repeat([[0], [1]], n, axis=1)
    # the fallback margin never applies: the serving cell is always in the pair
    got = serving_series(est, table, pair, b_init, 100.0)
    y = est[:, 0] - est[:, 1]
    np.testing.assert_array_equal(got, gap_decisions(y, table, b_init))
    np.testing.assert_array_equal(got, scalar_loop(y, table, b_init))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 4),
    st.integers(2, 5),
    st.lists(st.integers(1, 29), max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_serving_series_resumes_at_any_split(n, trials, n_bs, cuts, seed):
    # a trace split at random samples, each piece decided from the serving
    # cells the piece before left, is the one-shot series; half-dB
    # estimates tie often, zero-margin rows and asymmetric [N, 2] tables
    # test every tie, and the pair changes along the trace so the margin
    # at a split reads the pair of the sample before it
    rng = np.random.default_rng(seed)
    est = rng.integers(-6, 7, size=(n, n_bs, trials)) * 0.5
    table = rng.integers(0, 4, size=(n, 2)) * 0.5
    table[rng.random(n) < 0.3] = 0.0
    first = rng.integers(0, n_bs, size=n)
    pair = np.stack([first, (first + rng.integers(1, n_bs, size=n)) % n_bs])
    init = int(rng.integers(0, n_bs))
    h_fallback = float(rng.integers(0, 4)) * 0.5
    want = serving_series(est, table, pair, init, h_fallback)
    bounds = [0, *sorted({c for c in cuts if c < n}), n]
    serving, pieces = init, []
    for n0, n1 in zip(bounds[:-1], bounds[1:]):
        piece = serving_series(est[n0:n1], table, pair, serving, h_fallback, n0)
        pieces.append(piece)
        serving = piece[-1]
    got = np.concatenate(pieces)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_decide_series_scalar_margin_and_validation():
    y = np.array([[-3.0], [1.0], [3.0], [1.0]])
    np.testing.assert_array_equal(gap_decisions(y, 2.0), [[1], [1], [0], [0]])
    np.testing.assert_array_equal(gap_decisions(y, 2.0, b_init=1), [[1], [1], [0], [0]])
    np.testing.assert_array_equal(gap_decisions(np.array([[1.0]]), 2.0, b_init=1), [[1]])
