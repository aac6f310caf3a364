"""Geometry, trace distances and scenario configuration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handopt.errors import ConfigurationError
from handopt.scenario import CellLayout, ScenarioConfig, cell_row_layout, preset


def test_two_cell_layout_geometry():
    lay = cell_row_layout(2, 2000.0, 1000.0)
    assert lay.n_bs == 2
    np.testing.assert_array_equal(lay.bs_xy, [[0.0, 0.0], [2000.0, 0.0]])


def test_cell_row_layout_geometry():
    lay = cell_row_layout(5, 1500.0, 800.0)
    assert lay.n_bs == 5
    np.testing.assert_allclose(lay.bs_xy[:, 0], 1500.0 * np.arange(5))
    assert np.all(lay.bs_xy[:, 1] == 0.0)
    with pytest.raises(ConfigurationError):
        cell_row_layout(1)


def test_layout_validation():
    with pytest.raises(ConfigurationError):
        cell_row_layout(2, 0.0)  # coincident stations
    with pytest.raises(ConfigurationError):
        cell_row_layout(2, 2000.0, 0.0)


def test_layout_too_wide_to_square_is_a_config_error_without_warnings():
    # squared pair distances past the float range were a numpy overflow
    # warning and an inf that later checks tripped over
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xy in ([[0.0, 0.0], [1e300, 0.0]], [[-1e308, 0.0], [1e308, 0.0]],
                   [[0.0, 0.0], [1.0, 0.0], [0.0, 2e154]]):
            with pytest.raises(ConfigurationError, match="distances must be finite"):
                CellLayout(np.array(xy), 1000.0)
        wide = cell_row_layout(2, 1e150, 1000.0)
    assert wide.bs_xy[1, 0] == 1e150


def two_cell_trip(start_offset_m, length_m, spacing_m=2000.0, cell_radius_m=1000.0):
    """paper-vi with its two stations spacing_m apart and this trip."""
    return preset("paper-vi").with_updates(
        layout=cell_row_layout(2, spacing_m, cell_radius_m),
        start_offset_m=start_offset_m,
        length_m=length_m,
    )


def test_linear_trace_sampling():
    cfg = two_cell_trip(750.0, 500.0)
    assert cfg.step_m == pytest.approx(6.24)
    d = cfg.distances_m()
    assert d.shape == (2, 81)
    # the first sample sits start_offset_m from BS0, the last 80 steps on
    np.testing.assert_allclose(d[:, 0], [750.0, 1250.0])
    np.testing.assert_allclose(d[0, -1], 750.0 + 80 * 6.24)
    # a zero length_m is a single sample
    assert two_cell_trip(100.0, 0.0).distances_m().shape == (2, 1)
    # 1e16 m out, the float positions lie 6 or 8 m apart, not 6.24 m
    with pytest.raises(ConfigurationError, match="equally spaced"):
        two_cell_trip(1e16, 50.0, cell_radius_m=1e17).distances_m()
    # the trip runs along the line through the first two stations, wherever
    # they are
    tilted = cfg.with_updates(layout=CellLayout(np.array([[0.0, 0.0], [0.0, -2000.0]]), 1000.0))
    np.testing.assert_array_equal(tilted.distances_m(), d)


def test_linear_trace_stays_within_reach():
    with pytest.raises(ConfigurationError, match="beyond layout reach 3000.0 m"):
        two_cell_trip(750.0, 5000.0).distances_m()
    # the reach is the farthest station's projection plus the cell radius,
    # 3000 m here, with 1e-9 m of slack
    assert two_cell_trip(750.0, 2250.0).distances_m().shape == (2, 361)
    assert two_cell_trip(3000.0 + 5e-10, 0.0).distances_m().shape == (2, 1)
    with pytest.raises(ConfigurationError, match="beyond layout reach"):
        two_cell_trip(3000.0 + 1e-6, 0.0).distances_m()
    for field, value in (("length_m", -1.0), ("start_offset_m", -1.0)):
        with pytest.raises(ConfigurationError, match=f"{field} must be nonnegative"):
            two_cell_trip(750.0, 500.0).with_updates(**{field: value}).distances_m()


def test_distances_matches_hand_formula():
    d = two_cell_trip(750.0, 500.0).distances_m()
    assert d.shape == (2, 81)
    x = 750.0 + 6.24 * np.arange(81)
    np.testing.assert_allclose(d[0], x)
    np.testing.assert_allclose(d[1], 2000.0 - x)
    # a sample on a station is a config error
    with pytest.raises(ConfigurationError, match="coincides with a base station"):
        two_cell_trip(0.0, 500.0).distances_m()


def test_two_cell_preset():
    cfg = preset("paper-vi")
    assert cfg.layout.n_bs == 2
    assert cfg.step_m == pytest.approx(6.24)
    d = cfg.distances_m()
    assert d.shape[1] == 81
    # the trace crosses the midpoint between the stations
    assert d[0, 0] < d[1, 0] and d[0, -1] > d[1, -1]
    # threshold defaults to the mean path loss 20% past the cell edge
    assert cfg.resolved_outage_threshold() == pytest.approx(
        -107.77134361166686, rel=1e-13
    )
    assert cfg.resolved_depth() == 15
    from handopt.harness import config_fingerprint

    assert config_fingerprint(preset("vehicular-two-cell")) == config_fingerprint(cfg)


def test_cell_row_preset():
    cfg = preset("vehicular-cell-row")
    assert cfg.layout.n_bs == 8
    assert cfg.distances_m().shape[1] == 2004
    assert cfg.channels[0].coherence_m == 35.0
    assert cfg.p_out_cap == 0.35
    assert len(cfg.channels) == 8
    with pytest.raises(ConfigurationError):
        preset("no-such-preset")


def test_explicit_overrides_win():
    cfg = preset("paper-vi").with_updates(outage_threshold_db=-95.0, depth=7)
    assert cfg.resolved_outage_threshold() == -95.0
    assert cfg.resolved_depth() == 7


def test_channel_broadcast():
    cfg = preset("vehicular-cell-row")
    assert all(ch == cfg.channels[0] for ch in cfg.channels)
    with pytest.raises(ConfigurationError):
        cfg.with_updates(channels=cfg.channels[:3])


def test_config_validation():
    base = preset("paper-vi")
    with pytest.raises(ConfigurationError):
        base.with_updates(estimator="median")
    with pytest.raises(ConfigurationError):
        base.with_updates(n_w=0)
    with pytest.raises(ConfigurationError):
        base.with_updates(horizon=0)
    with pytest.raises(ConfigurationError):
        base.with_updates(horizon=13)
    with pytest.raises(ConfigurationError):
        base.with_updates(p_out_cap=0.0)
    with pytest.raises(ConfigurationError):
        base.with_updates(p_han_cap=1.5)
    with pytest.raises(ConfigurationError):
        base.with_updates(pareto_weight=-0.1)
    with pytest.raises(ConfigurationError):
        base.with_updates(b_init=2)
    with pytest.raises(ConfigurationError):
        base.with_updates(h_fixed_db=-1.0)
    with pytest.raises(ConfigurationError):
        base.with_updates(h_step_db=0.0)
    with pytest.raises(ConfigurationError):
        base.with_updates(depth=0)
    for field in ("speed_mps", "sample_interval_s", "h_max_db", "h_step_db", "h_fixed_db",
                  "outage_threshold_db", "start_offset_m", "length_m", "gels_gamma"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                base.with_updates(**{field: value})


def test_trace_samples_are_capped():
    # the cap counts samples as distances_m does: 50,000 samples
    # pass, 50,001 and a 1e-300 step are config errors
    base = preset("paper-vi").with_updates(length_m=2000.0)

    def with_step(step_m):
        return base.with_updates(sample_interval_s=step_m / base.speed_mps)

    assert with_step(2000.0 / 49_999).distances_m().shape == (2, 50_000)
    for step_m in (2000.0 / 50_000, 1e-300):
        with pytest.raises(ConfigurationError, match="50000 samples"):
            with_step(step_m)


def test_coefficient_tables_are_capped():
    # N * min(n_w, N) entries per link, checked in the config before any
    # table is built: 1,000,000 pass
    row = preset("vehicular-cell-row")
    assert row.with_updates(n_w=499).n_w == 499  # 2004 * 499 entries
    with pytest.raises(ConfigurationError, match="1000000 entries"):
        row.with_updates(n_w=500)
    with pytest.raises(ConfigurationError, match="1000000 entries"):
        row.with_updates(n_w=row.distances_m().shape[1])
    # a window longer than the trace is clamped to it
    assert preset("paper-vi").with_updates(n_w=10**9).n_w == 10**9
    long = preset("paper-vi").with_updates(
        length_m=2000.0, sample_interval_s=2000.0 / 49_999 / 13.0
    )
    assert long.with_updates(n_w=20).n_w == 20  # 50,000 samples
    with pytest.raises(ConfigurationError, match="1000000 entries"):
        long.with_updates(n_w=21)


def test_margin_grid_points_are_capped():
    # checked in the config, so no grid is built: 1001 points pass
    base = preset("paper-vi")
    assert base.with_updates(h_step_db=0.01).h_step_db == 0.01
    for h_step_db in (0.00999, 1e-6):
        with pytest.raises(ConfigurationError, match="1001 points"):
            base.with_updates(h_step_db=h_step_db)
    with pytest.raises(ConfigurationError, match="1001 points"):
        base.with_updates(h_max_db=1e300, h_step_db=1e-300)


def test_resolved_depth_is_capped():
    cfg = preset("paper-vi").with_updates(
        channels=(preset("paper-vi").channels[0],), speed_mps=1.0
    )
    # nearly static terminal: correlation barely decays, cap applies
    assert cfg.resolved_depth() == 20


def test_explicit_depth_is_capped_at_one_block():
    # the block overlap of a config's gap process grows with its depth, so
    # a depth past one 64-sample block is a config error, raised before any
    # trace, table or law is built
    base = preset("paper-vi")
    assert base.with_updates(depth=64).resolved_depth() == 64
    for depth in (65, 10**9):
        with pytest.raises(ConfigurationError, match=r"depth must lie in 1\.\.64"):
            base.with_updates(depth=depth)


def test_configs_compare_and_hash_by_value():
    # layouts compare their coordinate arrays by value; two builds of one
    # preset are equal, hash alike and keep their fingerprint
    from handopt.harness import config_fingerprint

    a, b = preset("paper-vi"), preset("paper-vi")
    assert a.layout is not b.layout
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, preset("vehicular-two-cell")}) == 1
    assert a != preset("vehicular-cell-row")
    assert a != a.with_updates(n_w=5)
    assert a != a.with_updates(layout=cell_row_layout(2, 2000.0, 1100.0))
    assert a != a.with_updates(layout=cell_row_layout(2, 2100.0, 1000.0))
    moved = np.array([[0.0, 0.0], [2000.0, 0.0]])
    moved[0, 1] = -0.0
    assert cell_row_layout(2) == CellLayout(moved, 1000.0)
    assert hash(cell_row_layout(2)) == hash(CellLayout(moved, 1000.0))
    assert cell_row_layout(2) != "layout"
    assert config_fingerprint(a) == "6a8194a1cc444b65"
    assert config_fingerprint(preset("vehicular-cell-row")) == "f3518f285fe55d46"



# extreme floats, each of which some config field must refuse or survive
EXTREME = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300]
)
# a 50-m paper-vi slice, field by field
SLICE = {
    "spacing_m": 2000.0, "cell_radius_m": 1000.0, "start_offset_m": 975.0,
    "length_m": 50.0, "speed_mps": 13.0, "sample_interval_s": 0.48,
    "gels_gamma": 3.0, "outage_threshold_db": -107.77, "h_max_db": 10.0,
    "h_step_db": 0.25, "h_fixed_db": 2.0, "p_out_cap": 0.11, "p_han_cap": 0.95,
    "pareto_weight": 0.5,
}
# short traces: a finite length_m stays under 60 m
VALUES = {k: st.one_of(EXTREME, st.floats(-10.0, 60.0) if k == "length_m" else st.floats())
          for k in SLICE}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(SLICE)), min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: VALUES[k] for k in keys})
    )
)
# a trace 1e299 m from the stations: its distances overflowed to inf
@example({"cell_radius_m": 1e300, "start_offset_m": 1e299, "length_m": 0.0})
def test_extreme_float_configs_raise_or_have_finite_distances(changes):
    f = {**SLICE, **changes}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layout = cell_row_layout(2, f.pop("spacing_m"), f.pop("cell_radius_m"))
            cfg = ScenarioConfig(layout, channels=preset("paper-vi").channels, **f)
            d = cfg.distances_m()
    except ConfigurationError:
        return
    assert d.shape[0] == 2 and d.shape[1] >= 1
    assert np.all(np.isfinite(d))
