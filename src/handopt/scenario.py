"""Cell geometry, mobility traces and scenario configuration.

Distances are in meters, powers in dB, speeds in m/s. A scenario couples a
static cell layout with a sampled straight-line mobility trace and one
channel parameter set per base station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelParams, path_loss
from .errors import ConfigurationError

_ESTIMATORS = ("avg", "ls", "els", "gels")


@dataclass(frozen=True)
class CellLayout:
    """Base station positions and a common nominal cell radius."""

    bs_xy: np.ndarray  # shape [S, 2]
    cell_radius_m: float

    def __post_init__(self):
        xy = np.atleast_2d(np.asarray(self.bs_xy, dtype=float))
        if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] < 2:
            raise ConfigurationError("layout needs at least two (x, y) base stations")
        if not np.all(np.isfinite(xy)):
            raise ConfigurationError("base station coordinates must be finite")
        diff = xy[:, None, :] - xy[None, :, :]
        pair = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(pair, np.inf)
        if pair.min() <= 0.0:
            raise ConfigurationError("base stations must be at distinct positions")
        if not (self.cell_radius_m > 0.0 and math.isfinite(self.cell_radius_m)):
            raise ConfigurationError("cell_radius_m must be positive")
        object.__setattr__(self, "bs_xy", xy)

    @property
    def n_bs(self) -> int:
        return self.bs_xy.shape[0]


def two_cell_layout(spacing_m: float = 2000.0, cell_radius_m: float = 1000.0) -> CellLayout:
    """Two base stations on the x axis, the first at the origin."""
    return CellLayout(np.array([[0.0, 0.0], [spacing_m, 0.0]]), cell_radius_m)


def cell_row_layout(
    n_cells: int = 8, spacing_m: float = 2000.0, cell_radius_m: float = 1000.0
) -> CellLayout:
    """A row of equally spaced base stations along the x axis."""
    if n_cells < 2:
        raise ConfigurationError("cell_row_layout needs at least two cells")
    xs = spacing_m * np.arange(n_cells, dtype=float)
    return CellLayout(np.column_stack([xs, np.zeros(n_cells)]), cell_radius_m)


@dataclass(frozen=True)
class MobilityTrace:
    """Positions of the terminal sampled at a constant interval.

    Consecutive samples are exactly ``speed * interval`` meters apart.
    """

    positions_xy: np.ndarray  # shape [N, 2]
    speed_mps: float
    sample_interval_s: float

    def __post_init__(self):
        xy = np.atleast_2d(np.asarray(self.positions_xy, dtype=float))
        if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] < 1:
            raise ConfigurationError("trace needs at least one (x, y) sample")
        if not (self.speed_mps > 0.0 and self.sample_interval_s > 0.0):
            raise ConfigurationError("speed and sample interval must be positive")
        if xy.shape[0] > 1:
            step = np.sqrt(np.diff(xy, axis=0) ** 2 @ [1.0, 1.0])
            if np.any(np.abs(step - self.step_m) > 1e-9):
                raise ConfigurationError("trace samples must be equally spaced at speed*interval")
        object.__setattr__(self, "positions_xy", xy)

    @property
    def n_samples(self) -> int:
        return self.positions_xy.shape[0]

    @property
    def step_m(self) -> float:
        return self.speed_mps * self.sample_interval_s


def build_linear_trace(
    layout: CellLayout,
    start_offset_m: float,
    length_m: float,
    speed_mps: float,
    sample_interval_s: float,
) -> MobilityTrace:
    """Straight trace from the first base station toward the second.

    The terminal starts ``start_offset_m`` from the first base station along
    the line through the first two, and advances ``speed * interval`` meters
    per sample until ``length_m`` is covered. ``length_m = 0`` yields a single
    sample. The trace must stay within the area served by the layout.
    """
    if speed_mps <= 0.0 or sample_interval_s <= 0.0:
        raise ConfigurationError("speed and sample interval must be positive")
    if length_m < 0.0:
        raise ConfigurationError("length_m must be nonnegative")
    if start_offset_m < 0.0:
        raise ConfigurationError("start_offset_m must be nonnegative")
    direction = layout.bs_xy[1] - layout.bs_xy[0]
    direction = direction / np.linalg.norm(direction)
    # Farthest BS projection bounds how far the trace may extend.
    proj = (layout.bs_xy - layout.bs_xy[0]) @ direction
    max_reach = proj.max() + layout.cell_radius_m
    if start_offset_m + length_m > max_reach + 1e-9:
        raise ConfigurationError(
            f"trace extends to {start_offset_m + length_m:.1f} m, beyond layout reach {max_reach:.1f} m"
        )
    step = speed_mps * sample_interval_s
    n = int(math.floor(length_m / step + 1e-9)) + 1
    offsets = start_offset_m + step * np.arange(n)
    xy = layout.bs_xy[0] + offsets[:, None] * direction[None, :]
    return MobilityTrace(xy, speed_mps, sample_interval_s)


def distances(trace: MobilityTrace, layout: CellLayout) -> np.ndarray:
    """Euclidean distance from every base station to every trace sample, [S, N]."""
    diff = layout.bs_xy[:, None, :] - trace.positions_xy[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    if d.min() <= 0.0:
        raise ConfigurationError("terminal position coincides with a base station")
    return d


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment.

    ``channels`` holds one parameter set per base station; passing a single
    entry replicates it. ``outage_threshold_db = None`` resolves to the mean
    path loss 20% past the cell edge. ``depth = None`` resolves to the
    smallest lag at which the shadowing correlation drops below 1%, capped
    at 20.
    """

    layout: CellLayout
    start_offset_m: float
    length_m: float
    speed_mps: float
    sample_interval_s: float
    channels: Tuple[ChannelParams, ...]
    estimator: str = "avg"
    n_w: int = 4
    gels_gamma: float = 3.0
    gels_reinit_all: bool = False
    outage_threshold_db: Optional[float] = None
    h_max_db: float = 10.0
    h_step_db: float = 0.25
    horizon: int = 4
    depth: Optional[int] = None
    h_fixed_db: float = 2.0
    p_out_cap: float = 0.11
    p_han_cap: float = 0.95
    pareto_weight: float = 0.5
    b_init: int = 0
    seed: int = 12345

    def __post_init__(self):
        ch = tuple(self.channels) if isinstance(self.channels, (list, tuple)) else (self.channels,)
        if len(ch) == 1:
            ch = ch * self.layout.n_bs
        if len(ch) != self.layout.n_bs:
            raise ConfigurationError("need one channel parameter set per base station")
        object.__setattr__(self, "channels", ch)
        if self.estimator not in _ESTIMATORS:
            raise ConfigurationError(f"estimator must be one of {_ESTIMATORS}")
        if self.n_w < 1:
            raise ConfigurationError("n_w must be >= 1")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if self.horizon > 12:
            raise ConfigurationError("horizon > 12 enumerates too many trellis paths")
        if not (0.0 < self.speed_mps < math.inf and 0.0 < self.sample_interval_s < math.inf):
            raise ConfigurationError("speed and sample interval must be finite and positive")
        if not (0.0 < self.h_max_db < math.inf and 0.0 < self.h_step_db < math.inf):
            raise ConfigurationError("hysteresis grid must have finite positive extent and step")
        if self.outage_threshold_db is not None and not math.isfinite(self.outage_threshold_db):
            raise ConfigurationError("outage_threshold_db must be finite")
        if self.depth is not None and self.depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if not (0.0 < self.p_out_cap <= 1.0 and 0.0 < self.p_han_cap <= 1.0):
            raise ConfigurationError("probability caps must lie in (0, 1]")
        if not (0.0 <= self.pareto_weight <= 1.0):
            raise ConfigurationError("pareto_weight must lie in [0, 1]")
        if self.b_init not in (0, 1):
            raise ConfigurationError("b_init must be 0 or 1")
        if not 0.0 <= self.h_fixed_db < math.inf:
            raise ConfigurationError("h_fixed_db must be finite and nonnegative")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer")

    def trace(self) -> MobilityTrace:
        return build_linear_trace(
            self.layout, self.start_offset_m, self.length_m, self.speed_mps, self.sample_interval_s
        )

    def distances_m(self) -> np.ndarray:
        return distances(self.trace(), self.layout)

    @property
    def step_m(self) -> float:
        return self.speed_mps * self.sample_interval_s

    def resolved_outage_threshold(self) -> float:
        if self.outage_threshold_db is not None:
            return float(self.outage_threshold_db)
        return path_loss(self.channels[0], 1.2 * self.layout.cell_radius_m)

    def resolved_depth(self) -> int:
        if self.depth is not None:
            return int(self.depth)
        a = max(ch.ar_coeff(self.step_m) for ch in self.channels)
        k = 1
        while a**k >= 0.01 and k < 20:
            k += 1
        return k

    def with_updates(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


def preset(name: str) -> ScenarioConfig:
    """Named ready-to-run configurations.

    ``paper-vi`` (alias ``vehicular-two-cell``): two base stations 2 km
    apart, vehicular terminal crossing the cell boundary.
    ``vehicular-cell-row``: eight cells in a row, full multi-handover trip.
    """
    vehicular = ChannelParams(
        intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0, coherence_m=20.0
    )
    if name in ("paper-vi", "vehicular-two-cell"):
        return ScenarioConfig(
            layout=two_cell_layout(2000.0, 1000.0),
            start_offset_m=750.0,
            length_m=500.0,
            speed_mps=13.0,
            sample_interval_s=0.48,
            channels=(vehicular,),
            estimator="avg",
            n_w=4,
            h_fixed_db=2.0,
            horizon=4,
        )
    if name == "vehicular-cell-row":
        # open-terrain row: shadowing decorrelates more slowly than on the
        # urban two-cell trace, and the outage budget per stage is looser
        highway = replace(vehicular, coherence_m=35.0)
        return ScenarioConfig(
            layout=cell_row_layout(8, 2000.0, 1000.0),
            start_offset_m=750.0,
            length_m=12500.0,
            speed_mps=13.0,
            sample_interval_s=0.48,
            channels=(highway,),
            estimator="avg",
            n_w=4,
            h_fixed_db=2.0,
            horizon=4,
            p_out_cap=0.35,
        )
    raise ConfigurationError(f"unknown preset {name!r}")
