"""Cell geometry and scenario configuration.

Distances are in meters, powers in dB, speeds in m/s. A scenario couples a
static cell layout with a straight-line trip and one channel parameter set
per base station; the trip enters the rest of the package only as the
[S, N] distances from every station to every sample
(ScenarioConfig.distances_m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .channel import ChannelParams, path_loss
from .errors import ConfigurationError
from .gaussian import _BLOCK_SAMPLES

_ESTIMATORS = ("avg", "ls", "els", "gels")
# Work caps, about 25 times the presets' sizes: the cell row's trace holds
# 2004 samples and both presets' margin grid (h_max 10 dB, step 0.25 dB)
# 41 points. Past them a run's arrays grow with no use: a trace's memory
# and time grow with its samples, a trellis block's tables with its grid
# (about 0.1 MB per point per 64-root block at horizon 4).
_MAX_SAMPLES = 50_000
_MAX_GRID_POINTS = 1001
# Entries N * min(n_w, N) of one link's coefficient table (8 MB of float64
# at the cap), about 125 times the cell row's 2004 * 4: a window of more
# than 20 samples on a 50,000-sample trace, or of 500 or more on the cell
# row, would grow the per-link tables past it.
_MAX_TABLE_ENTRIES = 1_000_000
# Chain memory, at most one gap-law block: a process's block overlap is
# max(horizon, depth), so the cap bounds every block law at 2 * 64 samples
# (384 coordinates), where the presets resolve depth 15 or 20.
_MAX_DEPTH = _BLOCK_SAMPLES


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
        # squared pair distances in Python floats, which overflow to inf
        # without a numpy warning: stations too far apart for their squared
        # distance to be finite make a config error, not a RuntimeWarning
        pts = xy.tolist()
        sq = [
            (x0 - x1) * (x0 - x1) + (y0 - y1) * (y0 - y1)
            for i, (x0, y0) in enumerate(pts)
            for x1, y1 in pts[:i]
        ]
        if not all(map(math.isfinite, sq)):
            raise ConfigurationError("base station distances must be finite")
        if min(sq) <= 0.0:
            raise ConfigurationError("base stations must be at distinct positions")
        if not (self.cell_radius_m > 0.0 and math.isfinite(self.cell_radius_m)):
            raise ConfigurationError("cell_radius_m must be positive")
        object.__setattr__(self, "bs_xy", xy)

    def __eq__(self, other):
        # the generated __eq__ would compare the coordinate arrays as a
        # tuple element, whose truth value numpy refuses
        if not isinstance(other, CellLayout):
            return NotImplemented
        return self.cell_radius_m == other.cell_radius_m and np.array_equal(
            self.bs_xy, other.bs_xy
        )

    def __hash__(self):
        # float hashing maps -0.0 and 0.0, which compare equal, together
        return hash((self.cell_radius_m, tuple(self.bs_xy.ravel().tolist())))

    @property
    def n_bs(self) -> int:
        return self.bs_xy.shape[0]


def cell_row_layout(
    n_cells: int = 8, spacing_m: float = 2000.0, cell_radius_m: float = 1000.0
) -> CellLayout:
    """A row of equally spaced base stations along the x axis."""
    if n_cells < 2:
        raise ConfigurationError("cell_row_layout needs at least two cells")
    # Python float products, which overflow to inf or NaN without the
    # RuntimeWarning numpy would print: CellLayout rejects them as a config
    # error
    xs = [float(spacing_m) * i for i in range(n_cells)]
    return CellLayout(np.column_stack([xs, np.zeros(n_cells)]), cell_radius_m)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment.

    ``channels`` holds one parameter set per base station; passing a single
    entry replicates it. ``outage_threshold_db = None`` resolves to the mean
    path loss 20% past the cell edge. ``depth = None`` resolves to the
    smallest lag at which the shadowing correlation drops below 1%, capped
    at 20.

    Four work caps are checked before any array is built: the trace holds
    at most 50,000 samples (N = floor(length_m / (speed_mps *
    sample_interval_s)) + 1), each link's coefficient table at most
    1,000,000 entries (N * min(n_w, N)), the margin grid at most 1001
    points (floor(h_max_db / h_step_db) + 1) and an explicit depth at most
    64 samples, the length of a gap-law block.
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
        if not all(math.isfinite(v) for v in (self.start_offset_m, self.length_m, self.gels_gamma)):
            raise ConfigurationError("start_offset_m, length_m and gels_gamma must be finite")
        if not (0.0 < self.speed_mps < math.inf and 0.0 < self.sample_interval_s < math.inf):
            raise ConfigurationError("speed and sample interval must be finite and positive")
        if not (0.0 < self.h_max_db < math.inf and 0.0 < self.h_step_db < math.inf):
            raise ConfigurationError("hysteresis grid must have finite positive extent and step")
        # q + 1e-9 < cap <=> floor(q + 1e-9) + 1 <= cap, the count that
        # distances_m and TrellisProblem.grid take of a quotient q
        step = self.step_m
        if not (step > 0.0 and self.length_m / step + 1e-9 < _MAX_SAMPLES):
            raise ConfigurationError(f"the trace would hold more than {_MAX_SAMPLES} samples")
        n = max(math.floor(self.length_m / step + 1e-9) + 1, 0)
        if n * min(self.n_w, n) > _MAX_TABLE_ENTRIES:
            raise ConfigurationError(
                f"each link's coefficient table would hold more than {_MAX_TABLE_ENTRIES} "
                f"entries (N * min(n_w, N) with N = {n} samples)"
            )
        if not self.h_max_db / self.h_step_db + 1e-9 < _MAX_GRID_POINTS:
            raise ConfigurationError(
                f"the margin grid would hold more than {_MAX_GRID_POINTS} points"
            )
        if self.outage_threshold_db is not None and not math.isfinite(self.outage_threshold_db):
            raise ConfigurationError("outage_threshold_db must be finite")
        if self.depth is not None and not 1 <= self.depth <= _MAX_DEPTH:
            raise ConfigurationError(f"depth must lie in 1..{_MAX_DEPTH}")
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
        # Every trace sample lies within `far` of every station, so the
        # squared distances distances_m sums in numpy stay below far * far,
        # up to rounding, for which the factor 2 leaves room. Python floats
        # overflow to inf here without the RuntimeWarning numpy would give.
        pts = self.layout.bs_xy.tolist()
        far = max(math.dist(p, pts[0]) for p in pts)
        far += abs(self.start_offset_m) + abs(self.length_m)
        if not math.isfinite(2.0 * far * far):
            raise ConfigurationError("the trace's distances to the base stations must be finite")

    def distances_m(self) -> np.ndarray:
        """Distance from every base station to every trace sample, [S, N].

        The terminal starts start_offset_m from the first base station on
        the line through the first two, and advances step_m per sample until
        length_m is covered; length_m = 0 gives one sample. The trace must
        stay within the layout's reach (the farthest station's projection
        on that line plus the cell radius), keep its samples step_m apart
        in floating point and pass no station.
        """
        if self.length_m < 0.0:
            raise ConfigurationError("length_m must be nonnegative")
        if self.start_offset_m < 0.0:
            raise ConfigurationError("start_offset_m must be nonnegative")
        bs = self.layout.bs_xy
        direction = bs[1] - bs[0]
        direction = direction / np.linalg.norm(direction)
        max_reach = ((bs - bs[0]) @ direction).max() + self.layout.cell_radius_m
        end = self.start_offset_m + self.length_m
        if end > max_reach + 1e-9:
            raise ConfigurationError(
                f"trace extends to {end:.1f} m, beyond layout reach {max_reach:.1f} m"
            )
        step = self.step_m
        n = int(math.floor(self.length_m / step + 1e-9)) + 1
        xy = bs[0] + (self.start_offset_m + step * np.arange(n))[:, None] * direction
        # past offsets of about 1e7 m, float positions round to uneven steps
        if np.any(np.abs(np.sqrt(np.diff(xy, axis=0) ** 2 @ [1.0, 1.0]) - step) > 1e-9):
            raise ConfigurationError("trace samples must be equally spaced at speed*interval")
        d = np.sqrt(((bs[:, None, :] - xy) ** 2).sum(-1))
        if d.min() <= 0.0:
            raise ConfigurationError("terminal position coincides with a base station")
        return d

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


_VEHICULAR = ChannelParams(intercept_db=0.0, slope_db=35.0, shadow_sigma_db=6.0, coherence_m=20.0)


def _paper_vi() -> ScenarioConfig:
    return ScenarioConfig(
        layout=cell_row_layout(2, 2000.0, 1000.0),
        start_offset_m=750.0,
        length_m=500.0,
        speed_mps=13.0,
        sample_interval_s=0.48,
        channels=(_VEHICULAR,),
        estimator="avg",
        n_w=4,
        h_fixed_db=2.0,
        horizon=4,
    )


def _vehicular_cell_row() -> ScenarioConfig:
    # open-terrain row: shadowing decorrelates more slowly than on the
    # urban two-cell trace, and the outage budget per stage is looser
    return ScenarioConfig(
        layout=cell_row_layout(8, 2000.0, 1000.0),
        start_offset_m=750.0,
        length_m=12500.0,
        speed_mps=13.0,
        sample_interval_s=0.48,
        channels=(replace(_VEHICULAR, coherence_m=35.0),),
        estimator="avg",
        n_w=4,
        h_fixed_db=2.0,
        horizon=4,
        p_out_cap=0.35,
    )


# preset name -> builder of a fresh config (a layout's coordinate array is
# mutable, so no two callers share one)
_PRESETS = {
    "paper-vi": _paper_vi,
    "vehicular-two-cell": _paper_vi,
    "vehicular-cell-row": _vehicular_cell_row,
}


def preset(name: str) -> ScenarioConfig:
    """Named ready-to-run configurations.

    ``paper-vi`` (alias ``vehicular-two-cell``): two base stations 2 km
    apart, vehicular terminal crossing the cell boundary.
    ``vehicular-cell-row``: eight cells in a row, full multi-handover trip.
    """
    if name not in _PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}")
    return _PRESETS[name]()
