"""Log-distance path loss with exponentially correlated shadowing.

Received power from base station s at sample n is

    p_s(n) = intercept - slope * log10(d_s(n)) + u_s(n)   [dB]

where u_s is zero-mean Gaussian shadowing whose autocorrelation decays
exponentially with traveled distance. Sampled at a constant spatial step
the shadowing is an AR(1) sequence with coefficient a = exp(-step/d_coh),
initialized from its stationary distribution.

The recursion runs in numpy over one cell-major buffer x[link, n, trial]
with the trials innermost, the layout every simulator stage reads. Each
trial's standard normals are drawn into a small contiguous block of a few
trials and copied into the buffer while the block is in cache. The driving
sequence (sigma * w[0], then sigma * sqrt(1 - a^2) * w[n]) is written in
place and turned into shadowing by x[:, n] += a * x[:, n-1], one vector
operation per sample across every link and trial, with a per link; the
mean path loss is then added in place. Each sample costs one product and
one sum, the two roundings of the first-order IIR filter
y[n] = x[n] + a * y[n-1] (scipy's lfilter with b = [1], a = [1, -a]
computes exactly these), so the result is bit-identical to filtering each
link's row separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

# Trials drawn into one contiguous block before they are copied into the
# trial-innermost buffer.
_DRAW_BLOCK = 16


@dataclass(frozen=True)
class ChannelParams:
    """Propagation parameters for one base station link.

    slope_db is per decade of distance; coherence_m is the distance at
    which the shadowing correlation falls to 1/e.
    """

    intercept_db: float = 0.0
    slope_db: float = 35.0
    shadow_sigma_db: float = 6.0
    coherence_m: float = 20.0

    def __post_init__(self):
        for name in ("intercept_db", "slope_db", "shadow_sigma_db", "coherence_m"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if self.shadow_sigma_db < 0.0:
            raise ConfigurationError("shadow_sigma_db must be nonnegative")
        if self.coherence_m <= 0.0:
            raise ConfigurationError("coherence_m must be positive")

    def ar_coeff(self, step_m: float) -> float:
        if step_m <= 0.0:
            raise ConfigurationError("step_m must be positive")
        return math.exp(-step_m / self.coherence_m)


def path_loss(params: ChannelParams, distance_m) -> np.ndarray | float:
    """Mean received power (dB) at the given distance(s)."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise ConfigurationError("distances must be positive")
    out = params.intercept_db - params.slope_db * np.log10(d)
    return float(out) if out.ndim == 0 else out


def _shadow_buffer(channels, n_samples: int, n_trials: int):
    """Zeroed cell-major buffer [S, n_samples, n_trials] and the links that
    carry shadowing (the only ones that draw)."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    x = np.zeros((len(channels), n_samples, n_trials))
    return x, [s for s, ch in enumerate(channels) if ch.shadow_sigma_db != 0.0]


def _draw_trials(x, active, rngs) -> None:
    """Standard normals of trial t from rngs[t] into x[active, :, t].

    Each trial draws one standard_normal((S_active, N)) into a contiguous
    block of _DRAW_BLOCK trials, which is then copied into the buffer link
    by link.
    """
    n = x.shape[1]
    block = np.empty((_DRAW_BLOCK, len(active), n))
    for t0 in range(0, len(rngs), _DRAW_BLOCK):
        part = rngs[t0 : t0 + _DRAW_BLOCK]
        for j, g in enumerate(part):
            g.standard_normal(out=block[j])
        for i, s in enumerate(active):
            x[s, :, t0 : t0 + len(part)] = block[: len(part), i].T


def _ar1_filter(x, channels, active, step_m: float) -> np.ndarray:
    """Turn the standard normal draws in x [S, N, T] into shadowing, in place.

    Rows outside ``active`` hold zeros and stay zero.
    """
    if not active:
        return x
    a = np.zeros(len(channels))
    sigma = np.zeros(len(channels))
    scale = np.zeros(len(channels))
    for s in active:
        ch = channels[s]
        a[s] = ch.ar_coeff(step_m)
        sigma[s] = ch.shadow_sigma_db
        scale[s] = ch.shadow_sigma_db * math.sqrt(1.0 - a[s] * a[s])
    # Driving sequence: stationary draw at n=0, scaled innovations after.
    x[:, 1:] *= scale[:, None, None]
    x[:, 0] *= sigma[:, None]
    a = a[:, None]
    for k in range(1, x.shape[1]):
        x[:, k] += a * x[:, k - 1]
    return x


@dataclass(frozen=True)
class PowerTrace:
    """Simulated received powers for every base station along a trace.

    cell_major_db holds them with the trial axis innermost: [S, N] for a
    single trial or [S, N, T] for a batch, the buffer the simulator works
    on. powers_db is the same powers as [S, N] or as a C-contiguous
    [T, S, N] copy, built on first read.
    """

    cell_major_db: np.ndarray
    distances_m: np.ndarray  # [S, N]
    step_m: float
    channels: Tuple[ChannelParams, ...]

    @cached_property
    def powers_db(self) -> np.ndarray:
        x = self.cell_major_db
        return x if x.ndim == 2 else np.ascontiguousarray(np.moveaxis(x, -1, 0))

    @property
    def n_samples(self) -> int:
        return self.cell_major_db.shape[1]


def sample_power(
    channels: Sequence[ChannelParams],
    distances_m: np.ndarray,
    step_m: float,
    rng,
    n_trials: Optional[int] = None,
) -> PowerTrace:
    """Draw received-power traces; shadowing is independent across links.

    rng is one Generator or a sequence of Generators, one per trial. One
    Generator gives [S, N] powers, or [n_trials, S, N] when n_trials is set,
    drawn link by link. A sequence of T Generators gives [T, S, N]: trial t
    draws from rng[t] exactly what a single-trial call on it would draw, one
    standard_normal((S_active, N)), the same stream as S_active consecutive
    (N,) draws in link order. Links with shadow_sigma_db == 0 draw nothing.
    """
    d = np.asarray(distances_m, dtype=float)
    if d.ndim != 2 or d.shape[0] != len(channels):
        raise ConfigurationError("distances_m must be [n_bs, n_samples] matching channels")
    n = d.shape[1]
    mean = np.stack([path_loss(ch, d[s]) for s, ch in enumerate(channels)])
    batched = not isinstance(rng, np.random.Generator)
    if batched:
        rng = list(rng)
        n_tr = len(rng)
    else:
        n_tr = 1 if n_trials is None else int(n_trials)
    x, active = _shadow_buffer(channels, n, n_tr)
    if batched and active:
        _draw_trials(x, active, rng)
    elif active:
        for s in active:
            x[s] = rng.standard_normal((n_tr, n)).T
    _ar1_filter(x, channels, active, step_m)
    x += mean[:, :, None]
    if not batched and n_trials is None:
        x = x[:, :, 0]
    return PowerTrace(x, d, step_m, tuple(channels))
