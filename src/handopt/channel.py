"""Log-distance path loss with exponentially correlated shadowing.

Received power from base station s at sample n is

    p_s(n) = intercept - slope * log10(d_s(n)) + u_s(n)   [dB]

where u_s is zero-mean Gaussian shadowing whose autocorrelation decays
exponentially with traveled distance. Sampled at a constant spatial step
the shadowing is an AR(1) sequence with coefficient a = exp(-step/d_coh),
initialized from its stationary distribution.

The recursion runs in numpy over a sample-major buffer x[n, trial, link]:
the driving sequence (sigma * w[0], then sigma * sqrt(1 - a^2) * w[n]) is
written in place and turned into shadowing by x[n] += a * x[n-1], one
vector operation per sample across every trial and link, with a per link.
Each sample costs one product and one sum, the two roundings of the
first-order IIR filter y[n] = x[n] + a * y[n-1] (scipy's lfilter with
b = [1], a = [1, -a] computes exactly these), so the result is bit-identical
to filtering each link's row separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError


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


def _shadow_buffer(channels, n_samples: int, trial_shape):
    """Zeroed sample-major buffer [n_samples, *trial_shape, S] and the links
    that carry shadowing (the only ones that draw)."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    x = np.zeros((n_samples,) + tuple(trial_shape) + (len(channels),))
    return x, [s for s, ch in enumerate(channels) if ch.shadow_sigma_db != 0.0]


def _ar1_filter(x, channels, active, step_m: float) -> np.ndarray:
    """Turn the standard normal draws in x [N, ..., S] into shadowing, in place.

    Columns outside ``active`` hold zeros and stay zero.
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
    x[1:] *= scale
    x[0] *= sigma
    for k in range(1, x.shape[0]):
        x[k] += a * x[k - 1]
    return x


@dataclass(frozen=True)
class PowerTrace:
    """Simulated received powers for every base station along a trace.

    powers_db has shape [S, N] for a single trial or [T, S, N] for a batch.
    """

    powers_db: np.ndarray
    distances_m: np.ndarray  # [S, N]
    step_m: float
    channels: Tuple[ChannelParams, ...]

    @property
    def n_samples(self) -> int:
        return self.powers_db.shape[-1]


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
        trial_shape = (len(rng),)
    else:
        trial_shape = () if n_trials is None else (int(n_trials),)
    x, active = _shadow_buffer(channels, n, trial_shape)
    if batched and active:
        for t, g in enumerate(rng):
            x[:, t, active] = g.standard_normal((len(active), n)).T
    elif active:
        for s in active:
            x[..., s] = np.moveaxis(rng.standard_normal(trial_shape + (n,)), -1, 0)
    _ar1_filter(x, channels, active, step_m)
    powers = np.empty(trial_shape + mean.shape)
    np.add(mean, np.moveaxis(x, 0, -1), out=powers)
    return PowerTrace(powers, d, step_m, tuple(channels))
