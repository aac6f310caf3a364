"""Log-distance path loss with exponentially correlated shadowing.

Received power from base station s at sample n is

    p_s(n) = intercept - slope * log10(d_s(n)) + u_s(n)   [dB]

where u_s is zero-mean Gaussian shadowing whose autocorrelation decays
exponentially with traveled distance. Sampled at a constant spatial step
the shadowing is an AR(1) sequence with coefficient a = exp(-step/d_coh),
initialized from its stationary distribution.

The recursion runs in numpy over one sample-major buffer x[n, link, trial]
with the trials innermost, the layout every simulator stage reads. Each
trial's standard normals are drawn into a small block of a few trials,
scaled there into the driving sequence (sigma * w[0], then
sigma * sqrt(1 - a^2) * w[n]) and copied into the buffer while the block
is in cache. The driving sequence is turned into shadowing by
x[n] += a * x[n-1], one vector operation per sample across every link and
trial, with a per link, and the mean path loss is added once the
recursion is done. Each sample costs one product and one sum, the two
roundings of the first-order IIR filter
y[n] = x[n] + a * y[n-1] (scipy's lfilter with b = [1], a = [1, -a]
computes exactly these), so the result is bit-identical to filtering each
link's row separately.

Each simulated trial draws from its own PCG64 stream, seeded by
SeedSequence(seed_parts + [t]) for trial t. trial_generators hands out the
generators of a chunk of trials: it runs SeedSequence's entropy mixing
and state generation (a 32-bit multiply-xorshift hash over a 4-word pool)
over vectors indexed by trial, so the seed words of every trial come out
of one numpy pass, and yields each trial's Generator, built from its four
words through PCG64's own seeding, only when the draw loop reaches the
trial.
Every stream is bit-identical to the one a per-trial SeedSequence would
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

from .errors import ConfigurationError

# Trials drawn into one contiguous block before they are copied into the
# trial-innermost buffer; at most this many Generators are alive at once.
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


# numpy's SeedSequence constants: pool words, the entropy hash (INIT_A,
# MULT_A), the state hash (INIT_B, MULT_B), the pool mix and its shift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


class _SeedWords(ISeedSequence):
    """Seed source that hands PCG64 the four uint64 state words it asks
    for, computed in advance."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix over uint32 vectors: xor with the running
    constant, advance the constant, multiply by it, xorshift."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value *= np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def trial_generators(seed_parts, t0: int, t1: int):
    """Generators of trials t0..t1-1, in order: trial t draws from
    default_rng(SeedSequence(list(seed_parts) + [t])), bit for bit.

    The result is an iterator that builds each Generator when the
    iteration reaches it. seed_parts are coerced as SeedSequence
    coerces its entropy (each a nonnegative int, split into little-endian
    32-bit words). Trial indices must stay below 2**32, so that each is one
    entropy word.
    """
    if not 0 <= t0 <= t1 <= 2**32:
        raise ConfigurationError("trial indices must lie in [0, 2**32)")
    try:
        prefix = [int(w) for w in _coerce_to_uint32_array(list(seed_parts))]
    except (TypeError, ValueError) as e:
        raise ConfigurationError(f"seeds must be nonnegative integers ({e})") from None
    trials = np.arange(t0, t1, dtype=np.uint32)
    entropy = [np.full_like(trials, w) for w in prefix] + [trials]

    # SeedSequence.mix_entropy: hash the first words into the pool (zeros
    # past the entropy), mix every pool word into every other, then fold in
    # the words beyond the pool.
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(trials)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # SeedSequence.generate_state(4, np.uint64): eight 32-bit words cycling
    # over the pool, paired little-endian into four 64-bit words.
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    return (np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words)


def _draw_trials(x, active, drive, rngs) -> None:
    """Driving sequences of trial t, from the t-th Generator of rngs, into
    x[:, active, t].

    Each trial draws one standard_normal((S_active, N)) into a block of
    _DRAW_BLOCK trials, which is scaled by drive [S_active, N] and copied
    into the buffer in one transposed copy.
    """
    n, n_bs, n_tr = x.shape
    links = slice(None) if len(active) == n_bs else active
    block = np.empty((_DRAW_BLOCK, len(active), n))
    it = iter(rngs)
    for t0 in range(0, n_tr, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, n_tr - t0)
        for j in range(m):
            g = next(it, None)
            if g is None:
                raise ConfigurationError(f"{n_tr} trials need as many generators")
            g.standard_normal(out=block[j])
        part = block[:m]
        part *= drive
        x[:, links, t0 : t0 + m] = part.transpose(2, 1, 0)


def _ar1_filter(x, a, mean) -> np.ndarray:
    """Turn the driving sequences in x [N, S, T] into received powers, in
    place: x[n] += a * x[n-1] with a [S] per link, then mean [N, S]."""
    a = a[:, None]
    tmp = np.empty(x.shape[1:])
    for k in range(1, x.shape[0]):
        np.multiply(a, x[k - 1], out=tmp)
        x[k] += tmp
    x += mean[:, :, None]
    return x


def sample_power(
    channels: Sequence[ChannelParams],
    distances_m: np.ndarray,
    step_m: float,
    rngs,
    out=None,
) -> np.ndarray:
    """Received powers of T traces in the sample-major array [N, S, T],
    with shadowing independent across links.

    rngs yields one Generator per trial: a sequence, or the iterator
    trial_generators returns. Trial t draws from its Generator one
    standard_normal((S_active, N)), the same stream as S_active consecutive
    (N,) draws in link order. Links with shadow_sigma_db == 0 draw nothing.
    The powers fill out, an [N, S, T] float64 array a caller may reuse from
    call to call, whose last axis sets T; without out, T = len(rngs) and
    the powers fill a new array.
    """
    d = np.asarray(distances_m, dtype=float)
    if d.ndim != 2 or d.shape[0] != len(channels):
        raise ConfigurationError("distances_m must be [n_bs, n_samples] matching channels")
    n_bs, n = d.shape
    if n < 1:
        raise ConfigurationError("n_samples must be >= 1")
    if out is None:
        x = np.empty((n, n_bs, len(rngs)))
    elif out.ndim == 3 and out.shape[:2] == (n, n_bs):
        x = out
    else:
        raise ConfigurationError("out must be [n_samples, n_bs, n_trials]")
    mean = np.stack([path_loss(ch, d[s]) for s, ch in enumerate(channels)], axis=1)
    a = np.zeros(n_bs)
    active = [s for s, ch in enumerate(channels) if ch.shadow_sigma_db != 0.0]
    if len(active) < n_bs:
        x[:, [s for s in range(n_bs) if s not in active]] = 0.0
    if active:
        drive = np.empty((len(active), n))
        for i, s in enumerate(active):
            ch = channels[s]
            a[s] = ch.ar_coeff(step_m)
            drive[i, 0] = ch.shadow_sigma_db
            drive[i, 1:] = ch.shadow_sigma_db * math.sqrt(1.0 - a[s] * a[s])
        _draw_trials(x, active, drive, rngs)
    return _ar1_filter(x, a, mean)
