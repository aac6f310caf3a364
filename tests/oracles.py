"""Reference implementations that tests compare the package against."""

import math

import numpy as np

from handopt.estimators import FilterCoeffs, window_start
from handopt.gaussian import _MC_CHUNK, _cholesky_jittered


def avg_coeffs(n: int, n_w: int) -> FilterCoeffs:
    """Rectangular window row at sample n: every sample in the window
    weighted 1/count, the row coefficient_table's avg mode must hold."""
    nb = window_start(n, n_w)
    cnt = n - nb + 1
    return FilterCoeffs(nb, n, np.full(cnt, 1.0 / cnt), "avg")


def mc_box_prob(mu, Sigma, lo, hi, n_samples, seed):
    """Hit-or-miss Monte Carlo that draws every coordinate of every sample
    in the given order, with the chunks and binomial stderr of
    gaussian._mc_box_prob: the reference for its on-demand draws."""
    L, jittered = _cholesky_jittered(Sigma)
    k = mu.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = 0
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        z = rng.standard_normal((m, k))
        x = mu + z @ L.T
        inside = np.all((lo < x) & (x <= hi), axis=1)
        hits += int(inside.sum())
        done += m
    p = hits / n_samples
    pc = min(max(p, 1.0 / (n_samples + 2)), 1.0 - 1.0 / (n_samples + 2))
    stderr = math.sqrt(pc * (1.0 - pc) / n_samples)
    return p, stderr, jittered
