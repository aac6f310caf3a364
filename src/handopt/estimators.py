"""Windowed signal-strength estimators: AVG, LS, ELS and GELS.

Every estimator is a linear filter over the power samples of one link,

    l_s(n) = sum_{i=n_b}^{n} G_s(n, i) * p_s(i),

and exposes its coefficient row so that downstream covariance analysis can
treat l_s(n) as a linear functional of the Gaussian powers. Sample indices
are 0-based throughout; a sliding window of length n_w starts at
n_b = max(0, n - n_w + 1). Distances enter through log10, matching a
per-decade path-loss slope.

The power-free estimators (AVG, LS) keep their rows in one compact format,
the [N, min(n_w, N)] coefficient_table: row n is right-aligned on sample
n, so the last column weights sample n itself, and entries before sample 0
are zero. window_estimates contracts such rows with a batch of power
traces stored sample-major with the trials innermost, [N, S, T], which is
how the simulator holds them, over one range of samples; the caller
blocks, the simulator by block_samples(S, T) samples at a time, so the
powers one lag of a block reads form one contiguous slab.
weight_block lays rows out over a span of samples, which is how
gaussian.y_stats reads them.

ELS and GELS choose between the window mean (AVG) and the LS line by
e2 <= e1, the in-window mean squared residuals of the line and of the
mean. e1 - e2 is the squared cross moment over the x spread, so the
test holds in exact arithmetic wherever the LS fit exists: both are LS
with an AVG fallback on windows too short or degenerate for a fit.

* ELS fits sliding n_w windows, so its rows are the "ls" coefficient
  table's and its modes that table's fit mask.
* GELS ignores n_w. Its window grows from the last restart; _gels keeps
  each (link, trial) window's count and sums of p, p^2, x, x^2 and p*x,
  measured from the window's first sample so that the line fit does not
  cancel digits far from a cell, and loops over samples only, each one
  contiguous [S, T] row of the sample-major powers. It is a
  resumable walk: a generator that yields one sample's estimates at a
  time and carries the sums to the next, so the simulator pulls it block
  by block as it contracts window_estimates. With
  e_min = min(e1, e2), the window restarts when |e_r| > gamma for
  e_r = (p(n) - l(n)) / sqrt(e_min), or when h(n) > h_max. e_r is not
  formed when e_min is at the exact-fit floor
  (_EMIN_FLOOR * max(1, |p(n)|))^2, so noiseless data never triggers.
  After a restart the window holds only sample n and the estimate is
  p(n); reinit_all restarts every link of a trial with it.

The per-window references (ls_fit, els_select, gels_step and the sample
loops over them) live in the tests, which compare the package against
them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

# Relative conditioning floor for the LS normal equations.
EPS_COND = 1e-10
# Below this squared-residual scale the model is treated as exact and the
# normalized residual is not formed.
_EMIN_FLOOR = 1e-9
# Values (links x samples x trials) per simulator block, 512 KB: a block's
# estimates and the powers its lags read stay in L2 while every lag is
# added.
_EST_BLOCK_VALUES = 1 << 16


def coefficient_table(distances_m: np.ndarray, n_w: int, mode: str = "avg") -> np.ndarray:
    """Right-aligned [N, min(n_w, N)] filter rows for one link.

    A window never reaches past sample 0, so the table is w = min(n_w, N)
    columns wide: column j of row n weights sample n - w + 1 + j, so
    l(n) = table[n] . p[n - w + 1 .. n]; entries whose sample index is
    negative are zero. mode "ls" falls back to the rectangular row on
    windows that are too short or degenerate (mirroring the ELS fallback),
    so the table is defined at every n. ELS estimates with the "ls" rows;
    GELS is data dependent, has no power-free table and runs _gels.
    """
    return _table(distances_m, n_w, mode)[0]


def _table(distances_m: np.ndarray, n_w: int, mode: str):
    """coefficient_table's rows and an [N] mask of the rows that hold the
    LS fit, which are ELS's LS windows."""
    d = np.asarray(distances_m, dtype=float)
    if d.ndim != 1:
        raise ConfigurationError("distances_m must be 1-D")
    if mode not in ("avg", "ls"):
        raise ConfigurationError("coefficient_table supports modes 'avg' and 'ls'")
    if n_w < 1:
        raise ConfigurationError("n_w must be >= 1")
    n_samples = d.size
    n_w = min(n_w, n_samples)
    # idx[n, j] is sample n - n_w + 1 + j; a row's window is its idx >= 0
    idx = np.arange(n_samples)[:, None] + np.arange(1 - n_w, 1)
    valid = idx >= 0
    cnt = np.count_nonzero(valid, axis=1)
    rows = np.where(valid, 1.0 / cnt[:, None], 0.0)
    fit = np.zeros(n_samples, dtype=bool)
    if mode == "ls":
        x = np.log10(d)
        # windows of one length at a time, so every mean reduces the same
        # contiguous run of samples as a row-by-row fit would
        for k in range(2, n_w + 1):
            sel = cnt == k
            xs = x[idx[sel, n_w - k :]]
            C = xs.mean(axis=1, keepdims=True)
            D = (xs * xs).mean(axis=1, keepdims=True)
            denom = D - C * C
            ok = denom > EPS_COND * np.maximum(D, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ls = ((D - C * xs) - (C - xs) * xs[:, -1:]) / (denom * k)
            rows[sel, n_w - k :] = np.where(ok, ls, rows[sel, n_w - k :])
            fit[sel] = ok[:, 0]
    return rows, fit


def weight_block(table: np.ndarray, rows, first: int, last: int) -> np.ndarray:
    """Dense [len(rows), last - first + 1] block of a coefficient table:
    entry [i, c] is the weight row rows[i] gives sample first + c, zero
    outside that row's window."""
    n_w = table.shape[1]
    out = np.zeros((len(rows), last - first + 1))
    for i, n in enumerate(rows):
        a, b = max(first, n - n_w + 1), min(last, n)
        if a <= b:
            out[i, a - first : b - first + 1] = table[n, a - n + n_w - 1 : b - n + n_w]
    return out


def block_samples(n_bs: int, n_tr: int) -> int:
    """Samples per simulator block (one window_estimates call) on S = n_bs
    links and T = n_tr trials: about _EST_BLOCK_VALUES values, at least one."""
    return max(1, _EST_BLOCK_VALUES // max(1, n_bs * n_tr))


def window_estimates(
    tables: np.ndarray, x: np.ndarray, n0: int = 0, n1=None, out=None
) -> np.ndarray:
    """Estimates of a batch of traces stored sample-major, trials innermost.

    tables is [S, N, n_w], one coefficient_table per link, and x [N, S, T];
    entry [n - n0, s, t] of the [n1 - n0, S, T] result is
    tables[s, n] . x[n - n_w + 1 .. n, s, t] for the samples n0 <= n < n1
    (default: all N), summed from the oldest sample of the window to
    sample n: the oldest lag's product is written, each later one added.
    The result is written to out when given, an [n1 - n0, S, T] buffer a
    caller may reuse from block to block. The caller blocks (the simulator
    by block_samples), so every lag reads its powers from cache; every
    entry sees the same operations whatever the range, so a range is bit
    for bit the matching slice of the full call.
    """
    n_bs, n, n_w = tables.shape
    n_tr = x.shape[2]
    n1 = n if n1 is None else n1
    if out is None:
        out = np.empty((n1 - n0, n_bs, n_tr))
    # weights[k, s, j]: column j of link s's row for sample k
    weights = tables.transpose(1, 0, 2)
    prod = np.empty_like(out)
    filled = n1  # out holds a partial sum for samples filled .. n1 - 1
    for j in range(n_w):
        back = n_w - 1 - j  # column j weights sample n - back
        lo = max(n0, back)  # samples before lo have no sample n - back
        if lo < n1:
            w = weights[lo:n1, :, j, None]
            p = x[lo - back : n1 - back]
            head = filled - lo  # samples lo .. filled - 1 start their sums
            if head:
                np.multiply(w[:head], p[:head], out=out[lo - n0 : filled - n0])
            if filled < n1:
                q = prod[: n1 - filled]
                np.multiply(w[head:], p[head:], out=q)
                out[filled - n0 : n1 - n0] += q
            filled = lo
    return out


def _gels(x, p, h, gamma, h_max, reinit_all):
    """GELS walk over [N, S, T] powers p, one sample at a time.

    Yields the [S, T] estimates and modes of samples 0, 1, ... in turn.
    The window moments stay in the generator's frame between samples, so
    a caller may pull the samples in blocks of any size and every sample
    sees the same operations. gamma is checked when the first sample is
    pulled.
    """
    if gamma <= 0.0:
        raise ConfigurationError("gamma must be positive")
    n, n_bs, n_tr = p.shape
    # count and sums of p, p^2, x, x^2, p*x per (link, trial), measured from
    # the window's first sample, whose power and log-distance are p0 and x0
    m = np.zeros((6, n_bs, n_tr))
    p0 = p[0].copy() if n else None
    x0 = np.repeat(x[:, :1], n_tr, axis=1)
    for i in range(n):
        power = p[i]
        pn = power - p0
        xn = x[:, i, None] - x0
        # in place, one term at a time: the same sums as adding their stack
        m[0] += 1.0
        m[1] += pn
        m[2] += pn * pn
        m[3] += xn
        m[4] += xn * xn
        m[5] += pn * xn
        cnt, sp, spp, sx, sxx, spx = m
        mp, mx = sp / cnt, sx / cnt
        e1 = spp / cnt - mp * mp
        vxx = sxx / cnt - mx * mx
        vpx = spx / cnt - mp * mx
        # coefficient_table's fit test; e2 = e1 - slope * vpx <= e1 where
        # the fit exists, so LS is picked there
        c = x0 + mx
        fit = vxx > EPS_COND * np.maximum(vxx + c * c, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(fit, vpx / vxx, 0.0)
        e_min = e1 - slope * vpx
        l = mp + slope * (xn - mx)
        floor = (_EMIN_FLOOR * np.maximum(1.0, np.abs(power))) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            e_r = (pn - l) / np.sqrt(e_min)
        restart = (e_min > floor) & (np.abs(e_r) > gamma)
        if h[i] > h_max:
            restart[:] = True
        if reinit_all:
            restart |= restart.any(axis=0)
        yield np.where(restart, power, p0 + l), np.where(restart, 2, fit)
        if restart.any():
            # the window begins again at sample i, which is its own anchor
            m[:, restart] = 0.0
            m[0, restart] = 1.0
            p0 = np.where(restart, power, p0)
            x0 = np.where(restart, x[:, i, None], x0)

