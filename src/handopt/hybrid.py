"""The hysteresis decision rule of the handover hybrid system.

The paper models handover as a hybrid system. The continuous state
S(n) = [p_0, p_1, l_0, l_1] stacks the received powers of the serving pair
with their filtered estimates and evolves by the affine update

    S(n+1) = A(n) S(n) - f(d(n+1), d(n)) + W(n),

where A(n) is the identity plus the filter weights G_s(n+1) at (2,0) and
(3,1), f carries the path-loss change between the distances d(n) and
d(n+1), and W(n) the shadowing increments. The discrete state is the
connected-BS indicator b(n), driven by comparing y(n) = l_0(n) - l_1(n)
against the hysteresis margin h(n):

    b(n) = 1  iff  y(n) < -h(n),  or  -h(n) <= y(n) < h(n) and b(n-1) = 1.

Ties are fixed: y = h connects to BS0, y = -h keeps the previous BS.

Only the discrete rule is code. The affine l-row update
l_s(n+1) = l_s(n) + G_s(n+1) p_s(n+1) holds only for coefficient schemes
that keep all previous weights when a sample is appended; the sliding
windows the package ships re-weight the whole window each step, so the
estimators module is the ground truth for l_s(n) and the continuous
recursion stays the paper's formulation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def decide(b_prev: int, y: float, h: float) -> int:
    """Hysteresis comparison; returns the connected BS indicator b(n)."""
    if h < 0.0:
        raise ConfigurationError("h must be nonnegative")
    if b_prev not in (0, 1):
        raise ConfigurationError("b_prev must be 0 or 1")
    if y < -h:
        return 1
    if y < h and b_prev == 1:
        return 1
    return 0


def decide_series(y: np.ndarray, h, b_init: int = 0) -> np.ndarray:
    """Iterate the hysteresis rule along the last axis, vectorized over trials.

    y has shape [..., N]. h is a scalar, an [N] vector, or an [N, 2] table
    whose row n holds the margin applied at sample n when b(n-1) is 0 or 1
    (column b(n-1)); a scalar or vector applies the same margin in both
    states. Returns the int8 b(n) sequence with the same shape as y.
    b_init seeds b(-1).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    h = np.asarray(h, dtype=float)
    try:
        h_tab = np.broadcast_to(h[:, None] if h.ndim == 1 else h, (n, 2))
    except ValueError:
        raise ConfigurationError(
            f"h must be a scalar, an [{n}] vector or an [{n}, 2] table, not {h.shape}"
        ) from None
    if np.any(h_tab < 0.0):
        raise ConfigurationError("h must be nonnegative")
    if b_init not in (0, 1):
        raise ConfigurationError("b_init must be 0 or 1")
    out = np.empty(y.shape, dtype=np.int8)
    prev = np.full(y.shape[:-1], b_init, dtype=np.int8)
    for i in range(n):
        hi = h_tab[i][prev]
        yi = y[..., i]
        prev = ((yi < -hi) | ((yi < hi) & (prev == 1))).astype(np.int8)
        out[..., i] = prev
    return out


def count_switches(b_series: np.ndarray, b_init: int = 0) -> np.ndarray:
    """Number of connection changes along the last axis, including the first
    sample's change away from b_init."""
    b = np.asarray(b_series)
    first = (b[..., 0] != b_init).astype(np.int64)
    if b.shape[-1] == 1:
        return first
    return first + np.abs(np.diff(b, axis=-1)).sum(axis=-1)
