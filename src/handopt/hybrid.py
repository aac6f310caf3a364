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

On S cells the serving cell s faces its rival c, the strongest other cell
(lower index among equals), and hands over when l_s(n) - l_c(n) < -h(n),
or when l_s(n) - l_c(n) = -h(n) and c < s: the lower cell index wins every
tie. On two cells that is the rule above, since l_1 - l_0 is exactly -y in
floating point, so serving_series, the one recursion, reads the stacked
[l_0, l_1] estimates directly. It takes them in the simulator's block
layout, [K samples, S cells, T trials], and returns the [K, T] serving
cells, so the simulator hands its blocks over as they are.

Only the discrete rule is code. The affine l-row update
l_s(n+1) = l_s(n) + G_s(n+1) p_s(n+1) holds only for coefficient schemes
that keep all previous weights when a sample is appended; the sliding
windows the package ships re-weight the whole window each step, so the
estimators module is the ground truth for l_s(n) and the continuous
recursion stays the paper's formulation.
"""

from __future__ import annotations

import numpy as np


def serving_series(est, h_table, pair, init, h_fallback: float, n0: int = 0) -> np.ndarray:
    """Serving cell at every sample by the hysteresis rule, as int16.

    est holds the estimates of S cells in T trials at samples n0 .. n0 +
    K - 1, sample-major with the trials innermost, shape [K, S, T], as the
    simulator's estimate blocks are laid out; every sample reads one
    contiguous [S, T] row of such a buffer. The result has shape [K, T].
    init is the serving cell before sample n0, one for all trials or one
    per trial (shape [T]). The margin at sample n is h_table[n, k] while
    serving pair[k, n-1] (pair[k, 0] at n = 0) and h_fallback while serving
    a cell outside the [2, N] pair; h_table and pair are indexed by
    absolute sample, so they cover the whole trace, and every margin must
    be nonnegative.

    Resuming is exact: a trace split at any samples, each piece decided
    from the last serving cells of the piece before it (init) at its first
    sample (n0), gives the one-shot call's series, since every sample sees
    the same operations.

    The rival can only win where it is the strongest cell: serving the
    strongest cell, the runner-up's gap is >= 0 >= -h, and a zero gap at
    h = 0 means the runner-up has the higher index. So each sample compares
    the serving cell with the strongest cell (lowest index among equals),
    which changes nothing where the two coincide.
    """
    n, n_bs, n_tr = est.shape
    # neg_h[i, s]: minus the margin applied at sample n0 + i while serving s
    rows = np.arange(n)
    prev = np.maximum(n0 + rows - 1, 0)
    neg_h = np.full((n, n_bs), -float(h_fallback))
    neg_h[rows, pair[1][prev]] = -h_table[n0 : n0 + n, 1]
    neg_h[rows, pair[0][prev]] = -h_table[n0 : n0 + n, 0]
    best = np.zeros((n, n_tr), dtype=np.int16)
    best_est = est[:, 0].copy()
    for s in range(1, n_bs):
        best += (est[:, s] > best_est) * (s - best)
        np.maximum(best_est, est[:, s], out=best_est)
    trials = np.arange(n_tr)
    serving = np.full(n_tr, init, dtype=np.int16)
    out = np.empty((n, n_tr), dtype=np.int16)
    for i in range(n):
        lim = neg_h[i][serving]
        gap = est[i, serving, trials] - best_est[i]
        # below the margin switches; ties go to the lower index, where "not
        # above" also sends a NaN gap, as the scalar rule sends y = NaN to BS0
        switch = gap < lim
        switch |= (best[i] < serving) & ~(gap > lim)
        np.copyto(serving, best[i], where=switch)
        out[i] = serving
    return out
