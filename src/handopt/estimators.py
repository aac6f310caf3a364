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
traces stored trials innermost, [S, N, T], which is how the simulator
holds them; apply_coefficients wraps it for [T, S, N] traces, and
estimate_series estimates through that wrapper.
weight_block lays rows out over a span of samples, which is how
gaussian.y_stats reads them.

Window-level operations (ls_fit, els_select) take the window arrays with
the current sample last. GELS keeps its own growing window, restarted when
the normalized one-step residual rejects the fitted model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, SingularFitError

# Relative conditioning floor for the LS normal equations.
EPS_COND = 1e-10
# Below this squared-residual scale the model is treated as exact and the
# normalized residual is not formed.
_EMIN_FLOOR = 1e-9
# Values (links x samples x trials) per block of window_estimates, 512 KB:
# a block's estimates and the powers its lags read stay in L2 while every
# lag is added.
_EST_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class FilterCoeffs:
    """One coefficient row G_s(n, i), i = window_start..time_index."""

    window_start: int
    time_index: int
    weights: np.ndarray
    tag: str  # "avg" | "ls"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != self.time_index - self.window_start + 1:
            raise ConfigurationError("coefficient count must match the window length")
        object.__setattr__(self, "weights", w)

    def apply(self, p_window: np.ndarray) -> float:
        """Contract the row against the window's power samples."""
        return float(np.dot(self.weights, np.asarray(p_window, dtype=float)))


@dataclass(frozen=True)
class LSIntermediates:
    """Windowed moments and closed-form line fit for one LS window.

    mean_power (P), mean_cross (Q), mean_logd (C) and mean_logd_sq (D) are
    the window averages of p, p*x, x and x^2 with x = log10 d. The fitted
    model is p ~ intercept_hat - slope_hat * x, and the coefficient split
    l(n) = sum_i [offset_coeffs(i) - slope_coeffs(i) * x_n] * p(i) is kept
    so callers can recombine rows at any evaluation distance.
    """

    mean_power: float
    mean_cross: float
    mean_logd: float
    mean_logd_sq: float
    intercept_hat: float
    slope_hat: float
    offset_coeffs: np.ndarray  # A_s(n, i)
    slope_coeffs: np.ndarray  # B_s(n, i)


@dataclass(frozen=True)
class GelsDiagnostics:
    """Model-validity diagnostics for ELS selection and the GELS trigger."""

    delta: float
    e1: float
    e2: float
    e_min: float
    e_r: float
    reinit_flag: bool
    tag: str


def window_start(n: int, n_w: int) -> int:
    if n < 0 or n_w < 1:
        raise ConfigurationError("need n >= 0 and n_w >= 1")
    return max(0, n - n_w + 1)


def ls_fit(
    p_window: np.ndarray, d_window: np.ndarray, start_index: int = 0
) -> Tuple[LSIntermediates, FilterCoeffs]:
    """Closed-form least-squares line through (log10 d, p) over one window.

    Raises SingularFitError when the window has fewer than two samples or
    the log-distances are (numerically) all equal.
    """
    p = np.asarray(p_window, dtype=float)
    d = np.asarray(d_window, dtype=float)
    if p.shape != d.shape or p.ndim != 1:
        raise ConfigurationError("power and distance windows must be equal-length 1-D arrays")
    cnt = p.size
    if cnt < 2:
        raise SingularFitError("LS needs at least two samples in the window")
    if np.any(d <= 0.0):
        raise ConfigurationError("distances must be positive")
    x = np.log10(d)
    P = p.mean()
    C = x.mean()
    Q = (p * x).mean()
    D = (x * x).mean()
    denom = D - C * C
    if denom <= EPS_COND * max(D, 1.0):
        raise SingularFitError("degenerate window: log-distances carry no spread")
    intercept = (P * D - Q * C) / denom
    slope = (P * C - Q) / denom
    offset = (D - C * x) / (denom * cnt)
    slope_c = (C - x) / (denom * cnt)
    inter = LSIntermediates(P, Q, C, D, intercept, slope, offset, slope_c)
    g = offset - slope_c * x[-1]
    coeffs = FilterCoeffs(start_index, start_index + cnt - 1, g, "ls")
    return inter, coeffs


def els_select(
    p_window: np.ndarray, d_window: np.ndarray, start_index: int = 0
) -> Tuple[FilterCoeffs, GelsDiagnostics]:
    """Pick AVG or LS for one window by in-window mean squared residual.

    e1 is the residual of the constant model, e2 of the fitted line; the
    lower error wins and exact ties go to LS. Singular LS windows fall
    back to AVG with e2 = inf.
    """
    p = np.asarray(p_window, dtype=float)
    cnt = p.size
    if cnt < 1:
        raise ConfigurationError("window must contain at least one sample")
    mean_p = p.mean()
    e1 = float(np.mean((p - mean_p) ** 2))
    try:
        inter, ls_row = ls_fit(p, d_window, start_index)
    except SingularFitError:
        inter, ls_row = None, None
    if inter is None:
        e2 = math.inf
    else:
        x = np.log10(np.asarray(d_window, dtype=float))
        resid = p - (inter.intercept_hat - inter.slope_hat * x)
        e2 = float(np.mean(resid**2))
    if e2 <= e1:
        coeffs = ls_row
        l_n = coeffs.apply(p)
    else:
        coeffs = FilterCoeffs(start_index, start_index + cnt - 1, np.full(cnt, 1.0 / cnt), "avg")
        l_n = mean_p
    delta = float(p[-1] - l_n)
    e_min = min(e1, e2)
    diag = GelsDiagnostics(delta, e1, e2, e_min, math.nan, False, coeffs.tag)
    return coeffs, diag


@dataclass
class GelsState:
    """Growing estimation window for one link, restarted on reinit."""

    start_index: int = 0
    log10_d: List[float] = field(default_factory=list)
    powers: List[float] = field(default_factory=list)

    @property
    def window_len(self) -> int:
        return len(self.powers)

    @property
    def current_index(self) -> int:
        return self.start_index + self.window_len - 1

    def restart(self):
        """Keep only the latest sample; the window begins again there."""
        self.start_index = self.current_index
        self.log10_d = self.log10_d[-1:]
        self.powers = self.powers[-1:]


def gels_step(
    state: GelsState,
    distance_m: float,
    power_db: float,
    h_db: float = 0.0,
    h_max_db: float = 10.0,
    gamma: float = 3.0,
) -> Tuple[float, GelsDiagnostics]:
    """Advance one link's GELS window by one sample, mutating ``state``.

    Runs the ELS selection on the grown window and forms the normalized
    residual e_r = (p(n) - l(n)) / sqrt(e_min). The window restarts when
    |e_r| > gamma or when h(n) > h_max_db; after a restart the estimate is
    the new sample itself. e_r is not formed when e_min is at the exact-fit
    floor, so noiseless data never triggers.
    """
    if gamma <= 0.0:
        raise ConfigurationError("gamma must be positive")
    if distance_m <= 0.0:
        raise ConfigurationError("distances must be positive")
    state.log10_d.append(math.log10(distance_m))
    state.powers.append(float(power_db))
    p = np.asarray(state.powers)
    d10 = np.asarray(state.log10_d)
    coeffs, diag = els_select(p, 10.0**d10, state.start_index)
    l_n = coeffs.apply(p)
    scale = max(1.0, abs(float(power_db)))
    if diag.e_min > (_EMIN_FLOOR * scale) ** 2:
        e_r = diag.delta / math.sqrt(diag.e_min)
    else:
        e_r = math.nan
    reinit = (math.isfinite(e_r) and abs(e_r) > gamma) or (h_db > h_max_db)
    if reinit:
        state.restart()
        l_n = float(power_db)
    out = GelsDiagnostics(diag.delta, diag.e1, diag.e2, diag.e_min, e_r, reinit, diag.tag)
    return l_n, out


def coefficient_table(distances_m: np.ndarray, n_w: int, mode: str = "avg") -> np.ndarray:
    """Right-aligned [N, min(n_w, N)] filter rows for one link.

    A window never reaches past sample 0, so the table is w = min(n_w, N)
    columns wide: column j of row n weights sample n - w + 1 + j, so
    l(n) = table[n] . p[n - w + 1 .. n]; entries whose sample index is
    negative are zero. mode "ls" falls back to the rectangular row on
    windows that are too short or degenerate (mirroring the ELS fallback),
    so the table is defined at every n. Data-dependent estimators have no
    power-free table; use estimate_series for those.
    """
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
    return rows


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


def window_estimates(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Estimates of a batch of traces stored with the trials innermost.

    tables is [S, N, n_w], one coefficient_table per link, and x [S, N, T];
    entry [s, n, t] of the [S, N, T] result is
    tables[s, n] . x[s, n - n_w + 1 .. n, t], summed from the oldest sample
    of the window to sample n. The lags are accumulated over blocks of
    samples that hold about _EST_BLOCK_VALUES values, so every lag of a
    block reads its powers from cache.
    """
    n_bs, n, n_w = tables.shape
    n_tr = x.shape[2]
    block = max(1, _EST_BLOCK_VALUES // max(1, n_bs * n_tr))
    out = np.zeros(x.shape)
    prod = np.empty((n_bs, block, n_tr))
    for n0 in range(0, n, block):
        n1 = min(n0 + block, n)
        for j in range(n_w):
            back = n_w - 1 - j  # column j weights sample n - back
            lo = max(n0, back)  # samples before lo have no sample n - back
            if lo < n1:
                p = prod[:, : n1 - lo]
                np.multiply(tables[:, lo:n1, j, None], x[:, lo - back : n1 - back], out=p)
                out[:, lo:n1] += p
    return out


def apply_coefficients(tables: np.ndarray, powers_db: np.ndarray) -> np.ndarray:
    """Estimates of a batch of traces from per-link coefficient tables.

    tables is [S, N, n_w], one coefficient_table per link, and powers_db
    [T, S, N]; entry [t, s, n] of the C-contiguous result is
    tables[s, n] . powers_db[t, s, n - n_w + 1 .. n], as window_estimates
    sums it.
    """
    x = np.ascontiguousarray(np.moveaxis(np.asarray(powers_db, dtype=float), 0, -1))
    return np.ascontiguousarray(np.moveaxis(window_estimates(tables, x), -1, 0))


def estimate_series(
    distances_m: np.ndarray,
    powers_db: np.ndarray,
    estimator: str = "avg",
    n_w: int = 4,
    *,
    gels_gamma: float = 3.0,
    gels_h_max: float = 10.0,
    reinit_all: bool = False,
    h_series: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Estimate l_s(n) for all links over a whole trace.

    distances_m is [S, N]; powers_db is [S, N] or [T, S, N] for a batch of
    trials. Returns (estimates, modes) where modes is None for the
    power-independent estimators and otherwise an int8 array (0 = avg,
    1 = ls, 2 = window restart) of the same shape as the estimates.

    With ``reinit_all`` a GELS restart on any link restarts every link's
    window at that sample (default restarts only the triggering link).
    """
    d = np.asarray(distances_m, dtype=float)
    p = np.asarray(powers_db, dtype=float)
    if d.ndim != 2:
        raise ConfigurationError("distances_m must be [n_bs, n_samples]")
    squeeze = p.ndim == 2
    if squeeze:
        p = p[None]
    if p.ndim != 3 or p.shape[1:] != d.shape:
        raise ConfigurationError("powers_db must be [n_bs, n_samples] or [trials, n_bs, n_samples]")
    n_tr, n_bs, n = p.shape

    if estimator in ("avg", "ls"):
        tables = np.stack([coefficient_table(row, n_w, estimator) for row in d])
        out = apply_coefficients(tables, p)
        return (out[0], None) if squeeze else (out, None)

    if estimator == "els":
        out = np.empty_like(p)
        modes = np.zeros(p.shape, dtype=np.int8)
        for t in range(n_tr):
            for s in range(n_bs):
                for i in range(n):
                    nb = window_start(i, n_w)
                    coeffs, _ = els_select(p[t, s, nb : i + 1], d[s, nb : i + 1], nb)
                    out[t, s, i] = coeffs.apply(p[t, s, nb : i + 1])
                    modes[t, s, i] = 1 if coeffs.tag == "ls" else 0
        return (out[0], modes[0]) if squeeze else (out, modes)

    if estimator == "gels":
        h = np.zeros(n) if h_series is None else np.asarray(h_series, dtype=float)
        if h.shape != (n,):
            raise ConfigurationError("h_series must have one entry per sample")
        out = np.empty_like(p)
        modes = np.zeros(p.shape, dtype=np.int8)
        for t in range(n_tr):
            states = [GelsState() for _ in range(n_bs)]
            for i in range(n):
                triggered = False
                for s in range(n_bs):
                    l_n, diag = gels_step(
                        states[s], d[s, i], p[t, s, i], h[i], gels_h_max, gels_gamma
                    )
                    out[t, s, i] = l_n
                    modes[t, s, i] = 2 if diag.reinit_flag else (1 if diag.tag == "ls" else 0)
                    triggered = triggered or diag.reinit_flag
                if reinit_all and triggered:
                    for s in range(n_bs):
                        if modes[t, s, i] != 2:
                            states[s].restart()
                            out[t, s, i] = p[t, s, i]
                            modes[t, s, i] = 2
        return (out[0], modes[0]) if squeeze else (out, modes)

    raise ConfigurationError(f"unknown estimator {estimator!r}")
