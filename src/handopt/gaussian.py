"""Joint Gaussian statistics of the decision process and box-event probabilities.

The estimated strength gap y(n) and the received powers p_s(n) are jointly
Gaussian because both are linear images of the log-normal shadowing. This
module builds their joint mean/covariance over a set of sample times
(y_stats) and evaluates rectangle-event probabilities over the resulting
vectors: exactly (closed form in dimension 1, Simpson quadrature in 2, nested
Gauss-Legendre quadrature in 3, Monte Carlo above), and through a family of
cheaper approximations used when the event dimension grows. The Simpson rule
is a local port of scipy's composite rule, bit-identical to it, so that the
only scipy subpackage the module imports is scipy.special (ndtr); the others
cost several tenths of a second at every start-up. The Monte Carlo sampler
visits the coordinates in ascending order of their marginal box probability
and draws a coordinate only for the samples still inside the box, so a
sample that has left the box draws nothing more.

Coordinates are addressed by labels: ("y", t) for the gap at sample t and
("p", s, t) for BS s received power at sample t. Events are conjunctions of
half-open boxes lo < x <= hi over distinct labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .channel import ChannelParams, path_loss
from .errors import ConfigurationError, NumericalConsistencyError
from .estimators import weight_block

# Integration window half-width in standard deviations; the neglected tail
# mass is below 1e-17, far under every reported error figure.
_WINDOW_SD = 8.5
_MC_CHUNK = 200_000
_DEGENERATE_VAR = 1e-30
# Points per block of the 3-dim quadrature: each of its temporaries is at
# most 2 MiB.
_QUAD_BLOCK = 1 << 18

# Reported absolute-error figures for the deterministic branches.
_STDERR_CLOSED = 1e-9
_STDERR_QUAD = 1e-6

# Gauss-Legendre rule of every 3-dim quadrature segment, and of the
# bvn_cdf_lattice segments of laws whose scale floor binds.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# Gauss-Legendre rule of every other bvn_cdf_lattice segment.
_LATTICE_RULE = np.polynomial.legendre.leggauss(12)
# Node-columns (x nodes times ys entries) per bvn_cdf_lattice chunk.
_LATTICE_CHUNK = 1 << 14

# Samples per GapProcess block law; consecutive blocks share the process's
# overlap on top of these (GapProcess).
_BLOCK_SAMPLES = 64


def _as_label(label):
    if not isinstance(label, tuple) or len(label) < 2:
        raise ConfigurationError(f"bad coordinate label {label!r}")
    if label[0] == "y" and len(label) == 2:
        return ("y", int(label[1]))
    if label[0] == "p" and len(label) == 3:
        return ("p", int(label[1]), int(label[2]))
    raise ConfigurationError(f"bad coordinate label {label!r}")


@dataclass(frozen=True)
class EventSpec:
    """Conjunction of half-open boxes lo < x <= hi over distinct labels."""

    constraints: tuple

    def __post_init__(self):
        norm = []
        seen = set()
        for c in self.constraints:
            if len(c) != 3:
                raise ConfigurationError("each constraint is (label, lower, upper)")
            label, lo, hi = c
            label = _as_label(label)
            lo = float(lo)
            hi = float(hi)
            if math.isnan(lo) or math.isnan(hi) or not lo < hi:
                raise ConfigurationError(f"constraint on {label} needs lower < upper")
            if label in seen:
                raise ConfigurationError(f"duplicate constraint label {label}")
            seen.add(label)
            norm.append((label, lo, hi))
        object.__setattr__(self, "constraints", tuple(norm))

    def __len__(self):
        return len(self.constraints)

    @property
    def labels(self):
        return tuple(c[0] for c in self.constraints)


def gap_below(t: int, h: float):
    """y(t) <= -h: the strength gap favors BS1 by at least the margin."""
    return (("y", t), -math.inf, -float(h))


def gap_inside(t: int, h: float):
    """-h < y(t) <= h: the gap stays inside the margin (requires h > 0)."""
    return (("y", t), -float(h), float(h))


def gap_above(t: int, h: float):
    """y(t) > h: the gap favors BS0 beyond the margin."""
    return (("y", t), float(h), math.inf)


def power_below(s: int, t: int, threshold: float):
    """p_s(t) <= threshold: link s in outage at sample t."""
    return (("p", s, t), -math.inf, float(threshold))


@dataclass(frozen=True)
class GaussianVector:
    """Mean/covariance over labelled coordinates."""

    mu: np.ndarray
    Sigma: np.ndarray
    labels: tuple

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        Sigma = np.atleast_2d(np.asarray(self.Sigma, dtype=float))
        labels = tuple(_as_label(l) for l in self.labels)
        k = mu.shape[0]
        if Sigma.shape != (k, k) or len(labels) != k:
            raise ConfigurationError("mu, Sigma, labels sizes disagree")
        if len(set(labels)) != k:
            raise ConfigurationError("labels must be distinct")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(Sigma))):
            raise ConfigurationError("mu and Sigma must be finite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Sigma", 0.5 * (Sigma + Sigma.T))
        object.__setattr__(self, "labels", labels)

    @cached_property
    def _index(self) -> dict:
        return {l: i for i, l in enumerate(self.labels)}

    def positions(self, labels) -> np.ndarray:
        """The coordinate index of each label, in the given order."""
        return self._resolve(labels)[1]

    def _resolve(self, labels):
        """(labels, indices): this vector's own label of each given label,
        and its coordinate index.

        A label found as given needs no normalising, and its own label is
        what _as_label would make of it; any other label goes through
        _as_label, so it resolves or raises as it always has.
        """
        labels = tuple(labels)
        index = self._index
        try:
            idx = [index[l] for l in labels]
        except (KeyError, TypeError):
            labels = tuple(_as_label(l) for l in labels)
            return labels, self._lookup(labels)
        own = self.labels
        return tuple(own[i] for i in idx), np.array(idx, dtype=np.intp)

    def _lookup(self, labels) -> np.ndarray:
        try:
            return np.array([self._index[l] for l in labels], dtype=np.intp)
        except KeyError as exc:
            raise ConfigurationError(f"label {exc.args[0]} not in vector") from exc

    def subset(self, labels) -> "GaussianVector":
        """The marginal law of the given distinct labels, in their order.

        The result indexes this validated vector directly: a sub-block of a
        finite symmetric covariance is finite and symmetric, so only the
        labels are checked, and the result is byte-equal to the validated
        construction from the same mean, covariance and labels.
        """
        labels, idx = self._resolve(labels)
        if len(set(labels)) != len(labels):
            raise ConfigurationError("labels must be distinct")
        out = object.__new__(GaussianVector)
        object.__setattr__(out, "mu", self.mu[idx])
        object.__setattr__(out, "Sigma", self.Sigma[idx[:, None], idx])
        object.__setattr__(out, "labels", labels)
        return out


@dataclass(frozen=True)
class ProbResult:
    """Probability estimate with its working standard error and provenance."""

    estimate: float
    stderr: float
    method: str
    jittered: bool = False

    def __float__(self):
        return float(self.estimate)


def check_psd(Sigma: np.ndarray, context: str = "covariance") -> None:
    """Raise unless Sigma is symmetric PSD within tolerance.

    The test is eigmin(S) >= -1e-8 max(trace S, 0) for the symmetric part S.
    A 1x1 S is decided exactly (its entry is its eigenvalue) and a 2x2 one
    in closed form, eigmin = (a + d)/2 - hypot((a - d)/2, b); larger ones
    go through eigvalsh.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    sym = 0.5 * (Sigma + Sigma.T)
    if sym.shape == (1, 1):
        eigmin = trace = float(sym[0, 0])
    elif sym.shape == (2, 2):
        a, b, d = float(sym[0, 0]), float(sym[1, 0]), float(sym[1, 1])
        trace = a + d
        eigmin = 0.5 * trace - math.hypot(0.5 * (a - d), b)
    else:
        eigmin = float(np.linalg.eigvalsh(sym).min()) if sym.size else 0.0
        trace = float(np.trace(sym))
    tol = 1e-8 * max(trace, 0.0)
    if eigmin < -tol:
        raise NumericalConsistencyError(
            f"{context} is not PSD: min eigenvalue {eigmin:.3e} under tolerance {-tol:.3e}"
        )


def y_stats(
    table0: np.ndarray,
    table1: np.ndarray,
    channels,
    distances_m: np.ndarray,
    step_m: float,
    y_times,
    p_times=(),
) -> GaussianVector:
    """Exact joint law of the gap process and selected received powers.

    table0/table1 are the two links' [N, min(n_w, N)] coefficient tables
    in the estimators.coefficient_table layout (row t right-aligned on
    sample t, producing l_s(t)); channels the per-link ChannelParams pair;
    distances_m the [2, N] per-link distances. y_times and p_times=(s, t)
    pairs pick the coordinates, which label the returned vector in that
    order: ("y", t) first, then ("p", s, t). Callers PSD-check the laws
    they use (GapProcess.block_stats, exact_prob).
    """
    tables = tuple(np.asarray(t, dtype=float) for t in (table0, table1))
    distances_m = np.asarray(distances_m, dtype=float)
    if distances_m.ndim != 2 or distances_m.shape[0] != 2:
        raise ConfigurationError("distances_m must be [2, N]")
    n_total = distances_m.shape[1]
    if any(t.ndim != 2 or t.shape[0] != n_total for t in tables):
        raise ConfigurationError("coefficient tables must be [N, min(n_w, N)]")
    if len(channels) != 2 or not all(isinstance(c, ChannelParams) for c in channels):
        raise ConfigurationError("channels must be a pair of ChannelParams")
    y_times = [int(t) for t in y_times]
    p_times = [(int(s), int(t)) for (s, t) in p_times]
    for t in y_times:
        if not 0 <= t < n_total:
            raise ConfigurationError(f"y time {t} out of range")
    for s, t in p_times:
        if s not in (0, 1) or not 0 <= t < n_total:
            raise ConfigurationError(f"bad p coordinate ({s}, {t})")
    try:
        var = [ch.shadow_sigma_db**2 for ch in channels]
    except OverflowError:
        # Python's float pow raises past the float range, where numpy's
        # would warn and go on with inf covariances
        raise ConfigurationError("shadow_sigma_db squared overflows the float range") from None

    # Support of all requested rows plus the p times: one small slice of the
    # trace carries every covariance sum. A row ends at its own sample and
    # spans at most n_w samples, so only its first nonzero weight can widen
    # the slice.
    lo = min(y_times + [t for _, t in p_times], default=0)
    hi = max(y_times + [t for _, t in p_times], default=0)
    start = max(0, lo - max(tbl.shape[1] for tbl in tables) + 1)
    blocks = [weight_block(tbl, y_times, start, hi) for tbl in tables]
    used = np.flatnonzero(blocks[0].any(axis=0) | blocks[1].any(axis=0))
    if used.size:
        lo = min(lo, start + int(used[0]))
    cols = np.arange(lo, hi + 1)
    # g[s][i, c]: weight of sample cols[c] in link s's row of y_times[i]
    g = [np.ascontiguousarray(b[:, lo - start :]) for b in blocks]

    lag = np.abs(cols[:, None] - cols[None, :]).astype(float)
    autocov = []
    means_pl = []
    for s in (0, 1):
        ch = channels[s]
        a = ch.ar_coeff(step_m)
        autocov.append(var[s] * a**lag)
        means_pl.append(path_loss(ch, distances_m[s]))

    ky, kp = len(y_times), len(p_times)
    k = ky + kp
    mu = np.zeros(k)
    Sigma = np.zeros((k, k))

    # A shadowing variance near the float range can overflow a sum of the
    # two links' covariances. The sums run without a warning, and the
    # finiteness check of the returned vector makes the inf a config error.
    with np.errstate(over="ignore", invalid="ignore"):
        if ky:
            mu[:ky] = g[0] @ means_pl[0][cols] - g[1] @ means_pl[1][cols]
            Sigma[:ky, :ky] = g[0] @ autocov[0] @ g[0].T + g[1] @ autocov[1] @ g[1].T

        for j, (s, t) in enumerate(p_times):
            ch = channels[s]
            mu[ky + j] = means_pl[s][t]
            sign = 1.0 if s == 0 else -1.0
            if ky:
                a = ch.ar_coeff(step_m)
                r_row = var[s] * a ** np.abs(t - cols).astype(float)
                Sigma[ky + j, :ky] = sign * (g[s] @ r_row)
                Sigma[:ky, ky + j] = Sigma[ky + j, :ky]

    # power-power block: one link's powers covary by lag, the links' not at
    # all. Each lag's entry is Python's float pow, which numpy's array pow
    # need not match bit for bit.
    for s in (0, 1):
        idx = [ky + j for j, (s2, _) in enumerate(p_times) if s2 == s]
        if not idx:
            continue
        times = np.array([t for s2, t in p_times if s2 == s])
        lags = np.abs(times[:, None] - times[None, :])
        ch = channels[s]
        a = ch.ar_coeff(step_m)
        by_lag = np.array([var[s] * a**k for k in range(int(lags.max()) + 1)])
        Sigma[np.ix_(idx, idx)] = by_lag[lags]

    labels = tuple(("y", t) for t in y_times) + tuple(("p", s, t) for s, t in p_times)
    return GaussianVector(mu, Sigma, labels)


def _match_event(gv: GaussianVector, ev: EventSpec):
    """Restrict gv to the event's labels, in event order.

    A law that is already the joint of the event's own labels, as the
    chains pass it (GapProcess.joint), needs no subset.
    """
    labels = ev.labels
    sub = gv if gv.labels == labels else gv.subset(labels)
    lo = np.array([c[1] for c in ev.constraints])
    hi = np.array([c[2] for c in ev.constraints])
    return sub.mu, sub.Sigma, lo, hi


def _strip_degenerate(mu, Sigma, lo, hi):
    """Resolve near-zero-variance coordinates deterministically."""
    var = Sigma.diagonal()
    fixed = var <= _DEGENERATE_VAR
    if not fixed.any():
        return mu, Sigma, lo, hi, False
    inside = (lo[fixed] < mu[fixed]) & (mu[fixed] <= hi[fixed])
    if not np.all(inside):
        return None
    keep = ~fixed
    return mu[keep], Sigma[np.ix_(keep, keep)], lo[keep], hi[keep], True


def _cholesky_jittered(Sigma):
    try:
        return np.linalg.cholesky(Sigma), False
    except np.linalg.LinAlgError:
        pass
    k = Sigma.shape[0]
    jitter = 1e-10 * max(float(np.trace(Sigma)), 1e-300) / k
    try:
        return np.linalg.cholesky(Sigma + jitter * np.eye(k)), True
    except np.linalg.LinAlgError as exc:
        raise NumericalConsistencyError(
            "covariance not factorizable even after jitter"
        ) from exc


def _mc_box_prob(mu, Sigma, lo, hi, n_samples, seed):
    """Hit-or-miss Monte Carlo of Pr[lo < x <= hi], x ~ N(mu, Sigma).

    The coordinates are visited in ascending order of their marginal box
    probability (stable sort, so the order depends only on the box), and
    x = mu + L z with L the Cholesky factor of the reordered covariance.
    Because L is lower-triangular, x_j reads only z_0..z_j: each chunk draws
    z_j only for the samples still inside the box after coordinates
    0..j-1 and drops the rest. A rejected sample draws nothing more, and
    the hit count is Binomial(n_samples, p) as if every coordinate were
    drawn. The reported stderr is the binomial one.
    """
    sd = np.sqrt(np.diag(Sigma))
    order = np.argsort(ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd), kind="stable")
    mu, lo, hi = mu[order], lo[order], hi[order]
    L, jittered = _cholesky_jittered(Sigma[np.ix_(order, order)])
    k = mu.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = 0
    done = 0
    while done < n_samples:
        alive = min(_MC_CHUNK, n_samples - done)
        done += alive
        z = []  # z_0..z_j of the samples still inside
        for j in range(k):
            z.append(rng.standard_normal(alive))
            x = L[j, j] * z[j]
            for i in range(j):
                x += L[j, i] * z[i]
            x += mu[j]
            inside = (lo[j] < x) & (x <= hi[j])
            alive = int(np.count_nonzero(inside))
            if alive == 0:
                break
            if j + 1 < k:
                z = [c[inside] for c in z]
        hits += alive
    p = hits / n_samples
    # Clip only inside the stderr so an empty count still reports a usable
    # scale instead of a zero-width interval.
    pc = min(max(p, 1.0 / (n_samples + 2)), 1.0 - 1.0 / (n_samples + 2))
    stderr = math.sqrt(pc * (1.0 - pc) / n_samples)
    return p, stderr, jittered


def _interval_prob(lo, hi, m, s):
    """Pr[lo < X <= hi] for X ~ N(m, s^2), lo < hi scalars, m scalar or array.

    An infinite edge costs no ndtr: ndtr(+inf) is exactly 1.0 and
    ndtr(-inf) exactly 0.0, and x - 0.0 == x, so the one-sided forms are
    bit-identical to the two-CDF difference.
    """
    if hi == math.inf:
        return 1.0 if lo == -math.inf else 1.0 - ndtr((lo - m) / s)
    if lo == -math.inf:
        return ndtr((hi - m) / s)
    return ndtr((hi - m) / s) - ndtr((lo - m) / s)


def _simpson(y, x):
    """Composite Simpson rule over an odd number of increasing nodes x.

    Repeats scipy's simpson(y, x=x) operation for operation (its odd-length
    branch with x given, as of scipy 1.17), so the result is bit-identical;
    the local copy keeps scipy's integrate subpackage, and everything it
    imports, off the start-up path. Spacings are positive, so scipy's guards
    against zero division are left out.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    w0 = 2.0 - 1.0 / h0divh1
    w1 = hsum * (hsum / hprod)
    w2 = 2.0 - h0divh1
    return np.sum(hsum / 6.0 * (y[:-2:2] * w0 + y[1:-1:2] * w1 + y[2::2] * w2))


def _quad_dim2(mu, Sigma, lo, hi):
    s0 = math.sqrt(Sigma[0, 0])
    a = max(lo[0], mu[0] - _WINDOW_SD * s0)
    b = min(hi[0], mu[0] + _WINDOW_SD * s0)
    if not a < b:
        return 0.0
    x = np.linspace(a, b, 2001)
    beta = Sigma[1, 0] / Sigma[0, 0]
    m = mu[1] + beta * (x - mu[0])
    s1 = math.sqrt(max(Sigma[1, 1] - beta * Sigma[1, 0], 1e-300))
    dens = np.exp(-0.5 * ((x - mu[0]) / s0) ** 2) / (s0 * math.sqrt(2 * math.pi))
    return float(_simpson(dens * _interval_prob(lo[1], hi[1], m, s1), x))


def _gl_rule(a, b, n_seg):
    """Nodes and weights, one row per interval [a[i], b[i]], of n_seg equal
    24-node Gauss-Legendre segments."""
    edges = a[:, None] + (b - a)[:, None] * (np.arange(n_seg + 1) / n_seg)
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    mid = edges[:, :-1, None] + half
    nodes = (mid + half * _GL_NODES).reshape(a.size, -1)
    return nodes, (half * _GL_WEIGHTS).reshape(a.size, -1)


def _gl_zoned(a, b, steps):
    """Gauss-Legendre nodes and weights, one row per interval [a[i], b[i]].

    The integrand is smooth on unit scale except across its steps, given as
    (center, scale) pairs, center a scalar or an array over rows: within
    _WINDOW_SD scales of its center a step varies on its scale, beyond that
    it is flat. Zone borders split each interval into pieces, and each piece
    into equal 24-node segments no wider than twice the smallest scale of
    the zones it lies in (1 outside them), so a step of any sharpness costs
    about nine segments. An empty interval gets zero weights.
    """
    b = np.maximum(a, b)
    zones = [(c - _WINDOW_SD * s, c + _WINDOW_SD * s, s) for c, s in steps if s < 1.0]
    cuts = [a, b] + [np.broadcast_to(e, a.shape) for z in zones for e in z[:2]]
    borders = np.sort(np.clip(np.column_stack(cuts), a[:, None], b[:, None]), axis=1)
    xs, ws = [], []
    for left, right in zip(borders.T[:-1], borders.T[1:]):
        if not np.any(right > left):
            continue
        mid = 0.5 * (left + right)
        scale = np.ones_like(mid)
        for z_lo, z_hi, s in zones:
            scale = np.where((z_lo <= mid) & (mid <= z_hi), np.minimum(scale, s), scale)
        x, w = _gl_rule(left, right, math.ceil(np.max((right - left) / (2.0 * scale))))
        xs.append(x)
        ws.append(w)
    if not xs:
        return np.zeros((a.size, 0)), np.zeros((a.size, 0))
    return np.hstack(xs), np.hstack(ws)


def _std_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def _quad_dim3(mu, Sigma, lo, hi):
    """Trivariate box probability by nested zoned Gauss-Legendre.

    With the Cholesky factor L, X = mu + L z for standard z. The outer rule
    runs over z0, the inner over z1 inside its conditional window given z0
    (the x1 box edges are segment borders), and z2 is integrated in closed
    form by an ndtr difference. The inner integrand steps where x2's
    conditional mean crosses an x2 edge. The outer one steps where x1's
    conditional mean given z0 crosses an x1 edge, where x2's does, and where
    an x1 edge's border in z1 meets an x2 step. Both rules resolve every
    step on its own scale (_gl_zoned), which keeps the result exact however
    close to singular the covariance is.

    The coordinates are first reordered so that the least correlated pair
    comes first. The last coordinate is then the one whose variance given
    the other two, relative to its own, is smallest (det R / (1 - rho_jk^2)
    for correlation matrix R), and the middle one keeps as much variance
    given the first as any order allows. Without this, a middle coordinate
    fixed by the first to within roundoff leaves l11 at a few hundred ulps
    and l21 with a relative error that shows in the result.
    """
    sd = np.sqrt(np.diag(Sigma))
    rho2 = (Sigma / np.outer(sd, sd)) ** 2
    # rho^2 of the pair left when coordinate 2, 1 or 0 goes last; ties keep
    # the given order
    last = 2 - int(np.argmin([rho2[0, 1], rho2[0, 2], rho2[1, 2]]))
    if last != 2:
        p = [i for i in range(3) if i != last] + [last]
        mu, Sigma, lo, hi = mu[p], Sigma[np.ix_(p, p)], lo[p], hi[p]
    l00 = math.sqrt(Sigma[0, 0])
    l10, l20 = Sigma[1, 0] / l00, Sigma[2, 0] / l00
    v1 = Sigma[1, 1] - l10 * l10
    l11 = math.sqrt(max(v1, 1e-300))
    # an x1 with no variance left given x0 carries no information on x2
    l21 = (Sigma[2, 1] - l20 * l10) / l11 if v1 > 0.0 else 0.0
    l22 = math.sqrt(max(Sigma[2, 2] - l20 * l20 - l21 * l21, 1e-300))

    a0 = max(-_WINDOW_SD, (lo[0] - mu[0]) / l00)
    b0 = min(_WINDOW_SD, (hi[0] - mu[0]) / l00)
    if not a0 < b0:
        return 0.0
    e1 = [e - mu[1] for e in (lo[1], hi[1]) if math.isfinite(e)]
    e2 = [e - mu[2] for e in (lo[2], hi[2]) if math.isfinite(e)]
    steps0 = []
    # only steps sharper than unit scale get a zone (see _gl_zoned)
    if abs(l10) > l11:
        steps0 += [(e / l10, l11 / abs(l10)) for e in e1]
    if abs(l20) > math.hypot(l21, l22):
        steps0 += [(e / l20, math.hypot(l21, l22) / abs(l20)) for e in e2]
    rel = l10 / l11 - l20 / l21 if l21 else 0.0
    if rel:
        steps0 += [((f / l11 - e / l21) / rel, l22 / abs(l21 * rel)) for f in e1 for e in e2]
    z0, w0 = _gl_zoned(np.array([a0]), np.array([b0]), steps0)
    z0, w0 = z0[0], w0[0] * _std_pdf(z0[0])

    m1 = mu[1] + l10 * z0
    a1 = np.maximum(-_WINDOW_SD, (lo[1] - m1) / l11)
    b1 = np.minimum(_WINDOW_SD, (hi[1] - m1) / l11)
    # an inner row has at most 1 + 2 len(e2) pieces, each of at most
    # ceil(_WINDOW_SD) segments
    row_nodes = (1 + 2 * len(e2)) * math.ceil(_WINDOW_SD) * _GL_NODES.size
    rows = max(1, _QUAD_BLOCK // row_nodes)
    total = 0.0
    for i in range(0, z0.size, rows):
        blk = slice(i, i + rows)
        shift = l20 * z0[blk]
        steps1 = [((e - shift) / l21, l22 / abs(l21)) for e in e2] if l21 else []
        z1, w1 = _gl_zoned(a1[blk], b1[blk], steps1)
        m2 = mu[2] + shift[:, None] + l21 * z1
        inner = _interval_prob(lo[2], hi[2], m2, l22)
        total += float(w0[blk] @ (w1 * _std_pdf(z1) * inner).sum(axis=1))
    return total


def _check_mc_args(mc_samples, seed):
    """The Monte Carlo arguments, checked whatever the event's dimension."""
    if isinstance(mc_samples, bool) or not isinstance(mc_samples, (int, np.integer)):
        raise ConfigurationError(f"mc_samples must be an integer, not {mc_samples!r}")
    if mc_samples < 10_000:
        raise ConfigurationError("mc_samples must be at least 10000")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, not {seed!r}")


def exact_prob(
    gv: GaussianVector,
    ev: EventSpec,
    mc_samples: int = 1_000_000,
    seed: int = 0,
) -> ProbResult:
    """Probability of the box event under the joint Gaussian law.

    Dimension 1 is closed form. Dimension 2 runs a 2001-node composite
    Simpson rule over x0 with the conditional normal CDF of x1 inside; the
    rule is a bit-identical local port of scipy's (_simpson), kept off the
    import path for start-up. Dimension 3 runs nested Gauss-Legendre rules
    over x0 and x1, each segmented at the steps of its integrand, with the
    conditional normal CDF of x2 inside (_quad_dim3). Each of these normal
    CDF differences is one-sided at an infinite box edge (_interval_prob):
    an edge at +-inf adds an exact 1 or 0 and costs no ndtr, and the value
    is bit for bit the two-CDF one. These report a conservative
    absolute-error figure; higher dimensions fall back to chunked
    hit-or-miss Monte Carlo over mc_samples draws with a binomial standard
    error (_mc_box_prob). It orders the coordinates by ascending
    marginal box probability and draws each one only for the samples still
    inside the box. A fixed seed gives a fixed estimate, which does not
    depend on the order of the event's labels unless two marginal box
    probabilities tie. Near-zero-variance coordinates are resolved
    as deterministic memberships first. mc_samples (an int >= 10000) and
    seed (a nonnegative int) are checked in every dimension.
    """
    _check_mc_args(mc_samples, seed)
    if len(ev) == 0:
        return ProbResult(1.0, 0.0, "closed-form")
    mu, Sigma, lo, hi = _match_event(gv, ev)
    check_psd(Sigma, "event covariance")
    stripped = _strip_degenerate(mu, Sigma, lo, hi)
    if stripped is None:
        return ProbResult(0.0, 0.0, "degenerate")
    mu, Sigma, lo, hi, any_fixed = stripped
    k = mu.shape[0]
    if k == 0:
        return ProbResult(1.0, 0.0, "degenerate")
    if k == 1:
        p = float(_interval_prob(lo[0], hi[0], mu[0], math.sqrt(Sigma[0, 0])))
        return ProbResult(max(p, 0.0), _STDERR_CLOSED, "closed-form")
    if k <= 3:
        # rounding can carry a quadrature sum a few ulps outside [0, 1]
        p = (_quad_dim2 if k == 2 else _quad_dim3)(mu, Sigma, lo, hi)
        return ProbResult(min(max(p, 0.0), 1.0), _STDERR_QUAD, "quadrature")
    p, stderr, jittered = _mc_box_prob(mu, Sigma, lo, hi, mc_samples, seed)
    return ProbResult(p, stderr, "mc", jittered)


def approx1(
    gv: GaussianVector,
    ev: EventSpec,
    group_size: int,
    mc_samples: int = 1_000_000,
    seed: int = 0,
) -> ProbResult:
    """Correlation-truncating product: split the event into contiguous blocks
    of group_size coordinates and multiply the blocks' exact probabilities.

    With group_size >= dim(event) this is exactly exact_prob, same seed and
    all. Per-block seeds otherwise derive from (seed, block index).
    """
    if group_size < 1:
        raise ConfigurationError("group_size must be at least 1")
    _check_mc_args(mc_samples, seed)
    k = len(ev)
    if group_size >= k:
        return exact_prob(gv, ev, mc_samples, seed)
    blocks = [
        EventSpec(ev.constraints[i : i + group_size]) for i in range(0, k, group_size)
    ]
    probs = np.empty(len(blocks))
    errs = np.empty(len(blocks))
    jittered = False
    for idx, block in enumerate(blocks):
        block_seed = int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])
        r = exact_prob(gv, block, mc_samples, block_seed)
        probs[idx] = r.estimate
        errs[idx] = r.stderr
        jittered |= r.jittered
    estimate = float(np.prod(probs))
    # First-order propagation: each block's partial derivative is the product
    # of the other blocks' estimates.
    partials = np.array([np.prod(np.delete(probs, i)) for i in range(len(blocks))])
    stderr = float(np.sqrt(np.sum((partials * errs) ** 2)))
    return ProbResult(estimate, stderr, "approx1", jittered)


def _eigen_box_factor(mu, lo, hi, lam, det):
    k = mu.shape[0]
    s = math.sqrt(lam)
    factors = ndtr((hi - mu) / s) - ndtr((lo - mu) / s)
    try:
        scale = lam ** (k / 2.0)
    except OverflowError:
        raise NumericalConsistencyError(
            f"eigenvalue sandwich overflows: eigenvalue {lam:.3e} to the power {k}/2"
        ) from None
    return float(scale / math.sqrt(det) * np.prod(factors))


def approx2_bounds(gv: GaussianVector, ev: EventSpec):
    """Eigenvalue sandwich (lower, upper) on the box probability.

    Replaces the covariance by lambda_min*I / lambda_max*I inside the
    exponent; for isotropic covariance both sides collapse to the exact
    value. Raw bounds: the upper side may exceed 1. Requires a positive
    definite covariance whose determinant and lambda^(k/2) are finite
    nonzero floats; NumericalConsistencyError otherwise.
    """
    mu, Sigma, lo, hi = _match_event(gv, ev)
    lam = np.linalg.eigvalsh(0.5 * (Sigma + Sigma.T))
    if lam[0] <= 0.0:
        raise NumericalConsistencyError(
            "eigenvalue sandwich needs a positive definite covariance; "
            f"min eigenvalue {lam[0]:.3e}"
        )
    with np.errstate(over="ignore"):
        det = float(np.prod(lam))
    if not 0.0 < det < math.inf:
        raise NumericalConsistencyError(
            f"eigenvalue sandwich: covariance determinant {det:.3e} leaves the float range"
        )
    lower = _eigen_box_factor(mu, lo, hi, float(lam[0]), det)
    upper = _eigen_box_factor(mu, lo, hi, float(lam[-1]), det)
    return lower, upper


def approx3_upper(
    gv: GaussianVector,
    ev: EventSpec,
    m_split: int,
    mc_samples: int = 1_000_000,
    seed: int = 0,
) -> ProbResult:
    """Cauchy-Schwarz upper bound mixing an exact tail block with an
    eigenvalue bound on the head block.

    The last m_split coordinates keep their exact joint probability (square
    rooted); the first k - m_split contribute the square-rooted eigenvalue
    upper bound of their marginal. m_split = k degenerates to sqrt(exact).
    """
    k = len(ev)
    if not 1 <= m_split <= k:
        raise ConfigurationError("m_split must lie in [1, dim(event)]")
    tail = EventSpec(ev.constraints[k - m_split :])
    r = exact_prob(gv, tail, mc_samples, seed)
    if m_split == k:
        est = math.sqrt(max(r.estimate, 0.0))
        stderr = r.stderr / (2.0 * est) if est > 0 else math.sqrt(r.stderr)
        return ProbResult(est, stderr, "approx3", r.jittered)
    head = EventSpec(ev.constraints[: k - m_split])
    _, head_upper = approx2_bounds(gv, head)
    est = math.sqrt(max(r.estimate, 0.0)) * math.sqrt(max(head_upper, 0.0))
    if r.estimate > 0:
        stderr = est * r.stderr / (2.0 * r.estimate)
    else:
        stderr = math.sqrt(max(head_upper, 0.0) * r.stderr)
    return ProbResult(est, stderr, "approx3", r.jittered)


class GapProcess:
    """Bundles the filter tables and channel pair behind y_stats.

    The tables are the two links' [N, min(n_w, N)]
    estimators.coefficient_table rows. Callers hand events around as label
    sets; this object turns them into the right joint Gaussian on demand.

    Every law it hands out is an index slice (GaussianVector.subset) of the
    block law of the label set's earliest sample. Block j is the law of y
    and both powers at every sample from j * _BLOCK_SAMPLES to
    j * _BLOCK_SAMPLES + _BLOCK_SAMPLES + overlap - 1, formed by one y_stats
    call, so every span of at most overlap + 1 samples lies inside the block
    of its first sample. The overlap (0 to _BLOCK_SAMPLES) is fixed at
    construction; a config's process takes max(horizon, resolved depth),
    which holds a trellis window (horizon + 1 samples) and a chain term
    (depth + 1 samples). Within a block, equal coordinates carry bit-equal
    moments in every slice, so a caller that stacks the windows of one
    block can deduplicate what it derives from them by their bytes.

    The object keeps the two blocks it built last: a walk in trace order
    builds each block once, although a window or term near a block's start
    reads the block before. The object keeps no probabilities: metrics
    keeps a chain memo per process (its connection sweeps, box
    probabilities and telescope values), which is dropped with the process.
    """

    def __init__(self, table0, table1, channels, distances_m, step_m, *, overlap: int):
        self.table0 = np.asarray(table0, dtype=float)
        self.table1 = np.asarray(table1, dtype=float)
        self.channels = tuple(channels)
        self.distances_m = np.asarray(distances_m, dtype=float)
        self.step_m = float(step_m)
        if self.distances_m.ndim != 2 or self.distances_m.shape[0] != 2:
            raise ConfigurationError("distances_m must be [2, N]")
        if isinstance(overlap, bool) or not isinstance(overlap, (int, np.integer)):
            raise ConfigurationError(f"overlap must be an integer, not {overlap!r}")
        if not 0 <= overlap <= _BLOCK_SAMPLES:
            raise ConfigurationError(f"overlap must lie in 0..{_BLOCK_SAMPLES}")
        self.overlap = int(overlap)
        self._blocks = {}  # block index -> law, of the two blocks built last

    @property
    def n_samples(self) -> int:
        return self.distances_m.shape[1]

    def _block_of(self, n: int) -> GaussianVector:
        """The law of the block of sample n, built on first use."""
        j = n // _BLOCK_SAMPLES
        law = self._blocks.get(j)
        if law is None:
            t0 = j * _BLOCK_SAMPLES
            ts = range(t0, min(t0 + _BLOCK_SAMPLES + self.overlap, self.n_samples))
            law = y_stats(
                self.table0, self.table1, self.channels, self.distances_m, self.step_m,
                ts, [(s, t) for t in ts for s in (0, 1)],
            )
            if len(self._blocks) == 2:
                del self._blocks[next(iter(self._blocks))]
            self._blocks[j] = law
        return law

    def joint(self, labels) -> GaussianVector:
        """The law of these distinct labels, in their order, sliced from the
        block of the earliest sample; a label outside that block raises."""
        labels = tuple(_as_label(l) for l in labels)
        first = min((l[-1] for l in labels), default=-1)
        if not 0 <= first < self.n_samples:
            raise ConfigurationError("a joint law needs labels at samples of the trace")
        return self._block_of(first).subset(labels)

    def block_stats(self, y_times, p_times=()) -> GaussianVector:
        """The law of ("y", t) for y_times, then ("p", s, t) for p_times,
        sliced as joint() slices it and PSD-checked."""
        gv = self.joint([("y", t) for t in y_times] + [("p", s, t) for s, t in p_times])
        check_psd(gv.Sigma, "joint y/p covariance")
        return gv


def bvn_cdf_lattice(mu, Sigma, xs, ys):
    """P(X <= x, Y <= y) on the lattice xs × ys for bivariate Gaussians.

    mu [2] and Sigma [2, 2] give one law and an [nx, ny] table; mu [B, 2]
    and Sigma [B, 2, 2] give B laws over the same lattice and a [B, nx, ny]
    stack, each table equal bit for bit to the single-law call. The moments
    must be finite.

    Deterministic segmented Gauss-Legendre integration over X with the exact
    conditional normal CDF inside; every lattice value is an integration
    border, so box probabilities assembled from the returned table carry no
    interpolation error (absolute error well under 1e-10). xs must ascend.
    +-inf entries are allowed in both lattices; the conditional CDF of a
    +-inf column is exactly 1 or 0 and is not evaluated.

    Segments wider than twice the scale on which the integrand varies, the
    smaller of sd(X) and the conditional sd of Y measured along X
    (s_cond / |beta|), are split into equal sub-segments; this resolves the
    tails outside the lattice at high correlation. The scale is floored at
    sd(X) / 64 (|rho| above about 0.99988), which bounds the node count.

    The Gauss-Legendre order is chosen per law, as the integrand's
    sharpness allows. Where the scale is at least the floor, a sub-segment
    spans at most two scales of the integrand, and the 12-node
    _LATTICE_RULE leaves only rounding error: on random laws (sd 0.3-10,
    |rho| up to 1 - 1e-7, 0.25-spaced lattices) and on every lattice call
    of the shipped presets, its tables lie within 8e-16 of the 24-node
    rule's. Where the floor binds, a sub-segment spans more scales of the
    conditional CDF's step the nearer |rho| comes to 1 (about 70 at
    1 - 1e-7); 12 nodes there are off by up to 3e-4, so these laws keep
    the 24 nodes of _GL_NODES. The stack is split into the two groups, and
    each group is integrated in chunks of whole laws holding at most
    _LATTICE_CHUNK node-columns (nodes times ys entries) each, or one law
    where a single law holds more, so the temporaries stay small however
    many laws come.
    """
    mu = np.asarray(mu, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    single = mu.shape == (2,) and Sigma.shape == (2, 2)
    if single:
        mu, Sigma = mu[None], Sigma[None]
    elif mu.ndim != 2 or mu.shape[1:] != (2,) or Sigma.shape != (mu.shape[0], 2, 2):
        raise ConfigurationError("bvn_cdf_lattice needs a bivariate law or a stack of them")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(Sigma))):
        raise ConfigurationError("bvn_cdf_lattice needs finite moments")
    if np.any(np.diff(xs) < 0):
        raise ConfigurationError("xs must be sorted ascending")
    n_law = mu.shape[0]

    var_x = np.maximum(Sigma[:, 0, 0], _DEGENERATE_VAR)
    sx = np.sqrt(var_x)
    beta = Sigma[:, 1, 0] / var_x
    s_cond = np.sqrt(np.maximum(Sigma[:, 1, 1] - beta * Sigma[:, 1, 0], 1e-300))
    with np.errstate(divide="ignore"):
        scale = np.where(np.abs(beta) * sx <= s_cond, sx, s_cond / np.abs(beta))
    floor = sx / 64.0
    floored = scale < floor
    step = 2.0 * np.maximum(scale, floor)

    out = np.empty((n_law, xs.size, ys.size))
    for group, rule in ((~floored, _LATTICE_RULE), (floored, (_GL_NODES, _GL_WEIGHTS))):
        laws = np.flatnonzero(group)
        if laws.size:
            _lattice_tables(
                out, laws, mu[laws], sx[laws], beta[laws], s_cond[laws], step[laws], xs, ys, *rule
            )
    return out[0] if single else out


def _lattice_tables(out, laws, mu, sx, beta, s_cond, step, xs, ys, gl_nodes, gl_weights):
    """Write bvn_cdf_lattice's tables of the given laws into out[laws] on one
    node rule, given each law's means, sd(X), slope and conditional sd of Y
    on X, and widest sub-segment."""
    n_law, nx, ny = mu.shape[0], xs.size, ys.size
    lo_w = mu[:, 0] - _WINDOW_SD * sx
    hi_w = mu[:, 0] + _WINDOW_SD * sx
    inside = (xs > lo_w[:, None]) & (xs < hi_w[:, None])

    # law b's borders are lo_w, its xs inside the window and hi_w; the
    # segments of every law lie end to end in one flat array
    n_seg = inside.sum(axis=1) + 1
    ends_kept = np.ones((n_law, 1), bool)
    keep = np.concatenate([ends_kept, inside, ends_kept], axis=1)
    borders = np.concatenate(
        [lo_w[:, None], np.broadcast_to(xs, (n_law, nx)), hi_w[:, None]], axis=1
    )[keep]
    seg_law = np.repeat(np.arange(n_law), n_seg)
    seg0 = np.concatenate(([0], np.cumsum(n_seg)))  # first segment of each law
    left_at = np.arange(seg_law.size) + seg_law  # border index of each segment's left end
    left = borders[left_at]
    width = borders[left_at + 1] - left
    n_sub = np.maximum(np.ceil(width / step[seg_law]), 1.0).astype(int)
    # first[i]: position of segment i's left border among the refined borders
    first = np.concatenate(([0], np.cumsum(n_sub)))
    sub0 = first[seg0]  # first sub-segment of each law

    n_fine = sub0[1:] - sub0[:-1]  # sub-segments of each law
    # rows below the window read cum[0] = 0, rows above it the total
    row = np.where(xs >= hi_w[:, None], n_fine[:, None], 0)
    rank = np.cumsum(inside, axis=1)
    row[inside] = (first[seg0[:-1, None] + rank] - sub0[:-1, None])[inside]

    # every sub-segment: its law, its place in the law and its ends; one
    # ends where the next begins, the last of a law at hi_w
    seg = np.repeat(np.arange(n_sub.size), n_sub)
    law = seg_law[seg]
    place = np.arange(seg.size) - sub0[law]
    fine = left[seg] + width[seg] * ((np.arange(seg.size) - first[seg]) / n_sub[seg])
    right = np.append(fine[1:], 0.0)
    right[sub0[1:] - 1] = hi_w
    half = 0.5 * (right - fine)
    mid = 0.5 * (right + fine)

    finite = np.isfinite(ys)
    edge = (ys[~finite] == np.inf).astype(float)
    size = np.maximum(n_fine * gl_nodes.size * ny, 1)  # node-columns of each law
    ends = np.cumsum(size)
    b0 = 0
    while b0 < n_law:
        b1 = int(np.searchsorted(ends, ends[b0] - size[b0] + _LATTICE_CHUNK, "right"))
        b1 = max(b1, b0 + 1)
        sub = slice(sub0[b0], sub0[b1])
        lw = law[sub]
        x_nodes = mid[sub, None] + half[sub, None] * gl_nodes[None, :]
        w_nodes = half[sub, None] * gl_weights[None, :]
        # law parameters per sub-segment, broadcast over its nodes
        sxl = sx[lw, None]
        dx = x_nodes - mu[lw, 0, None]
        dens = np.exp(-0.5 * (dx / sxl) ** 2) / (sxl * math.sqrt(2 * math.pi))
        m_cond = mu[lw, 1, None] + beta[lw, None] * dx
        z = (ys[finite] - m_cond[:, :, None]) / s_cond[lw, None, None]
        if edge.size:
            inner = np.empty(z.shape[:2] + (ny,))
            inner[:, :, finite] = ndtr(z)
            inner[:, :, ~finite] = edge
        else:
            inner = ndtr(z)
        part = ((dens * w_nodes)[:, :, None] * inner).sum(axis=1)

        # one zero-padded running sum per law: padding after a law's last
        # sub-segment is never read
        cum = np.zeros((b1 - b0, int(n_fine[b0:b1].max()) + 1, ny))
        cum[lw - b0, place[sub] + 1] = part
        np.cumsum(cum[:, 1:], axis=1, out=cum[:, 1:])
        out[laws[b0:b1]] = cum[np.arange(b1 - b0)[:, None], row[b0:b1]]
        b0 = b1
