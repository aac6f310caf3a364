"""Connection, handover and outage probabilities of the hysteresis rule.

Everything here reduces to box-event probabilities over the joint Gaussian
law of the estimated gap y(n). Connected-state probabilities expand the
decision recursion backwards: the MT is on BS1 at n iff the gap last left
the margin band through the lower side and stayed inside since,

    Pr[b(n) = 1] = sum_j Pr[ L(j), M(j+1), ..., M(n) ] + band-carry term,

with L = (-inf, -h], M = (-h, h], N = (h, inf). The expansion is truncated
to a memory of `depth` samples; the remainder factorizes against the
connected-state probability at the truncation point (the one approximation
in the exact method, negligible once the shadowing has decorrelated across
the window). Within-window terms are evaluated by exact_prob through the
process's chain memo (below), so a box shared by several terms or series
is integrated once. Every term's law is a slice of the process's
block law of its earliest sample (GapProcess.joint), one y_stats call per
block: a term spans at most depth + 1 samples, so the series need depth
<= the process's block overlap.

method="pairwise" replaces every within-window joint by a Markov telescope
of adjacent-pair conditionals, each evaluated by deterministic bivariate
quadrature. It is a documented approximation used where thousands of chain
evaluations are needed; the exact method is the reference. A term's
telescope is its prefix's times one conditional, so each term extends a
shorter one.

Each GapProcess gets a chain memo here, weakly keyed by the process, so it
lives exactly as long as the process object. It keeps every connection
sweep, keyed by all of its arguments (n_last, the margins' bytes, depth,
b_init, method, mc_samples, seed), so the three series share one sweep;
every box probability either method evaluates, keyed by its constraint
tuple (plus mc_samples and the term's seed for three or more
constraints), the package's only box memo; and, for the pairwise method,
every telescope value by its constraint tuple. Memoized arrays are
read-only; connection_series returns copies.

Naming: p_h01 is the probability of a margin crossing that lands the MT on
BS0 (upper exit while previously on BS1); p_h10 the reverse switch onto
BS1. Outage probabilities condition the serving link's power falling under
the threshold on the serving state; the literal sum p_o = p_o0 + p_o1 of
the two conditionals is reported as defined (it is not itself a
probability and can exceed 1), together with the unconditional mixture
Pr[out & on BS0] + Pr[out & on BS1], which is one.
"""

from __future__ import annotations

import hashlib
import math
import weakref

import numpy as np

from .errors import ConfigurationError, DegenerateConditioningError
from .gaussian import (
    EventSpec,
    GapProcess,
    _check_mc_args,
    exact_prob,
    gap_above,
    gap_below,
    gap_inside,
    power_below,
)


def _h_lookup(h_series, n_last: int) -> np.ndarray:
    h = np.asarray(h_series, dtype=float)
    if h.ndim == 0:
        h = np.full(n_last + 1, float(h))
    if h.ndim != 1 or h.shape[0] < n_last + 1:
        raise ConfigurationError("h_series must cover samples 0..n")
    if not np.all(np.isfinite(h[: n_last + 1])) or np.any(h[: n_last + 1] < 0):
        raise ConfigurationError("margins must be finite and nonnegative")
    return h[: n_last + 1]


def _check_chain_args(
    process: GapProcess, n_last: int, depth: int, b_init: int, method: str, mc_samples, seed
):
    """Reject bad series arguments before any box probability is evaluated."""
    if not 0 <= n_last < process.n_samples:
        raise ConfigurationError(
            f"n_last {n_last} outside the trace's samples 0..{process.n_samples - 1}"
        )
    if depth < 1:
        raise ConfigurationError("depth must be at least 1")
    if depth > process.overlap:
        # a term spans depth + 1 samples, which must fit one block law
        raise ConfigurationError(
            f"depth {depth} exceeds the process's block overlap {process.overlap}"
        )
    if b_init not in (0, 1):
        raise ConfigurationError("b_init must be 0 or 1")
    _check_method_args(method, mc_samples, seed)


def _check_method_args(method: str, mc_samples, seed):
    """Reject a bad evaluation method or Monte Carlo argument of the series."""
    if method not in ("exact", "pairwise"):
        raise ConfigurationError(f"unknown method {method!r}")
    _check_mc_args(mc_samples, seed)


def _term_seed(base_seed: int, constraints) -> int:
    digest = hashlib.blake2b(
        f"{base_seed}|{constraints!r}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


class _ChainMemo:
    """What the chains of one process have derived (see the module docstring)."""

    __slots__ = ("sweeps", "boxes", "values")

    def __init__(self):
        self.sweeps = {}  # sweep arguments -> read-only connection arrays
        self.boxes = {}  # box key (see _box) -> its ProbResult
        self.values = {}  # pairwise constraint tuple -> telescope value


# Weak keys: a process's chain memo goes with the process.
_CHAINS = weakref.WeakKeyDictionary()


def _box(process, memo, cs, mc_samples: int = 1_000_000, seed: int = 0):
    """The ProbResult of the box of the constraint tuple cs, validated
    through EventSpec and integrated by exact_prob on first use. The key is
    cs, plus the Monte Carlo arguments for three or more constraints, the
    only boxes whose value can depend on them."""
    key = cs if len(cs) < 3 else (cs, mc_samples, seed)
    r = memo.boxes.get(key)
    if r is None:
        ev = EventSpec(cs)
        r = memo.boxes[key] = exact_prob(process.joint(ev.labels), ev, mc_samples, seed)
    return r


def _telescope(process, memo, cs) -> float:
    """Markov telescope over the constraint tuple cs, y constraints first.

    One constraint is its box probability. A longer tuple is its prefix's
    value times P(prev, c) / P(prev), with c its last constraint and prev
    the prefix's last y constraint, or 0.0 where the prefix's value or
    P(prev) is not positive. Every prefix value is kept, so a chain that
    extends a known one costs one step.
    """
    values = memo.values
    k = len(cs)
    while k > 1 and cs[:k] not in values:
        k -= 1
    v = values[cs[:k]] if k > 1 else _box(process, memo, cs[:1]).estimate
    prev = next(c for c in reversed(cs[:k]) if c[0][0] == "y")
    for i in range(k, len(cs)):
        c = cs[i]
        if v > 0.0:
            marg = _box(process, memo, (prev,)).estimate
            v = v * (_box(process, memo, (prev, c)).estimate / marg) if marg > 0.0 else 0.0
        else:
            v = 0.0
        values[cs[: i + 1]] = v
        if c[0][0] == "y":
            prev = c
    return v


def _eval_term(process, memo, constraints, method, mc_samples, seed):
    """Probability of one chain conjunction; (estimate, stderr)."""
    if not constraints:
        return 1.0, 0.0
    if method == "pairwise":
        return _telescope(process, memo, constraints), 0.0
    cs = EventSpec(constraints).constraints
    r = _box(process, memo, cs, mc_samples, _term_seed(seed, cs))
    return r.estimate, r.stderr


def _exit_chain_terms(h, t, depth, root_side):
    """Expansion terms for the connected state at sample t.

    root_side 1 expands Pr[b(t) = 1] (lower exits), 0 the complement.
    Yields (root index j or None for the carry, constraint tuple). A band
    over a sample with margin 0 is impossible, so the terms whose band
    spans one are left out and the carry's tuple is then None. The carry
    entry's weight is supplied by the caller.
    """
    m = max(0, t - depth)
    j_lo = 0 if m == 0 else m + 1
    root = gap_below if root_side == 1 else gap_above
    band = tuple(gap_inside(u, h[u]) for u in range(j_lo, t + 1))
    cut = max((u for u in range(j_lo, t + 1) if h[u] <= 0.0), default=None)
    for j in range(j_lo if cut is None else cut, t + 1):
        yield j, (root(j, h[j]),) + band[j + 1 - j_lo :]
    yield None, band if cut is None else None


def _side_sum(
    process, memo, h, t, depth, side, extra, carry, b_init, method, mc_samples, seed
):
    """Sum of the expansion terms of Pr[b(t) = side], each conjoined with
    the constraint tuple extra; (estimate, variance).

    carry = (p_bs1, p_bs0, stderr_bs1, stderr_bs0) holds the connected-state
    series at least up to the truncation point, whose entry weights the
    band-carry term.
    """
    m = max(0, t - depth)
    total = 0.0
    var = 0.0
    for j, constraints in _exit_chain_terms(h, t, depth, side):
        if j is None:
            if m == 0:
                w, se_w = (1.0, 0.0) if b_init == side else (0.0, 0.0)
            else:
                w, se_w = carry[1 - side][m], carry[3 - side][m]
            if constraints is None or w == 0.0:
                continue
            q, se_q = _eval_term(process, memo, constraints + extra, method, mc_samples, seed)
            total += q * w
            var += (se_q * w) ** 2 + (q * se_w) ** 2
        else:
            q, se_q = _eval_term(process, memo, constraints + extra, method, mc_samples, seed)
            total += q
            var += se_q**2
    return total, var


def _connection_sweep(
    process, memo, n_last, h, depth, b_init, method, mc_samples, seed
):
    """Connected-state probabilities for both sides at samples 0..n_last."""
    conn = tuple(np.zeros(n_last + 1) for _ in range(4))
    for t in range(n_last + 1):
        for side in (1, 0):
            total, var = _side_sum(
                process, memo, h, t, depth, side, (), conn, b_init, method, mc_samples, seed
            )
            conn[1 - side][t] = total
            conn[3 - side][t] = math.sqrt(var)
    return conn


def _sweep(process, n_last, h, depth, b_init, method, mc_samples, seed):
    """The process's chain memo and its connection sweep for these arguments,
    swept on first use."""
    memo = _CHAINS.get(process)
    if memo is None:
        memo = _CHAINS[process] = _ChainMemo()
    key = (n_last, h.tobytes(), depth, b_init, method, mc_samples, seed)
    conn = memo.sweeps.get(key)
    if conn is None:
        conn = _connection_sweep(
            process, memo, n_last, h, depth, b_init, method, mc_samples, seed
        )
        for a in conn:
            a.flags.writeable = False
        memo.sweeps[key] = conn
    return memo, conn


def connection_series(
    process: GapProcess,
    n_last: int,
    h_series,
    depth: int,
    *,
    b_init: int = 0,
    method: str = "exact",
    mc_samples: int = 1_000_000,
    seed: int = 0,
):
    """Arrays (p_bs1, p_bs0, stderr_bs1, stderr_bs0) over samples 0..n_last.

    Public although no run reads it: the connected-state probabilities are
    the paper's Pr[b(n) = 1] law, which the handover and outage series
    condition on.
    """
    _check_chain_args(process, n_last, depth, b_init, method, mc_samples, seed)
    h = _h_lookup(h_series, n_last)
    _, conn = _sweep(process, n_last, h, depth, b_init, method, mc_samples, seed)
    return tuple(a.copy() for a in conn)


def handover_series(
    process: GapProcess,
    n_last: int,
    h_series,
    depth: int,
    *,
    b_init: int = 0,
    method: str = "exact",
    mc_samples: int = 1_000_000,
    seed: int = 0,
):
    """Arrays (p_h01, p_h10, stderr) of switch probabilities at 0..n_last."""
    _check_chain_args(process, n_last, depth, b_init, method, mc_samples, seed)
    h = _h_lookup(h_series, n_last)
    memo, conn = _sweep(process, n_last, h, depth, b_init, method, mc_samples, seed)
    p01 = np.zeros(n_last + 1)
    p10 = np.zeros(n_last + 1)
    var = np.zeros(n_last + 1)
    for n in range(n_last + 1):
        # at n = 0, sample -1 expands into the carry term alone, weighted 1
        # on the b_init side
        for side, out in ((1, p01), (0, p10)):
            exit_c = gap_above(n, h[n]) if side == 1 else gap_below(n, h[n])
            out[n], v = _side_sum(
                process, memo, h, n - 1, depth, side, (exit_c,), conn,
                b_init, method, mc_samples, seed,
            )
            var[n] += v
    return p01, p10, np.sqrt(var)


_DEGENERATE_FLOOR = 1e-9


def outage_series(
    process: GapProcess,
    n_last: int,
    h_series,
    depth: int,
    threshold_db: float,
    *,
    b_init: int = 0,
    method: str = "exact",
    mc_samples: int = 1_000_000,
    seed: int = 0,
):
    """Arrays (p_o0, p_o1, p_o, p_o_mixture, stderr) at samples 0..n_last."""
    _check_chain_args(process, n_last, depth, b_init, method, mc_samples, seed)
    if not math.isfinite(threshold_db):
        raise ConfigurationError("threshold_db must be finite")
    h = _h_lookup(h_series, n_last)
    memo, conn = _sweep(process, n_last, h, depth, b_init, method, mc_samples, seed)
    po0 = np.zeros(n_last + 1)
    po1 = np.zeros(n_last + 1)
    mix = np.zeros(n_last + 1)
    var = np.zeros(n_last + 1)
    for n in range(n_last + 1):
        for side, out in ((0, po0), (1, po1)):
            cond_p = conn[1 - side][n]
            if cond_p < _DEGENERATE_FLOOR:
                raise DegenerateConditioningError(
                    f"connection to BS{side} at sample {n} has probability "
                    f"{cond_p:.3e}; conditional outage undefined"
                )
            total, v = _side_sum(
                process, memo, h, n, depth, side, (power_below(side, n, threshold_db),),
                conn, b_init, method, mc_samples, seed,
            )
            out[n] = total / cond_p
            mix[n] += total
            var[n] += v / cond_p**2
    return po0, po1, po0 + po1, mix, np.sqrt(var)
