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
process's memo (GapProcess.prob), so a box shared by several terms or
series is integrated once.

method="pairwise" replaces every within-window joint by a Markov telescope
of adjacent-pair conditionals, each evaluated by deterministic bivariate
quadrature. It is a documented approximation used where thousands of chain
evaluations are needed; the exact method is the reference.

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

import numpy as np

from .errors import ConfigurationError, DegenerateConditioningError
from .gaussian import (
    EventSpec,
    GapProcess,
    _check_mc_args,
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
    if b_init not in (0, 1):
        raise ConfigurationError("b_init must be 0 or 1")
    if method not in ("exact", "pairwise"):
        raise ConfigurationError(f"unknown method {method!r}")
    _check_mc_args(mc_samples, seed)


def _term_seed(base_seed: int, constraints) -> int:
    digest = hashlib.blake2b(
        f"{base_seed}|{constraints!r}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


def _pairwise_chain(process: GapProcess, constraints) -> float:
    """Markov telescope over adjacent constraints, bivariate quadrature."""
    y_cs = [c for c in constraints if c[0][0] == "y"]
    p_cs = [c for c in constraints if c[0][0] == "p"]
    factors = y_cs[1:] + p_cs
    prev = y_cs[0]
    prob = marg = process.prob(EventSpec((prev,))).estimate
    for k, c in enumerate(factors):
        if prob <= 0.0 or marg <= 0.0:
            return 0.0
        prob *= process.prob(EventSpec((prev, c))).estimate / marg
        if c[0][0] == "y" and k + 1 < len(factors):
            prev = c
            marg = process.prob(EventSpec((prev,))).estimate
    return prob


def _eval_term(process, constraints, method, mc_samples, seed):
    """Probability of one chain conjunction; (estimate, stderr)."""
    if not constraints:
        return 1.0, 0.0
    ev = EventSpec(tuple(constraints))
    if method == "pairwise":
        return _pairwise_chain(process, ev.constraints), 0.0
    r = process.prob(ev, mc_samples, _term_seed(seed, ev.constraints))
    return r.estimate, r.stderr


def _band_constraints(h, times):
    """Inside-band constraints for the given times; None if impossible."""
    out = []
    for t in times:
        if h[t] <= 0.0:
            return None
        out.append(gap_inside(t, h[t]))
    return out


def _exit_chain_terms(h, t, depth, root_side):
    """Expansion terms for the connected state at sample t.

    root_side 1 expands Pr[b(t) = 1] (lower exits), 0 the complement.
    Yields (root index j or None for the carry, constraint list). The carry
    entry's weight is supplied by the caller.
    """
    m = max(0, t - depth)
    j_lo = 0 if m == 0 else m + 1
    root = gap_below if root_side == 1 else gap_above
    for j in range(j_lo, t + 1):
        band = _band_constraints(h, range(j + 1, t + 1))
        if band is None:
            continue
        yield j, [root(j, h[j])] + band
    band = _band_constraints(h, range(j_lo, t + 1))
    yield None, band


def _side_sum(
    process, h, t, depth, side, extra, carry, b_init, method, mc_samples, seed
):
    """Sum of the expansion terms of Pr[b(t) = side], each conjoined with
    the constraints in extra; (estimate, variance).

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
            q, se_q = _eval_term(process, constraints + extra, method, mc_samples, seed)
            total += q * w
            var += (se_q * w) ** 2 + (q * se_w) ** 2
        else:
            q, se_q = _eval_term(process, constraints + extra, method, mc_samples, seed)
            total += q
            var += se_q**2
    return total, var


def _connection_sweep(
    process, n_last, h, depth, b_init, method, mc_samples, seed
):
    """Connected-state probabilities for both sides at samples 0..n_last."""
    conn = tuple(np.zeros(n_last + 1) for _ in range(4))
    for t in range(n_last + 1):
        for side in (1, 0):
            total, var = _side_sum(
                process, h, t, depth, side, [], conn, b_init, method, mc_samples, seed
            )
            conn[1 - side][t] = total
            conn[3 - side][t] = math.sqrt(var)
    return conn


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
    return _connection_sweep(process, n_last, h, depth, b_init, method, mc_samples, seed)


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
    conn = _connection_sweep(process, n_last, h, depth, b_init, method, mc_samples, seed)
    p01 = np.zeros(n_last + 1)
    p10 = np.zeros(n_last + 1)
    var = np.zeros(n_last + 1)
    for n in range(n_last + 1):
        # at n = 0, sample -1 expands into the carry term alone, weighted 1
        # on the b_init side
        for side, out in ((1, p01), (0, p10)):
            exit_c = gap_above(n, h[n]) if side == 1 else gap_below(n, h[n])
            out[n], v = _side_sum(
                process, h, n - 1, depth, side, [exit_c], conn,
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
    conn = _connection_sweep(process, n_last, h, depth, b_init, method, mc_samples, seed)
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
                process, h, n, depth, side, [power_below(side, n, threshold_db)],
                conn, b_init, method, mc_samples, seed,
            )
            out[n] = total / cond_p
            mix[n] += total
            var[n] += v / cond_p**2
    return po0, po1, po0 + po1, mix, np.sqrt(var)
