"""Result fingerprints of one CLI run and their comparison with a reference.

A fingerprint sorts every checked output into one of four kinds, each with
its own tolerance:

* ``exact``  integers, hashes and labels; must be equal. The simulate CSV
  (per-trial switch counts and times) and the optimizer margin tables are
  hashed here.
* ``close``  deterministic floats (sim aggregates, pairwise series and
  their sums, eigenvalue sandwich ``lb2``/``ub2``): equal within 1e-12
  relative, which only a change of summation order may use. A list is
  scaled by its largest magnitude.
* ``mc``     Monte Carlo estimates with their reported standard errors
  (``exact``, ``b1``, ``ub3`` of the accuracy study): per instance the two
  estimates may differ by at most 4 combined standard errors, so a
  lower-variance estimator can replace plain Monte Carlo.
* ``at_most`` counts that may not rise (``sandwich_violations``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

REL_TOL = 1e-12
MC_SIGMAS = 4.0


def margin_tables_sha256(results: dict) -> str:
    """Hash of every RunResult.margin_table of a table sweep, in key order."""
    h = hashlib.sha256()
    for (label, speed) in sorted(results):
        h.update(f"{label}|{speed!r}|".encode())
        h.update(results[(label, speed)].margin_table.astype("<f8").tobytes())
    return h.hexdigest()


def extract(command: str, csv_text: str, summary: dict, margin_sha=None) -> dict:
    """Fingerprint of one CLI run from its CSV text and JSON summary."""
    fp = {"exact": {}, "close": {}, "mc": {}, "at_most": {}}
    if command == "simulate":
        fp["exact"].update(
            n_trials=summary["n_trials"],
            seed=summary["seed"],
            policy=summary["policy"],
            csv_sha256=hashlib.sha256(csv_text.encode()).hexdigest(),
        )
        for k, v in summary["aggregates"].items():
            fp["close"][f"aggregates.{k}"] = v
        for k, v in summary.get("analytic", {}).items():
            if k != "method":
                fp["close"][f"analytic.{k}"] = v
    elif command == "table":
        fp["exact"].update(n_trials=summary["n_trials"], margin_tables_sha256=margin_sha)
        for label, cells in summary["cells"].items():
            for speed, aggs in cells.items():
                for k, v in aggs.items():
                    fp["close"][f"{label}.{speed}.{k}"] = v
    elif command == "accuracy":
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        fp["exact"]["roots"] = [int(r["root"]) for r in rows]
        for k in ("lb2", "ub2"):
            fp["close"][k] = [float(r[k]) for r in rows]
        for k, se in (("exact", "exact_stderr"), ("b1", "b1_stderr"), ("ub3", "ub3_stderr")):
            fp["mc"][k] = [[float(r[k]), float(r[se])] for r in rows]
        fp["at_most"]["sandwich_violations"] = summary["mae"]["sandwich_violations"]
    else:
        raise ValueError(f"no fingerprint for command {command!r}")
    return fp


def _close(a, b, scale) -> bool:
    return abs(a - b) <= REL_TOL * scale


def compare(ref: dict, got: dict) -> list:
    """Mismatches of got against ref, as messages; an empty list is a pass."""
    out = []
    for kind in ("exact", "close", "mc", "at_most"):
        r, g = ref.get(kind, {}), got.get(kind, {})
        if set(r) != set(g):
            out.append(f"{kind}: keys differ: {sorted(set(r) ^ set(g))}")
            continue
        for key in sorted(r):
            a, b = r[key], g[key]
            if kind == "exact":
                ok = a == b
            elif kind == "at_most":
                ok = b <= a
            elif isinstance(a, list) != isinstance(b, list) or (
                isinstance(a, list) and len(a) != len(b)
            ):
                ok = False
            elif kind == "close":
                if isinstance(a, list):
                    scale = max((abs(x) for x in a), default=0.0)
                    ok = all(_close(x, y, scale) for x, y in zip(a, b))
                else:
                    ok = _close(a, b, max(abs(a), abs(b)))
            else:
                ok = all(
                    abs(va - vb) <= MC_SIGMAS * math.hypot(sa, sb)
                    for (va, sa), (vb, sb) in zip(a, b)
                )
            if not ok:
                out.append(f"{kind} {key}: reference {_short(a)} != result {_short(b)}")
    return out


def _short(v):
    text = repr(v)
    return text if len(text) <= 120 else text[:117] + "..."
