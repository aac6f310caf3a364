"""Record the benchmark's baseline: environment, run-to-run spread and layer shares.

Usage (from the repository root):

    python3 bench/baseline.py [--workload NAME ...] [--out bench/baseline.json]

For each workload this makes one untraced benchmark run per seed (0 ..
SEEDS-1) and reports, per end-to-end metric, the median over seeds and the
quartile spread (Q3 - Q1) / median, the figure a run-to-run bound has to
cover; times are scaled to the reference host speed as run.py reports
them. One traced repetition per workload gives the layer shares: self time
per package module over the traced wall time. The ROADMAP's earlier
hand-measured baselines are mapped to the workload or metric that now
carries them, with the known gaps.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import sys

from run import END_TO_END, OUT, ROOT, measure, run_worker, summarize
from workloads import SIZES, WORKLOADS

SEEDS = 10

# Hand-measured figures in ROADMAP.md (2-CPU machine, before this benchmark existed)
# and what carries each of them now.
ROADMAP_BASELINES = (
    {
        "roadmap": "optimizer margin tables, vehicular-cell-row opt2 over 2004 samples: 92 s, "
                   "82% in bvn_cdf_lattice (30,021 calls), 17 s re-running leggauss(24)",
        "carried_by": "table-two-cell: wall_s, gaussian.bvn_cdf_lattice.calls/.self_s, "
                      "optimizer.solve_group.self_s",
        "gap": "the cell-row tables themselves are not a workload (92 s per run is too long for "
               "22 runs per check); their per-sample pair switching stays unmeasured",
        "now": ("table-two-cell", "{gaussian_bvn_cdf_lattice_calls} bvn_cdf_lattice calls over "
                "{optimizer_solve_group_calls} solve_group calls (root samples x 3 speeds); gaussian layer "
                "{share[gaussian]:.0%} of the traced wall; wall_s {wall:.2f} s"),
    },
    {
        "roadmap": "pairwise chain, handover_series on the 81-sample two-cell trace: 50 s, "
                   "76,701 exact_prob calls rebuilding y_stats for 4,705 chain terms",
        "carried_by": "chain-pairwise (9 samples around the 1000 m boundary, handover and "
                      "outage series): wall_s, gaussian.y_stats.calls/.distinct_frac, "
                      "gaussian.exact_prob.calls.closed/.quad2, metrics.exact_prob_per_sample",
        "gap": "the benchmark times 9 samples (975-1025 m), not the full 81-sample trace; "
               "each later sample adds about the same work at full depth",
        "now": ("chain-pairwise", "{gaussian_exact_prob_calls_closed} closed + "
                "{gaussian_exact_prob_calls_quad2} quad2 exact_prob calls and "
                "{gaussian_y_stats_calls} y_stats calls for 9 samples (distinct fractions "
                "{gaussian_exact_prob_distinct_frac:.3f} and {gaussian_y_stats_distinct_frac:.3f}); "
                "wall_s {wall:.2f} s"),
    },
    {
        "roadmap": "exact chain, handover_series(method='exact') up to n=20: 195 s, "
                   "1e6 Monte Carlo draws per term of dimension >= 4",
        "carried_by": "accuracy-k6: gaussian.exact_prob.calls.mc/.self_s.mc, "
                      "gaussian.exact_prob.mc_draws (400k draws per 6-dim event)",
        "gap": "the exact chain method itself is not a workload; accuracy-k6 is the run on the "
               ">=4-dim Monte Carlo path",
        "now": ("accuracy-k6", "{gaussian_exact_prob_calls_mc} Monte Carlo events, "
                "{gaussian_exact_prob_mc_draws} draws, {gaussian_exact_prob_self_s_mc:.2f} s self; "
                "quad3 {gaussian_exact_prob_self_s_quad3:.2f} s self; wall_s {wall:.2f} s"),
    },
    {
        "roadmap": "simulator, run_multicell 2000 trials x 8 cells x 2004 samples: 4.2 s",
        "carried_by": "sim-row at half the trials (1000): wall_s, units_per_s (trials/s), "
                      "channel.sample_power.self_s, harness.simulate.self_s",
        "gap": "compare units_per_s, not wall_s: the run is halved so a run holds more "
               "repetitions",
        "now": ("sim-row", "wall_s {wall:.2f} s, {ups:.0f} trials/s"),
    },
    {
        "roadmap": "simulator on the two-cell preset, 200 trials: 0.03 s with avg/ls, "
                   "3.0 s with els, 2.2 s with gels",
        "carried_by": "avg only, inside table-two-cell and chain-pairwise (light)",
        "gap": "els/gels estimation is not a workload; a later benchmark change adds one for "
               "whichever estimator path remains after the ELS loop is decided",
    },
    {
        "roadmap": "thread workers: workers=4 is 1.27x on the optimizer tables, 0.8x on simulation",
        "carried_by": "nothing: every workload runs the CLI default of one worker "
                      "(HANDOPT_WORKERS unset)",
        "gap": "worker scaling is not measured on 2 CPUs",
    },
    {
        "roadmap": "test suite: 131 tests in 372 s",
        "carried_by": "not a benchmark figure (tier-1 test time)",
        "gap": None,
    },
)

KNOWN_GAPS = (
    "cell-row optimizer tables (vehicular-cell-row opt1/opt2/opt3): 92 s per run",
    "els/gels estimation",
    "hybrid.decide_series: the harness re-implements the decision rule, so no shipped "
    "run path reaches the hybrid module",
)


def blas_threads():
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "HANDOPT_WORKERS": os.environ.get("HANDOPT_WORKERS", "unset (cleared for every run)"),
    }


def reconcile(results: dict) -> list:
    """ROADMAP_BASELINES with the first figures the benchmark produced beside them."""
    out = []
    for entry in ROADMAP_BASELINES:
        entry = dict(entry)
        if "now" in entry:
            workload, fmt = entry["now"]
            r = results.get(workload)
            entry["now"] = None if r is None else fmt.format(
                wall=r["end_to_end"]["wall_s"]["median"],
                ups=r["end_to_end"]["units_per_s"]["median"],
                share=r["layer_shares"],
                **{k.replace(".", "_"): v for k, v in r["layers"].items()},
            )
        out.append(entry)
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--out", default=os.path.join(ROOT, "bench", "baseline.json"))
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    result = {
        "environment": environment(),
        "run_seconds": seconds,
        "seeds": list(range(SEEDS)),
        "workloads": {},
        "known_gaps": KNOWN_GAPS,
    }
    for name in args.workload or WORKLOADS:
        runs, failed = [], 0
        for seed in range(SEEDS):
            records, traced, errors = measure(name, "full", seed, seconds, False)
            failed += sum(1 for e in errors if e)
            m = summarize(records, traced, False)
            runs.append({k: v["value"] for k, v in m.items()})
            runs[-1]["reps"] = len(records)
            print(name, seed, json.dumps(runs[-1]), flush=True)
        record, err = run_worker(name, "full", 0, True, 170.0, "baseline")
        if record is None:
            print(f"{name}: traced run failed: {err}", file=sys.stderr)
            return 1
        wall = record["wall_s"]
        result["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "size": SIZES["full"][name],
            "unit_of_units_per_s": WORKLOADS[name].unit,
            "failed_reps": failed,
            "end_to_end": {
                k: {"median": statistics.median(r[k] for r in runs),
                    "iqr_over_median": spread([r[k] for r in runs]),
                    "values": [r[k] for r in runs]}
                for k, _ in END_TO_END
            },
            "reps_per_run": [r["reps"] for r in runs],
            "traced_wall_s": wall,
            "layer_shares": {k: v / wall for k, v in record["layer_self_s"].items()},
            "call_pattern_violations": record["pattern"],
            "layers": record["layers"],
        }
        print(name, json.dumps({k: round(v["iqr_over_median"], 4) for k, v in
                                result["workloads"][name]["end_to_end"].items()}), flush=True)
    result["roadmap_baselines"] = reconcile(result["workloads"])
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
