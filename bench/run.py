"""handopt benchmark: four CLI workloads, end-to-end metrics and a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each repetition is a fresh ``python3 bench/worker.py`` process that imports
the package from ``src/``, times its set-up, runs ``handopt.cli.main`` in
process and reports timings and a result fingerprint. Repetitions run back
to back until the next one would end past ``--seconds``; every metric is
the median over them. Every repetition's output is checked against the
stored reference fingerprint for its workload and input seed (see
fingerprint.py); a repetition that raises, exits nonzero or fails the check
counts as failed.

Times are reported at a reference host speed. On a shared 2-vCPU virtual
machine the speed of every process drifts by up to half over minutes, so
before each repetition a fixed calibration task (CALIBRATION: the
numpy/scipy imports that handopt's set-up also pays for) is timed in its
own process, and each time the repetition measures is scaled by CAL_REF_S
over that calibration time. The task runs no handopt code, so a change to
the program moves the scaled times as it moves the raw ones; the unscaled
medians are printed beside the result line.

``--trace 0`` reports the end-to-end metrics (wall_s, units_per_s, cpu_s,
setup_s, peak_rss_mb). ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus
``trace.overhead_frac`` (traced over untraced median wall time, minus 1),
and fails a repetition whose call counts break the workload's expected
pattern. ``--smoke`` runs tiny sizes for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import fingerprint
from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
OUT = os.path.join(ROOT, ".bench_out")
# Leaves room under the 180 s a run may take for the last repetition to end.
HARD_LIMIT_S = 165.0

# Calibration time on the reference host (2 vCPUs, Python 3.11, numpy 2.4,
# scipy 1.17) in a fast spell; scaled times are seconds on that host.
CAL_REF_S = 0.6
CALIBRATION = """
import time
t0 = time.perf_counter()
import numpy, scipy.integrate, scipy.linalg, scipy.special
print(time.perf_counter() - t0)
"""

END_TO_END = (
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def run_worker(workload: str, size: str, seed: int, trace: bool, timeout: float, tag: str):
    """One repetition in a fresh process; (record or None, error text)."""
    outdir = os.path.join(OUT, f"rep-{os.getpid()}-{tag}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    env = {k: v for k, v in os.environ.items() if k != "HANDOPT_WORKERS"}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, size,
           str(seed), "1" if trace else "0", outdir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        with open(os.path.join(outdir, "record.json")) as f:
            record = json.load(f)
        return record, ""
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def calibrate(timeout: float) -> float:
    """Seconds the fixed calibration task takes in a fresh process now."""
    proc = subprocess.run([sys.executable, "-c", CALIBRATION], capture_output=True,
                          text=True, timeout=timeout, check=True)
    return float(proc.stdout)


def load_reference(workload: str, size: str, seed: int):
    with open(REFERENCES) as f:
        refs = json.load(f)
    return refs.get(size, {}).get(workload, {}).get(str(WORKLOADS[workload].input_seed(seed)))


def measure(workload: str, size: str, seed: int, seconds: float, trace: bool):
    """Run repetitions for `seconds`; (records, traced flags, error messages)."""
    reference = load_reference(workload, size, seed)
    records, traced, errors, durations = [], [], [], []
    start = perf_counter()
    while True:
        is_traced = trace and len(records) % 2 == 1
        elapsed = perf_counter() - start
        t0 = perf_counter()
        cal_s = calibrate(max(5.0, HARD_LIMIT_S - elapsed))
        record, err = run_worker(workload, size, seed, is_traced,
                                 max(5.0, HARD_LIMIT_S - perf_counter() + start),
                                 str(len(records)))
        if record is not None:
            record["cal_s"] = cal_s
        durations.append(perf_counter() - t0)
        problems = [err] if record is None else []
        if record is not None:
            if reference is None:
                problems.append(f"no reference fingerprint for {workload}/{size}/seed {seed}")
            else:
                problems += fingerprint.compare(reference, record["fingerprint"])
            problems += record.get("pattern", [])
        records.append(record)
        traced.append(is_traced)
        errors.append(problems)
        for p in problems:
            print(f"rep {len(records)}: {p}", file=sys.stderr)
        if record is None and err.startswith("worker timed out"):
            break
        elapsed = perf_counter() - start
        if trace and len(records) < 2:
            continue
        if elapsed + statistics.median(durations) > min(seconds, HARD_LIMIT_S):
            break
    return records, traced, errors


def summarize(records, traced, trace: bool) -> dict:
    plain = [r for r, t in zip(records, traced) if r is not None and not t]
    if not plain:
        raise RuntimeError("no repetition completed")
    # Times scaled to the reference host speed (see the module docstring).
    med = lambda key, rs: statistics.median(r[key] * CAL_REF_S / r["cal_s"] for r in rs)
    if not trace:
        values = {
            "wall_s": med("wall_s", plain),
            "units_per_s": statistics.median(
                r["units"] / (r["wall_s"] * CAL_REF_S / r["cal_s"]) for r in plain),
            "cpu_s": med("cpu_s", plain),
            "setup_s": med("setup_s", plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    traced_rs = [r for r, t in zip(records, traced) if r is not None and t]
    if not traced_rs:
        raise RuntimeError("no traced repetition completed")
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_frac":
            value = med("wall_s", traced_rs) / med("wall_s", plain) - 1.0
        else:
            value = statistics.median(r["layers"][name] for r in traced_rs)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "handopt", "__init__.py")):
        print(f"error: no handopt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    size = "smoke" if args.smoke else "full"
    trace = args.trace == 1
    records, traced, errors = measure(args.workload, size, args.seed, args.seconds, trace)
    try:
        metrics = summarize(records, traced, trace)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    failed = sum(1 for e in errors if e)
    plain = [r for r, t in zip(records, traced) if r is not None and not t]
    for key in ("wall_s", "setup_s", "cal_s"):
        raw = statistics.median(r[key] for r in plain)
        print(f"{args.workload:16s} {'unscaled ' + key:44s} {raw:.6g} s")
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
