"""One measured CLI run in a fresh process; started by run.py, never imported.

Usage: python3 worker.py ROOT WORKLOAD SIZE SEED TRACE OUTDIR

Set-up (``import handopt`` and resolving the workload's configuration:
preset, overrides, ``distances_m`` and the coefficient tables of every
cell) is timed first, then ``handopt.cli.main`` runs in process on the
workload's arguments. With TRACE=1 the layer functions are wrapped before
the call. The record (timings, counts, result fingerprint) is written to
OUTDIR/record.json.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
from contextlib import redirect_stdout
from time import perf_counter

import fingerprint
from workloads import WORKLOADS, expected_calls


def main(argv) -> int:
    root, workload, size, seed, trace, outdir = argv
    seed, trace = int(seed), trace == "1"
    t0 = perf_counter()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import handopt
    import handopt.cli

    if os.path.dirname(os.path.abspath(handopt.__file__)) != os.path.join(src, "handopt"):
        raise RuntimeError(f"handopt imported from {handopt.__file__}, not from {src}")

    wl = WORKLOADS[workload]
    config = handopt.preset(wl.preset).with_updates(**wl.overrides(size, seed))
    d = config.distances_m()
    mode = "ls" if config.estimator == "ls" else "avg"
    for row in d:
        handopt.coefficient_table(row, config.n_w, mode)
    setup_s = perf_counter() - t0
    n_samples = d.shape[1]

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    captured = {}
    sweep = handopt.cli.run_table_sweep

    def capture_sweep(*args, **kwargs):
        captured["results"] = sweep(*args, **kwargs)
        return captured["results"]

    handopt.cli.run_table_sweep = capture_sweep

    csv_path = os.path.join(outdir, "out.csv")
    json_path = os.path.join(outdir, "out.json")
    cli_argv = wl.argv(size, seed, csv_path, json_path)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = perf_counter()
    with redirect_stdout(io.StringIO()):
        rc = handopt.cli.main(cli_argv)
    wall_s = perf_counter() - w0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if rc != 0:
        raise RuntimeError(f"handopt {' '.join(cli_argv)} exited with {rc}")

    with open(csv_path) as f:
        csv_text = f.read()
    with open(json_path) as f:
        summary = json.load(f)
    margin_sha = None
    if "results" in captured:
        margin_sha = fingerprint.margin_tables_sha256(captured["results"])
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": wl.units(size, n_samples),
        "fingerprint": fingerprint.extract(cli_argv[0], csv_text, summary, margin_sha),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["layer_self_s"] = tracer.layer_self_times()
        record["pattern"] = expected_calls(workload, record["layers"])
    with open(os.path.join(outdir, "record.json"), "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
