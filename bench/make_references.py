"""Record the reference fingerprints that run.py checks every result against.

Usage (from the repository root): python3 bench/make_references.py

Runs each workload once per input seed, at the full and the smoke size, at
the current commit and writes bench/references.json. Re-record only when a
change is meant to alter results, and say so: the point of the references
is that a speed-up which changes numbers fails the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

from run import OUT, REFERENCES, run_worker
from workloads import INPUT_SEEDS, WORKLOADS


def main() -> int:
    refs = {"input_seeds": INPUT_SEEDS, "full": {}, "smoke": {}}
    os.makedirs(OUT, exist_ok=True)
    for size in ("full", "smoke"):
        for name in WORKLOADS:
            table = refs[size][name] = {}
            for seed in range(INPUT_SEEDS):
                record, err = run_worker(name, size, seed, False, 600.0, f"ref-{seed}")
                if record is None:
                    print(f"{name}/{size}/{seed}: {err}", file=sys.stderr)
                    return 1
                table[str(seed)] = record["fingerprint"]
                print(f"{name}/{size}/seed {seed}: wall {record['wall_s']:.2f} s", flush=True)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
