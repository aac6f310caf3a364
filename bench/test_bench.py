"""Self-tests of the benchmark at smoke sizes (about half a minute in all).

Run with: python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import fingerprint  # noqa: E402
from run import END_TO_END, ROOT, load_reference, run_worker  # noqa: E402
from tracer import LAYER_METRICS, _exact_prob_info  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def records():
    """One traced smoke repetition per workload."""
    out = {}
    for name in WORKLOADS:
        record, err = run_worker(name, "smoke", SEED, True, 120.0, f"selftest-{name}")
        assert record is not None, err
        out[name] = record
    return out


def test_smoke_results_match_references(records):
    for name, record in records.items():
        ref = load_reference(name, "smoke", SEED)
        assert fingerprint.compare(ref, record["fingerprint"]) == [], name


def test_check_fires_on_wrong_seed(records):
    for name, record in records.items():
        ref = load_reference(name, "smoke", SEED + 1)
        assert fingerprint.compare(ref, record["fingerprint"]), name


def test_check_fires_on_perturbed_deterministic_output(records):
    for name, record in records.items():
        ref = load_reference(name, "smoke", SEED)
        got = copy.deepcopy(record["fingerprint"])
        key = sorted(got["close"])[0]
        value = got["close"][key]
        if isinstance(value, list):
            i = max(range(len(value)), key=lambda j: abs(value[j]))
            value[i] *= 1 + 1e-9
        else:
            got["close"][key] = value * (1 + 1e-9) + 1e-300
        assert fingerprint.compare(ref, got), (name, key)
    got = copy.deepcopy(records["sim-row"]["fingerprint"])
    got["exact"]["csv_sha256"] = "0" * 64
    assert fingerprint.compare(load_reference("sim-row", "smoke", SEED), got)


def test_monte_carlo_tolerance_is_four_stderr(records):
    ref = load_reference("accuracy-k6", "smoke", SEED)
    value, se = ref["mc"]["exact"][0]
    for shift, fails in ((1.0, False), (6.0, True)):
        got = copy.deepcopy(records["accuracy-k6"]["fingerprint"])
        got["mc"]["exact"][0] = [value + shift * se, se]
        assert bool(fingerprint.compare(ref, got)) == fails, shift
    got = copy.deepcopy(records["accuracy-k6"]["fingerprint"])
    got["at_most"]["sandwich_violations"] += 1
    assert fingerprint.compare(ref, got)


def test_traced_runs_show_the_designed_call_pattern(records):
    names = {n for n, _ in LAYER_METRICS} - {"trace.overhead_frac"}
    for name, record in records.items():
        assert set(record["layers"]) == names, name
        assert record["pattern"] == [], record["pattern"]
    sim = records["sim-row"]["layers"]
    assert all(
        v == 0 for k, v in sim.items()
        if k.split(".")[0] in ("gaussian", "metrics", "optimizer") and not k.endswith("_frac")
    )


def test_exact_prob_bucket_follows_the_stripped_dimension():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from handopt.gaussian import EventSpec, GaussianVector, exact_prob

    # The second coordinate has zero variance and lies inside its box, so
    # exact_prob resolves it and integrates one dimension fewer.
    for k, bucket in ((3, "quad2"), (4, "quad3")):
        Sigma = 0.3 * np.ones((k, k)) + 0.7 * np.eye(k)
        Sigma[1, :] = Sigma[:, 1] = 0.0
        labels = [("y", i) for i in range(k)]
        gv = GaussianVector(np.zeros(k), Sigma, labels)
        ev = EventSpec(tuple((label, -1.0, 1.0) for label in labels))
        result = exact_prob(gv, ev)
        assert result.method == "quadrature"
        assert _exact_prob_info(result, gv, ev)[:2] == (bucket, 0)


def test_run_prints_contract_line():
    proc = run_bench("--workload", "chain-pairwise", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())

    proc = run_bench("--workload", "sim-row", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(LAYER_METRICS)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sim-row", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
