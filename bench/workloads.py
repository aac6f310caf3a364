"""The benchmark's four workloads: CLI arguments, sizes and expected call patterns.

Every workload is one ``handopt`` CLI invocation on a shipped preset, with
``HANDOPT_WORKERS`` unset so the CLI runs its default single worker. The
benchmark seed selects one of ``INPUT_SEEDS`` input sets (``seed mod
INPUT_SEEDS``); the reference fingerprints in ``references.json`` cover each
of them. An input set changes only random streams (trial seeds, study
seed), never the amount of work, so run time does not depend on the seed.

Sizes are chosen so that one CLI run takes one to two seconds on a 2-CPU
machine, so a 30-second run holds five to eleven repetitions and its
medians ride out the host's short slow spells. The "smoke" sizes exist for
the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

INPUT_SEEDS = 16

# The cell boundary of paper-vi lies at 1000 m; the shortened two-cell
# traces below are centred on it so the handover region stays inside.
SIZES = {
    "full": {
        "sim-row": {"trials": 1000},
        "table-two-cell": {"trials": 1000, "start_offset_m": 970.0, "length_m": 60.0},
        "chain-pairwise": {"trials": 1000, "start_offset_m": 975.0, "length_m": 50.0},
        "accuracy-k6": {"instances": 2, "mc_samples": 400_000},
    },
    "smoke": {
        "sim-row": {"trials": 20},
        "table-two-cell": {"trials": 50, "start_offset_m": 975.0, "length_m": 50.0},
        "chain-pairwise": {"trials": 50, "start_offset_m": 980.0, "length_m": 40.0},
        "accuracy-k6": {"instances": 1, "mc_samples": 20_000},
    },
}

SPEEDS = (5.0, 20.0, 40.0)  # the CLI's default table grid


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    unit: str

    def input_seed(self, seed: int) -> int:
        return int(seed) % INPUT_SEEDS

    def overrides(self, size: str, seed: int) -> dict:
        """ScenarioConfig fields the CLI arguments override."""
        s = SIZES[size][self.name]
        out = {k: s[k] for k in ("start_offset_m", "length_m") if k in s}
        if self.name != "accuracy-k6":
            out["seed"] = self.input_seed(seed)
        return out

    def argv(self, size: str, seed: int, csv_path: str, json_path: str) -> list:
        s = SIZES[size][self.name]
        i = str(self.input_seed(seed))
        if self.name == "sim-row":
            args = ["simulate", "--policy", "2", "--trials", str(s["trials"]), "--seed", i]
        elif self.name == "table-two-cell":
            args = ["table", "--trials", str(s["trials"]), "--seed", i]
        elif self.name == "chain-pairwise":
            args = ["simulate", "--policy", "2", "--analytic", "pairwise",
                    "--trials", str(s["trials"]), "--seed", i]
        else:
            args = ["accuracy", "--k", "6", "--m-split", "3",
                    "--mc-samples", str(s["mc_samples"]),
                    "--instances", str(s["instances"]), "--study-seed", i]
        args[1:1] = ["--preset", self.preset]
        for key in ("start_offset_m", "length_m"):
            if key in s:
                args += ["--" + key.replace("_", "-"), repr(s[key])]
        return args + ["--csv", csv_path, "--json", json_path]

    def units(self, size: str, n_samples: int) -> int:
        """Work items one CLI run completes (the unit of units_per_s)."""
        s = SIZES[size][self.name]
        if self.name == "sim-row":
            return s["trials"]
        if self.name == "table-two-cell":
            return len(SPEEDS) * (n_samples - 1)
        if self.name == "chain-pairwise":
            return n_samples
        return s["instances"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-row",
            "simulator only: 8-cell row, fixed margin, avg estimator; sampling, "
            "estimation and decision loop, no analytic calls",
            "vehicular-cell-row",
            "trials",
        ),
        Workload(
            "table-two-cell",
            "the paper's policy x speed table: optimizer stage tables on "
            "bvn_cdf_lattice plus trellis solves, different lattices per speed",
            "paper-vi",
            "trellis solves",
        ),
        Workload(
            "chain-pairwise",
            "pairwise handover/outage chains: per-term y_stats and 1-2-dim "
            "exact_prob, the pair-box layer used opposite to the lattice tables",
            "paper-vi",
            "series samples",
        ),
        Workload(
            "accuracy-k6",
            "k=6 accuracy study: the only run on 3-dim quadrature and >=4-dim "
            "Monte Carlo box probabilities plus the eigenvalue bounds",
            "paper-vi",
            "instances",
        ),
    )
}


def expected_calls(name: str, m: dict) -> list:
    """Call-pattern violations of one traced run; an empty list is a pass.

    Counts are deterministic, so these checks make a refactor that moves a
    call site fail loudly instead of reporting a layer as taking 0 s.
    """
    zero = lambda *keys: [k for k in keys if m[k] != 0]
    some = lambda *keys: [k for k in keys if not m[k] > 0]
    analytic = (
        "gaussian.bvn_cdf_lattice.calls", "gaussian.y_stats.calls",
        "gaussian.exact_prob.calls.closed", "gaussian.exact_prob.calls.quad2",
        "gaussian.exact_prob.calls.quad3", "gaussian.exact_prob.calls.mc",
        "metrics.series.calls", "optimizer.solve_group.calls", "optimizer.solve.calls",
        "harness.opt_margin_tables.calls",
    )
    if name == "sim-row":
        bad = some("channel.sample_power.calls", "estimators.coefficient_table.calls",
                   "scenario.distances_m.calls") + zero(*analytic)
    elif name == "table-two-cell":
        bad = some("gaussian.bvn_cdf_lattice.calls", "gaussian.y_stats.calls",
                   "optimizer.solve_group.calls", "optimizer.solve.calls",
                   "harness.opt_margin_tables.calls", "channel.sample_power.calls",
                   "estimators.coefficient_table.calls") + zero(
            "metrics.series.calls", "gaussian.exact_prob.calls.quad3",
            "gaussian.exact_prob.calls.mc")
    elif name == "chain-pairwise":
        bad = some("metrics.series.calls", "gaussian.y_stats.calls",
                   "gaussian.exact_prob.calls.closed", "gaussian.exact_prob.calls.quad2") + zero(
            "gaussian.bvn_cdf_lattice.calls", "gaussian.exact_prob.calls.quad3",
            "gaussian.exact_prob.calls.mc", "optimizer.solve.calls")
    else:
        bad = some("gaussian.exact_prob.calls.quad3", "gaussian.exact_prob.calls.mc",
                   "gaussian.approx.calls") + zero(
            "gaussian.bvn_cdf_lattice.calls", "metrics.series.calls", "optimizer.solve.calls")
    return [f"{name}: unexpected call count {k}={m[k]}" for k in bad]
