"""Command-line front end: outputs, precedence, error contracts."""

import argparse
import ast
import hashlib
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handopt import cli
from handopt.cli import main


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_writes_csv_and_json(tmp_path, capsys):
    csv_p = tmp_path / "sim.csv"
    json_p = tmp_path / "sim.json"
    rc, out, err = run_main(
        capsys,
        [
            "simulate", "--preset", "vehicular-two-cell",
            "--trials", "4", "--policy", "2", "--seed", "7",
            "--csv", str(csv_p), "--json", str(json_p),
        ],
    )
    assert rc == 0
    assert err == ""
    assert "avg_handovers" in out
    lines = csv_p.read_text().splitlines()
    assert lines[0] == "trial,switches,outage_samples,switch_times"
    assert len(lines) == 5
    summary = json.loads(json_p.read_text())
    assert summary["schema"] == "simulate-v1"
    assert summary["seed"] == 7
    assert summary["policy"] == "h=2"
    assert summary["n_trials"] == 4
    assert "aggregates" in summary


def test_simulate_opt_policy_and_multicell(tmp_path, capsys):
    rc, out, _ = run_main(
        capsys,
        [
            "simulate", "--preset", "vehicular-cell-row",
            "--trials", "2", "--policy", "opt2", "--seed", "3",
            "--json", str(tmp_path / "m.json"),
        ],
    )
    assert rc == 0
    summary = json.loads((tmp_path / "m.json").read_text())
    assert summary["policy"] == "opt2"
    assert summary["n_cells"] == 8


@pytest.mark.parametrize("estimator", ["els", "gels"])
def test_simulate_els_and_gels_decide_as_on_oracle_estimates(
    tmp_path, capsys, monkeypatch, estimator
):
    # the package's ELS (ls rows) and GELS (centred window moments) against
    # a run whose estimates come from the per-window els_select / gels_step
    # loop
    from handopt import harness
    from oracles import adaptive_series_loop

    def run(tag):
        csv_p, json_p = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        rc, _, err = run_main(
            capsys,
            [
                "simulate", "--preset", "paper-vi", "--estimator", estimator,
                "--trials", "40", "--policy", "2", "--seed", "5",
                "--csv", str(csv_p), "--json", str(json_p),
            ],
        )
        assert rc == 0
        assert err == ""
        return csv_p.read_bytes(), json.loads(json_p.read_text())

    got = run("kernel")
    def oracle_blocks(config, d, x, tables, buf):
        est = adaptive_series_loop(
            d,
            x.transpose(2, 1, 0),
            config.estimator,
            config.n_w,
            gels_gamma=config.gels_gamma,
            gels_h_max=config.h_max_db,
            reinit_all=config.gels_reinit_all,
            h_series=np.full(d.shape[1], config.h_fixed_db),
        )[0]
        return lambda n0, n1: np.ascontiguousarray(est[..., n0:n1].transpose(2, 1, 0))

    monkeypatch.setattr(harness, "_block_estimates", oracle_blocks)
    want = run("oracle")
    assert got[1]["aggregates"] == want[1]["aggregates"]
    assert got == want


def test_same_seed_same_bytes(tmp_path, capsys):
    blobs = []
    for tag in ("x", "y"):
        csv_p = tmp_path / f"{tag}.csv"
        json_p = tmp_path / f"{tag}.json"
        rc, _, _ = run_main(
            capsys,
            [
                "simulate", "--preset", "vehicular-two-cell",
                "--trials", "5", "--policy", "0", "--seed", "21",
                "--csv", str(csv_p), "--json", str(json_p),
            ],
        )
        assert rc == 0
        blobs.append((csv_p.read_bytes(), json_p.read_bytes()))
    assert blobs[0] == blobs[1]


def test_optimize_outputs_trellis(tmp_path, capsys):
    csv_p = tmp_path / "opt.csv"
    json_p = tmp_path / "opt.json"
    rc, out, _ = run_main(
        capsys,
        [
            "optimize", "--preset", "vehicular-two-cell",
            "--objective", "opt3", "--root-sample", "38", "--horizon", "3",
            "--csv", str(csv_p), "--json", str(json_p),
        ],
    )
    assert rc == 0
    summary = json.loads(json_p.read_text())
    assert summary["schema"] == "optimize-v1"
    assert summary["b_next"] in (0, 1)
    assert summary["root_sample"] == 38
    assert summary["objective"] in ("opt3", "pareto")
    assert len(summary["margins"]) == 3
    lines = csv_p.read_text().splitlines()
    assert lines[0].startswith("path,states,events,margins,cost")
    assert len(lines) == 1 + 2**3


# sha256 of the optimize CSV and JSON for vehicular-two-cell, re-pinned when
# bvn_cdf_lattice moved the laws its scale floor does not bind to a 12-node
# rule: against the 24-node pins every path, state, event, margin, feasible
# and chosen field stayed byte-equal, and every cost and violation moved by
# at most 4.2e-15 relative
OPTIMIZE_SHA256 = {
    (5, "opt1"): ("550105a05469d7665d4db8bdbf6a6d2a61b14b0f5c3c7f9ad4f705c2f1fc8953",
                  "703d0278f888ecc35d3ba1675d597fba8bd6de3a066013817cf01b3fb380931c"),
    (5, "opt2"): ("a148885e3f9055d950dba64ca3fa0b6dd32989040ca76cd39253588df3a8be42",
                  "ccaa8f77538b9d6a99c732700cb5f3f13fcc061f327372441cc5677fcb0c2cc9"),
    (5, "opt3"): ("0af044a311a008e7cde6e46aed9d9df9de376e8a04eee05b4d451f9a6db400d4",
                  "758106e1c51bfa534a983ada66e77195520d40875225e86bf23fc5096ad5c02f"),
    (38, "opt1"): ("7c217747345c32610ebfd0c8616c7c7918eb3004900b85e3bbe94c22c7ad186d",
                   "d8a914c931fdaf2a419cc5335cf84f484df0eca19e9e41f34fdf6df2fe256251"),
    (38, "opt2"): ("9c33e1e0b126d30a16d42498820f316caebbcac1271202c2f25fd1e0952ea8ff",
                   "742bd7c3077d7f248e4e17a0c89bb1205e548b66cd3b810c11c0438c7cdcb0ec"),
    (38, "opt3"): ("ac3fffe17664623ffe1192ee7f12790d9fb793098cb1b82ce2da0be2a02c282b",
                   "4ec65e9ff2f853dff17f20a3f0667bb377ab96aaee341601edc2be67930f2007"),
    (70, "opt1"): ("d7a8a129f72cd11fd5c6bc2486d76bb558ab84203e05d2cf322334a97608303c",
                   "f7dc2fd12856faddb54a0c2e9adabf46dc20142641c1f91f028327e843c846dd"),
    (70, "opt2"): ("e97c122d3787b33ffd2f2799f3ac4f9a3b0af52e3de1c80b43d42b34a3af8103",
                   "89147a8f4861ebdcb41ae205b0b678b8a4a9222f0767a396e66819a937b46093"),
    (70, "opt3"): ("9804abf132ffb56c3317da8475e63a3860ae583bac956f66b1704a882c3873a1",
                   "f1100dbd2b97530d21672d53781ca3287cfbb8af18311ac823c6fe4236b28418"),
}


def test_optimize_outputs_are_pinned(tmp_path, capsys):
    csv_p = tmp_path / "opt.csv"
    json_p = tmp_path / "opt.json"
    for (root, objective), want in OPTIMIZE_SHA256.items():
        rc, _, _ = run_main(
            capsys,
            [
                "optimize", "--preset", "vehicular-two-cell",
                "--objective", objective, "--root-sample", str(root),
                "--csv", str(csv_p), "--json", str(json_p),
            ],
        )
        assert rc == 0
        got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_p, json_p))
        assert got == want, (root, objective)


# sha256 of the table (fixed-grid and resampled) and accuracy CSV and JSON,
# recorded while the runners still built their results one by one and the
# accuracy study wrote its own files; the CLI must reproduce them
TABLE_ARGS = [
    "table", "--preset", "paper-vi", "--start-offset-m", "975", "--length-m", "50",
    "--trials", "50", "--seed", "3",
]
ACCURACY_ARGS = [
    "accuracy", "--k", "3", "--m-split", "2", "--instances", "2",
    "--mc-samples", "20000", "--study-seed", "5",
]
RUN_SHA256 = {
    "table-fixed-grid": (
        TABLE_ARGS,
        "f3f41606430382b0d44300224a66afc3935b42e72be9e116362d68e333654d44",
        "2addbd0e4650b5f65af0e008e0de7b0674b9ae19e2dfcc12ba6eb18f02c110ab",
    ),
    "table-resampled": (
        TABLE_ARGS + ["--mode", "resampled"],
        "e42f10b0073d83ed9160478e81dcd1c2527a01d5b8ad24cd193831f8ed55ade0",
        "bb3e80d5fbe7341cbcbfd9199f35b6c9c967ef734ebd199374b8c9af168f0a82",
    ),
    "accuracy": (
        ACCURACY_ARGS,
        "6813218a0ea34dad257d34ca6469e660005689cbedafcdc51541be177a079156",
        "b4a8ca679e1b501e29fc131ad4985c75ae3268448705e2d7f252bd242c8a7d20",
    ),
}
# sha256 of the simulate CSV and JSON (pairwise chains on the paper-vi slice,
# and the cell row), recorded while every box edge at +-inf still cost an
# ndtr and emit still wrote through csv.DictWriter. The pairwise JSON was
# re-recorded when the chains' laws became slices of the block laws: its
# analytic series moved by at most 5.2e-16 relative to their largest entry.
SIMULATE_SHA256 = {
    "pairwise": (
        [
            "simulate", "--preset", "paper-vi", "--analytic", "pairwise",
            "--start-offset-m", "975", "--length-m", "50", "--trials", "200", "--seed", "0",
        ],
        "dfbbf4432e8e14050534bff4370b79213468e091c4659a7092b962acfb70be89",
        "df1ef3660c746aa1ff3e6367f2200557e4f172d262643b7c8cc6cfd792fd5d15",
    ),
    "cell-row": (
        ["simulate", "--preset", "vehicular-cell-row", "--trials", "20"],
        "155386d05410861b5d433d7e5921563d4e2e91e2c4b59d4a628eacc66b76c3fc",
        "7169f2616185c81c1947dc00d8c0b7c031e8577e285ce9d6f6b1b445b9894be9",
    ),
}


def assert_pinned(tmp_path, capsys, argv, want):
    csv_p = tmp_path / "run.csv"
    json_p = tmp_path / "run.json"
    rc, _, _ = run_main(capsys, argv + ["--csv", str(csv_p), "--json", str(json_p)])
    assert rc == 0
    got = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_p, json_p)]
    assert got == want


@pytest.mark.parametrize("name", sorted(RUN_SHA256))
def test_table_and_accuracy_outputs_are_pinned(tmp_path, capsys, name):
    argv, *want = RUN_SHA256[name]
    assert_pinned(tmp_path, capsys, argv, want)


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_outputs_are_pinned(tmp_path, capsys, name):
    argv, *want = SIMULATE_SHA256[name]
    assert_pinned(tmp_path, capsys, argv, want)


def test_optimize_has_no_method_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--preset", "vehicular-two-cell", "--method", "exact"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "usage"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_are_usage_errors(capsys, workers):
    argv = ["simulate", "--preset", "vehicular-two-cell", "--trials", "2", "--workers", workers]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"]["code"] == "usage"
    assert "--workers" in payload["error"]["message"]


@pytest.mark.parametrize("cells", [("5", "1"), ("-1", "1"), ("0", "0")])
def test_optimize_rejects_bad_cell_pairs(capsys, cells):
    rc, _, err = run_main(
        capsys,
        ["optimize", "--preset", "vehicular-two-cell", "--cell-a", cells[0], "--cell-b", cells[1]],
    )
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "config"


def test_accuracy_study_cli(tmp_path, capsys):
    json_p = tmp_path / "acc.json"
    rc, out, _ = run_main(
        capsys,
        [
            "accuracy", "--k", "3", "--m-split", "2", "--instances", "2",
            "--mc-samples", "20000", "--seed", "5",
            "--csv", str(tmp_path / "acc.csv"), "--json", str(json_p),
        ],
    )
    assert rc == 0
    summary = json.loads(json_p.read_text())
    assert summary["k"] == 3
    assert summary["mae"]["sandwich_violations"] == 0
    header = (tmp_path / "acc.csv").read_text().splitlines()[0]
    for col in ("exact", "b1", "lb2", "ub2", "ub3"):
        assert col in header.split(",")


def test_table_sweep_cli(tmp_path, capsys):
    csv_p = tmp_path / "table.csv"
    rc, out, _ = run_main(
        capsys,
        [
            "table", "--preset", "vehicular-two-cell",
            "--speeds", "5,20", "--policies", "0,2", "--trials", "3",
            "--seed", "2", "--csv", str(csv_p),
            "--json", str(tmp_path / "table.json"),
        ],
    )
    assert rc == 0
    lines = csv_p.read_text().splitlines()
    assert lines[0] == "metric,policy,v=5,v=20"
    assert len(lines) == 5  # two metrics x two policies
    summary = json.loads((tmp_path / "table.json").read_text())
    assert summary["schema"] == "table-sweep-v1"


def test_ini_file_overrides_flags(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\ntrials = 2\n\n[scenario]\nseed = 99\nh_fixed_db = 4.0\n"
    )
    json_p = tmp_path / "s.json"
    rc, _, _ = run_main(
        capsys,
        [
            "simulate", "--preset", "vehicular-two-cell",
            "--trials", "6", "--seed", "1", "--policy", "4",
            "--config", str(ini), "--json", str(json_p),
        ],
    )
    assert rc == 0
    summary = json.loads(json_p.read_text())
    assert summary["seed"] == 99
    assert summary["n_trials"] == 2


@pytest.mark.parametrize(
    "command,run_section",
    [
        (["simulate", "--trials", "2"], "polciy = 4"),
        (["optimize"], "method = exact"),
    ],
)
def test_ini_run_section_rejects_keys_the_command_does_not_read(
    tmp_path, capsys, command, run_section
):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\n{run_section}\n")
    rc, _, err = run_main(
        capsys, command + ["--preset", "vehicular-two-cell", "--config", str(ini)]
    )
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "config"


@pytest.mark.parametrize(
    "command,section,key,value",
    [
        (["simulate"], "run", "trials", "12.9"),
        (["accuracy", "--instances", "1"], "run", "mc_samples", "20000.5"),
        (["table", "--trials", "2"], "run", "speeds", "5,abc"),
        (["simulate", "--trials", "2"], "scenario", "n_w", "4.5"),
    ],
)
def test_ini_malformed_values_exit_2_naming_the_key(
    tmp_path, capsys, command, section, key, value
):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    rc, out, err = run_main(
        capsys, command + ["--preset", "vehicular-two-cell", "--config", str(ini)]
    )
    assert rc == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "config"
    assert repr(key) in error["message"]


def test_flags_override_preset(tmp_path, capsys):
    from dataclasses import replace

    from handopt.harness import config_fingerprint
    from handopt.scenario import preset

    json_p = tmp_path / "p.json"
    rc, _, _ = run_main(
        capsys,
        [
            "simulate", "--preset", "vehicular-two-cell",
            "--n-w", "6", "--trials", "2", "--policy", "1",
            "--json", str(json_p),
        ],
    )
    assert rc == 0
    summary = json.loads(json_p.read_text())
    want = replace(preset("vehicular-two-cell"), n_w=6)
    assert summary["config_hash"] == config_fingerprint(want)
    assert summary["policy"] == "h=1"


def test_usage_errors_exit_2(capsys):
    rc, _, err = run_main(
        capsys,
        ["simulate", "--preset", "vehicular-two-cell", "--trials", "0",
         "--policy", "2"],
    )
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"]["code"] == "config"

    rc, _, err = run_main(
        capsys,
        ["simulate", "--preset", "vehicular-two-cell", "--trials", "2",
         "--policy", "opt9"],
    )
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "config"


def test_simulate_rejects_analytic_on_a_cell_row(tmp_path, capsys):
    # the analytic chains are two-cell only; a cell row must not drop the
    # request without a word
    argv = ["simulate", "--preset", "vehicular-cell-row", "--trials", "1", "--policy", "2"]
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nanalytic = exact\n")
    for extra in (["--analytic", "exact"], ["--config", str(ini)]):
        rc, out, err = run_main(capsys, argv + extra)
        assert rc == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "config"


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--h-max-db", "inf"],
        ["optimize", "--h-step-db", "inf"],
        ["optimize", "--h-max-db", "nan"],
        ["simulate", "--trials", "2", "--h-fixed-db", "inf"],
        ["simulate", "--trials", "2", "--outage-threshold-db", "inf"],
        ["simulate", "--trials", "2", "--speed-mps", "inf"],
        ["simulate", "--trials", "2", "--sample-interval-s", "inf"],
        ["simulate", "--trials", "2", "--speed-mps", "nan"],
        ["simulate", "--trials", "2", "--start-offset-m", "nan"],
        ["simulate", "--trials", "2", "--length-m", "nan"],
        ["simulate", "--trials", "2", "--length-m", "inf"],
        ["simulate", "--trials", "2", "--estimator", "gels", "--gels-gamma", "nan"],
        ["optimize", "--start-offset-m", "inf"],
    ],
)
def test_non_finite_inputs_exit_2(capsys, argv):
    rc, out, err = run_main(capsys, argv + ["--preset", "vehicular-two-cell"])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "config"


@pytest.mark.parametrize(
    "argv",
    [
        # a zero gamma reaches the GELS walk, which the simulator runs by block
        ["simulate", "--preset", "paper-vi", "--estimator", "gels", "--gels-gamma", "0",
         "--trials", "2", "--length-m", "50"],
        # 3.8e301 samples: the trace cap rejects the config before any array
        ["simulate", "--preset", "paper-vi", "--trials", "2", "--sample-interval-s", "1e-300"],
    ],
)
def test_config_errors_of_a_run_exit_2_with_one_json_line(capsys, argv):
    rc, out, err = run_main(capsys, argv)
    assert rc == 2
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["code"] == "config"


@pytest.mark.parametrize(
    "argv,run_file",
    [
        (["simulate", "--trials", "2", "--policy", "2", "--seed", "-1"], None),
        (["table", "--speeds", "5", "--policies", "0", "--trials", "2", "--seed", "-1"], None),
        (["accuracy", "--k", "3", "--m-split", "2", "--instances", "1",
          "--mc-samples", "2000", "--study-seed", "-1"], None),
        (["simulate", "--trials", "2", "--policy", "2"], "[scenario]\nseed = -3\n"),
    ],
)
def test_negative_seeds_exit_2(tmp_path, capsys, argv, run_file):
    if run_file is not None:
        ini = tmp_path / "run.ini"
        ini.write_text(run_file)
        argv = argv + ["--config", str(ini)]
    rc, out, err = run_main(capsys, argv + ["--preset", "vehicular-two-cell"])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "config"


def test_optimize_margins_stay_within_h_max(tmp_path, capsys):
    json_p = tmp_path / "o.json"
    rc, _, _ = run_main(
        capsys,
        ["optimize", "--preset", "vehicular-two-cell", "--h-max-db", "1",
         "--h-step-db", "0.6", "--json", str(json_p)],
    )
    assert rc == 0
    summary = json.loads(json_p.read_text())
    assert summary["h_first"] in (0.0, 0.6)
    assert set(summary["margins"]) <= {0.0, 0.6}


@pytest.mark.parametrize("speeds", ["5,5", "5,5.0000001"])
def test_table_rejects_speeds_that_share_a_column(tmp_path, capsys, speeds):
    rc, out, err = run_main(
        capsys,
        ["table", "--preset", "vehicular-two-cell", "--speeds", speeds,
         "--policies", "0", "--trials", "2", "--csv", str(tmp_path / "t.csv")],
    )
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "config"
    assert not (tmp_path / "t.csv").exists()


def test_numerical_failures_exit_3(capsys):
    # without shadowing the gap covariance is singular, which the
    # eigenvalue sandwich refuses with a NumericalConsistencyError
    rc, _, err = run_main(
        capsys,
        ["accuracy", "--shadow-sigma-db", "0", "--instances", "2", "--k", "4"],
    )
    assert rc == 3
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"]["code"] == "numerical"


def test_unknown_preset_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--preset", "downtown", "--trials", "1",
              "--policy", "2"])
    capsys.readouterr()


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # main() freezes the objects that predate the run and thaws them after,
    # on every exit path, and never thaws a caller's frozen set. A frozen
    # object is in no collector generation, so gc.get_objects() tells
    # whether a given one is frozen; the freeze count is not compared, as
    # the run may free frozen objects.
    import gc

    def frozen(obj):
        return gc.is_tracked(obj) and not any(o is obj for o in gc.get_objects())

    sentinel = [object()]
    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["simulate", "--preset", "downtown"])
    assert gc.get_freeze_count() == 0
    assert main(["simulate", "--preset", "paper-vi", "--policy", "2", "--n-w", "0"]) == 2
    assert gc.get_freeze_count() == 0
    gc.freeze()
    try:
        assert frozen(sentinel)
        assert main(["simulate", "--preset", "paper-vi", "--policy", "2", "--n-w", "0"]) == 2
        assert frozen(sentinel)
    finally:
        gc.unfreeze()
    assert not frozen(sentinel)
    capsys.readouterr()


def test_unwritable_output_exits_4(tmp_path, capsys):
    rc, _, err = run_main(
        capsys,
        [
            "simulate", "--preset", "vehicular-two-cell",
            "--trials", "2", "--policy", "2",
            "--csv", str(tmp_path / "missing" / "deep" / "out.csv"),
        ],
    )
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "io"


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # the destination is a directory: the move into place fails
    target = tmp_path / "out"
    target.mkdir()
    rc, _, err = run_main(
        capsys,
        [
            "simulate", "--preset", "vehicular-two-cell",
            "--trials", "2", "--policy", "2", "--csv", str(target),
        ],
    )
    assert rc == 4
    assert json.loads(err)["error"]["code"] == "io"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list(tmp_path.rglob("*.tmp")) == []


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [
            sys.executable, "-m", "handopt.cli",
            "simulate", "--preset", "vehicular-two-cell",
            "--trials", "2", "--policy", "2", "--seed", "3",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "avg_handovers" in proc.stdout


def test_layout_out_of_float_range_is_one_json_line_and_nothing_else():
    # a fresh process, so that no warning filter of the test run hides a
    # numpy overflow warning printed before the error
    proc = subprocess.run(
        [
            sys.executable, "-m", "handopt.cli",
            "simulate", "--preset", "paper-vi", "--spacing-m", "1e300",
            "--trials", "2", "--length-m", "10",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        '{"error": {"code": "config", "message": "base station distances must be finite"}}\n'
    )


@pytest.mark.parametrize(
    "layout",
    [
        ["--preset", "vehicular-cell-row", "--spacing-m", "inf"],
        ["--preset", "vehicular-cell-row", "--spacing-m", "1e308"],
        ["--preset", "paper-vi", "--cells", "3", "--spacing-m", "inf"],
    ],
)
def test_row_coordinates_out_of_float_range_are_one_json_line(layout):
    # a row's x coordinates inf * 0 or 1e308 * 2 are a config error, with
    # no numpy warning printed before its line (a fresh process, as above)
    proc = subprocess.run(
        [sys.executable, "-m", "handopt.cli", "simulate", "--trials", "2"] + layout,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        '{"error": {"code": "config", "message": "base station coordinates must be finite"}}\n'
    )


def test_import_leaves_scipy_signal_and_stats_unloaded():
    # both cost most of a second at start-up and nothing in the package
    # needs them
    import os

    import handopt

    src = os.path.dirname(os.path.dirname(os.path.abspath(handopt.__file__)))
    code = (
        "import sys, handopt, handopt.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.signal', 'scipy.stats'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_scipy_integrate_and_its_imports_unloaded():
    # scipy.integrate alone pulled in optimize, sparse, linalg, fft and
    # spatial, several tenths of a second of every run's start-up; the
    # package needs only scipy.special (ndtr)
    import os

    import handopt

    src = os.path.dirname(os.path.dirname(os.path.abspath(handopt.__file__)))
    heavy = ("integrate", "optimize", "sparse", "linalg", "fft", "spatial")
    code = (
        "import sys, handopt, handopt.cli; print(sorted(m for m in sys.modules "
        f"if m.startswith('scipy.') and m.split('.')[1] in {heavy!r}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    import handopt

    assert len(set(handopt.__all__)) == len(handopt.__all__)
    missing = [name for name in handopt.__all__ if not hasattr(handopt, name)]
    assert missing == []


def test_every_exported_name_has_a_caller():
    # an exported name, top-level function or class, or method that no
    # module of the package loads is surface only tests reach; docstring
    # mentions do not count, and the package's own __init__ only re-exports.
    # A method or property is loaded only as an attribute: a local variable
    # of its name does not call it.
    import handopt

    exempt = {
        "connection_series": "the connected-state probabilities Pr[b(n) = 1]",
        "_Parser.error": "argparse calls it on a usage error",
    }
    names, attrs, defined = set(), set(), set(handopt.__all__)
    for path in pathlib.Path(handopt.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )

    def loaded(name):
        _, dot, attr = name.rpartition(".")
        return attr in attrs or (not dot and attr in names)

    uncalled = {name for name in defined if not loaded(name)}
    assert sorted(uncalled - set(exempt)) == []
    # an exemption whose name gained a caller is no longer needed
    assert sorted(set(exempt) - uncalled) == []


def test_every_parameter_is_passed_by_a_package_call():
    # a parameter of a module-level function that none of the package's
    # direct calls of it passes, by position or by name, serves only tests.
    # A call resolves to the function its name is bound to in the calling
    # module: defined there, or imported with `from .module import name`.
    # A call with *args or **kwargs passes every parameter it could fill.
    import handopt

    exempt = {"cli.main(argv)": "the console script calls main() with no argument"}
    modules = {}
    for path in pathlib.Path(handopt.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            modules[path.stem] = ast.parse(path.read_text())
    defs = {
        (mod, node.name): node
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    passed = {}  # function with a direct package call -> the parameters passed
    for mod, tree in modules.items():
        bound = {name: (mod, name) for m, name in defs if m == mod}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                bound.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            key = bound.get(call.func.id)
            if key not in defs:
                continue
            args = defs[key].args
            positional = [a.arg for a in args.posonlyargs + args.args]
            seen = passed.setdefault(key, set())
            if any(isinstance(a, ast.Starred) for a in call.args):
                seen.update(positional)
            seen.update(positional[: len(call.args)])
            for kw in call.keywords:
                if kw.arg is None:
                    seen.update(positional + [a.arg for a in args.kwonlyargs])
                else:
                    seen.add(kw.arg)
    unpassed = set()
    for (mod, name), seen in passed.items():
        args = defs[mod, name].args
        unpassed.update(
            f"{mod}.{name}({a.arg})"
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.arg not in seen
        )
    assert sorted(unpassed - set(exempt)) == []
    # an exemption whose parameter gained a caller is no longer needed
    assert sorted(set(exempt) - unpassed) == []


# ---------------------------------------------------------------------------
# equality gate of the option layer: a fixed argv battery, each run pinned by
# one sha256 over its argv, config file, exit code, stdout, stderr and output
# bytes, recorded before the options were declared from one table

SLICE = ["--start-offset-m", "975", "--length-m", "50"]
SCENARIO_FLAGS = [
    "--start-offset-m", "900", "--length-m", "100", "--speed-mps", "10",
    "--sample-interval-s", "0.5", "--estimator", "gels", "--n-w", "3",
    "--gels-gamma", "2.5", "--gels-reinit-all", "--outage-threshold-db", "-100",
    "--h-max-db", "6", "--h-step-db", "0.5", "--horizon", "3", "--depth", "5",
    "--h-fixed-db", "3", "--p-out-cap", "0.2", "--p-han-cap", "0.9",
    "--pareto-weight", "0.4", "--b-init", "1", "--seed", "11",
]
INI_ALL_SECTIONS = (
    "[scenario]\nseed = 21\nn_w = 3\nh_fixed_db = 3.5\noutage_threshold_db = none\n"
    "depth = none\ngels_reinit_all = no\nestimator = ls\n\n"
    "[channel]\nshadow_sigma_db = 7\ncoherence_m = 30\n\n"
    "[layout]\nn_cells = 2\nspacing_m = 1800\ncell_radius_m = 950\n\n"
    "[run]\npolicy = 3\ntrials = 4\nanalytic = pairwise\n"
)
# name -> (argv, config file text or None); "--config" is appended for a file
BATTERY = {
    # every subcommand with its run defaults
    "simulate-defaults": (["simulate"], None),
    "optimize-defaults": (["optimize"], None),
    "table-defaults": (["table"] + SLICE, None),
    "accuracy-defaults": (["accuracy", "--instances", "2"], None),
    # every run flag of each subcommand
    "simulate-run-flags": (
        ["simulate", "--policy", "1.5", "--trials", "5", "--analytic", "pairwise"] + SLICE, None
    ),
    "simulate-opt-policy": (["simulate", "--policy", "opt1", "--trials", "3"] + SLICE, None),
    "optimize-run-flags": (
        ["optimize", "--objective", "min_outage", "--root-sample", "7", "--root-b", "1",
         "--cell-a", "1", "--cell-b", "0"],
        None,
    ),
    "accuracy-run-flags": (
        ["accuracy", "--k", "4", "--m-split", "2", "--instances", "3",
         "--mc-samples", "10000", "--study-seed", "9"],
        None,
    ),
    "table-run-flags": (
        ["table", "--speeds", "8,30", "--policies", "1.5,opt2", "--trials", "7",
         "--mode", "resampled"] + SLICE,
        None,
    ),
    # every flag of each override group
    "scenario-overrides": (["simulate", "--policy", "opt2", "--trials", "3"] + SCENARIO_FLAGS, None),
    "channel-overrides": (
        ["simulate", "--trials", "3", "--intercept-db", "-3", "--slope-db", "30",
         "--shadow-sigma-db", "5", "--coherence-m", "25"],
        None,
    ),
    "layout-overrides": (
        ["simulate", "--trials", "3", "--cells", "3", "--spacing-m", "1500",
         "--cell-radius-m", "900"],
        None,
    ),
    "cell-row-layout-and-channel": (
        ["simulate", "--preset", "vehicular-cell-row", "--trials", "2", "--cells", "4",
         "--coherence-m", "30", "--length-m", "3000"],
        None,
    ),
    "cell-row-spacing": (
        ["simulate", "--preset", "vehicular-cell-row", "--trials", "2", "--spacing-m", "1900",
         "--length-m", "3000"],
        None,
    ),
    "output-workers": (["simulate", "--trials", "3", "--workers", "1"] + SLICE, None),
    # --config files, each over flags the file overrides
    "config-all-sections": (
        ["simulate", "--trials", "9", "--seed", "3", "--policy", "1", "--n-w", "5",
         "--spacing-m", "2100"] + SLICE,
        INI_ALL_SECTIONS,
    ),
    "config-optimize-run": (
        ["optimize", "--root-sample", "1"],
        "[run]\nobjective = opt2\nroot_sample = 3\nroot_b = 1\ncell_a = 0\ncell_b = 1\n",
    ),
    "config-accuracy-run": (
        ["accuracy", "--k", "5"],
        "[run]\nk = 3\nm_split = 2\ninstances = 2\nmc_samples = 20000\nstudy_seed = 4\n",
    ),
    "config-table-run": (
        ["table", "--trials", "8"] + SLICE,
        "[run]\nspeeds = 10,25\npolicies = 0, opt1\ntrials = 4\nmode = resampled\n",
    ),
    # usage and configuration errors
    "no-command": ([], None),
    "unknown-preset": (["simulate", "--preset", "downtown"], None),
    "bad-estimator-choice": (["simulate", "--estimator", "kalman"], None),
    "bad-b-init-choice": (["optimize", "--b-init", "2"], None),
    "workers-0": (["simulate", "--workers", "0"], None),
    "n-w-0": (["simulate", "--n-w", "0"], None),
    "policy-opt9": (["simulate", "--policy", "opt9"], None),
    "depth-none-flag": (["simulate", "--depth", "none"], None),
    "ini-malformed-value": (["simulate", "--trials", "2"], "[scenario]\nn_w = 4.5\n"),
    "ini-malformed-bool": (["simulate", "--trials", "2"], "[scenario]\ngels_reinit_all = maybe\n"),
    "ini-malformed-run-value": (["simulate"], "[run]\ntrials = 12.9\n"),
    "ini-key-not-read": (["optimize"], "[run]\nmethod = exact\n"),
    "ini-unknown-channel-key": (["simulate", "--trials", "2"], "[channel]\nsigma = 3\n"),
    "ini-bogus-analytic": (["simulate", "--trials", "3"] + SLICE, "[run]\nanalytic = bogus\n"),
    # error order: file sections, then config validation, then run values
    "ini-file-error-first": (
        ["simulate"], "[scenario]\nn_w = 0\n\n[channel]\nslope_db = steep\n\n[run]\ntrials = x\n"
    ),
    "ini-config-error-before-run-value": (["simulate"], "[scenario]\nn_w = 0\n\n[run]\ntrials = x\n"),
}
# simulate-run-flags and config-all-sections run pairwise chains; they were
# re-recorded when the chains' laws became slices of the block laws (their
# analytic series moved by at most 3.5e-16 relative to the largest entry)
BATTERY_SHA256 = {
    "accuracy-defaults":
        "35d89cee2431ffa8add4987629b8b3e4fe98008fd6d399651aebcc4c75cedf25",
    "accuracy-run-flags":
        "31cd9168d36a80496248af1d412f134cefeec3c2085f8d9015e71f4ec89bc712",
    "bad-b-init-choice":
        "ed5956c9003049bf72173bfe6984d18288c3ad7916689b6246d9a1a8a6dce889",
    "bad-estimator-choice":
        "b3b1f8c3f834c3506f1ea132657e1e486f8dc39f1834208acab5f75ef8b15acc",
    "cell-row-layout-and-channel":
        "689fbebafc9737e6fbb1fbca783a941367b3f74907e1fae575834d0aea32966a",
    "cell-row-spacing":
        "47be920d65036ce232cc2a35bf575201b420962282793d2e8dfb0216a5b25347",
    "channel-overrides":
        "8e81d52a33cb40083d3eb43313429aa9aa5ee8c19770444970d03a6984b3542b",
    "config-accuracy-run":
        "382f7ca521f6d86195d1b42a2f18de774ccf5879346b5a12da5cebeec0bc7c33",
    "config-all-sections":
        "16fe0bfccd0ee4f74ba7f8c983355124ba44d5d76db8cef530a0ac0e4a2d84a9",
    "config-optimize-run":
        "64907e01087369974747ce4a8695efa732e746ff05f878da36b022cb518c148e",
    "config-table-run":
        "e9347c4e48fcc44ef0ea9acd4df8bd74fa1e4aaaa0107467b07a1037b0ea9ed9",
    "depth-none-flag":
        "8c71f71f52d1be538dbb46dbdf098dc522279b795adebd36e3c05cbb61377cf6",
    "ini-bogus-analytic":
        "425a81afcc14c51ca2b9220aa9e824dfd0f24588f25b6e32b62a6f2ba88ca6d8",
    "ini-config-error-before-run-value":
        "d1ecef9176a0c72f11af84dc09a69f11e51ea2b05119f1aae6d8c66ffdca8e98",
    "ini-file-error-first":
        "0ff701f1f50499afc2fca46f9b21716fa7bd29b40bd4f76035350e37a8712889",
    "ini-key-not-read":
        "0828684ac19c02a475156199bcd25ccd8821cc06b9d7ccd224a0371eb8b5cbdb",
    "ini-malformed-bool":
        "f11d2cc8134538fc010492823915d0558e58c31eae68b59fa4be5f4172e00b15",
    "ini-malformed-run-value":
        "3c393637856d13677a5e8a06a6701df7dba22a9a7095b56488bc5325540de69e",
    "ini-malformed-value":
        "1b8ad3824e201f8dd93bcb475f6ccf7ab9b378302c74ea0989822611f0b6439b",
    "ini-unknown-channel-key":
        "baf87f36e5b0b002b0d9691cbf63003c44a93d6e9cb949f14ecbf3400f01fa43",
    "layout-overrides":
        "bf91fc389dd636db9223b3ff24612550d88dac3c1b87ec66ed953c5857a274c9",
    "n-w-0":
        "5ee54823eff3063852af918246eafbfdbbfcb5fc30896ff021471617eba9e1f4",
    "no-command":
        "fe3aef433c6e1d0f0c7b4c2fb0341b686215314ea2764a8aed89977c96352f7e",
    "optimize-defaults":
        "08b90cdd994fa8cd1a6f1bb9953db0be0e16a288938927d907a915494fa0be90",
    "optimize-run-flags":
        "8ddd9988802823a54d6ef02822f6912a9ffe97d6f0d3f9aecb7b9c569bb60506",
    "output-workers":
        "275d61d40c9b4c61ca6ce9ed02be4f066811b14cfca61a9e4ed67fd8c8380471",
    "policy-opt9":
        "eb5041f872d092bfe7057ecc177cd9dec2900b78b78e074344bf8c9090bd31e8",
    "scenario-overrides":
        "17c0542ae5728aff3121f9d1106b76029d9340a5e54ecd3b7be7428be47cba34",
    "simulate-defaults":
        "b2d6175cc49dfb83afbc9caf352e862672e0fc810195d0ac868ae43eb8a31b45",
    "simulate-opt-policy":
        "8fcfe1357a8becdb9fe10df363ad097a08c781ee9a3c69decf8ac7af5b35fcb7",
    "simulate-run-flags":
        "7064272a1481db81510fba1a968ba530c0fe2a8be7edad09fbb20c909c1f0297",
    "table-defaults":
        "90bceb1bfc111d3165235bdb3f50a458a4c914244d7d207268f5222e10cb69a4",
    "table-run-flags":
        "de765c6729e67b12587bc4b61033709284260ab91e909ed5dedb0931e5130b04",
    "unknown-preset":
        "2606845219d18e067de7ad66fcd8b4ab57bd008c8483a8102700ffa839ef9d9c",
    "workers-0":
        "e590046c9e59e811ad4bcf9cb07bb769f30143e160351a4cd2633f59365e7685",
}


def battery_digest(tmp_path, capsys, argv, ini):
    """sha256 over one in-process run: argv, file, exit code, streams, outputs."""
    csv_p = tmp_path / "run.csv"
    json_p = tmp_path / "run.json"
    for p in (csv_p, json_p):
        p.unlink(missing_ok=True)
    full = list(argv)
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        full += ["--config", str(tmp_path / "run.ini")]
    if argv:
        full += ["--csv", str(csv_p), "--json", str(json_p)]
    try:
        rc = main(full)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    h = hashlib.sha256(json.dumps([argv, ini, rc, captured.out, captured.err]).encode())
    for p in (csv_p, json_p):
        h.update(p.read_bytes() if p.exists() else b"<absent>")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_option_battery_is_pinned(tmp_path, capsys, name):
    argv, ini = BATTERY[name]
    assert battery_digest(tmp_path, capsys, argv, ini) == BATTERY_SHA256[name]


def option_record(parser):
    """Every subparser's actions: option strings and how each one parses."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    record = {}
    for name, p in sub.choices.items():
        groups = {id(a): g.title for g in p._action_groups for a in g._group_actions}
        record[name] = [
            [a.option_strings, a.dest, type(a).__name__, groups[id(a)], a.nargs, a.const,
             repr(a.default), getattr(a.type, "__name__", None),
             None if a.choices is None else list(a.choices), a.required, a.help, a.metavar]
            for a in p._actions
        ]
    return record


COMMON_OPTIONS = [
    "-h", "--help", "--preset", "--config", "--start-offset-m", "--length-m", "--speed-mps",
    "--sample-interval-s", "--estimator", "--n-w", "--gels-gamma", "--gels-reinit-all",
    "--outage-threshold-db", "--h-max-db", "--h-step-db", "--horizon", "--depth",
    "--h-fixed-db", "--p-out-cap", "--p-han-cap", "--pareto-weight", "--b-init", "--seed",
    "--intercept-db", "--slope-db", "--shadow-sigma-db", "--coherence-m", "--cells",
    "--spacing-m", "--cell-radius-m", "--csv", "--json", "--workers",
]
RUN_OPTIONS = {
    "simulate": ["--policy", "--trials", "--analytic"],
    "optimize": ["--objective", "--root-sample", "--root-b", "--cell-a", "--cell-b"],
    "accuracy": ["--k", "--m-split", "--instances", "--mc-samples", "--study-seed"],
    "table": ["--speeds", "--policies", "--trials", "--mode"],
}
OPTION_RECORD_SHA256 = {
    "simulate":
        "8163e51e7e8f1c4969881a444bc4d2c5b1023c6d4d1b0646b3274a6a62df8fa5",
    "optimize":
        "3a9a2234da5d661924efa845f66c8d6044066c213d005773423e71428319b7e8",
    "accuracy":
        "fdfc0b9cb41f56e53708b25432c8d388dc6db88cd199104982e061badd15dd51",
    "table":
        "e1a99a4b5c23aeadfb0421187cb456056579cbe4dad7c416ea00d57594188fa7",
}


def test_option_strings_of_every_subcommand_are_pinned():
    from handopt.cli import build_parser

    record = option_record(build_parser())
    assert list(record) == list(RUN_OPTIONS)
    for name, actions in record.items():
        got = [s for a in actions for s in a[0]]
        assert got == COMMON_OPTIONS + RUN_OPTIONS[name], name
        digest = hashlib.sha256(json.dumps(actions).encode()).hexdigest()
        assert digest == OPTION_RECORD_SHA256[name], name


# ---------------------------------------------------------------------------
# the error contract under extreme floats on every float override flag

EXTREME_FLOATS = [math.nan, math.inf, -math.inf, 0.0, 1e-300, -1e-300, 1e300, -1e300]
FLOAT_FLAGS = sorted(
    option for _, flags in cli._OVERRIDE_FLAGS for option, kw in flags if kw.get("type") is float
)
TINY = ["--preset", "paper-vi", "--start-offset-m", "995", "--length-m", "10"]
TINY_RUNS = {
    "simulate": ["simulate", "--trials", "2"] + TINY,
    "simulate-pairwise": ["simulate", "--trials", "2", "--analytic", "pairwise"] + TINY,
    "optimize": ["optimize"] + TINY,
    "table": ["table", "--trials", "2", "--speeds", "13", "--policies", "2,opt2"] + TINY,
    # a chain of k = 3 samples needs a longer trace than TINY's
    "accuracy": [
        "accuracy", "--instances", "1", "--k", "3", "--m-split", "2", "--mc-samples", "10000"
    ],
}


def finite_numbers(value):
    if isinstance(value, dict):
        return all(finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=120, deadline=None)
@given(
    run=st.sampled_from(sorted(TINY_RUNS)),
    flags=st.dictionaries(
        st.sampled_from(FLOAT_FLAGS), st.sampled_from(EXTREME_FLOATS), min_size=1, max_size=3
    ),
)
# the variance of a 1e300 dB shadowing overflowed y_stats' float pow
@example(run="optimize", flags={"--shadow-sigma-db": 1e300})
@example(run="simulate-pairwise", flags={"--shadow-sigma-db": 1e300})
@example(run="table", flags={"--shadow-sigma-db": 1e300})
# the eigenvalue sandwich's determinant overflowed at 1e153 dB shadowing
# (and then its float pow) and underflowed to zero at 1e-52 dB
@example(run="accuracy", flags={"--shadow-sigma-db": 1e153})
@example(run="accuracy", flags={"--shadow-sigma-db": 1e-52})
# a trace 1e299 m from the stations had infinite distances and NaN gaps
@example(
    run="simulate",
    flags={"--cell-radius-m": 1e300, "--start-offset-m": 1e299, "--length-m": 0.0},
)
def test_extreme_float_overrides_exit_0_with_finite_outputs_or_one_json_line(run, flags):
    # flags as --flag=value, so that argparse reads -inf as a value; the
    # drawn flags come last and win over the run's own
    argv = TINY_RUNS[run] + [f"{flag}={value!r}" for flag, value in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        json_p = pathlib.Path(tmp) / "run.json"
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                rc = main(argv + ["--json", str(json_p)])
            except SystemExit as exc:
                rc = exc.code
        if rc == 0:
            assert err.getvalue() == ""
            summary = json.loads(json_p.read_text())
            assert finite_numbers(summary), summary
            return
    assert rc in (2, 3), (rc, err.getvalue())
    assert out.getvalue() == ""
    (line,) = err.getvalue().splitlines()
    assert json.loads(line)["error"]["code"] in ("usage", "config", "degenerate", "numerical")


@pytest.mark.parametrize("run", ["accuracy", "optimize", "simulate-pairwise"])
def test_gap_covariance_overflow_is_one_json_line(run):
    # at 1.2e154 dB shadowing each link's gap variance is finite but their
    # sum is not: the sum must overflow silently into the config error,
    # with no RuntimeWarning printed before its JSON line
    argv = TINY_RUNS[run] + ["--shadow-sigma-db=1.2e154"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 2
    assert out.getvalue() == ""
    (line,) = err.getvalue().splitlines()
    assert json.loads(line)["error"] == {"code": "config", "message": "mu and Sigma must be finite"}

