"""Command-line front end: outputs, precedence, error contracts."""

import ast
import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

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
    def oracle_blocks(config, d, x, tables, block):
        est = adaptive_series_loop(
            d,
            np.moveaxis(x, -1, 0),
            config.estimator,
            config.n_w,
            gels_gamma=config.gels_gamma,
            gels_h_max=config.h_max_db,
            reinit_all=config.gels_reinit_all,
            h_series=np.full(d.shape[1], config.h_fixed_db),
        )[0]
        return lambda n0, n1: est[..., n0:n1]

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
# ndtr and emit still wrote through csv.DictWriter
SIMULATE_SHA256 = {
    "pairwise": (
        [
            "simulate", "--preset", "paper-vi", "--analytic", "pairwise",
            "--start-offset-m", "975", "--length-m", "50", "--trials", "200", "--seed", "0",
        ],
        "dfbbf4432e8e14050534bff4370b79213468e091c4659a7092b962acfb70be89",
        "9fa4b3296c96a276c50e87fe95ac6050c7501586cd64e7dfbf96093d8e1a777b",
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

    from handopt import config_fingerprint, preset

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
    # on every exit path, and never thaws a caller's frozen set
    import gc

    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["simulate", "--preset", "downtown"])
    assert main(["simulate", "--preset", "paper-vi", "--policy", "2", "--n-w", "0"]) == 2
    assert gc.get_freeze_count() == 0
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert main(["simulate", "--preset", "paper-vi", "--policy", "2", "--n-w", "0"]) == 2
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
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
    # an exported name that no module of the package loads is surface only
    # tests reach; docstring mentions do not count
    import handopt

    exempt = {
        "decide_series": "the paper's two-cell hysteresis rule",
        "connection_series": "the connected-state probabilities Pr[b(n) = 1]",
        "problem_from_process": "the trellis problem of a GapProcess root sample",
        "estimate_series": "whole-trace estimates and modes; the simulator runs its kernels by block",
    }
    loaded = set()
    for path in pathlib.Path(handopt.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(handopt.__all__) - loaded - set(exempt)) == []
    # an exemption whose name gained a caller is no longer needed
    assert sorted(set(exempt) & loaded) == []
