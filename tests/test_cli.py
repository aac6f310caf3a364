"""Command-line front end: outputs, precedence, error contracts."""

import ast
import hashlib
import json
import pathlib
import subprocess
import sys

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


# sha256 of the optimize CSV and JSON for vehicular-two-cell, recorded when
# the trellis still optimized each path on its own (JSON without the
# retired "method" key); the per-edge scan must reproduce them byte for byte
OPTIMIZE_SHA256 = {
    (5, "opt1"): ("48b3c398f6a98ee6cbff8b77ccc1f61c9c8596cded07d18dea00b90f384ed8a8",
                  "703d0278f888ecc35d3ba1675d597fba8bd6de3a066013817cf01b3fb380931c"),
    (5, "opt2"): ("b1d81501b95236f8e1a8ae1079f188ef5dc8e508c8d9674624972e18d1aca0e6",
                  "6d5e5d12a72d34dcb13ce47afc6a2fcde3929710465f3ac3aab51982fe3d0b5a"),
    (5, "opt3"): ("8d775b3d37108261001cad980ac05203412bee8547c4ba145575fa8ebcf3643e",
                  "e4d674cc493119c57a274b2ed82b558f5c4ba2d96d3234db76d06c5d9a6c1e40"),
    (38, "opt1"): ("0493dd6b07eb18197f5b106f10820bee248846bc8c993631af2f5fc5fd954480",
                   "d8a914c931fdaf2a419cc5335cf84f484df0eca19e9e41f34fdf6df2fe256251"),
    (38, "opt2"): ("08cdf0520b31f7c5e60f8bb2215e093170b993f4f097d52272a52d1ee3c57052",
                   "742bd7c3077d7f248e4e17a0c89bb1205e548b66cd3b810c11c0438c7cdcb0ec"),
    (38, "opt3"): ("d93587f92ec298cf9503bdb2efc09d1d86cbecff71fb28090018773878908690",
                   "11ff9451c989cafb8cc6cbd25f475111288aa99bb585e9a97e356e09aebad7cf"),
    (70, "opt1"): ("f2d812917be9967e36091773f7f0cb7aa438dd6595275f01634b60c0aebdc709",
                   "f7dc2fd12856faddb54a0c2e9adabf46dc20142641c1f91f028327e843c846dd"),
    (70, "opt2"): ("8b3659e749e43d2c5b4a80aa230de9a129bfb86643a664de3203f45e8fdb3655",
                   "e51f2a62c98b3c011e5809bcffc1ee075b1c5e96527282de3f9034fc814b96f0"),
    (70, "opt3"): ("111a945404c472add8277cb06210f30f713bb631c4e96b965fb6b86f7e0a7108",
                   "c342861b5c987649b1d097c129a4555dedce759c30a18a2377bd669ff7394538"),
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


def test_optimize_has_no_method_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--preset", "vehicular-two-cell", "--method", "exact"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "usage"


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
    ],
)
def test_non_finite_inputs_exit_2(capsys, argv):
    rc, out, err = run_main(capsys, argv + ["--preset", "vehicular-two-cell"])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "config"


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
