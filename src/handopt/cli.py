"""Command-line front end.

Subcommands:
  simulate   trial-based run of one margin policy on a scenario
  optimize   one receding-horizon trellis solve, with a per-path dump
  accuracy   probability-method comparison study
  table      policy x speed aggregate sweep

Scenario settings resolve in three layers: the named preset, then any
command-line flags, then any INI config file (``--config``), the file
winning where both are given. Output files are always written atomically;
runs are reproducible byte for byte for a fixed seed, and the worker count
(``--workers`` or HANDOPT_WORKERS) never affects results. ``--workers`` must
be at least 1; a HANDOPT_WORKERS value that is not an integer, or is below
1, runs one worker.

Failures print a one-line JSON object to stderr ({"error": {"code", ...,
"message": ...}}) and exit nonzero: 2 for usage/configuration problems,
3 for numerical failures, 4 for I/O.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, DegenerateConditioningError, HandoptError
from .harness import (
    _OPT_LABELS,
    _gap_process,
    _trellis_problem,
    SweepSpec,
    config_fingerprint,
    emit,
    run_accuracy_study,
    run_multicell,
    run_table_sweep,
    run_two_cell,
    sweep_summary,
    sweep_table,
    trellis_rows,
)
from .optimizer import solve, _window_stats
from .scenario import ScenarioConfig, cell_row_layout, preset, two_cell_layout

_PRESETS = ("paper-vi", "vehicular-two-cell", "vehicular-cell-row")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"not a boolean: {text!r}")


def _opt_float(text: str):
    t = text.strip().lower()
    return None if t in ("", "none") else float(t)


def _opt_int(text: str):
    t = text.strip().lower()
    return None if t in ("", "none") else int(t)


_SCENARIO_PARSERS = {
    "start_offset_m": float,
    "length_m": float,
    "speed_mps": float,
    "sample_interval_s": float,
    "estimator": str,
    "n_w": int,
    "gels_gamma": float,
    "gels_reinit_all": _parse_bool,
    "outage_threshold_db": _opt_float,
    "h_max_db": float,
    "h_step_db": float,
    "horizon": int,
    "depth": _opt_int,
    "h_fixed_db": float,
    "p_out_cap": float,
    "p_han_cap": float,
    "pareto_weight": float,
    "b_init": int,
    "seed": int,
}
_CHANNEL_PARSERS = {
    "intercept_db": float,
    "slope_db": float,
    "shadow_sigma_db": float,
    "coherence_m": float,
}
_LAYOUT_PARSERS = {"n_cells": int, "spacing_m": float, "cell_radius_m": float}


def _parse_policy(text: str):
    t = text.strip()
    if t in ("opt1", "opt2", "opt3"):
        return t
    try:
        return float(t)
    except ValueError:
        raise ConfigurationError(f"policy must be a margin in dB or opt1/opt2/opt3: {text!r}")


def _parse_list(text: str, parse):
    return tuple(parse(part) for part in text.split(",") if part.strip())


def _parse_speeds(text: str):
    return _parse_list(text, float)


def _parse_policies(text: str):
    return _parse_list(text, _parse_policy)


def _worker_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(
            json.dumps({"error": {"code": "usage", "message": message}}),
            file=sys.stderr,
        )
        raise SystemExit(2)


def _add_scenario_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", choices=_PRESETS, default="paper-vi")
    p.add_argument("--config", metavar="FILE", help="INI file; overrides flags")
    g = p.add_argument_group("scenario overrides")
    g.add_argument("--start-offset-m", dest="start_offset_m", type=float)
    g.add_argument("--length-m", dest="length_m", type=float)
    g.add_argument("--speed-mps", dest="speed_mps", type=float)
    g.add_argument("--sample-interval-s", dest="sample_interval_s", type=float)
    g.add_argument("--estimator", choices=("avg", "ls", "els", "gels"))
    g.add_argument("--n-w", dest="n_w", type=int)
    g.add_argument("--gels-gamma", dest="gels_gamma", type=float)
    g.add_argument(
        "--gels-reinit-all", dest="gels_reinit_all", action="store_const", const=True
    )
    g.add_argument("--outage-threshold-db", dest="outage_threshold_db", type=float)
    g.add_argument("--h-max-db", dest="h_max_db", type=float)
    g.add_argument("--h-step-db", dest="h_step_db", type=float)
    g.add_argument("--horizon", type=int)
    g.add_argument("--depth", type=int)
    g.add_argument("--h-fixed-db", dest="h_fixed_db", type=float)
    g.add_argument("--p-out-cap", dest="p_out_cap", type=float)
    g.add_argument("--p-han-cap", dest="p_han_cap", type=float)
    g.add_argument("--pareto-weight", dest="pareto_weight", type=float)
    g.add_argument("--b-init", dest="b_init", type=int, choices=(0, 1))
    g.add_argument("--seed", type=int)
    c = p.add_argument_group("channel overrides (applied to every cell)")
    c.add_argument("--intercept-db", dest="intercept_db", type=float)
    c.add_argument("--slope-db", dest="slope_db", type=float)
    c.add_argument("--shadow-sigma-db", dest="shadow_sigma_db", type=float)
    c.add_argument("--coherence-m", dest="coherence_m", type=float)
    l = p.add_argument_group("layout overrides")
    l.add_argument("--cells", dest="n_cells", type=int)
    l.add_argument("--spacing-m", dest="spacing_m", type=float)
    l.add_argument("--cell-radius-m", dest="cell_radius_m", type=float)
    o = p.add_argument_group("output")
    o.add_argument("--csv", metavar="PATH")
    o.add_argument("--json", metavar="PATH")
    o.add_argument("--workers", type=_worker_arg)


def _parse_file_value(parse, raw: str, key: str, section: str):
    try:
        return parse(raw)
    except ValueError:
        raise ConfigurationError(f"bad value {raw!r} for {key!r} in [{section}]") from None


def _load_config_file(path: str, run_keys):
    """(scenario, channel, layout, run) sections; run values stay strings."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigurationError(f"cannot read config file {path!r}")

    def section(name, parsers):
        if name not in cp:
            return {}
        out = {}
        for key, raw in cp.items(name):
            if key not in parsers:
                raise ConfigurationError(f"unknown key {key!r} in [{name}]")
            out[key] = _parse_file_value(parsers[key], raw, key, name)
        return out

    return (
        section("scenario", _SCENARIO_PARSERS),
        section("channel", _CHANNEL_PARSERS),
        section("layout", _LAYOUT_PARSERS),
        section("run", dict.fromkeys(run_keys, str)),
    )


def _build_config(args) -> tuple:
    """Resolve (config, run-section dict) from preset, flags and file."""
    file_scn, file_ch, file_lay, file_run = (
        _load_config_file(args.config, args.run_keys) if args.config else ({}, {}, {}, {})
    )
    config = preset(args.preset)
    scn = {
        name: getattr(args, name)
        for name in _SCENARIO_PARSERS
        if getattr(args, name, None) is not None
    }
    scn.update(file_scn)
    ch = {
        name: getattr(args, name)
        for name in _CHANNEL_PARSERS
        if getattr(args, name, None) is not None
    }
    ch.update(file_ch)
    lay = {
        name: getattr(args, name)
        for name in _LAYOUT_PARSERS
        if getattr(args, name, None) is not None
    }
    lay.update(file_lay)
    if lay:
        xs = config.layout.bs_xy[:, 0]
        n = lay.get("n_cells", config.layout.n_bs)
        spacing = lay.get("spacing_m", float(xs[1] - xs[0]))
        radius = lay.get("cell_radius_m", config.layout.cell_radius_m)
        scn["layout"] = (
            two_cell_layout(spacing, radius)
            if n == 2
            else cell_row_layout(n, spacing, radius)
        )
    if ch:
        if "layout" in scn:
            scn["channels"] = (replace(config.channels[0], **ch),)
        else:
            scn["channels"] = tuple(replace(c, **ch) for c in config.channels)
    elif "layout" in scn:
        # the old per-cell tuple no longer matches the new cell count
        scn["channels"] = (config.channels[0],)
    return config.with_updates(**scn), file_run


def _run_value(file_run: dict, args, name: str, parse, default):
    if name in file_run:
        return _parse_file_value(parse, file_run[name], name, "run")
    v = getattr(args, name, None)
    return default if v is None else v


def _print(line: str):
    sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    config, file_run = _build_config(args)
    policy = _run_value(file_run, args, "policy", _parse_policy, 2.0)
    trials = _run_value(file_run, args, "trials", int, 1000)
    analytic = _run_value(file_run, args, "analytic", str, None)
    if config.layout.n_bs == 2:
        result = run_two_cell(config, policy, trials, workers=args.workers, analytic=analytic)
    elif analytic is not None:
        raise ConfigurationError("analytic chains are defined on the two-cell layout")
    else:
        result = run_multicell(config, policy, trials, workers=args.workers)
    rows = [
        {
            "trial": i,
            "switches": switches,
            "outage_samples": outage,
            "switch_times": ";".join(map(str, times.tolist())),
        }
        for i, (switches, outage, times) in enumerate(
            zip(result.switch_counts.tolist(), result.outage_counts.tolist(), result.switch_times)
        )
    ]
    summary = {
        "schema": "simulate-v1",
        "config_hash": config_fingerprint(config),
        "seed": result.base_seed,
        "policy": result.policy,
        "n_trials": result.n_trials,
        "n_cells": config.layout.n_bs,
        "aggregates": result.aggregates(),
    }
    if result.analytic_p_h is not None:
        summary["analytic"] = {
            "method": analytic,
            "sum_p_h": result.analytic_handover_sum,
            "sum_p_o": result.analytic_outage_sum,
            "p_h": result.analytic_p_h,
            "p_o": result.analytic_p_o,
            "stderr_h": result.analytic_se_h,
            "stderr_o": result.analytic_se_o,
        }
    emit(args.csv, args.json, ("trial", "switches", "outage_samples", "switch_times"), rows, summary)
    agg = result.aggregates()
    _print(
        f"simulate {result.policy}: avg_handovers={agg['avg_handovers']:.4f} "
        f"avg_outage={agg['avg_outage']:.4f} over {trials} trials"
    )
    return 0


def _cmd_optimize(args) -> int:
    config, file_run = _build_config(args)
    objective = _run_value(file_run, args, "objective", str, "opt1")
    if objective not in _OPT_LABELS:
        raise ConfigurationError(f"objective must be one of {sorted(_OPT_LABELS)}")
    label = _OPT_LABELS[objective]
    root_n = _run_value(file_run, args, "root_sample", int, 0)
    root_b = _run_value(file_run, args, "root_b", int, config.b_init)
    cell_a = _run_value(file_run, args, "cell_a", int, 0)
    cell_b = _run_value(file_run, args, "cell_b", int, 1)
    n_bs = config.layout.n_bs
    if not (0 <= cell_a < n_bs and 0 <= cell_b < n_bs) or cell_a == cell_b:
        raise ConfigurationError(f"cells must be two distinct indices in 0..{n_bs - 1}")
    process = _gap_process(config, cell_a, cell_b)
    n_samples = process.n_samples
    if not 0 <= root_n < n_samples - 1:
        raise ConfigurationError("root sample must leave at least one stage")
    horizon = min(config.horizon, n_samples - 1 - root_n)
    problem = _trellis_problem(
        config,
        _window_stats(process, root_n, horizon),
        horizon,
        root_b,
        label,
        config.resolved_outage_threshold(),
    )
    solution = solve(problem)
    fields, rows = trellis_rows(solution)
    summary = {
        "schema": "optimize-v1",
        "config_hash": config_fingerprint(config),
        "objective": label,
        "root_sample": root_n,
        "root_b": root_b,
        "cells": [cell_a, cell_b],
        "horizon": horizon,
        "b_next": solution.b_next,
        "h_first": solution.h_first,
        "margins": list(solution.margins),
        "cost": solution.cost,
        "feasible": solution.feasible,
        "violation": solution.violation,
    }
    emit(args.csv, args.json, fields, rows, summary)
    _print(
        f"optimize {label} @ sample {root_n} (serving {root_b}): "
        f"b_next={solution.b_next} h_first={solution.h_first:g} cost={solution.cost:.6g}"
    )
    return 0


def _cmd_accuracy(args) -> int:
    config, file_run = _build_config(args)
    k = _run_value(file_run, args, "k", int, 6)
    m_split = _run_value(file_run, args, "m_split", int, 3)
    instances = _run_value(file_run, args, "instances", int, 100)
    mc_samples = _run_value(file_run, args, "mc_samples", int, 400_000)
    study_seed = _run_value(file_run, args, "study_seed", int, 0)
    study = run_accuracy_study(
        k, m_split, instances, study_seed, config=config, mc_samples=mc_samples
    )
    summary = {
        "schema": "accuracy-study-v1",
        "config_hash": config_fingerprint(config),
        "seed": study_seed,
        "k": k,
        "m_split": m_split,
        "n_instances": instances,
        "mc_samples": mc_samples,
        "mae": study.mae,
        "mre": study.mre,
    }
    emit(args.csv, args.json, study.fieldnames, study.rows, summary)
    _print(
        f"accuracy k={k} m_split={m_split}: "
        + " ".join(f"mae[{name}]={study.mae[name]:.2e}" for name in ("b1", "lb2", "ub2", "ub3"))
        + f" sandwich_violations={study.mae['sandwich_violations']}"
    )
    return 0


def _cmd_table(args) -> int:
    config, file_run = _build_config(args)
    speeds = _run_value(file_run, args, "speeds", _parse_speeds, (5.0, 20.0, 40.0))
    policies = _run_value(
        file_run,
        args,
        "policies",
        _parse_policies,
        (0.0, 2.0, 4.0, "opt1", "opt2", "opt3"),
    )
    trials = _run_value(file_run, args, "trials", int, 1000)
    mode = _run_value(file_run, args, "mode", str, "fixed-grid")
    spec = SweepSpec(speeds=speeds, policies=policies, n_trials=trials, mode=mode)
    results = run_table_sweep(config, spec, workers=args.workers)
    fields, rows = sweep_table(results, spec)
    summary = sweep_summary(config, spec, results, None)
    emit(args.csv, args.json, fields, rows, summary)
    _print(f"table: {len(rows)} rows over {len(spec.speeds)} speeds x {len(spec.policies)} policies")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="handopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one margin policy")
    _add_scenario_flags(p)
    p.add_argument("--policy", type=_parse_policy, help="margin in dB or opt1/opt2/opt3")
    p.add_argument("--trials", type=int)
    p.add_argument("--analytic", choices=("pairwise", "exact"))
    p.set_defaults(func=_cmd_simulate, run_keys=("policy", "trials", "analytic"))

    p = sub.add_parser("optimize", help="one trellis solve with a path dump")
    _add_scenario_flags(p)
    p.add_argument("--objective", choices=sorted(_OPT_LABELS))
    p.add_argument("--root-sample", dest="root_sample", type=int)
    p.add_argument("--root-b", dest="root_b", type=int, choices=(0, 1))
    p.add_argument("--cell-a", dest="cell_a", type=int)
    p.add_argument("--cell-b", dest="cell_b", type=int)
    p.set_defaults(
        func=_cmd_optimize,
        run_keys=("objective", "root_sample", "root_b", "cell_a", "cell_b"),
    )

    p = sub.add_parser("accuracy", help="probability-method comparison study")
    _add_scenario_flags(p)
    p.add_argument("--k", type=int, help="chain length")
    p.add_argument("--m-split", dest="m_split", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--study-seed", dest="study_seed", type=int)
    p.set_defaults(
        func=_cmd_accuracy,
        run_keys=("k", "m_split", "instances", "mc_samples", "study_seed"),
    )

    p = sub.add_parser("table", help="policy x speed aggregate sweep")
    _add_scenario_flags(p)
    p.add_argument("--speeds", type=_parse_speeds, help="comma-separated speeds in m/s")
    p.add_argument("--policies", type=_parse_policies, help="comma-separated margins/opt policies")
    p.add_argument("--trials", type=int)
    p.add_argument("--mode", choices=("fixed-grid", "resampled"))
    p.set_defaults(func=_cmd_table, run_keys=("speeds", "policies", "trials", "mode"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # Objects that predate the run (modules, classes, the parser) outlive it,
    # so the cyclic collector skips them until it ends: a full collection
    # during the run scans only what the run allocated. A frozen set the
    # caller made is left as it is.
    thaw = gc.get_freeze_count() == 0
    if thaw:
        gc.freeze()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except ConfigurationError as e:
        print(json.dumps({"error": {"code": "config", "message": str(e)}}), file=sys.stderr)
        return 2
    except DegenerateConditioningError as e:
        print(json.dumps({"error": {"code": "degenerate", "message": str(e)}}), file=sys.stderr)
        return 3
    except HandoptError as e:
        print(json.dumps({"error": {"code": "numerical", "message": str(e)}}), file=sys.stderr)
        return 3
    except OSError as e:
        print(json.dumps({"error": {"code": "io", "message": str(e)}}), file=sys.stderr)
        return 4
    finally:
        if thaw:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
