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
1, runs one worker. A run starts at most one thread per CPU it may use,
however many workers it is asked for.

Each option is declared once: an override in ``_OVERRIDES``, a command's
run option in ``_RUN_OPTIONS``. Entry ``name`` is the flag
``--name-with-dashes`` and the INI key ``name`` of its section (``[run]``
for a run option). Its parser reads the key's value and, unless its flag
keywords give an action, a type or choices, the flag's. A flag that differs
from its key says so there: ``--gels-reinit-all`` takes no value,
``--outage-threshold-db`` and ``--depth`` take no ``none``, ``--cells``
sets ``n_cells``.

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

from .errors import ConfigurationError, DegenerateConditioningError, HandoptError
from .harness import (
    _OPT_LABELS,
    _OPT_POLICIES,
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
from .scenario import _ESTIMATORS, _PRESETS, cell_row_layout, preset


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _or_none(parse):
    """The INI parser that also reads an empty value or "none" as None."""
    return lambda text: None if text.strip().lower() in ("", "none") else parse(text)


def _parse_policy(text: str):
    t = text.strip()
    if t in _OPT_POLICIES:
        return t
    try:
        return float(t)
    except ValueError:
        raise ConfigurationError(
            f"policy must be a margin in dB or {'/'.join(_OPT_POLICIES)}: {text!r}"
        ) from None


def _parse_speeds(text: str):
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_policies(text: str):
    return tuple(_parse_policy(part) for part in text.split(",") if part.strip())


def _parse_objective(text: str) -> str:
    if text not in _OPT_LABELS:
        raise ConfigurationError(f"objective must be one of {sorted(_OPT_LABELS)}")
    return text


def _worker_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# (INI section, flag group title) -> {field: (INI parser, flag keywords)} of
# the ScenarioConfig, per-cell ChannelParams and layout overrides
_OVERRIDES = {
    ("scenario", "scenario overrides"): {
        "start_offset_m": (float, {}),
        "length_m": (float, {}),
        "speed_mps": (float, {}),
        "sample_interval_s": (float, {}),
        "estimator": (str, {"choices": _ESTIMATORS}),
        "n_w": (int, {}),
        "gels_gamma": (float, {}),
        "gels_reinit_all": (_parse_bool, {"action": "store_const", "const": True}),
        "outage_threshold_db": (_or_none(float), {"type": float}),
        "h_max_db": (float, {}),
        "h_step_db": (float, {}),
        "horizon": (int, {}),
        "depth": (_or_none(int), {"type": int}),
        "h_fixed_db": (float, {}),
        "p_out_cap": (float, {}),
        "p_han_cap": (float, {}),
        "pareto_weight": (float, {}),
        "b_init": (int, {"type": int, "choices": (0, 1)}),
        "seed": (int, {}),
    },
    ("channel", "channel overrides (applied to every cell)"): {
        "intercept_db": (float, {}),
        "slope_db": (float, {}),
        "shadow_sigma_db": (float, {}),
        "coherence_m": (float, {}),
    },
    ("layout", "layout overrides"): {
        "n_cells": (int, {"option": "--cells"}),
        "spacing_m": (float, {}),
        "cell_radius_m": (float, {}),
    },
}
# command -> {run option: (INI parser, default, flag keywords)}; table's
# None defaults leave the value to SweepSpec, optimize's root_b to the
# config's b_init
_RUN_OPTIONS = {
    "simulate": {
        "policy": (_parse_policy, 2.0, {"help": f"margin in dB or {'/'.join(_OPT_POLICIES)}"}),
        "trials": (int, 1000, {}),
        "analytic": (str, None, {"choices": ("pairwise", "exact")}),
    },
    "optimize": {
        "objective": (_parse_objective, "opt1", {"choices": sorted(_OPT_LABELS)}),
        "root_sample": (int, 0, {}),
        "root_b": (int, None, {"type": int, "choices": (0, 1)}),
        "cell_a": (int, 0, {}),
        "cell_b": (int, 1, {}),
    },
    "accuracy": {
        "k": (int, 6, {"help": "chain length"}),
        "m_split": (int, 3, {}),
        "instances": (int, 100, {}),
        "mc_samples": (int, 400_000, {}),
        "study_seed": (int, 0, {}),
    },
    "table": {
        "speeds": (_parse_speeds, None, {"help": "comma-separated speeds in m/s"}),
        "policies": (_parse_policies, None, {"help": "comma-separated margins/opt policies"}),
        "trials": (int, None, {}),
        "mode": (str, None, {"choices": ("fixed-grid", "resampled")}),
    },
}


def _flag(name: str, parse, flag: dict) -> tuple:
    """(option, add_argument keywords) of a table entry; see the module doc."""
    kwargs = dict(flag, dest=name)
    option = kwargs.pop("option", "--" + name.replace("_", "-"))
    if not kwargs.keys() & {"action", "type", "choices"}:
        kwargs["type"] = parse
    return option, kwargs


# built once per process: build_parser adds them to every subcommand
_OVERRIDE_FLAGS = tuple(
    (title, [_flag(n, p, f) for n, (p, f) in table.items()])
    for (_, title), table in _OVERRIDES.items()
)
_RUN_FLAGS = {c: [_flag(n, p, f) for n, (p, _, f) in t.items()] for c, t in _RUN_OPTIONS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(
            json.dumps({"error": {"code": "usage", "message": message}}),
            file=sys.stderr,
        )
        raise SystemExit(2)


def _parse_file_value(parse, raw: str, key: str, section: str):
    try:
        return parse(raw)
    except ValueError:
        raise ConfigurationError(f"bad value {raw!r} for {key!r} in [{section}]") from None


def _load_config_file(path: str, run_options: dict) -> dict:
    """{section: {key: value}}; [run] values stay strings."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigurationError(f"cannot read config file {path!r}")
    sections = {section: table for (section, _), table in _OVERRIDES.items()}
    sections["run"] = dict.fromkeys(run_options, (str,))
    out = {}
    for name, table in sections.items():
        for key, raw in cp.items(name) if name in cp else ():
            if key not in table:
                raise ConfigurationError(f"unknown key {key!r} in [{name}]")
            out.setdefault(name, {})[key] = _parse_file_value(table[key][0], raw, key, name)
    return out


def _build_config(args) -> tuple:
    """Resolve the config from preset, flags and file, then the run options.

    An override or run option takes the file's value, else its flag's,
    else (for a run option) its default.
    """
    run_options = _RUN_OPTIONS[args.command]
    file = _load_config_file(args.config, run_options) if args.config else {}
    config = preset(args.preset)
    scn, ch, lay = (
        {name: getattr(args, name) for name in table if getattr(args, name) is not None}
        | file.get(section, {})
        for (section, _), table in _OVERRIDES.items()
    )
    if lay:
        xs = config.layout.bs_xy[:, 0]
        n = lay.get("n_cells", config.layout.n_bs)
        spacing = lay.get("spacing_m", float(xs[1] - xs[0]))
        radius = lay.get("cell_radius_m", config.layout.cell_radius_m)
        scn["layout"] = cell_row_layout(n, spacing, radius)
    if ch or "layout" in scn:
        # a new layout takes the first cell's channel: the old per-cell
        # tuple no longer matches its cell count
        channels = config.channels[:1] if "layout" in scn else config.channels
        scn["channels"] = tuple(replace(c, **ch) for c in channels)
    config = config.with_updates(**scn)
    file_run = file.get("run", {})
    run = argparse.Namespace()
    for name, (parse, default, _) in run_options.items():
        if name in file_run:
            value = _parse_file_value(parse, file_run[name], name, "run")
        else:
            value = getattr(args, name)
        setattr(run, name, default if value is None else value)
    return config, run


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    config, run = _build_config(args)
    if config.layout.n_bs == 2:
        result = run_two_cell(
            config, run.policy, run.trials, workers=args.workers, analytic=run.analytic
        )
    elif run.analytic is not None:
        raise ConfigurationError("analytic chains are defined on the two-cell layout")
    else:
        result = run_multicell(config, run.policy, run.trials, workers=args.workers)
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
            "method": run.analytic,
            "sum_p_h": result.analytic_handover_sum,
            "sum_p_o": result.analytic_outage_sum,
            "p_h": result.analytic_p_h,
            "p_o": result.analytic_p_o,
            "stderr_h": result.analytic_se_h,
            "stderr_o": result.analytic_se_o,
        }
    emit(args.csv, args.json, ("trial", "switches", "outage_samples", "switch_times"), rows, summary)
    agg = result.aggregates()
    print(
        f"simulate {result.policy}: avg_handovers={agg['avg_handovers']:.4f} "
        f"avg_outage={agg['avg_outage']:.4f} over {run.trials} trials"
    )
    return 0


def _cmd_optimize(args) -> int:
    config, run = _build_config(args)
    label = _OPT_LABELS[run.objective]
    root_b = config.b_init if run.root_b is None else run.root_b
    n_bs = config.layout.n_bs
    if not (0 <= run.cell_a < n_bs and 0 <= run.cell_b < n_bs) or run.cell_a == run.cell_b:
        raise ConfigurationError(f"cells must be two distinct indices in 0..{n_bs - 1}")
    process = _gap_process(config, run.cell_a, run.cell_b)
    n_samples = process.n_samples
    if not 0 <= run.root_sample < n_samples - 1:
        raise ConfigurationError("root sample must leave at least one stage")
    horizon = min(config.horizon, n_samples - 1 - run.root_sample)
    problem = _trellis_problem(
        config,
        _window_stats(process, run.root_sample, horizon),
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
        "root_sample": run.root_sample,
        "root_b": root_b,
        "cells": [run.cell_a, run.cell_b],
        "horizon": horizon,
        "b_next": solution.b_next,
        "h_first": solution.h_first,
        "margins": list(solution.margins),
        "cost": solution.cost,
        "feasible": solution.feasible,
        "violation": solution.violation,
    }
    emit(args.csv, args.json, fields, rows, summary)
    print(
        f"optimize {label} @ sample {run.root_sample} (serving {root_b}): "
        f"b_next={solution.b_next} h_first={solution.h_first:g} cost={solution.cost:.6g}"
    )
    return 0


def _cmd_accuracy(args) -> int:
    config, run = _build_config(args)
    study = run_accuracy_study(
        run.k, run.m_split, run.instances, run.study_seed, config=config, mc_samples=run.mc_samples
    )
    summary = {
        "schema": "accuracy-study-v1",
        "config_hash": config_fingerprint(config),
        "seed": run.study_seed,
        "k": run.k,
        "m_split": run.m_split,
        "n_instances": run.instances,
        "mc_samples": run.mc_samples,
        "mae": study.mae,
        "mre": study.mre,
    }
    emit(args.csv, args.json, study.fieldnames, study.rows, summary)
    print(
        f"accuracy k={run.k} m_split={run.m_split}: "
        + " ".join(f"mae[{name}]={study.mae[name]:.2e}" for name in ("b1", "lb2", "ub2", "ub3"))
        + f" sandwich_violations={study.mae['sandwich_violations']}"
    )
    return 0


def _cmd_table(args) -> int:
    config, run = _build_config(args)
    given = {("n_trials" if k == "trials" else k): v for k, v in vars(run).items()}
    spec = SweepSpec(**{k: v for k, v in given.items() if v is not None})
    results = run_table_sweep(config, spec, workers=args.workers)
    fields, rows = sweep_table(results, spec)
    summary = sweep_summary(config, spec, results, None)
    emit(args.csv, args.json, fields, rows, summary)
    print(f"table: {len(rows)} rows over {len(spec.speeds)} speeds x {len(spec.policies)} policies")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="handopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("simulate", _cmd_simulate, "simulate one margin policy"),
        ("optimize", _cmd_optimize, "one trellis solve with a path dump"),
        ("accuracy", _cmd_accuracy, "probability-method comparison study"),
        ("table", _cmd_table, "policy x speed aggregate sweep"),
    )
    for name, func, help in commands:
        p = sub.add_parser(name, help=help)
        p.add_argument("--preset", choices=_PRESETS, default="paper-vi")
        p.add_argument("--config", metavar="FILE", help="INI file; overrides flags")
        for title, flags in _OVERRIDE_FLAGS:
            g = p.add_argument_group(title)
            for option, kwargs in flags:
                g.add_argument(option, **kwargs)
        o = p.add_argument_group("output")
        o.add_argument("--csv", metavar="PATH")
        o.add_argument("--json", metavar="PATH")
        o.add_argument("--workers", type=_worker_arg)
        for option, kwargs in _RUN_FLAGS[name]:
            p.add_argument(option, **kwargs)
        p.set_defaults(func=func)
    return parser


# (exception, JSON error code, exit status), most specific first
_ERRORS = (
    (ConfigurationError, "config", 2),
    (DegenerateConditioningError, "degenerate", 3),
    (HandoptError, "numerical", 3),
    (OSError, "io", 4),
)


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
    except (HandoptError, OSError) as e:
        code, rc = next((code, rc) for kind, code, rc in _ERRORS if isinstance(e, kind))
        print(json.dumps({"error": {"code": code, "message": str(e)}}), file=sys.stderr)
        return rc
    finally:
        if thaw:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
