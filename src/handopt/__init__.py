"""handopt: hysteresis-margin optimization for hard handover over shadowed channels.

The package is organized as a pipeline:

* scenario   cell geometry, mobility traces, configuration and presets
* channel    log-distance path loss plus exponentially correlated shadowing
* estimators windowed signal-strength estimators (AVG, LS, ELS, GELS)
* hybrid     the hysteresis decision rule
* gaussian   analytic statistics of the decision process and box-event
             probabilities over correlated Gaussian vectors (exact + bounds)
* metrics    connection, handover and outage probability assembly
* optimizer  receding-horizon trellis search for the hysteresis vector
* harness    Monte Carlo experiment runners, sweeps and serialization
"""

from .errors import (
    HandoptError,
    ConfigurationError,
    NumericalConsistencyError,
    DegenerateConditioningError,
)
from .scenario import (
    CellLayout,
    MobilityTrace,
    ScenarioConfig,
    build_linear_trace,
    distances,
    preset,
    two_cell_layout,
    cell_row_layout,
)
from .channel import ChannelParams, PowerTrace, path_loss
from .estimators import (
    coefficient_table,
    apply_coefficients,
    estimate_series,
)
from .channel import sample_power
from .hybrid import decide_series, count_switches
from .gaussian import (
    EventSpec,
    GaussianVector,
    GapProcess,
    ProbResult,
    y_stats,
    gap_below,
    gap_inside,
    gap_above,
    power_below,
    exact_prob,
    approx1,
    approx2_bounds,
    approx3_upper,
    bvn_cdf_lattice,
)
from .metrics import (
    connection_series,
    handover_series,
    outage_series,
)
from .optimizer import (
    TrellisProblem,
    TrellisPath,
    TrellisSolution,
    problem_from_process,
    solve,
    solve_group,
)
from .harness import (
    AccuracyStudy,
    RunResult,
    SweepSpec,
    config_fingerprint,
    emit,
    opt_margin_tables,
    run_accuracy_study,
    run_multicell,
    run_table_sweep,
    run_two_cell,
    sweep_summary,
    sweep_table,
    trellis_rows,
)

__version__ = "0.1.0"

__all__ = [
    "HandoptError",
    "ConfigurationError",
    "NumericalConsistencyError",
    "DegenerateConditioningError",
    "CellLayout",
    "MobilityTrace",
    "ScenarioConfig",
    "build_linear_trace",
    "distances",
    "preset",
    "two_cell_layout",
    "cell_row_layout",
    "ChannelParams",
    "PowerTrace",
    "sample_power",
    "path_loss",
    "coefficient_table",
    "apply_coefficients",
    "estimate_series",
    "decide_series",
    "count_switches",
    "EventSpec",
    "GaussianVector",
    "GapProcess",
    "ProbResult",
    "y_stats",
    "gap_below",
    "gap_inside",
    "gap_above",
    "power_below",
    "exact_prob",
    "approx1",
    "approx2_bounds",
    "approx3_upper",
    "bvn_cdf_lattice",
    "connection_series",
    "handover_series",
    "outage_series",
    "TrellisProblem",
    "TrellisPath",
    "TrellisSolution",
    "problem_from_process",
    "solve",
    "solve_group",
    "AccuracyStudy",
    "RunResult",
    "SweepSpec",
    "config_fingerprint",
    "emit",
    "opt_margin_tables",
    "run_accuracy_study",
    "run_multicell",
    "run_table_sweep",
    "run_two_cell",
    "sweep_summary",
    "sweep_table",
    "trellis_rows",
]
