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
* cli        the command-line front end

The package exports what its runs call, and nothing only tests reach: the
errors, the configuration (ScenarioConfig, preset, and coefficient_table,
the estimator rows a configuration implies), the runners behind the CLI's
commands, and the analytic API (GapProcess, EventSpec, GaussianVector,
exact_prob, the connection, handover and outage series, TrellisProblem and
solve). Everything else is reached through its module.
"""

from .errors import (
    HandoptError,
    ConfigurationError,
    NumericalConsistencyError,
    DegenerateConditioningError,
)
from .scenario import ScenarioConfig, preset
from .estimators import coefficient_table
from .gaussian import EventSpec, GaussianVector, GapProcess, exact_prob
from .metrics import connection_series, handover_series, outage_series
from .optimizer import TrellisProblem, solve
from .harness import run_accuracy_study, run_multicell, run_table_sweep, run_two_cell

__version__ = "0.1.0"

__all__ = [
    "HandoptError",
    "ConfigurationError",
    "NumericalConsistencyError",
    "DegenerateConditioningError",
    "ScenarioConfig",
    "preset",
    "coefficient_table",
    "EventSpec",
    "GaussianVector",
    "GapProcess",
    "exact_prob",
    "connection_series",
    "handover_series",
    "outage_series",
    "TrellisProblem",
    "solve",
    "run_accuracy_study",
    "run_multicell",
    "run_table_sweep",
    "run_two_cell",
]
