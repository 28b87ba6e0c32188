"""Drift-plus-penalty control for renewal and weakly coupled stochastic systems.

The package is organized around flat modules:

- ``core``: frame totals and slot layouts, and the per-frame
  drift-plus-penalty selection rule on per-slot rates.
- ``coupled``: slot-level simulator for several renewal systems sharing queues.
- ``lp``: two-phase revised simplex, the stationary benchmark LPs built on it,
  and the composite download chain's optimum through its Lagrangian dual.
- ``datacenter``: threshold admission, sleep/setup scheduling, trace-driven runs.
- ``bandit``: index policy for coupled download queues and its special cases.
- ``online``: statistics-free ratio optimization with a truncated pseudo average.
- ``ocmdp``: online projected updates over occupation-measure polytopes.
- ``harness`` / ``cli``: experiment configs, metrics files, seed handling.
- ``acceptance``: the end-to-end acceptance battery used by tests and the CLI.
"""

from renewalopt.core import (
    ActionModel,
    FrameOutcome,
    FrameProfile,
    dpp_linear_select,
)
from renewalopt.harness import (
    ConfigError,
    ExperimentConfig,
    RunSummary,
    load_config,
    run_experiment,
)
from renewalopt.lp import LpProblem, LpSolution, solve_lp

__all__ = [
    "ActionModel",
    "ConfigError",
    "ExperimentConfig",
    "FrameOutcome",
    "FrameProfile",
    "LpProblem",
    "LpSolution",
    "RunSummary",
    "dpp_linear_select",
    "load_config",
    "run_experiment",
    "solve_lp",
]

__version__ = "0.1.0"
