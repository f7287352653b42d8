"""Solvers for stochastic power-allocation games on Gaussian interference
channels: Nash equilibria by iterative water-filling and by a regularized
projection method for the equivalent variational inequality, solver-guarantee
condition checks, and local Pareto-optimal allocations by a distributed
augmented-Lagrangian method."""

from .game import (GameSpec, StateSpace, StateSpaceTooLargeError, average_powers,
                   enumerate_states, expected_rates, is_feasible, rate_table,
                   sum_rate)
from .spectral import (ConditionReport, condition_report, contraction_condition,
                       definiteness, rho_blockdiag, spectral_radius)
from .waterfilling import (IwfConfig, IwfReport, interference_floors,
                           iterate_waterfilling, waterfill_levels, waterfill_map,
                           wf_residual)
from .vi import (ViConfig, ViProblem, ViReport, make_vi_problem,
                 natural_residual, project_block, solve_regularized,
                 solve_strong)
from .pareto import (AlConfig, ParetoReport, StartResult, multi_start,
                     random_start, steepest_ascent)
from .config import (ConfigError, ExperimentConfig, load_config,
                     load_config_file)
from .experiments import (MonteCarloSummary, RunResult, SolverOutcome,
                          run_analyze, run_simulate, run_solve, run_sweep,
                          write_outputs)

__version__ = "0.1.0"
