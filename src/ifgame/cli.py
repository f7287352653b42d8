"""Command-line entry point.

Subcommands: analyze, solve, sweep, simulate.  Exit codes: 0 on success,
1 on configuration/validation errors, 2 when a solver reports
non-convergence (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import (FORMAT_CHOICES, SOLVER_CHOICES, ConfigError,
                     ExperimentConfig, load_config_file)
from .experiments import (RunResult, build_game, ne_outcome_for_simulation,
                          run_analyze, run_simulate, run_solve, run_sweep,
                          write_outputs)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ifgame",
        description="Solvers for stochastic power-allocation games on "
                    "Gaussian interference channels (rates in nats)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [("analyze", "condition checks only"),
                       ("solve", "run the configured solvers once"),
                       ("sweep", "re-solve along the configured budget sweep"),
                       ("simulate", "Monte-Carlo validation of the NE policy")]:
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--format", default=None, choices=FORMAT_CHOICES,
                         help="restrict output to one format")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the pareto and simulate seeds")
        cmd.add_argument("--solver", default=None,
                         choices=SOLVER_CHOICES,
                         help="override solver.which")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0", field="--seed")
    output = config.output
    if args.out is not None:
        try:
            output = dataclasses.replace(output, dir=args.out)
        except ValueError as exc:
            raise ConfigError(f"--out: {exc}", field="--out") from None
    if args.format is not None:
        output = dataclasses.replace(output, formats=(args.format,))
    solver = config.solver
    if args.solver is not None:
        solver = dataclasses.replace(solver, which=args.solver)
    simulate = config.simulate
    if args.seed is not None:
        solver = dataclasses.replace(
            solver, pareto=dataclasses.replace(solver.pareto, seed=args.seed))
        simulate = dataclasses.replace(simulate, seed=args.seed)
    # made anew, the config checks AL's budget limit for the solvers it runs
    return dataclasses.replace(config, solver=solver, simulate=simulate, output=output)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config_file(args.config), args)
        if args.command == "analyze":
            report = run_analyze(config)
            result = RunResult(condition=report, solvers={})
            print(f"rho(Smax) = {report.rho_smax:.6f}  "
                  f"rho(Hhat) = {report.rho_hhat:.6f}  "
                  f"contraction = {report.contraction_ok}  "
                  f"Htilde PD = {report.htilde_pd}")
        elif args.command == "solve":
            result = run_solve(config)
            for s in result.solvers.values():
                print(f"{s.name:7s} sum rate = {s.sum_rate:.6f} nats  "
                      f"converged = {s.converged}")
        elif args.command == "sweep":
            result = run_sweep(config)
            for row in result.sweep_rows:
                print(f"pbar = {row['pbar']:g}: ne_iwf = {row['ne_iwf']:.6f}  "
                      f"ne_vi = {row['ne_vi']:.6f}  pareto = {row['pareto']:.6f}")
        else:  # simulate
            game = build_game(config)
            report, outcome = ne_outcome_for_simulation(config, _game=game)
            summary = run_simulate(config, outcome.profile, _game=game)
            del game  # free the state space before the outputs are written
            result = RunResult(condition=report,
                               solvers={outcome.name: outcome},
                               montecarlo=summary)
            for i in range(summary.empirical_rate.size):
                print(f"player {i + 1}: empirical rate {summary.empirical_rate[i]:.6f} "
                      f"vs analytic {summary.analytic_rate[i]:.6f} nats "
                      f"(gap {summary.rate_rel_gap[i]:.2%})")
        written = write_outputs(result, config, config.output.dir)
        for path in written:
            print(f"wrote {path}")
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"configuration error: {exc}{field}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if result.all_converged else 2


if __name__ == "__main__":
    sys.exit(main())
