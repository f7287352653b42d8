"""Local Pareto-optimal allocations beat the Nash equilibrium in sum rate.

Runs the distributed augmented-Lagrangian ascent from 10 seeded random
starts on both example games (weights all 1), keeps the best local
optimum, and compares against the NE found by the projection solver.
"""

import pathlib

from ifgame import (AlConfig, enumerate_states, load_config_file,
                    make_vi_problem, multi_start, solve_regularized, sum_rate)

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

for name, config in [("example1 (budget 1.0)", "example1"),
                     ("example2 (budget 2.0)", "example2")]:
    spec = load_config_file(CONFIGS / f"{config}.json").game.spec
    space = enumerate_states(spec)
    ne = solve_regularized(make_vi_problem(spec, space)).solution
    ne_rate = sum_rate(spec, space, ne)

    report = multi_start(spec, space, AlConfig(starts=10, seed=0))
    print(f"=== {name} ===")
    print("start  sum rate   outer iters  converged")
    for j, start in enumerate(report.per_start):
        print(f"{j:5d}  {start.sum_rate:.6f}  {start.outer_iterations:11d}  "
              f"{start.converged}")
    gain = 100.0 * (report.best_sum_rate / ne_rate - 1.0)
    print(f"best Pareto sum rate = {report.best_sum_rate:.6f} nats")
    print(f"NE sum rate          = {ne_rate:.6f} nats  (Pareto is "
          f"{gain:+.2f}%)")
    print(f"final multipliers    = {report.multipliers.round(4)}")
    print()
