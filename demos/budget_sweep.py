"""Sum-rate comparison across power budgets, written as plot-ready CSV.

Re-solves example1 for a range of common budgets and prints/writes the
NE (both solvers) and best-Pareto sum rates.  The CSV matches the one
the `ifgame sweep` subcommand produces.
"""

import dataclasses
import pathlib

from ifgame import load_config_file, run_sweep, write_outputs
from ifgame.config import OutputConfig, SweepConfig

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

config = dataclasses.replace(load_config_file(CONFIGS / "example1.json"),
                             sweep=SweepConfig(values=[0.5, 1.0, 1.5, 2.0]),
                             output=OutputConfig(dir="out/demo_sweep",
                                                 formats=["csv"]))

result = run_sweep(config)
print(f"{'pbar':>6s} {'ne_iwf':>10s} {'ne_vi':>10s} {'pareto':>10s}")
for row in result.sweep_rows:
    print(f"{row['pbar']:6.2f} {row['ne_iwf']:10.6f} {row['ne_vi']:10.6f} "
          f"{row['pareto']:10.6f}")

written = write_outputs(result, config, config.output.dir)
print("\nwrote", *(str(p) for p in written))
print("columns: pbar, ne_iwf, ne_vi, pareto (sum rates in nats);")
print("a non-converged solver at a sweep point is recorded as nan.")
print(pathlib.Path(written[-1]).read_text())
