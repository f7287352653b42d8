"""Experiment orchestration: analyze / solve / sweep / simulate.

Builds the game from an ExperimentConfig, runs the requested solvers,
validates a stationary policy by Monte-Carlo slot simulation, and emits
CSV/JSON results.  All randomness comes from numpy's PCG64
(``np.random.default_rng``) with seeds recorded in the outputs, and all
emitted files are byte-identical across reruns of the same config.

Rates are reported in nats (natural logarithm); CSV columns are
documented in the README.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .game import (GameSpec, PowerProfile, StateSpace, average_powers,
                   enumerate_states, expected_rates, is_feasible, rate_table)
from .pareto import ParetoReport, multi_start
from .spectral import ConditionReport, condition_report
from .vi import ViReport, make_vi_problem, solve_regularized
from .waterfilling import iterate_waterfilling


@dataclass(frozen=True)
class MonteCarloSummary:
    """Empirical time averages of a simulated stationary policy against
    the analytic expectations."""

    slots: int
    seed: int
    empirical_rate: np.ndarray
    analytic_rate: np.ndarray
    rate_rel_gap: np.ndarray
    empirical_power: np.ndarray
    analytic_power: np.ndarray
    power_rel_gap: np.ndarray


@dataclass(frozen=True)
class SolverOutcome:
    name: str
    profile: PowerProfile
    sum_rate: float
    rates: np.ndarray
    avg_powers: np.ndarray
    converged: bool
    iterations: int
    residual: float
    report: object


@dataclass(frozen=True)
class RunResult:
    condition: ConditionReport
    solvers: dict[str, SolverOutcome]
    sweep_rows: list[dict] | None = None
    montecarlo: MonteCarloSummary | None = None

    @property
    def all_converged(self) -> bool:
        ok = all(s.converged for s in self.solvers.values())
        if self.sweep_rows is not None:
            ok &= all(row["converged"] for row in self.sweep_rows)
        return ok


def build_game(config: ExperimentConfig) -> tuple[GameSpec, StateSpace]:
    spec = config.game.build_spec()
    return spec, enumerate_states(spec, cap=config.solver.state_cap)


def run_analyze(config: ExperimentConfig) -> ConditionReport:
    """Uniqueness/convergence condition checks for the configured game."""
    spec, space = build_game(config)
    return condition_report(spec, space)


def _solver_names(which: str) -> list[str]:
    return ["iwf", "vi", "pareto"] if which == "all" else [which]


def _run_one_solver(name, spec, space, config, problem=None):
    """Run one solver; a caller that has built the VI ``problem`` for
    ``spec`` passes it, so its operator is not built again."""
    if name == "iwf":
        cfg = config.solver.iwf
        rep = iterate_waterfilling(spec, space, scheme=cfg.scheme, tol=cfg.tol,
                                   max_iter=cfg.max_iter)
        profile, converged = rep.profile, rep.converged
        iterations = rep.iterations
        residual = rep.residual_history[-1]
    elif name == "vi":
        cfg = config.solver.vi
        if problem is None:
            problem = make_vi_problem(spec, space)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # PSD status already in the report
            rep = solve_regularized(problem, eps0=cfg.eps0, decay=cfg.decay,
                                    outer_tol=cfg.outer_tol, inner_tol=cfg.inner_tol,
                                    max_outer=cfg.max_outer, max_inner=cfg.max_inner)
        profile, converged = rep.solution, rep.converged
        iterations = sum(p[1] for p in rep.eps_path)
        residual = rep.eps_path[-1][2]  # natural residual of the solution
    elif name == "pareto":
        rep = multi_start(spec, space, config.solver.pareto,
                          track=config.output.pareto_trajectories)
        profile, converged = rep.best, rep.converged
        iterations = max(s.outer_iterations for s in rep.per_start)
        residual = float(max(s.feasibility_residuals.max() for s in rep.per_start))
    else:
        raise ValueError(f"unknown solver {name!r}")
    rates = expected_rates(spec, space, profile)
    return SolverOutcome(name=name, profile=profile,
                         sum_rate=float(rates.sum()), rates=rates,
                         avg_powers=average_powers(space, profile),
                         converged=bool(converged), iterations=int(iterations),
                         residual=float(residual), report=rep)


def run_solve(config: ExperimentConfig) -> RunResult:
    """Run the selected solvers on the configured game.

    A solver that fails to converge is recorded with converged=False and
    the run continues with the remaining solvers.
    """
    spec, space = build_game(config)
    names = _solver_names(config.solver.which)
    problem = make_vi_problem(spec, space) if "vi" in names else None
    condition = condition_report(spec, space,
                                 op=None if problem is None else problem.op)
    outcomes = {}
    for name in names:
        outcomes[name] = _run_one_solver(name, spec, space, config, problem)
    return RunResult(condition=condition, solvers=outcomes)


def run_sweep(config: ExperimentConfig) -> RunResult:
    """Re-solve the game for every sweep value of the common budget.

    The game and the VI problem are built once; only the budget changes
    from point to point, so the points share the VI step data.  Produces
    one row per value with the NE sum rates (both solvers) and the best
    Pareto sum rate; a non-converged solver's entry is NaN and flags the
    row.
    """
    if config.sweep is None:
        raise ValueError("config has no sweep section")
    spec, space = build_game(config)
    names = _solver_names(config.solver.which)
    problem = make_vi_problem(spec, space) if "vi" in names else None
    condition = condition_report(spec, space,
                                 op=None if problem is None else problem.op)
    rows = []
    for value in config.sweep.values:
        point = dataclasses.replace(spec, pbar=value)
        point_problem = (None if problem is None
                         else dataclasses.replace(problem, pbar=point.pbar))
        row = {"pbar": float(value), "ne_iwf": float("nan"),
               "ne_vi": float("nan"), "pareto": float("nan"), "converged": True}
        for name in names:
            outcome = _run_one_solver(name, point, space, config, point_problem)
            key = {"iwf": "ne_iwf", "vi": "ne_vi", "pareto": "pareto"}[name]
            row[key] = outcome.sum_rate if outcome.converged else float("nan")
            row["converged"] &= outcome.converged
        rows.append(row)
    return RunResult(condition=condition, solvers={}, sweep_rows=rows)


def run_simulate(config: ExperimentConfig, profile: PowerProfile,
                 _game: tuple[GameSpec, StateSpace] | None = None
                 ) -> MonteCarloSummary:
    """Simulate i.i.d. channel slots under a fixed stationary policy.

    Draws ``slots`` states from the state distribution with the seeded
    generator, applies the policy, and compares the empirical time
    averages of rate and power to the analytic expectations.  A caller
    that passes ``_game`` has already run ``build_game(config)``.
    """
    sim = config.simulate
    if sim is None:
        raise ValueError("config has no simulate section")
    spec, space = build_game(config) if _game is None else _game
    P = profile.powers
    if not np.all(is_feasible(space, P, spec.pbar)):
        raise ValueError("profile must be feasible for the simulation")
    rng = np.random.default_rng(sim.seed)
    draws = rng.choice(space.n_states, size=sim.slots, p=space.probs)
    rates = rate_table(spec, space, P)          # (N1, N)
    counts = np.bincount(draws, minlength=space.n_states).astype(float)
    emp_rate = counts @ rates / sim.slots
    emp_power = P @ counts / sim.slots
    ana_rate = expected_rates(spec, space, P)
    ana_power = average_powers(space, P)
    with np.errstate(divide='ignore', invalid='ignore'):
        rate_gap = np.abs(emp_rate - ana_rate) / np.abs(ana_rate)
        power_gap = np.abs(emp_power - ana_power) / np.abs(ana_power)
    return MonteCarloSummary(slots=sim.slots, seed=sim.seed,
                             empirical_rate=emp_rate, analytic_rate=ana_rate,
                             rate_rel_gap=rate_gap,
                             empirical_power=emp_power, analytic_power=ana_power,
                             power_rel_gap=power_gap)


def ne_outcome_for_simulation(config: ExperimentConfig,
                              _game: tuple[GameSpec, StateSpace] | None = None
                              ) -> tuple[ConditionReport, SolverOutcome]:
    """NE policy used by the simulate subcommand: iterative water-filling
    when the contraction condition holds, the regularized VI otherwise.
    A caller that passes ``_game`` has already run ``build_game(config)``.
    The condition checks and the VI share one operator."""
    spec, space = build_game(config) if _game is None else _game
    problem = make_vi_problem(spec, space)
    report = condition_report(spec, space, op=problem.op)
    if report.contraction_ok:
        problem = None  # free the operator before IWF runs
        return report, _run_one_solver("iwf", spec, space, config)
    return report, _run_one_solver("vi", spec, space, config, problem)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, PowerProfile):
        return _jsonable(obj.powers)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def result_to_json(result: RunResult) -> str:
    """One top-level RunResult object; field names match the dataclasses."""
    doc = _jsonable(result)
    for outcome in doc.get("solvers", {}).values():
        # each outcome already carries its profile; drop the duplicates
        # nested inside the solver reports
        report = outcome.get("report", {})
        if isinstance(report, dict):
            report.pop("profile", None)
            report.pop("solution", None)
            report.pop("best", None)
            if "per_start" in report:
                for start in report["per_start"]:
                    start.pop("profile", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_condition_csv(path: Path, report: ConditionReport):
    fields = [f.name for f in dataclasses.fields(ConditionReport)]
    _write_csv(path, fields, [[getattr(report, f) for f in fields]])


def write_profile_csv(path: Path, profile: PowerProfile):
    n, n1 = profile.powers.shape
    header = ["state"] + [f"player{i + 1}" for i in range(n)]
    rows = [[k] + list(profile.powers[:, k]) for k in range(n1)]
    _write_csv(path, header, rows)


def write_outputs(result: RunResult, config: ExperimentConfig, out_dir) -> list[Path]:
    """Emit the configured formats into ``out_dir``; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(path, text):
        path.write_text(text, encoding="utf-8")
        written.append(path)

    if "json" in config.output.formats:
        emit(out / "result.json", result_to_json(result))
    if "csv" not in config.output.formats:
        return written
    write_condition_csv(out / "conditions.csv", result.condition)
    written.append(out / "conditions.csv")
    if result.solvers:
        header = ["solver", "sum_rate_nats", "converged", "iterations", "residual"]
        n = next(iter(result.solvers.values())).rates.size
        header += [f"rate{i + 1}_nats" for i in range(n)]
        header += [f"avg_power{i + 1}" for i in range(n)]
        rows = [[s.name, s.sum_rate, s.converged, s.iterations, s.residual,
                 *s.rates, *s.avg_powers] for s in result.solvers.values()]
        _write_csv(out / "sum_rates.csv", header, rows)
        written.append(out / "sum_rates.csv")
        for s in result.solvers.values():
            path = out / f"profile_{s.name}.csv"
            write_profile_csv(path, s.profile)
            written.append(path)
            if s.name == "vi" and isinstance(s.report, ViReport):
                _write_csv(out / "vi_eps_path.csv",
                           ["eps", "inner_iterations", "natural_residual"],
                           s.report.eps_path)
                written.append(out / "vi_eps_path.csv")
            if s.name == "pareto" and isinstance(s.report, ParetoReport):
                rows = [[j, r.sum_rate, r.outer_iterations,
                         float(r.feasibility_residuals.max()), r.converged]
                        for j, r in enumerate(s.report.per_start)]
                _write_csv(out / "pareto_starts.csv",
                           ["start", "sum_rate_nats", "outer_iterations",
                            "max_feasibility_residual", "converged"], rows)
                written.append(out / "pareto_starts.csv")
                if s.report.trajectories is not None:
                    rows = [[j, t, v]
                            for j, trail in enumerate(s.report.trajectories)
                            for t, v in enumerate(trail, start=1)]
                    _write_csv(out / "pareto_trajectories.csv",
                               ["start", "outer_iteration", "sum_rate_nats"], rows)
                    written.append(out / "pareto_trajectories.csv")
    if result.sweep_rows is not None:
        _write_csv(out / "sweep.csv", ["pbar", "ne_iwf", "ne_vi", "pareto"],
                   [[r["pbar"], r["ne_iwf"], r["ne_vi"], r["pareto"]]
                    for r in result.sweep_rows])
        written.append(out / "sweep.csv")
    if result.montecarlo is not None:
        mc = result.montecarlo
        rows = [[i + 1, mc.empirical_rate[i], mc.analytic_rate[i],
                 mc.rate_rel_gap[i], mc.empirical_power[i],
                 mc.analytic_power[i], mc.power_rel_gap[i]]
                for i in range(mc.empirical_rate.size)]
        _write_csv(out / "montecarlo.csv",
                   ["player", "empirical_rate_nats", "analytic_rate_nats",
                    "rate_rel_gap", "empirical_power", "analytic_power",
                    "power_rel_gap"], rows)
        written.append(out / "montecarlo.csv")
    return written
