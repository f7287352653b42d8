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

import dataclasses
import json
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .game import (GameSpec, StateSpace, average_powers, enumerate_states,
                   expected_rates, is_feasible, rate_table)
from .pareto import multi_start
from .spectral import ConditionReport, build_operator, condition_report
from .vi import make_vi_problem, solve_regularized
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
    profile: np.ndarray  # (N, N1) power profile, see ifgame.game
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
    """The game and its state space.  ``config`` checked its state count
    against ``solver.state_cap`` when it was made, as every
    ``ExperimentConfig`` is checked, ``dataclasses.replace`` included."""
    spec = config.game.spec
    return spec, enumerate_states(spec, cap=config.solver.state_cap)


def _problem_and_conditions(spec, space):
    """The VI problem of the game and the condition checks, which share
    the problem's operator."""
    problem = make_vi_problem(spec, space)
    return problem, condition_report(spec, problem.op)


def run_analyze(config: ExperimentConfig) -> ConditionReport:
    """Uniqueness/convergence condition checks for the configured game."""
    spec, space = build_game(config)
    return condition_report(spec, build_operator(space))


def _run_one_solver(name, spec, space, config, problem):
    """Run one solver; VI runs on ``problem``, the caller's problem of the
    game, at ``spec``'s budgets."""
    if name == "iwf":
        rep = iterate_waterfilling(spec, space, config.solver.iwf)
        profile, converged = rep.profile, rep.converged
        iterations = rep.iterations
        residual = rep.residual_history[-1]
    elif name == "vi":
        with warnings.catch_warnings():
            # the PSD status is already in the report; other warnings pass
            warnings.filterwarnings("ignore", "Htilde is not positive semidefinite",
                                    UserWarning)
            rep = solve_regularized(dataclasses.replace(problem, pbar=spec.pbar),
                                    config.solver.vi)
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
    names = config.solver.names
    problem, condition = _problem_and_conditions(spec, space)
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
    spec, space = build_game(config)
    names = config.solver.names
    problem, condition = _problem_and_conditions(spec, space)
    rows = []
    for value in config.sweep.values:
        point = dataclasses.replace(spec, pbar=value)
        row = {"pbar": float(value), "ne_iwf": float("nan"),
               "ne_vi": float("nan"), "pareto": float("nan"), "converged": True}
        for name in names:
            outcome = _run_one_solver(name, point, space, config, problem)
            key = {"iwf": "ne_iwf", "vi": "ne_vi", "pareto": "pareto"}[name]
            row[key] = outcome.sum_rate if outcome.converged else float("nan")
            row["converged"] &= outcome.converged
        rows.append(row)
    return RunResult(condition=condition, solvers={}, sweep_rows=rows)


def run_simulate(config: ExperimentConfig, profile: np.ndarray,
                 _game: tuple[GameSpec, StateSpace] | None = None
                 ) -> MonteCarloSummary:
    """Simulate i.i.d. channel slots under a fixed stationary policy.

    The time averages depend on the slots only through the number of
    slots in each state, so the seeded generator draws those counts,
    Multinomial(``slots``, probs), and no array has one entry per slot.
    The empirical time averages of rate and power under the policy are
    compared to the analytic expectations.  A caller that passes
    ``_game`` has already run ``build_game(config)``.
    """
    sim = config.simulate
    spec, space = build_game(config) if _game is None else _game
    P = np.asarray(profile, float)
    if not np.all(is_feasible(space, P, spec.pbar)):
        raise ValueError("profile must be feasible for the simulation")
    counts = np.random.default_rng(sim.seed).multinomial(
        sim.slots, space.probs).astype(float)
    rates = rate_table(spec, space, P)          # (N1, N)
    emp_rate = counts @ rates / sim.slots
    emp_power = P @ counts / sim.slots
    # expected_rates(spec, space, P), bit for bit, from the table above
    ana_rate = np.einsum('k,...ki->...i', space.probs, rates)
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
    problem, report = _problem_and_conditions(spec, space)
    name = "iwf" if report.contraction_ok else "vi"
    return report, _run_one_solver(name, spec, space, config, problem)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_BLOCK = 4096  # states of a profile per write
# Report fields that repeat the outcome's profile; result.json has one copy.
_REPEATED = frozenset({"profile", "solution", "best"})
# json.dumps of the placeholder "\x00<i>" for row i of the profiles
_MARKER = re.compile(r'"\\u0000(\d+)"')
# json's spelling of the floats whose repr is nan, inf and -inf
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _jsonable(obj):
    """JSON tree of ``obj``, without the dataclass fields in _REPEATED."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.name not in _REPEATED}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(fh, result: RunResult, spelled):
    """``json.dumps(indent=2, sort_keys=True)`` of the result.  json lays
    out each profile with one placeholder per player row, which is then
    replaced by the row's values, spelled from ``spelled``, at the
    placeholder's indent."""
    doc, rows = _jsonable(result), []
    for k, (words, index) in spelled.items():
        doc["solvers"][str(k)]["profile"] = [[f"\x00{len(rows) + i}"]
                                             for i in range(len(index))]
        json_words = [_JSON_WORDS.get(w, w) for w in words]
        rows += [(json_words, row) for row in index]
    parts = _MARKER.split(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for k in range(0, len(parts) - 1, 2):
        fh.write(parts[k])
        sep = ",\n" + parts[k][len(parts[k].rstrip(" ")):]
        words, row = rows[int(parts[k + 1])]
        for a in range(0, row.size, _BLOCK):
            fh.write((sep if a else "")
                     + sep.join(map(words.__getitem__, row[a:a + _BLOCK].tolist())))
    fh.write(parts[-1])


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(fh, header, rows):
    for row in [header, *rows]:
        fh.write(",".join(map(_fmt, row)) + "\n")


def _write_profile_csv(fh, spelled):
    """One row per state, ``state,player1,...,playerN``, spelled from
    ``spelled``; each _BLOCK of rows is one list of cells, joined once."""
    words, index = spelled
    n, n1 = index.shape
    width = 2 * n + 2  # the label, then "," and a value per player, then "\n"
    _write_csv(fh, ["state"] + [f"player{i + 1}" for i in range(n)], [])
    for a in range(0, n1, _BLOCK):
        b = min(a + _BLOCK, n1)
        cells = [","] * (width * (b - a))
        cells[0::width] = map(str, range(a, b))
        for i in range(n):
            cells[2 * i + 2::width] = map(words.__getitem__, index[i, a:b].tolist())
        cells[width - 1::width] = ["\n"] * (b - a)
        fh.write("".join(cells))


def _spell(powers):
    """``(words, index)``: the repr of each distinct value of ``powers``,
    and the position in ``words`` of every entry, in the shape of
    ``powers``.  Values are told apart by their float64 bits, which keeps
    0.0 apart from -0.0 and every NaN payload apart; repr depends only on
    the bits, so each entry's word is its own repr."""
    flat = np.ascontiguousarray(powers, dtype=np.float64).reshape(-1)
    bits, index = np.unique(flat.view(np.int64), return_inverse=True)
    # unique's inverse is 1-D for 1-D input in every numpy version
    return (list(map(repr, bits.view(np.float64).tolist())),
            index.reshape(powers.shape))


def write_outputs(result: RunResult, config: ExperimentConfig, out_dir) -> list[Path]:
    """Emit the configured formats into ``out_dir``; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    # repr is the one float format; each profile is spelled once, for both
    # files, one repr per distinct value (the n4 NE profile has 24 401
    # distinct values among its 262 144), and written in blocks of _BLOCK
    spelled = {k: _spell(s.profile) for k, s in result.solvers.items()}

    def emit(name, write, *args):
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            write(fh, *args)
        written.append(out / name)

    if "json" in config.output.formats:
        emit("result.json", _write_json, result, spelled)
    if "csv" not in config.output.formats:
        return written
    fields = [f.name for f in dataclasses.fields(ConditionReport)]
    emit("conditions.csv", _write_csv, fields,
         [[getattr(result.condition, f) for f in fields]])
    if result.solvers:
        header = ["solver", "sum_rate_nats", "converged", "iterations", "residual"]
        n = next(iter(result.solvers.values())).rates.size
        header += [f"rate{i + 1}_nats" for i in range(n)]
        header += [f"avg_power{i + 1}" for i in range(n)]
        emit("sum_rates.csv", _write_csv, header,
             [[s.name, s.sum_rate, s.converged, s.iterations, s.residual,
               *s.rates, *s.avg_powers] for s in result.solvers.values()])
        for k, s in result.solvers.items():
            emit(f"profile_{s.name}.csv", _write_profile_csv, spelled[k])
            if s.name == "vi":
                emit("vi_eps_path.csv", _write_csv,
                     ["eps", "inner_iterations", "natural_residual"],
                     s.report.eps_path)
            if s.name == "pareto":
                emit("pareto_starts.csv", _write_csv,
                     ["start", "sum_rate_nats", "outer_iterations",
                      "max_feasibility_residual", "converged"],
                     [[j, r.sum_rate, r.outer_iterations,
                       float(r.feasibility_residuals.max()), r.converged]
                      for j, r in enumerate(s.report.per_start)])
                if s.report.trajectories is not None:
                    emit("pareto_trajectories.csv", _write_csv,
                         ["start", "outer_iteration", "sum_rate_nats"],
                         [[j, t, v] for j, trail in enumerate(s.report.trajectories)
                          for t, v in enumerate(trail, start=1)])
    if result.sweep_rows is not None:
        header = ["pbar", "ne_iwf", "ne_vi", "pareto"]
        emit("sweep.csv", _write_csv, header,
             [[r[key] for key in header] for r in result.sweep_rows])
    if result.montecarlo is not None:
        mc = result.montecarlo
        emit("montecarlo.csv", _write_csv,
             ["player", "empirical_rate_nats", "analytic_rate_nats",
              "rate_rel_gap", "empirical_power", "analytic_power",
              "power_rel_gap"],
             zip(range(1, mc.empirical_rate.size + 1), mc.empirical_rate,
                 mc.analytic_rate, mc.rate_rel_gap, mc.empirical_power,
                 mc.analytic_power, mc.power_rel_gap))
    return written
