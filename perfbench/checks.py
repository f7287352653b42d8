"""Output checks run on every benchmark invocation.

Each check takes the CLI exit code, the ``--out`` directory and the parsed
config document, and returns a list of problems; an empty list means the
run is correct.  The checks test invariants and unique Nash-equilibrium
values, never byte hashes, so they hold for any correct implementation.
Only the standard library is used, so the checks cost little next to the
run they check.
"""

from __future__ import annotations

import csv
import math

# The NE is unique on every workload game, so two solvers (or two
# versions of one solver) must agree on it to this tolerance.
NE_TOL = 1e-6
# Budget slack ifgame itself allows (``ifgame.game.FEAS_TOL``).
FEAS_TOL = 1e-9
# Largest relative gap between Monte-Carlo and analytic averages at 1e6 slots.
MC_GAP_TOL = 0.01

# (pbar, VI NE sum rate in nats) of configs/pd_not_contractive.json along the
# default budget sweep, as computed by ifgame 0.1.0 when this benchmark was
# written.  The NE is unique there (Htilde is positive definite), so any
# correct solver reproduces these values.
PD_SWEEP_NE = [
    (0.25, 0.3731080346741738),
    (0.5, 0.6423137920794123),
    (0.75, 0.8509337525075),
    (1.0, 1.0238390588314787),
    (1.25, 1.1653679939493744),
    (1.5, 1.2858641038223804),
    (1.75, 1.390614351533778),
    (2.0, 1.4825428188314067),
]


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _pbar(config, n):
    pbar = config["game"]["pbar"]
    return [float(pbar)] * n if isinstance(pbar, (int, float)) else [float(p) for p in pbar]


def _expect_exit_zero(code):
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def solve_all(code, out, config):
    """``solve`` with every solver on a contractive game: IWF and VI agree
    on the NE, and the Pareto point is feasible and no worse than the NE."""
    problems = _expect_exit_zero(code)
    if problems:
        return problems
    rows = {row["solver"]: row for row in _rows(out / "sum_rates.csv")}
    for name in ("iwf", "vi", "pareto"):
        if rows.get(name, {}).get("converged") != "true":
            problems.append(f"{name} did not converge")
    if problems:
        return problems
    ne_iwf = float(rows["iwf"]["sum_rate_nats"])
    ne_vi = float(rows["vi"]["sum_rate_nats"])
    if not abs(ne_iwf - ne_vi) <= NE_TOL:
        problems.append(f"IWF and VI NE sum rates differ: {ne_iwf!r} vs {ne_vi!r}")
    pareto = rows["pareto"]
    n = sum(1 for key in pareto if key.startswith("avg_power"))
    for i, cap in enumerate(_pbar(config, n), start=1):
        spent = float(pareto[f"avg_power{i}"])
        if not spent <= cap + FEAS_TOL:
            problems.append(f"pareto player {i} spends {spent!r} > pbar {cap!r}")
    for row in _rows(out / "profile_pareto.csv"):
        if any(float(v) < 0 for key, v in row.items() if key != "state"):
            problems.append(f"pareto power negative in state {row['state']}")
            break
    best = float(pareto["sum_rate_nats"])
    if not best >= ne_iwf - NE_TOL:
        problems.append(f"pareto sum rate {best!r} below the NE sum rate {ne_iwf!r}")
    return problems


def vi_sweep(code, out, config):
    """VI-only budget sweep in the positive-definite, non-contractive
    regime: every point reproduces the unique NE."""
    problems = _expect_exit_zero(code)
    if problems:
        return problems
    cond = _rows(out / "conditions.csv")[0]
    if cond["contraction_ok"] != "false" or cond["htilde_pd"] != "true":
        problems.append("conditions.csv should read contraction_ok = false, "
                        f"htilde_pd = true; got {cond['contraction_ok']}, "
                        f"{cond['htilde_pd']}")
    rows = _rows(out / "sweep.csv")
    if len(rows) != len(PD_SWEEP_NE):
        return problems + [f"{len(rows)} sweep rows, expected {len(PD_SWEEP_NE)}"]
    for row, (pbar, ne) in zip(rows, PD_SWEEP_NE):
        value = float(row["ne_vi"])
        if float(row["pbar"]) != pbar:
            problems.append(f"sweep row pbar {row['pbar']}, expected {pbar}")
        elif not (math.isfinite(value) and abs(value - ne) <= NE_TOL):
            problems.append(f"ne_vi at pbar {pbar} is {value!r}, expected {ne!r}")
    return problems


def simulate_iwf(code, out, config):
    """``simulate`` on the contractive 4-player game: rho(Smax) = 0.6, IWF
    converges, and the Monte-Carlo averages match the analytic ones."""
    problems = _expect_exit_zero(code)
    if problems:
        return problems
    rho = float(_rows(out / "conditions.csv")[0]["rho_smax"])
    if not abs(rho - 0.6) <= 1e-9:
        problems.append(f"rho(Smax) = {rho!r}, expected 0.6")
    rows = {row["solver"]: row for row in _rows(out / "sum_rates.csv")}
    if rows.get("iwf", {}).get("converged") != "true":
        problems.append("iwf did not run or did not converge")
    for row in _rows(out / "montecarlo.csv"):
        for key in ("rate_rel_gap", "power_rel_gap"):
            if not float(row[key]) < MC_GAP_TOL:
                problems.append(f"player {row['player']} {key} = {row[key]}")
    return problems
