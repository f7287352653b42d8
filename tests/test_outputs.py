"""The output writer against a reference copy of the per-value writer it
replaced: every file, byte for byte."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import ifgame.cli
from ifgame import (ConditionReport, IwfReport, ParetoReport, PowerProfile,
                    StartResult, ViReport, load_config, write_outputs)
from ifgame.cli import main
from ifgame.experiments import MonteCarloSummary, RunResult, SolverOutcome

# --- reference: the writer as it was, one _jsonable / _fmt call per value ---


def _ref_jsonable(obj):
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_ref_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, PowerProfile):
        return _ref_jsonable(obj.powers)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _ref_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _ref_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref_jsonable(v) for v in obj]
    return obj


def _ref_result_to_json(result):
    doc = _ref_jsonable(result)
    for outcome in doc.get("solvers", {}).values():
        report = outcome.get("report", {})
        if isinstance(report, dict):
            report.pop("profile", None)
            report.pop("solution", None)
            report.pop("best", None)
            if "per_start" in report:
                for start in report["per_start"]:
                    start.pop("profile", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _ref_fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _ref_write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_ref_fmt(v) for v in row])


def reference_write_outputs(result, config, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in config.output.formats:
        (out / "result.json").write_text(_ref_result_to_json(result), encoding="utf-8")
        written.append(out / "result.json")
    if "csv" not in config.output.formats:
        return written
    fields = [f.name for f in dataclasses.fields(ConditionReport)]
    _ref_write_csv(out / "conditions.csv", fields,
                   [[getattr(result.condition, f) for f in fields]])
    written.append(out / "conditions.csv")
    if result.solvers:
        header = ["solver", "sum_rate_nats", "converged", "iterations", "residual"]
        n = next(iter(result.solvers.values())).rates.size
        header += [f"rate{i + 1}_nats" for i in range(n)]
        header += [f"avg_power{i + 1}" for i in range(n)]
        rows = [[s.name, s.sum_rate, s.converged, s.iterations, s.residual,
                 *s.rates, *s.avg_powers] for s in result.solvers.values()]
        _ref_write_csv(out / "sum_rates.csv", header, rows)
        written.append(out / "sum_rates.csv")
        for s in result.solvers.values():
            path = out / f"profile_{s.name}.csv"
            n, n1 = s.profile.powers.shape
            _ref_write_csv(path, ["state"] + [f"player{i + 1}" for i in range(n)],
                           [[k] + list(s.profile.powers[:, k]) for k in range(n1)])
            written.append(path)
            if s.name == "vi" and isinstance(s.report, ViReport):
                _ref_write_csv(out / "vi_eps_path.csv",
                               ["eps", "inner_iterations", "natural_residual"],
                               s.report.eps_path)
                written.append(out / "vi_eps_path.csv")
            if s.name == "pareto" and isinstance(s.report, ParetoReport):
                rows = [[j, r.sum_rate, r.outer_iterations,
                         float(r.feasibility_residuals.max()), r.converged]
                        for j, r in enumerate(s.report.per_start)]
                _ref_write_csv(out / "pareto_starts.csv",
                               ["start", "sum_rate_nats", "outer_iterations",
                                "max_feasibility_residual", "converged"], rows)
                written.append(out / "pareto_starts.csv")
                if s.report.trajectories is not None:
                    rows = [[j, t, v]
                            for j, trail in enumerate(s.report.trajectories)
                            for t, v in enumerate(trail, start=1)]
                    _ref_write_csv(out / "pareto_trajectories.csv",
                                   ["start", "outer_iteration", "sum_rate_nats"], rows)
                    written.append(out / "pareto_trajectories.csv")
    if result.sweep_rows is not None:
        _ref_write_csv(out / "sweep.csv", ["pbar", "ne_iwf", "ne_vi", "pareto"],
                       [[r["pbar"], r["ne_iwf"], r["ne_vi"], r["pareto"]]
                        for r in result.sweep_rows])
        written.append(out / "sweep.csv")
    if result.montecarlo is not None:
        mc = result.montecarlo
        rows = [[i + 1, mc.empirical_rate[i], mc.analytic_rate[i],
                 mc.rate_rel_gap[i], mc.empirical_power[i],
                 mc.analytic_power[i], mc.power_rel_gap[i]]
                for i in range(mc.empirical_rate.size)]
        _ref_write_csv(out / "montecarlo.csv",
                       ["player", "empirical_rate_nats", "analytic_rate_nats",
                        "rate_rel_gap", "empirical_power", "analytic_power",
                        "power_rel_gap"], rows)
        written.append(out / "montecarlo.csv")
    return written


# --- tests ---


def assert_same_files(result, config, tmp_path):
    """Both writers emit the same files, in the same order, byte for byte."""
    ref = reference_write_outputs(result, config, tmp_path / "ref")
    new = write_outputs(result, config, tmp_path / "new")
    assert [p.name for p in new] == [p.name for p in ref]
    for a, b in zip(ref, new):
        assert b.read_bytes() == a.read_bytes(), b.name
    return new


GAME = {
    "game": {"players": 2, "direct_gains": [2.0, 1.0],
             "cross_gains": [0.3, 0.1], "pbar": 1.0},
    "solver": {"which": "all", "pareto": {"starts": 2, "seed": 5}},
    "sweep": {"values": [0.5, 1.0]},
    "simulate": {"slots": 2000, "seed": 3},
    "output": {"pareto_trajectories": True},
}


@pytest.mark.parametrize("command", ["analyze", "solve", "sweep", "simulate"])
def test_cli_outputs_match_reference_writer(command, tmp_path, monkeypatch):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(GAME))
    seen = []

    def both(result, config, out_dir):
        seen.append(command)
        return assert_same_files(result, config, Path(out_dir))

    monkeypatch.setattr(ifgame.cli, "write_outputs", both)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert seen == [command]


def test_awkward_values_match_reference_writer(tmp_path):
    awkward = [float("nan"), float("inf"), -0.0, 5e-324, 1e16, 1e22, 0.1, 2.0]
    # more states than one write block, awkward values on the edges
    powers = np.random.default_rng(0).random((2, 9000))
    powers[0, :8] = awkward
    powers[1, -8:] = awkward
    powers[1, 4096] = float("nan")
    profile = PowerProfile(powers)
    signed = np.array([float("-inf"), -0.0, float("nan")])
    iwf = IwfReport(profile=profile, iterations=np.int64(7),
                    residual_history=[float("inf"), 1e-300, float("nan")],
                    converged=np.bool_(False), scheme="simultaneous")
    vi = ViReport(solution=profile, eps_path=[(1.0, 3, float("-inf")), (0.5, 0, 5e-324)],
                  converged=True, tau_used=-0.0)
    starts = [StartResult(profile=profile, sum_rate=float("-inf"), outer_iterations=2,
                          feasibility_residuals=signed, converged=np.bool_(True),
                          multipliers=np.array([1e22, -0.0]), seed_key=(5, j))
              for j in range(2)]
    pareto = ParetoReport(best=profile, best_sum_rate=1e16, per_start=starts,
                          multipliers=np.array([0, 1]), converged=False,
                          trajectories=[[1.0, float("nan")], []])
    solvers = {name: SolverOutcome(name=name, profile=profile, sum_rate=float("nan"),
                                   rates=signed, avg_powers=np.array([1, 2, 3]),
                                   converged=name != "iwf", iterations=0,
                                   residual=float("inf"), report=report)
               for name, report in [("iwf", iwf), ("vi", vi), ("pareto", pareto)]}
    condition = ConditionReport(rho_smax=float("inf"), rho_hhat=float("nan"),
                                ratio_bound=-0.0, contraction_ok=np.bool_(False),
                                htilde_psd=True, htilde_pd=False, min_sym_eig=-1e16)
    mc = MonteCarloSummary(slots=10, seed=0, empirical_rate=signed,
                           analytic_rate=signed, rate_rel_gap=signed,
                           empirical_power=signed, analytic_power=signed,
                           power_rel_gap=signed)
    result = RunResult(condition=condition, solvers=solvers, sweep_rows=[],
                       montecarlo=mc)
    config = load_config(json.dumps({"game": GAME["game"]}))
    written = assert_same_files(result, config, tmp_path)
    assert len(written) == 11
    profile_row = json.loads(written[0].read_text())["solvers"]["iwf"]["profile"][1]
    assert np.isnan(profile_row[4096]) and profile_row[-7] == float("inf")
    assert "\n0,nan," in written[3].read_text()  # profile_iwf.csv
    for fmt in ("json", "csv"):
        one = dataclasses.replace(config, output=dataclasses.replace(
            config.output, formats=[fmt]))
        assert_same_files(result, one, tmp_path / fmt)


def one_profile_result(powers):
    """A result with one IWF outcome whose profile is ``powers``, set past
    PowerProfile's checks so that any float64 bit pattern reaches the
    writer (PowerProfile rejects -inf as a negative power)."""
    profile = PowerProfile(np.zeros(powers.shape))
    object.__setattr__(profile, "powers", powers)
    n = powers.shape[0]
    report = IwfReport(profile=profile, iterations=1, residual_history=[0.0],
                       converged=True, scheme="simultaneous")
    outcome = SolverOutcome(name="iwf", profile=profile, sum_rate=1.0,
                            rates=np.ones(n), avg_powers=np.ones(n), converged=True,
                            iterations=1, residual=0.0, report=report)
    condition = ConditionReport(rho_smax=0.5, rho_hhat=0.5, ratio_bound=0.5,
                                contraction_ok=True, htilde_psd=True,
                                htilde_pd=True, min_sym_eig=1.0)
    return RunResult(condition=condition, solvers={"iwf": outcome})


def assert_same_files_in_every_format(result, tmp_path):
    config = load_config(json.dumps({"game": GAME["game"]}))
    for formats in (["csv", "json"], ["json"], ["csv"]):
        one = dataclasses.replace(config, output=dataclasses.replace(
            config.output, formats=formats))
        assert_same_files(result, one, tmp_path / "-".join(formats))


def test_distinct_bit_patterns_match_reference_writer(tmp_path):
    """The writer spells each distinct bit pattern once: 0.0 and -0.0
    differ in bits and in spelling, NaNs with different payloads differ in
    bits but all spell nan, and every byte matches the reference."""
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                     0x7FF0000000000001, 0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)
    assert np.isnan(nans).all() and np.unique(nans.view(np.int64)).size == nans.size
    pool = np.concatenate([nans, [np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e22, 0.1,
                                  1e16, 2.0 ** -1074 * 3, 1.0],
                           np.random.default_rng(1).random(14)])
    rng = np.random.default_rng(2)
    powers = pool[rng.integers(pool.size, size=(3, 5000))]  # many repeats
    powers[0, :4] = [0.0, -0.0, 0.0, -0.0]
    powers[2, 4094:4100] = nans
    result = one_profile_result(powers)
    assert_same_files_in_every_format(result, tmp_path)
    rows = (tmp_path / "csv-json" / "new" / "profile_iwf.csv").read_text().splitlines()
    assert [row[:row.index(",", 2)] for row in rows[1:5]] == [
        "0,0.0", "1,-0.0", "2,0.0", "3,-0.0"]


@pytest.mark.parametrize("n_players", [1, 4])
@pytest.mark.parametrize("n_states", [1, 4095, 4096, 4097, 8192])
def test_block_edges_match_reference_writer(n_players, n_states, tmp_path):
    """Profiles of one state, of one block less or more than a write block,
    and of whole blocks: the last block may be short, and the 65 536-state
    profile is exactly 16 whole blocks."""
    rng = np.random.default_rng(n_states)
    powers = rng.random((n_players, n_states))
    powers[:, ::3] = powers[:, :1]  # repeated values, across players too
    assert_same_files_in_every_format(one_profile_result(powers), tmp_path)
