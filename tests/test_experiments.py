"""Config ingestion, experiment orchestration, outputs and the CLI."""

import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ifgame
from ifgame import (AlConfig, ConfigError, enumerate_states, expected_rates,
                    is_feasible, load_config, make_vi_problem, run_analyze, run_simulate,
                    run_solve, run_sweep, write_outputs)
from ifgame.cli import main
from ifgame.config import (IwfConfig, OutputConfig, SimulateConfig, SolverConfig,
                           SweepConfig, ViConfig)
from ifgame.experiments import build_game, ne_outcome_for_simulation
from ifgame.game import DEFAULT_STATE_CAP
from ifgame.spectral import condition_report
from ifgame.vi import solve_regularized, solve_strong
from ifgame.waterfilling import iterate_waterfilling
import bundled

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from output_digests import HUGE_OWN_POWER  # noqa: E402

SMALL = {
    "game": {"players": 2, "direct_gains": [2.0, 1.0],
             "cross_gains": [0.3], "pbar": 1.0},
    "solver": {"which": "all", "pareto": {"starts": 3, "seed": 4}},
    "output": {"dir": "out", "formats": ["csv", "json"]},
}


def cfg(doc, **game_overrides):
    doc = json.loads(json.dumps(doc))
    doc["game"].update(game_overrides)
    return load_config(json.dumps(doc))


def config_text(config):
    """The config as a JSON document, through ``dataclasses.asdict``."""
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True)


def test_config_round_trip():
    config = bundled.config("example1")
    text = config_text(config)
    again = load_config(text)
    assert again == config
    assert config_text(again) == text


def test_config_missing_pbar_names_field():
    doc = bundled.doc("example1")
    del doc["game"]["pbar"]
    with pytest.raises(ConfigError, match="pbar"):
        load_config(json.dumps(doc))


def test_config_negative_gain_rejected():
    with pytest.raises(ConfigError, match="direct_gains"):
        cfg(bundled.doc("example1"), direct_gains=[3.0, -1.5])


def test_config_unknown_key_rejected():
    doc = bundled.doc("example1")
    doc["game"]["bandwidth"] = 5.0
    with pytest.raises(ConfigError, match="bandwidth"):
        load_config(json.dumps(doc))
    doc = bundled.doc("example1")
    doc["solver"]["vi"] = {"epsilon": 1.0}
    with pytest.raises(ConfigError, match="epsilon"):
        load_config(json.dumps(doc))


def test_config_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        load_config('{\n  "game": [,]\n}')


def test_config_dimension_mismatch():
    with pytest.raises(ConfigError, match="pbar"):
        cfg(bundled.doc("example1"), pbar=[1.0, 2.0])


def rejected(doc, field, tmp_path, capsys):
    """The config fails to load with ConfigError naming ``field``, and the
    CLI exits with code 1 and names it too."""
    text = json.dumps(doc)
    with pytest.raises(ConfigError) as caught:
        load_config(text)
    assert caught.value.field == field
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"(field: {field})" in capsys.readouterr().err


def with_value(doc, dotted, value):
    doc = json.loads(json.dumps(doc))
    *parents, key = dotted.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value
    return doc


@pytest.mark.parametrize("dotted, value", [
    ("game.direct_gains", [float("inf"), 1.5]),
    ("game.cross_gains", [0.1, float("nan")]),
    ("game.pbar", float("inf")),
    ("game.alpha", float("nan")),
    ("game.weights", [1.0, float("inf"), 1.0]),
    ("sweep.values", [1.0, float("nan")]),
    ("solver.iwf.tol", float("nan")),
    ("solver.vi.eps0", float("inf")),
    ("solver.pareto.c", float("inf")),
    ("solver.pareto.delta", float("nan")),
])
def test_config_non_finite_number_rejected(dotted, value, tmp_path, capsys):
    rejected(with_value(bundled.doc("example1"), dotted, value), dotted,
             tmp_path, capsys)


@pytest.mark.parametrize("dotted, value", [
    ("game.players", True),
    ("solver.iwf.max_iter", 2.9),
    ("solver.pareto.starts", True),
    ("solver.state_cap", 10.5),
    ("simulate.slots", 1.5),
    ("simulate.slots", 2**63),
    ("game.pbar", True),
    ("solver.pareto.seed", -1),
    ("simulate.seed", -3),
    ("solver.iwf.max_iter", 0),
    ("solver.vi.max_inner", 0),
    ("solver.state_cap", 0),
    ("simulate.slots", 0),
    ("game.players", 0),
    ("game.players", -2),
])
def test_config_bad_integer_rejected(dotted, value, tmp_path, capsys):
    rejected(with_value(bundled.doc("example1"), dotted, value), dotted,
             tmp_path, capsys)


@pytest.mark.parametrize("value", [None, 5, [1], "", []])
def test_config_output_dir_must_be_a_string(value, tmp_path, capsys):
    rejected(with_value(bundled.doc("example1"), "output.dir", value), "output.dir",
             tmp_path, capsys)


def test_cli_empty_out_is_rejected(tmp_path, monkeypatch, capsys):
    """``--out ""`` is an error, as ``output.dir: ""`` is; it does not
    write into the working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--config", str(bundled.path("example1")),
                 "--out", ""]) == 1
    assert "(field: --out)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dotted, value", [
    ("solver", []),
    ("game.direct_gains", []),
    ("game.pbar", None),
    ("solver.which", "nash"),
    ("output.formats", ["xml"]),
    ("output.pareto_trajectories", 1),
    pytest.param("game.players", 10**400, id="game.players-10**400"),
    ("sweep", None),
    ("simulate", None),
    ("sweep.parameter", "pbar"),
    ("solver.iwf.scheme", "gauss"),
    ("solver.vi.decay", 0),
    ("solver.vi.decay", 1),
    ("game.alpha", [1.0, 2.0]),
    ("game.direct_gains", 2.0),
    ("game.pbar", [[1.0, 1.0, 1.0]]),
    ("game.weights", [1.0, -1.0, 1.0]),
    ("sweep.values", []),
    ("sweep.values", 1.0),
    ("sweep.values", [True]),
    ("output.formats", "csv"),
    ("output.formats", []),
    ("output.formats", ["csv", 1]),
    ("output.pareto_trajectories", "yes"),
])
def test_config_wrong_shape_or_choice_rejected(dotted, value, tmp_path, capsys):
    rejected(with_value(bundled.doc("example1"), dotted, value), dotted,
             tmp_path, capsys)


@pytest.mark.parametrize("probs", [
    {"direct": [[0.5, 0.5]] * 2, "cross": [[[1.0]] * 3] * 3},
    {"direct": [[0.5, 0.5]] * 3, "cross": [[[0.5, 0.5]] * 3] * 3},
    {"direct": [[0.5, 0.5]] * 3, "cross": [[[0.5, 0.5]] * 3] * 2},
    {"direct": [[0.5, 0.5], [0.5], [0.5, 0.5]], "cross": [[[1.0]] * 3] * 3},
    {"direct": [[0.5, float("nan")]] * 3, "cross": [[[1.0]] * 3] * 3},
    {"direct": [[0.5, 0.6]] * 3, "cross": [[[1.0]] * 3] * 3},
    {"direct": [[True, False]] * 3, "cross": [[[1.0]] * 3] * 3},
    {"direct": [[0.5, 0.5]] * 3, "cross": [[[True]] * 3] * 3},
    {"direct": [["0.5", "0.5"]] * 3, "cross": [[[1.0]] * 3] * 3},
])
def test_config_link_probs_errors_name_field(probs, tmp_path, capsys):
    doc = with_value(bundled.doc("example1"), "game.cross_gains", [0.1])
    rejected(with_value(doc, "game.link_probs", probs), "game.link_probs",
             tmp_path, capsys)


@pytest.mark.parametrize("game, field", [
    ({"direct_gains": [1e-300, 1.0], "cross_gains": [1e300]}, "game.cross_gains"),
    ({"direct_gains": [1e-310, 1.0], "cross_gains": [0.1]}, "game.direct_gains"),
    ({"direct_gains": [1e-300, 1.0], "cross_gains": [0.1], "alpha": 1e-20},
     "game.alpha"),
])
def test_config_overflowing_gain_quotient_names_field(game, field, tmp_path, capsys):
    """1/(alpha*direct) and cross/(alpha*direct) must be finite; the config
    is rejected before any operator is built."""
    doc = {"game": {"players": 2, "pbar": 1.0, **game}}
    rejected(doc, field, tmp_path, capsys)


@pytest.mark.parametrize("which, dotted, value", [
    ("iwf", "game.pbar", 1e308),           # pbar / min state probability
    ("all", "game.pbar", [1.0, 1e300]),    # the AL penalty c * N * pbar^2
    ("pareto", "game.pbar", 1e200),
    ("iwf", "sweep.values", [1.0, 1e308]),
    ("all", "sweep.values", [1e200]),
    # no sweep section: the default values are checked, and their 2.0
    # overflows where the game's own 0.1 does not
    ("iwf", "game", {"players": 2, "direct_gains": [6e307, 1.0],
                     "cross_gains": [0.3], "pbar": 0.1}),
])
def test_config_overflowing_budget_names_field(which, dotted, value, tmp_path, capsys):
    """A budget for which a product the solvers form overflows is rejected
    before any solver starts; run unchecked, such budgets make IWF write
    NaN and AL overflow in its penalty."""
    doc = with_value(with_value(SMALL, "solver.which", which), dotted, value)
    rejected(doc, "sweep.values" if dotted == "game" else dotted, tmp_path, capsys)


@pytest.mark.parametrize("field, section, changes", [
    ("sweep.values", "sweep", {"values": [1.0, 1e308]}),
    ("game.pbar", "solver", {"which": "pareto"}),
    ("game.direct_gains", "game", {"direct_gains": [1e-310, 1.0]}),
    ("solver.state_cap", "solver", {"state_cap": 10}),
    ("game.pbar", "game", {"pbar": [1.0, 2.0]}),
    ("game.players", "game", {"players": 0}),
    ("game.direct_gains", "game", {"direct_gains": [-1.0, 2.0]}),
    ("game.link_probs", "game", {"link_probs": {
        "direct": [[0.5, 0.5], [0.5], [0.5, 0.5]], "cross": [[[0.5, 0.5]] * 3] * 3}}),
    ("game.link_probs", "game", {"link_probs": "foo"}),
    ("game.link_probs", "game", {"link_probs": {"direct": [[0.5, 0.5]] * 3}}),
])
def test_replaced_config_is_checked(field, section, changes):
    """A config made by ``dataclasses.replace`` is checked as a loaded one
    is.  Unchecked, these wrote a NaN sweep row, reported AL converged
    after its penalty overflowed, made ``run_analyze`` raise LinAlgError,
    or raised a bare ValueError, TypeError or KeyError naming no field."""
    config = (load_config(json.dumps(with_value(
        with_value(SMALL, "solver.which", "iwf"), "game.pbar", 1e300)))
        if changes == {"which": "pareto"} else bundled.config("example1"))
    with pytest.raises(ConfigError) as caught:
        dataclasses.replace(config, **{
            section: dataclasses.replace(getattr(config, section), **changes)})
    assert caught.value.field == field


def test_config_budget_limit_follows_the_solver_products():
    """The AL penalty c * N * pbar^2 decides the limit only when AL is
    selected, and it is evaluated in the solvers' order: pbar^2 first."""
    limit = np.sqrt(np.finfo(float).max / (2 * 10.0))  # N = 2, c = 10
    for which, pbar, ok in [("all", 0.99 * limit, True), ("all", 1.01 * limit, False),
                            ("iwf", 1.01 * limit, True), ("vi", 1e200, True)]:
        doc = with_value(with_value(SMALL, "solver.which", which), "game.pbar", pbar)
        if ok:
            load_config(json.dumps(doc))
        else:
            with pytest.raises(ConfigError, match="AL penalty"):
                load_config(json.dumps(doc))
    # a small c does not save a pbar whose square overflows
    doc = with_value(with_value(SMALL, "solver.pareto.c", 1e-20), "game.pbar", 1e155)
    with pytest.raises(ConfigError, match="AL penalty"):
        load_config(json.dumps(doc))


def test_large_finite_budget_solves_without_overflow():
    """pbar = 1e100 stays inside every limit, and every solver runs on it
    without a RuntimeWarning."""
    config = load_config(json.dumps(with_value(SMALL, "game.pbar", 1e100)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_solve(config)
    for outcome in result.solvers.values():
        assert np.isfinite(outcome.rates).all() and np.isfinite(outcome.sum_rate)


#: three players whose budgets span 17 orders of magnitude, where AL met
#: the same lost noise in its candidate rates
HUGE_OWN_POWER_AL = {
    "game": {"players": 3, "direct_gains": [784499.9469679989],
             "cross_gains": [8295.122679081567, 5885.786721500934],
             "pbar": [5.393560125593128e-06, 15.596023048565536, 411605427198.83594]},
    "solver": {"which": "pareto", "pareto": {"starts": 2, "max_outer": 20,
                                             "max_inner": 100}},
}


def solve_warning_free(doc):
    """The one solver outcome of ``run_solve`` on ``doc``, with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_solve(load_config(json.dumps(doc)))
    (outcome,) = result.solvers.values()
    assert np.isfinite(outcome.rates).all() and np.isfinite(outcome.sum_rate)
    return outcome


def test_iwf_keeps_the_noise_at_a_huge_own_power():
    # a floor formed as (1 + received) - own lost the unit noise here:
    # zero floors, an infinite sum rate and converged = true
    outcome = solve_warning_free(dict(HUGE_OWN_POWER, solver={"which": "iwf"}))
    assert outcome.converged
    assert outcome.sum_rate == pytest.approx(37.0473, rel=1e-5)


def test_al_keeps_the_noise_at_a_huge_own_power():
    # AL stops at its round cap here, unconverged (the CLI exits 2)
    outcome = solve_warning_free(HUGE_OWN_POWER_AL)
    assert not outcome.converged and outcome.iterations == 20
    assert outcome.sum_rate == pytest.approx(31.394, rel=1e-4)


@pytest.mark.parametrize("pbar", [1e7, 1e8])
def test_large_budget_stopping_tests_reach_the_rounding_floor(pbar):
    """On example 1 at a large budget the iterates settle a few ulps of
    max|P| apart, above the absolute tolerances: IWF and VI stop there,
    converged, instead of running to their caps."""
    spec, space = build_game(bundled.config("example1"))
    spec = dataclasses.replace(spec, pbar=pbar)
    iwf = iterate_waterfilling(spec, space)
    assert iwf.converged and iwf.iterations < 100
    config = ViConfig(max_inner=1000)
    vi = solve_regularized(make_vi_problem(spec, space), config)
    assert vi.converged and vi.eps_path[-1][1] < config.max_inner
    assert np.abs(vi.solution - iwf.profile).max() < 1e-6 * pbar


def test_cli_solve_and_simulate_at_large_budgets(tmp_path):
    """At pbar 1e8 IWF's residual stalls a few ulps of max|P| above its
    tolerance, and the solve is reported converged (exit 0).  At pbar 1e7
    the NE's average power rounds 3.7e-9 above the budget, more than the
    absolute FEAS_TOL, and simulate accepts it."""
    for command, pbar in (("solve", 1e8), ("simulate", 1e7)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(with_value(bundled.doc("example1"), "game.pbar", pbar)))
        assert main([command, "--config", str(path), "--solver", "iwf",
                     "--out", str(tmp_path / command)]) == 0


@pytest.mark.parametrize("name", bundled.NAMES)
def test_every_subcommand_reports_the_same_conditions(name):
    """analyze, and solve with and without the VI, share one set-up of the
    condition checks, which report what ``condition_report`` reports."""
    config = bundled.config(name)
    spec, space = build_game(config)
    expected = condition_report(spec, space)
    assert run_analyze(config) == expected
    for which in ("iwf", "vi"):
        solver = dataclasses.replace(config.solver, which=which)
        assert run_solve(dataclasses.replace(config, solver=solver)).condition == expected


def test_config_defaults_come_from_dataclasses():
    game = bundled.doc("example1")["game"]
    for bare in ({"game": game}, {"game": game, "sweep": {}, "simulate": {}}):
        config = load_config(json.dumps(bare))
        assert config.solver == SolverConfig()
        assert config.solver.iwf == IwfConfig() and config.solver.vi == ViConfig()
        assert config.solver.pareto == AlConfig()
        assert config.simulate == SimulateConfig() and config.output == OutputConfig()
        assert config.sweep == SweepConfig()
    assert SolverConfig().state_cap == DEFAULT_STATE_CAP
    # the library solvers default to the same dataclasses, defined once
    for solver, default in [(iterate_waterfilling, IwfConfig()),
                            (solve_strong, ViConfig()),
                            (solve_regularized, ViConfig())]:
        assert inspect.signature(solver).parameters["config"].default == default
    assert ifgame.config.IwfConfig is ifgame.waterfilling.IwfConfig
    assert ifgame.config.ViConfig is ifgame.vi.ViConfig


def test_readme_config_reference_shows_the_defaults():
    """The README's configuration reference, with its ``//`` comments
    stripped, loads to the dataclass defaults, as its "Defaults are as
    shown" promises."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Configuration reference", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    config = load_config(re.sub(r"//.*", "", block))
    assert config.solver == SolverConfig() and config.sweep == SweepConfig()
    assert config.simulate == SimulateConfig() and config.output == OutputConfig()


def test_readme_library_quick_start_runs():
    """The README's library quick start runs as written, from the
    repository root, without a RuntimeWarning."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, "-c", block], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_missing_sweep_and_simulate_sections_run_the_defaults(tmp_path):
    """Without a sweep or simulate section, ``sweep`` and ``simulate`` run
    the default section: the same rows and summary, byte for byte."""
    bare = {**SMALL, "solver": {"which": "iwf"}}
    full = {**bare, "sweep": {}, "simulate": {}}
    for command, table in (("sweep", "sweep.csv"), ("simulate", "montecarlo.csv")):
        files = []
        for name, doc in (("bare", bare), ("full", full)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"{command}-{name}"
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert table in files[0]
        assert files[0] == files[1]


def test_run_analyze_example_values():
    rep1 = run_analyze(bundled.config("example1"))
    assert rep1.rho_smax == pytest.approx(0.6667, abs=1e-3)
    assert rep1.rho_hhat == pytest.approx(0.6667, abs=1e-3)
    assert rep1.contraction_ok
    rep2 = run_analyze(bundled.config("example2"))
    assert rep2.rho_smax == pytest.approx(1.3333, abs=1e-3)
    assert not rep2.contraction_ok
    assert rep2.htilde_pd
    repc = run_analyze(bundled.config("pd_not_contractive"))
    assert repc.rho_hhat > 1.0 and repc.htilde_pd


#: (rho(Smax), contraction_ok, htilde_pd) of each bundled config, as the
#: README's table of bundled configs states them
BUNDLED_REGIMES = {
    "example1": (2.0 / 3.0, True, True),
    "example2": (4.0 / 3.0, False, True),
    "pd_not_contractive": (4.0 / 3.0, False, True),
    "psd_boundary": (1.0, False, False),
}


@pytest.mark.parametrize("name", bundled.NAMES)
def test_bundled_config_loads_round_trips_and_matches_regime(name):
    config = bundled.config(name)
    text = config_text(config)
    assert load_config(text) == config
    assert config_text(load_config(text)) == text
    rho, contraction, pd = BUNDLED_REGIMES[name]
    report = run_analyze(config)
    assert report.rho_smax == pytest.approx(rho, abs=1e-12)
    assert report.contraction_ok == contraction
    assert report.htilde_pd == pd


def test_zero_probability_gain_is_not_a_state(tmp_path):
    # cross gain 5.0 has probability 0 on every link, so no state has it
    doc = {"game": {"players": 2, "direct_gains": [1.0, 2.0],
                    "cross_gains": [0.1, 5.0],
                    "link_probs": {"direct": [[0.5, 0.5]] * 2,
                                   "cross": [[[1.0, 0.0]] * 2] * 2},
                    "pbar": 1.0}}
    report = run_analyze(load_config(json.dumps(doc)))
    assert report.rho_smax == pytest.approx(0.1, abs=1e-12)
    assert report.contraction_ok and report.htilde_psd and report.htilde_pd
    assert report.ratio_bound == pytest.approx(5.0)  # the alphabet bound
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    for solver in ("iwf", "vi"):
        assert main(["solve", "--config", str(path), "--solver", solver,
                     "--out", str(tmp_path / solver)]) == 0


def test_run_analyze_equivalences_end_to_end():
    # the contraction/radius identities hold through the config layer too
    rng = np.random.default_rng(31)
    from util_random import random_spec
    for _ in range(10):
        spec = random_spec(rng, state_limit=400)
        doc = {
            "game": {"players": spec.n_players,
                     "direct_gains": spec.direct_alphabet.tolist(),
                     "cross_gains": spec.cross_alphabet.tolist(),
                     "link_probs": {"direct": spec.direct_probs.tolist(),
                                    "cross": spec.cross_probs.tolist()},
                     "pbar": spec.pbar.tolist()},
        }
        report = run_analyze(load_config(json.dumps(doc)))
        assert report.rho_hhat == pytest.approx(report.rho_smax, abs=1e-9)
        assert report.contraction_ok == (report.rho_smax < 1.0)
        if spec.n_players > 1:
            assert report.rho_smax == pytest.approx(report.ratio_bound, abs=1e-9)


def test_run_solve_single_user_all_solvers_agree():
    config = cfg(SMALL, players=1, direct_gains=[2.0, 0.5],
                 cross_gains=[1.0], pbar=1.0)
    result = run_solve(config)
    profiles = {name: s.profile for name, s in result.solvers.items()}
    assert set(profiles) == {"iwf", "vi", "pareto"}
    assert result.all_converged
    assert np.abs(profiles["iwf"] - profiles["vi"]).max() < 1e-5
    assert np.abs(profiles["iwf"] - profiles["pareto"]).max() < 5e-3
    rates = {name: s.sum_rate for name, s in result.solvers.items()}
    assert rates["pareto"] == pytest.approx(rates["iwf"], abs=1e-5)


def test_run_solve_small_game_outcomes():
    result = run_solve(cfg(SMALL))
    assert result.all_converged
    iwf, vi, pareto = (result.solvers[k] for k in ("iwf", "vi", "pareto"))
    assert abs(iwf.sum_rate - vi.sum_rate) < 1e-4
    assert pareto.sum_rate >= vi.sum_rate - 1e-9
    spec, space = build_game(cfg(SMALL))
    reports = {"iwf": iwf.report.profile, "vi": vi.report.solution,
               "pareto": pareto.report.best}
    for name, outcome in result.solvers.items():
        assert is_feasible(space, outcome.profile, spec.pbar).all()
        # the profile is the (N, N1) array itself, the report's own object
        assert type(outcome.profile) is np.ndarray
        assert outcome.profile.shape == (spec.n_players, space.n_states)
        assert not np.any(outcome.profile < 0)
        assert outcome.profile is reports[name]


def test_vi_solve_hides_only_the_psd_warning(monkeypatch):
    """The PSD status is in the report, so that warning is dropped; a
    numerical warning from inside the solve reaches the caller."""
    import ifgame.experiments
    original = ifgame.experiments.solve_regularized

    def noisy(problem, config):
        warnings.warn("Htilde is not positive semidefinite; regularization "
                      "path has no convergence guarantee", UserWarning)
        warnings.warn("overflow encountered in multiply", RuntimeWarning)
        return original(problem, config)

    monkeypatch.setattr(ifgame.experiments, "solve_regularized", noisy)
    doc = json.loads(json.dumps(SMALL))
    doc["solver"]["which"] = "vi"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_solve(load_config(json.dumps(doc)))
    assert result.solvers["vi"].converged
    assert [w.category for w in caught] == [RuntimeWarning]


def test_run_sweep_single_point_matches_solve():
    base = cfg(SMALL)
    config = dataclasses.replace(base, sweep=SweepConfig(values=[1.0]))
    sweep = run_sweep(config)
    solve = run_solve(base)
    assert len(sweep.sweep_rows) == 1
    row = sweep.sweep_rows[0]
    assert row["ne_iwf"] == pytest.approx(solve.solvers["iwf"].sum_rate, abs=1e-12)
    assert row["ne_vi"] == pytest.approx(solve.solvers["vi"].sum_rate, abs=1e-12)
    assert row["pareto"] == pytest.approx(solve.solvers["pareto"].sum_rate,
                                          abs=1e-12)


def count_calls(monkeypatch, calls, module, name):
    """Count the calls made through ``module.name`` into ``calls[name]``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sweep_builds_vi_data_once(monkeypatch):
    """The sweep computes the certificate once and searches tau once per
    distinct eps: at eps = 0 only on a PD game, along the eps path on the
    PSD-boundary game.  So does a library caller that runs the condition
    checks, then solves the VI at every budget on one space."""
    for name, searches in (("pd_not_contractive", 1), ("psd_boundary", 26)):
        assert_sweep_builds_vi_data_once(monkeypatch, name, searches)


def assert_sweep_builds_vi_data_once(monkeypatch, name, searches):
    import ifgame.spectral
    import ifgame.vi
    calls = {}
    for module in (ifgame.spectral, ifgame.vi):
        count_calls(monkeypatch, calls, module, "definiteness")
    count_calls(monkeypatch, calls, ifgame.spectral, "_best_tau")
    config = dataclasses.replace(bundled.config(name), sweep=SweepConfig())
    rows = run_sweep(config).sweep_rows
    assert calls["definiteness"] == 1
    assert calls["_best_tau"] == searches
    # each point equals a solve on its own problem, built from scratch on
    # a fresh space after its condition checks: the library sequence
    calls.clear()
    spec, space = build_game(config)
    condition_report(spec, space)
    eps_values = set()
    for row in rows:
        point = dataclasses.replace(spec, pbar=row["pbar"])
        rep = solve_regularized(make_vi_problem(point, space), config.solver.vi)
        assert rep.converged
        assert row["ne_vi"] == float(expected_rates(space, rep.solution).sum())
        eps_values.update(eps for eps, _, _ in rep.eps_path)
    monkeypatch.undo()
    assert len(rows) > 1
    assert calls["definiteness"] == 1
    assert calls["_best_tau"] == len(eps_values) == searches


def test_run_sweep_pareto_nondecreasing_in_budget():
    config = dataclasses.replace(cfg(SMALL),
                                 sweep=SweepConfig(values=[0.5, 1.0, 2.0]))
    result = run_sweep(config)
    assert len(result.sweep_rows) == 3
    pareto = [row["pareto"] for row in result.sweep_rows]
    assert pareto[0] <= pareto[1] + 1e-9 <= pareto[2] + 2e-9
    for row in result.sweep_rows:
        assert row["pareto"] >= row["ne_vi"] - 1e-9


def test_run_simulate_singleton_exact():
    config = dataclasses.replace(
        cfg(SMALL, players=1, direct_gains=[2.0], cross_gains=[1.0]),
        simulate=SimulateConfig(slots=1, seed=0))
    spec, space = build_game(config)
    summary = run_simulate(config, np.array([[1.0]]))
    assert summary.empirical_rate == pytest.approx(summary.analytic_rate)
    assert summary.empirical_power == pytest.approx(summary.analytic_power)


@pytest.mark.parametrize("slots", [10**12, 2**63 - 1])
def test_cli_simulate_draws_counts_not_slots(slots, tmp_path):
    """Any valid slot count costs no more than a few: the draw is one
    count per state, so no array has one entry per slot."""
    doc = {**SMALL, "solver": {"which": "iwf"},
           "simulate": {"slots": slots, "seed": 5}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    mc = json.loads((tmp_path / "o" / "result.json").read_text())["montecarlo"]
    assert mc["slots"] == slots
    assert max(mc["rate_rel_gap"] + mc["power_rel_gap"]) < 1e-4


BAD_SECTION_VALUES = [
    (SimulateConfig, {"slots": 0}),  # would make the empirical rates 0 / 0
    (SimulateConfig, {"slots": 2.5}),
    (SimulateConfig, {"slots": -4}),
    (SimulateConfig, {"slots": 2**63}),
    (SimulateConfig, {"seed": -1}),
    (SweepConfig, {"values": []}),
    (SweepConfig, {"values": [-1.0]}),
    (SweepConfig, {"values": [1.0, float("nan")]}),
    (OutputConfig, {"dir": ""}),  # would write into the working directory
    (OutputConfig, {"formats": ["xml"]}),  # would write nothing
    (OutputConfig, {"formats": []}),
    (OutputConfig, {"pareto_trajectories": 1}),
]


# the ids number the cases values0, values1, ... in list order, so the
# SimulateConfig cases keep the names they had before the other sections
@pytest.mark.parametrize("cls, values", BAD_SECTION_VALUES,
                         ids=[f"values{k}" for k in range(len(BAD_SECTION_VALUES))])
def test_simulate_config_rejects_bad_values(cls, values):
    """Each section checks its own values when it is made, and the
    message names the field."""
    with pytest.raises(ValueError, match=next(iter(values))):
        cls(**values)


def test_config_sequences_cannot_change_in_place():
    """``sweep.values`` and ``output.formats`` are tuples, so no change in
    place skips the checks made with the config."""
    config = bundled.config("example1")
    for values in (config.sweep.values, config.output.formats):
        with pytest.raises(AttributeError):
            values.append(1e308)


def test_run_simulate_requires_feasible_profile():
    config = dataclasses.replace(cfg(SMALL), simulate=SimulateConfig(slots=10))
    _, space = build_game(config)
    over = np.full((2, space.n_states), 100.0)
    # within budget on average, but one power is negative
    negative = np.full((2, space.n_states), 0.5)
    negative[1, 0] = -0.1
    for bad in (over, negative):
        with pytest.raises(ValueError, match="feasible"):
            run_simulate(config, bad)


def test_run_simulate_close_to_analytic():
    config = dataclasses.replace(cfg(SMALL),
                                 simulate=SimulateConfig(slots=200_000, seed=11))
    report, outcome = ne_outcome_for_simulation(config)
    assert outcome.name == "iwf" and report.contraction_ok
    summary = run_simulate(config, outcome.profile)
    assert np.all(summary.rate_rel_gap < 0.01)
    assert np.all(summary.empirical_power <= 1.01 * summary.analytic_power)


def test_write_outputs_and_feasible_profiles(tmp_path):
    config = cfg(SMALL)
    result = run_solve(config)
    written = write_outputs(result, config, tmp_path)
    names = {p.name for p in written}
    assert {"result.json", "conditions.csv", "sum_rates.csv",
            "profile_iwf.csv", "profile_vi.csv", "profile_pareto.csv",
            "vi_eps_path.csv", "pareto_starts.csv"} <= names
    spec, space = build_game(config)
    for name in ("iwf", "vi", "pareto"):
        rows = (tmp_path / f"profile_{name}.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in line.split(",")[1:]]
                         for line in rows[1:]])
        assert is_feasible(space, data.T, spec.pbar).all()
    doc = json.loads((tmp_path / "result.json").read_text())
    assert set(doc["solvers"]) == {"iwf", "vi", "pareto"}
    assert doc["condition"]["contraction_ok"] is True


def test_cli_analyze_exit_zero(tmp_path, capsys):
    code = main(["analyze", "--config", str(bundled.path("example1")),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.666667" in out
    assert (tmp_path / "o" / "conditions.csv").exists()


def test_cli_bad_config_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"game": {"players": 2}}')
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 1
    # alphabetically first missing required key is reported
    assert "cross_gains" in capsys.readouterr().err


def test_cli_negative_seed_exit_one(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(SMALL))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 1
    assert "(field: --seed)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any solver ran


def test_cli_oversize_game_names_state_cap(tmp_path, capsys):
    """A game past ``solver.state_cap`` (2**36 states) is a config error."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"game": {"players": 6, "direct_gains": [1.0, 2.0],
                                         "cross_gains": [0.1, 0.2], "pbar": 1.0}}))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "68719476736" in err and "(field: solver.state_cap)" in err


def test_config_state_space_far_over_cap_names_state_cap(tmp_path, capsys):
    """At 32 players the 2^1024 states overflow a float and their smallest
    probability underflows to 0.  The count is still compared with the
    cap, before any budget check, and it is never printed as inf."""
    doc = with_value(bundled.doc("example1"), "game.players", 32)
    doc = with_value(doc, "solver.which", "iwf")
    with pytest.raises(ConfigError, match=r"needs about 10\^308 entries") as caught:
        load_config(json.dumps(doc))
    assert "inf" not in str(caught.value)
    rejected(doc, "solver.state_cap", tmp_path, capsys)


def test_config_many_players_name_state_cap():
    """1500 players have 2^(1500^2) states; the config is rejected by the
    state count, with every link's support read at once."""
    doc = {"game": {"players": 1500, "direct_gains": [1, 2], "cross_gains": [0.1, 0.2],
                    "pbar": 1}}
    with pytest.raises(ConfigError, match=r"needs about 10\^677317 entries") as caught:
        load_config(json.dumps(doc))
    assert caught.value.field == "solver.state_cap"


@pytest.mark.parametrize("command, solver, dotted, value", [
    ("solve", "pareto", "game.pbar", 1e300),
    ("solve", "all", "game.pbar", 1e300),
    ("sweep", "all", "game.pbar", 1e300),
    ("sweep", "pareto", "sweep.values", [1.0, 1e300]),
])
def test_cli_solver_override_checks_the_al_budget(command, solver, dotted, value,
                                                  tmp_path, capsys):
    """The file selects IWF, whose budget limit is far above AL's, and
    ``--solver`` selects AL: the budgets are checked for the solvers that
    run, and the run stops before AL overflows its penalty."""
    doc = with_value(with_value(SMALL, "solver.which", "iwf"), dotted, value)
    doc = with_value(doc, "solver.pareto.max_outer", 5)
    load_config(json.dumps(doc))  # IWF alone can run these budgets
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(path), "--solver", solver,
                     "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "AL penalty" in err and f"(field: {dotted})" in err
    assert not (tmp_path / "o").exists()  # rejected before any solver ran


def test_cli_nonconvergence_exit_two(tmp_path):
    doc = bundled.doc("example2")
    doc["solver"]["which"] = "iwf"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert (tmp_path / "o" / "sum_rates.csv").exists()  # partial outputs written


def test_cli_solve_stops_when_no_step_is_certified(tmp_path):
    """A game that is not PSD and whose step search certifies a contraction
    only down to eps = 2^-7: the eps path stops after those 8 rounds and
    ``solve`` exits 2 with its outputs written, rather than iterate at an
    uncertified step to the cap in each of the 52 later rounds."""
    doc = {"game": {"players": 3, "direct_gains": [1.0, 2.0],
                    "cross_gains": [0.6, 0.9], "link_probs": "uniform", "pbar": 1.0},
           "solver": {"which": "vi"}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(ifgame.__file__).parent.parent),
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, "-m", "ifgame", "solve", "--config",
                           str(path), "--out", str(out)],
                          env=env, capture_output=True, timeout=10, check=False)
    assert proc.returncode == 2, proc.stderr
    with open(out / "vi_eps_path.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["eps"]) for row in rows] == [2.0 ** -n for n in range(8)]
    with open(out / "sum_rates.csv", newline="") as fh:
        (vi,) = csv.DictReader(fh)
    assert vi["converged"] == "false"
    doc = json.loads((out / "result.json").read_text())
    assert doc["condition"]["htilde_psd"] is False


def _nan_paths(obj, path=()):
    """The paths of the NaN floats in a parsed JSON document; fails on a
    string that spells NaN."""
    if isinstance(obj, float):
        return [path] if obj != obj else []
    if isinstance(obj, str):
        assert "nan" not in obj.lower(), path
        return []
    if isinstance(obj, dict):
        obj = obj.items()
    elif isinstance(obj, list):
        obj = enumerate(obj)
    else:
        return []
    return [p for k, v in obj for p in _nan_paths(v, path + (k,))]


@pytest.mark.parametrize("game, solver", [("example2", "iwf"),
                                          ("pd_not_contractive", "vi")])
def test_cli_sweep_writes_nan_only_for_unsolved_points(game, solver, tmp_path):
    """NaN is written only in the sweep rows of ``sweep.csv`` and
    ``result.json``, and only under a solver that was not run or did not
    converge at that budget.  IWF cycles on example 2 from pbar 1.25 on."""
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(bundled.path(game)), "--out", str(out),
                 "--solver", solver])
    doc = json.loads((out / "result.json").read_text())
    rows = doc["sweep_rows"]
    column = {"iwf": "ne_iwf", "vi": "ne_vi"}[solver]
    unsolved = {i for i, row in enumerate(rows) if not row["converged"]}
    assert code == (2 if unsolved else 0)
    assert _nan_paths(doc) == [("sweep_rows", i, key) for i in range(len(rows))
                               for key in sorted(("ne_iwf", "ne_vi", "pareto"))
                               if key != column or i in unsolved]
    with open(out / "sweep.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == len(rows)
    for row, line in zip(rows, table):
        assert line == {k: "nan" if row[k] != row[k] else repr(row[k])
                        for k in ("pbar", "ne_iwf", "ne_vi", "pareto")}
    if game == "example2":
        assert unsolved == {4, 5, 6, 7}  # pbar 1.25 to 2
        spec = bundled.spec(game)
        space = enumerate_states(spec)
        for i, row in enumerate(rows):
            point = dataclasses.replace(spec, pbar=row["pbar"])
            assert iterate_waterfilling(point, space).converged == (i not in unsolved)
    written = sorted(p.name for p in out.iterdir())
    assert written == ["conditions.csv", "result.json", "sweep.csv"]
    assert "nan" not in (out / "conditions.csv").read_text().lower()


def test_cli_solver_and_seed_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(SMALL))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--solver", "iwf", "--format", "csv"])
    assert code == 0
    assert (tmp_path / "o" / "profile_iwf.csv").exists()
    assert not (tmp_path / "o" / "result.json").exists()
    assert not (tmp_path / "o" / "profile_vi.csv").exists()


def test_cli_seed_reaches_simulate_without_section(tmp_path):
    """``--seed`` sets the Monte-Carlo seed also when the config has no
    simulate section: the files equal those of ``"simulate": {"seed": 3}``."""
    bare = {**SMALL, "solver": {"which": "iwf"}}
    files = []
    for name, doc, extra in (("bare", bare, ["--seed", "3"]),
                             ("seeded", {**bare, "simulate": {"seed": 3}}, [])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main(["simulate", "--config", str(path), "--out", str(out), *extra]) == 0
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert json.loads(files[0]["result.json"])["montecarlo"]["seed"] == 3
    assert files[0] == files[1]


def test_cli_outputs_are_deterministic(tmp_path):
    doc = json.loads(json.dumps(SMALL))
    doc["simulate"] = {"slots": 5000, "seed": 3}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main(["solve", "--config", str(path), "--out", str(d)]) == 0
        assert main(["simulate", "--config", str(path),
                     "--out", str(d / "mc")]) == 0
    files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel


def test_cli_simulate_enumerates_once(monkeypatch, tmp_path):
    """A simulate run enumerates the states once and builds the game once."""
    import ifgame.config
    import ifgame.experiments
    calls = {}
    count_calls(monkeypatch, calls, ifgame.experiments, "enumerate_states")
    count_calls(monkeypatch, calls, ifgame.config, "GameSpec")
    doc = json.loads(json.dumps(SMALL))
    doc["simulate"] = {"slots": 5000, "seed": 3}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert calls == {"enumerate_states": 1, "GameSpec": 1}


def test_cli_solve_and_simulate_certify_once(monkeypatch, tmp_path):
    """Each CLI run computes the certificate once, shared by the
    condition checks and the VI through the space."""
    import ifgame.spectral
    import ifgame.vi
    # simulate chooses VI on pd_not_contractive (no contraction)
    runs = [["solve", "--config", str(bundled.path("pd_not_contractive"))],
            ["solve", "--config", str(bundled.path("example1")), "--solver", "vi"],
            ["simulate", "--config", str(bundled.path("pd_not_contractive"))]]
    for k, argv in enumerate(runs):
        calls = {}
        for module in (ifgame.spectral, ifgame.vi):
            count_calls(monkeypatch, calls, module, "definiteness")
        assert main(argv + ["--out", str(tmp_path / str(k))]) == 0
        monkeypatch.undo()
        assert calls["definiteness"] == 1, argv
