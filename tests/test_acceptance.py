"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line
(run with ``pytest -v -s tests/test_acceptance.py`` to see them).
"""

import dataclasses
import json
import time

import numpy as np

from ifgame import (IwfConfig, ViConfig, build_operator, enumerate_states,
                    iterate_waterfilling, make_vi_problem, natural_residual,
                    project_block, run_analyze, run_simulate, run_sweep,
                    solve_regularized, spectral_radius, wf_residual)
from ifgame.cli import main
from ifgame.config import SimulateConfig, SweepConfig
from ifgame.experiments import build_game, ne_outcome_for_simulation
from ifgame.pareto import _grad_all, _lagrangian
import bundled
from util_random import random_feasible_profile, random_spec

def report(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


_POOL = []


def spec_pool():
    """200 random games with N <= 4 and alphabet sizes <= 3 (seeded)."""
    if not _POOL:
        rng = np.random.default_rng(20250810)
        _POOL.extend(random_spec(rng) for _ in range(200))
    return _POOL


def test_criterion_1_spectral_values():
    t0 = time.perf_counter()
    rep1 = run_analyze(bundled.config("example1"))
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep2 = run_analyze(bundled.config("example2"))
    t2 = time.perf_counter() - t0
    ok = (abs(rep1.rho_smax - 0.6667) <= 1e-3
          and abs(rep1.rho_hhat - 0.6667) <= 1e-3
          and abs(rep2.rho_smax - 1.3333) <= 1e-3
          and abs(rep2.rho_hhat - 1.3333) <= 1e-3
          and t1 < 1.0 and t2 < 1.0)
    report(1, ok, f"rho ex1 {rep1.rho_smax:.4f}, ex2 {rep2.rho_smax:.4f} "
                  f"({t1 * 1e3:.0f} ms / {t2 * 1e3:.0f} ms)")


def test_criterion_2_contraction_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for spec in spec_pool():
        space = enumerate_states(spec)
        op = build_operator(spec, space)
        rho = spectral_radius(op.smax)
        if spec.n_players == 1:
            row_sum = 0.0
        else:
            row_sum = (spec.n_players - 1) * spec.gains.cross.max() \
                / spec.gains.direct.min()
        ok &= (rho < 1.0) == (row_sum < 1.0)
        worst = max(worst, abs(rho - row_sum))
    elapsed = time.perf_counter() - t0
    ok &= worst <= 1e-9 and elapsed < 10.0
    report(2, ok, f"200 specs, equivalence holds, max |rho - row sum| = "
                  f"{worst:.2e} ({elapsed:.1f} s)")


def test_criterion_3_blockdiag_radius_equivalence():
    from ifgame import rho_blockdiag
    worst = 0.0
    for spec in spec_pool():
        space = enumerate_states(spec)
        op = build_operator(spec, space)
        worst = max(worst, abs(rho_blockdiag(op) - spectral_radius(op.smax)))
    report(3, worst <= 1e-9, f"max |rho(Hhat) - rho(Smax)| = {worst:.2e} "
                             f"over 200 specs")


def test_criterion_4_pd_without_contraction():
    spec = bundled.spec("pd_not_contractive")
    space = enumerate_states(spec)
    op = build_operator(spec, space)
    rho = spectral_radius(op.smax)
    sym = 0.5 * (op.blocks + op.blocks.transpose(0, 2, 1))
    sym[:, np.arange(3), np.arange(3)] += 1.0
    per_block_min = np.linalg.eigvalsh(sym)[:, 0]
    ok = rho > 1.0 and np.all(per_block_min > 0.0)
    report(4, ok, f"rho = {rho:.4f} > 1 and min sym eig per block >= "
                  f"{per_block_min.min():.4f} > 0")


def test_criterion_5_example1_ne_fixed_point():
    t0 = time.perf_counter()
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    iwf = iterate_waterfilling(spec, space, IwfConfig(tol=1e-7, max_iter=500))
    residual = wf_residual(spec, space, iwf.profile)
    problem = make_vi_problem(spec, space)
    vi = solve_regularized(problem, ViConfig(outer_tol=1e-8))
    distance = float(np.abs(iwf.profile - vi.solution).max())
    elapsed = time.perf_counter() - t0
    ok = (iwf.converged and iwf.iterations <= 500 and residual < 1e-6
          and vi.converged and distance < 1e-4 and elapsed < 30.0)
    report(5, ok, f"IWF residual {residual:.2e} in {iwf.iterations} iters, "
                  f"|IWF - VI| = {distance:.2e} ({elapsed:.1f} s)")


def test_criterion_6_example2_regularized_vi():
    t0 = time.perf_counter()
    spec = bundled.spec("example2")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    rng = np.random.default_rng(6)
    solutions = []
    residuals = []
    for start in range(5):
        init = random_feasible_profile(rng, spec, space, tight=True)
        rep = solve_regularized(problem, ViConfig(outer_tol=1e-8), init=init)
        assert rep.converged
        solutions.append(rep.solution)
        residuals.append(natural_residual(problem, rep.solution))
    wf_gap = max(wf_residual(spec, space, s) for s in solutions)
    spread = max(np.abs(a - b).max() for a in solutions for b in solutions)
    elapsed = time.perf_counter() - t0
    ok = (max(residuals) < 1e-6 and wf_gap < 1e-4 and spread < 1e-5
          and elapsed < 60.0)
    report(6, ok, f"residual {max(residuals):.2e}, WF gap {wf_gap:.2e}, "
                  f"5-init spread {spread:.2e} ({elapsed:.1f} s)")


def test_criterion_7_waterfilling_against_bisection():
    from test_waterfilling import bisect_waterfill, fill
    rng = np.random.default_rng(777)
    worst_gap = worst_budget = worst_slack = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 50))
        floors = rng.uniform(0.02, 6.0, size=n)
        probs = rng.uniform(0.01, 1.0, size=n)
        probs /= probs.sum()
        pbar = rng.uniform(0.05, 6.0)
        level, powers = fill(floors, probs, pbar)
        oracle = bisect_waterfill(floors, probs, pbar)
        worst_gap = max(worst_gap, float(np.abs(powers - oracle).max()))
        worst_budget = max(worst_budget, abs(probs @ powers - pbar))
        on = powers > 0
        if on.any():
            worst_slack = max(worst_slack, float(
                np.abs(powers[on] + floors[on] - level).max()))
        if (~on).any():
            worst_slack = max(worst_slack,
                              max(0.0, float((level - floors[~on]).max())))
    ok = worst_gap < 1e-9 and worst_budget < 1e-9 and worst_slack < 1e-9
    report(7, ok, f"500 instances: |wf - bisection| <= {worst_gap:.2e}, "
                  f"budget gap <= {worst_budget:.2e}, slackness <= {worst_slack:.2e}")


def test_criterion_8_projection_correctness():
    rng = np.random.default_rng(888)
    worst = 0.0
    idempotent = True
    for _ in range(200):
        n = int(rng.integers(1, 40))
        probs = rng.uniform(0.01, 1.0, size=n)
        probs /= probs.sum()
        pbar = rng.uniform(0.1, 4.0)
        x = rng.uniform(-2.0, 4.0, size=n)
        p = project_block(x, probs, pbar)
        idempotent &= np.array_equal(project_block(p, probs, pbar), p)
        y = rng.uniform(0.0, 3.0, size=(100, n))
        spend = y @ probs
        over = spend > pbar
        y[over] *= (pbar / spend[over])[:, None]
        worst = min(worst, float(((y - p) @ (p - x)).min()))
    ok = worst >= -1e-9 and idempotent
    report(8, ok, f"200 instances x 100 points: min (y-p)'(p-x) = {worst:.2e}, "
                  f"idempotent = {idempotent}")


def test_criterion_9_gradient_finite_differences():
    rng = np.random.default_rng(999)
    worst = 0.0
    for spec in (bundled.spec("example1"), bundled.spec("example2")):
        space = enumerate_states(spec)
        n, n1 = spec.n_players, space.n_states
        basis = np.eye(n * n1).reshape(n * n1, n, n1)
        for _ in range(50):
            P = random_feasible_profile(rng, spec, space)
            lam = rng.uniform(0.0, 1.0, size=n)
            c = 10.0
            analytic = _grad_all(spec, space, P, lam, c)
            step = 1e-5
            up = _lagrangian(spec, space, P[None] + step * basis, lam, c)
            down = _lagrangian(spec, space, P[None] - step * basis, lam, c)
            fd = ((up - down) / (2 * step)).reshape(n, n1)
            rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
            worst = max(worst, float(rel))
    report(9, worst < 1e-5, f"50 points x both examples: max rel error "
                            f"{worst:.2e}")


def test_criterion_10_pareto_dominates_ne_on_sweep():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("example1", "example2"):
        config = dataclasses.replace(bundled.config(name), sweep=SweepConfig())
        result = run_sweep(config)
        assert len(result.sweep_rows) == 8
        for row in result.sweep_rows:
            assert np.isfinite(row["pareto"]) and np.isfinite(row["ne_vi"])
            ok &= row["pareto"] >= row["ne_vi"]
            if np.isfinite(row["ne_iwf"]):
                ok &= row["pareto"] >= row["ne_iwf"]
        margins = [row["pareto"] - row["ne_vi"] for row in result.sweep_rows]
        details.append(f"min margin {min(margins):+.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    report(10, ok, f"both examples x 8 budgets: {', '.join(details)} "
                   f"({elapsed:.0f} s)")


def test_criterion_11_montecarlo_validates_stationary_averages():
    t0 = time.perf_counter()
    config = dataclasses.replace(bundled.config("example1"),
                                 simulate=SimulateConfig(slots=1_000_000, seed=7))
    _, outcome = ne_outcome_for_simulation(config)
    assert outcome.name == "iwf"
    summary = run_simulate(config, outcome.profile)
    spec, _ = build_game(config)
    elapsed = time.perf_counter() - t0
    ok = (np.all(summary.rate_rel_gap < 0.01)
          and np.all(summary.power_rel_gap < 0.01)
          and np.all(summary.empirical_power <= spec.pbar * 1.01)
          and elapsed < 60.0)
    report(11, ok, f"1e6 slots: max rate gap {summary.rate_rel_gap.max():.4%}, "
                   f"max power gap {summary.power_rel_gap.max():.4%} "
                   f"({elapsed:.1f} s)")


def test_criterion_12_outputs_byte_identical(tmp_path):
    doc = bundled.doc("example1")
    doc["solver"]["pareto"] = {"starts": 3, "seed": 123}
    doc["simulate"] = {"slots": 20_000, "seed": 321}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for out in runs:
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(path),
                     "--out", str(out / "mc")]) == 0
        assert main(["analyze", "--config", str(path),
                     "--out", str(out / "an")]) == 0
    files = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file())
    identical = bool(files)
    for rel in files:
        identical &= (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes()
    report(12, identical, f"{len(files)} output files byte-identical across "
                          f"two runs (csv + json)")
