"""Augmented-Lagrangian ascent for local Pareto-optimal allocations."""

import warnings

import numpy as np
import pytest

from ifgame import (AlConfig, GameSpec, augmented_lagrangian, average_powers,
                    enumerate_states, expected_rates, grad_player, multi_start,
                    random_start, solve_outer, steepest_ascent, sum_rate)
from ifgame.pareto import _default_delta, _grad_all, _lagrangian
import bundled
from util_random import random_feasible_profile, random_spec


def small_game(pbar=1.0):
    spec = GameSpec.symmetric(2, [2.0, 1.0], [0.3], pbar=pbar)
    return spec, enumerate_states(spec)


def fd_gradient(spec, space, P, lam, c, step=1e-5):
    """Central finite differences of the augmented Lagrangian, batched."""
    n, n1 = P.shape
    basis = np.eye(n * n1).reshape(n * n1, n, n1)
    up = _lagrangian(spec, space, P[None] + step * basis, lam, c)
    down = _lagrangian(spec, space, P[None] - step * basis, lam, c)
    return ((up - down) / (2.0 * step)).reshape(n, n1)


def test_lagrangian_budget_tight_equals_weighted_rates():
    spec, space = small_game()
    P = np.full((2, space.n_states), 1.0)  # E[P_i] = pbar_i exactly
    lam = np.array([0.4, 0.9])
    value = augmented_lagrangian(spec, space, P, lam, c=10.0)
    assert value == pytest.approx(float(spec.weights @
                                        expected_rates(spec, space, P)), abs=1e-12)


def test_lagrangian_zero_profile_is_pure_penalty():
    spec, space = small_game(pbar=2.0)
    value = augmented_lagrangian(spec, space, np.zeros((2, space.n_states)),
                                 np.zeros(2), c=7.0)
    assert value == pytest.approx(-7.0 * (2.0 ** 2) * 2, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    spec, space = small_game()
    for _ in range(25):
        P = random_feasible_profile(rng, spec, space)
        lam = rng.uniform(0.0, 1.5, size=2)
        c = rng.uniform(0.5, 20.0)
        analytic = _grad_all(spec, space, P, lam, c)
        fd = fd_gradient(spec, space, P, lam, c)
        assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) < 1e-5


def test_gradient_matches_fd_on_random_games():
    rng = np.random.default_rng(22)
    for _ in range(8):
        spec = random_spec(rng, state_limit=200)
        space = enumerate_states(spec)
        P = random_feasible_profile(rng, spec, space)
        lam = rng.uniform(0.0, 1.0, size=spec.n_players)
        analytic = _grad_all(spec, space, P, lam, 10.0)
        fd = fd_gradient(spec, space, P, lam, 10.0)
        assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) < 1e-5


def test_grad_player_single_user_at_zero():
    spec = GameSpec.symmetric(1, [1.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    g = grad_player(spec, space, np.zeros((1, 1)), [0.0], 0.0, 0)
    assert g == pytest.approx([1.0])


def test_cross_terms_never_positive():
    # raising P_i can only lower every other player's rate contribution
    rng = np.random.default_rng(23)
    spec, space = small_game()
    P = random_feasible_profile(rng, spec, space)
    solo = GameSpec.symmetric(2, [2.0, 1.0], [0.3], pbar=1.0,
                              weights=[1.0, 1e-12])
    g_full = grad_player(spec, space, P, [0.0, 0.0], 0.0, 0)
    g_own = grad_player(solo, space, P, [0.0, 0.0], 0.0, 0)
    assert np.all(g_full <= g_own + 1e-12)


def test_steepest_ascent_fixed_point_is_unchanged():
    # single player, one state: P = pbar with the matching multiplier is
    # stationary: grad = pi (w g / (1 + g P) - lam) = 0
    spec = GameSpec.symmetric(1, [2.0], [1.0], pbar=1.5)
    space = enumerate_states(spec)
    lam_star = 2.0 / (1.0 + 2.0 * 1.5)
    P = np.array([[1.5]])
    out = steepest_ascent(spec, space, P, [lam_star], AlConfig())
    assert np.array_equal(out.powers, P)


def test_steepest_ascent_never_decreases_lagrangian():
    rng = np.random.default_rng(24)
    spec, space = small_game()
    P = random_feasible_profile(rng, spec, space)
    lam = np.array([0.2, 0.2])
    cfg = AlConfig(max_inner=1)  # one accepted update per call
    values = [augmented_lagrangian(spec, space, P, lam, cfg.c)]
    prof = P
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-step cap warning is the point
        for _ in range(60):
            prof = steepest_ascent(spec, space, prof, lam, cfg).powers
            values.append(augmented_lagrangian(spec, space, prof, lam, cfg.c))
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def test_single_player_unconstrained_ascent_drives_gradient_down():
    spec = GameSpec.symmetric(1, [1.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    cfg = AlConfig(c=1e-12, eps_grad=0.05, delta=0.5, max_inner=3000)
    out = steepest_ascent(spec, space, np.zeros((1, 1)), [0.0], cfg)
    g = grad_player(spec, space, out.powers, [0.0], 1e-12, 0)
    assert np.linalg.norm(g) < 0.05
    assert out.powers[0, 0] > 10.0  # heading toward the unconstrained maximum


def test_solve_outer_trivial_start_converges_immediately():
    spec = GameSpec.symmetric(1, [2.0], [1.0], pbar=1.5)
    space = enumerate_states(spec)
    lam_star = 2.0 / (1.0 + 2.0 * 1.5)
    prof, lam, iters, converged = solve_outer(spec, space, np.array([[1.5]]),
                                              AlConfig(), lambdas=[lam_star])
    assert converged and iters == 1
    assert np.array_equal(prof.powers, [[1.5]])
    assert lam == pytest.approx([lam_star])


def test_solve_outer_reaches_feasibility_on_small_game():
    rng = np.random.default_rng(25)
    spec, space = small_game()
    init = random_start(spec, space, rng)
    prof, lam, iters, converged = solve_outer(spec, space, init, AlConfig())
    assert converged
    avg = average_powers(space, prof)
    assert np.all(avg <= spec.pbar + 1e-9)
    assert np.all(np.abs(spec.pbar - avg) < 1e-4 + 1e-9)
    assert np.all(lam >= 0.0)


def test_multi_start_k1_reduces_to_solve_outer():
    spec, space = small_game()
    cfg = AlConfig(starts=1, seed=5)
    rep = multi_start(spec, space, cfg)
    init = random_start(spec, space, np.random.default_rng([5, 0]))
    prof, lam, iters, converged = solve_outer(spec, space, init, cfg)
    assert np.array_equal(rep.best.powers, prof.powers)
    assert rep.per_start[0].outer_iterations == iters
    assert rep.converged == converged


def test_multi_start_deterministic_and_monotone_in_k():
    spec, space = small_game()
    rep_a = multi_start(spec, space, AlConfig(starts=3, seed=9))
    rep_b = multi_start(spec, space, AlConfig(starts=3, seed=9))
    assert rep_a.best.powers.tobytes() == rep_b.best.powers.tobytes()
    assert rep_a.best_sum_rate == rep_b.best_sum_rate
    best_by_k = [multi_start(spec, space, AlConfig(starts=k, seed=9)).best_sum_rate
                 for k in (1, 2, 3)]
    assert best_by_k[0] <= best_by_k[1] + 1e-12
    assert best_by_k[1] <= best_by_k[2] + 1e-12


def test_multi_start_best_dominates_each_start():
    spec, space = small_game()
    rep = multi_start(spec, space, AlConfig(starts=4, seed=2))
    assert rep.converged
    for start in rep.per_start:
        if start.converged:
            assert rep.best_sum_rate >= start.sum_rate
        assert np.all(average_powers(space, start.profile) <= spec.pbar + 1e-9)


def test_local_pareto_stationarity_certificate():
    # at the reported best, the weighted-rate gradient satisfies the KKT
    # system of {P >= 0, E[P_i] <= pbar_i} up to 10 * eps_grad per player
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    cfg = AlConfig(seed=3)
    rep = multi_start(spec, space, cfg)
    assert rep.converged
    P = rep.best.powers
    for i in range(spec.n_players):
        g = grad_player(spec, space, P, np.zeros(spec.n_players), 0.0, i)
        active = P[i] > 1e-12
        probs_active = space.probs[active]
        theta = max(0.0, float(g[active] @ probs_active
                               / (probs_active @ probs_active)))
        residual = g - theta * space.probs
        residual[~active] = np.maximum(residual[~active], 0.0)
        assert np.linalg.norm(residual) < 10.0 * cfg.eps_grad


def test_alconfig_validation():
    with pytest.raises(ValueError):
        AlConfig(c=0.0)
    with pytest.raises(ValueError):
        AlConfig(delta=-1.0)
    with pytest.raises(ValueError):
        AlConfig(starts=0)


def test_default_delta_scales_with_state_probability():
    spec1 = GameSpec.symmetric(1, [1.0], [1.0], pbar=1.0)
    space1 = enumerate_states(spec1)
    assert _default_delta(space1, AlConfig()) == pytest.approx(0.05)
    spec2 = bundled.spec("example1")
    space2 = enumerate_states(spec2)
    assert _default_delta(space2, AlConfig()) == pytest.approx(0.05 * 512)
    assert _default_delta(space2, AlConfig(delta=0.2)) == 0.2
