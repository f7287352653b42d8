"""Augmented-Lagrangian ascent for local Pareto-optimal allocations."""

import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest

from ifgame import (AlConfig, GameSpec, average_powers, enumerate_states,
                    expected_rates, is_feasible, load_config, multi_start,
                    random_start, steepest_ascent)
from ifgame.game import _floors
from ifgame.pareto import (_ascent_batch, _cap_budgets, _default_delta, _grad_all,
                           _gradient, _lagrangian, _projected_grad_norms, _slack,
                           _solve_outer_batch)
import bundled
from test_experiments import HUGE_OWN_POWER_AL
from util_random import random_feasible_profile, random_spec


def small_game(pbar=1.0):
    spec = GameSpec(2, [2.0, 1.0], [0.3], pbar=pbar)
    return spec, enumerate_states(spec)


def fd_gradient(spec, space, P, lam, c, step=1e-5):
    """Central finite differences of the augmented Lagrangian, batched."""
    n, n1 = P.shape
    basis = np.eye(n * n1).reshape(n * n1, n, n1)
    up = _lagrangian(spec, space, P[None] + step * basis, lam, c)
    down = _lagrangian(spec, space, P[None] - step * basis, lam, c)
    return ((up - down) / (2.0 * step)).reshape(n, n1)


def solve_one(spec, space, init, cfg, lambdas=None):
    """One start of the multiplier loop, its over-budget rows scaled back
    as multi_start scales them: (powers, multipliers, outer iterations,
    converged)."""
    P = np.array(init, dtype=float)[None]
    lam = np.zeros((1, spec.n_players)) if lambdas is None else np.array([lambdas])
    P, lam, iters, _, conv, _ = _solve_outer_batch(spec, space, P, lam, cfg)
    return _cap_budgets(space, P[0], spec.pbar), lam[0], int(iters[0]), bool(conv[0])


def test_lagrangian_budget_tight_equals_weighted_rates():
    spec, space = small_game()
    P = np.full((2, space.n_states), 1.0)  # E[P_i] = pbar_i exactly
    lam = np.array([0.4, 0.9])
    value = _lagrangian(spec, space, P, lam, 10.0)
    assert value == pytest.approx(float(spec.weights @
                                        expected_rates(space, P)), abs=1e-12)


def test_lagrangian_zero_profile_is_pure_penalty():
    spec, space = small_game(pbar=2.0)
    value = _lagrangian(spec, space, np.zeros((2, space.n_states)),
                        np.zeros(2), 7.0)
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
    spec = GameSpec(1, [1.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    g = _grad_all(spec, space, np.zeros((1, 1)), np.zeros(1), 0.0)[0]
    assert g == pytest.approx([1.0])


def test_cross_terms_never_positive():
    # raising P_i can only lower every other player's rate contribution
    rng = np.random.default_rng(23)
    spec, space = small_game()
    P = random_feasible_profile(rng, spec, space)
    solo = GameSpec(2, [2.0, 1.0], [0.3], pbar=1.0, weights=[1.0, 1e-12])
    g_full = _grad_all(spec, space, P, np.zeros(2), 0.0)[0]
    g_own = _grad_all(solo, space, P, np.zeros(2), 0.0)[0]
    assert np.all(g_full <= g_own + 1e-12)


def test_steepest_ascent_fixed_point_is_unchanged():
    # single player, one state: P = pbar with the matching multiplier is
    # stationary: grad = pi (w g / (1 + g P) - lam) = 0
    spec = GameSpec(1, [2.0], [1.0], pbar=1.5)
    space = enumerate_states(spec)
    lam_star = 2.0 / (1.0 + 2.0 * 1.5)
    P = np.array([[1.5]])
    out = steepest_ascent(spec, space, P, [lam_star], AlConfig())
    assert np.array_equal(out, P)


def test_steepest_ascent_never_decreases_lagrangian():
    rng = np.random.default_rng(24)
    spec, space = small_game()
    P = random_feasible_profile(rng, spec, space)
    lam = np.array([0.2, 0.2])
    cfg = AlConfig(max_inner=1)  # one accepted update per call
    values = [_lagrangian(spec, space, P, lam, cfg.c)]
    prof = P
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-step cap warning is the point
        for _ in range(60):
            prof = steepest_ascent(spec, space, prof, lam, cfg)
            values.append(_lagrangian(spec, space, prof, lam, cfg.c))
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def test_single_player_unconstrained_ascent_drives_gradient_down():
    spec = GameSpec(1, [1.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    cfg = AlConfig(c=1e-12, eps_grad=0.05, delta=0.5, max_inner=3000)
    out = steepest_ascent(spec, space, np.zeros((1, 1)), [0.0], cfg)
    g = _grad_all(spec, space, out, np.zeros(1), 1e-12)[0]
    assert np.linalg.norm(g) < 0.05
    assert out[0, 0] > 10.0  # heading toward the unconstrained maximum


def test_solve_outer_trivial_start_converges_immediately():
    spec = GameSpec(1, [2.0], [1.0], pbar=1.5)
    space = enumerate_states(spec)
    lam_star = 2.0 / (1.0 + 2.0 * 1.5)
    P, lam, iters, converged = solve_one(spec, space, [[1.5]], AlConfig(),
                                         lambdas=[lam_star])
    assert converged and iters == 1
    assert np.array_equal(P, [[1.5]])
    assert lam == pytest.approx([lam_star])


def test_solve_outer_reaches_feasibility_on_small_game():
    rng = np.random.default_rng(25)
    spec, space = small_game()
    init = random_start(spec, space, rng)
    P, lam, iters, converged = solve_one(spec, space, init, AlConfig())
    assert converged
    avg = average_powers(space, P)
    assert np.all(avg <= spec.pbar + 1e-9)
    assert np.all(np.abs(spec.pbar - avg) < 1e-4 + 1e-9)
    assert np.all(lam >= 0.0)


def test_multi_start_k1_reduces_to_solve_outer():
    spec, space = small_game()
    cfg = AlConfig(starts=1, seed=5)
    rep = multi_start(spec, space, cfg)
    init = random_start(spec, space, np.random.default_rng([5, 0]))
    P, lam, iters, converged = solve_one(spec, space, init, cfg)
    assert np.array_equal(rep.best, P)
    assert rep.per_start[0].outer_iterations == iters
    assert rep.converged == converged


def test_multi_start_deterministic_and_monotone_in_k():
    spec, space = small_game()
    rep_a = multi_start(spec, space, AlConfig(starts=3, seed=9))
    rep_b = multi_start(spec, space, AlConfig(starts=3, seed=9))
    assert rep_a.best.tobytes() == rep_b.best.tobytes()
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
    P = rep.best
    grads = _grad_all(spec, space, P, np.zeros(spec.n_players), 0.0)
    for i, g in enumerate(grads):
        active = P[i] > 1e-12
        probs_active = space.probs[active]
        theta = max(0.0, float(g[active] @ probs_active
                               / (probs_active @ probs_active)))
        residual = g - theta * space.probs
        residual[~active] = np.maximum(residual[~active], 0.0)
        assert np.linalg.norm(residual) < 10.0 * cfg.eps_grad


def test_reported_convergence_holds_for_random_games():
    """Whenever a start of the multiplier loop reports ``converged``, its
    profile, before the budget cap, has every slack below eps_feas and
    every projected gradient norm below eps_grad at the final
    multipliers; after the cap it is feasible."""
    rng = np.random.default_rng(41)
    # looser tolerances and a lower cap than the defaults keep this a few
    # seconds: a start that does not converge runs max_outer * max_inner steps
    cfg = AlConfig(eps_grad=1e-3, eps_feas=1e-3, max_outer=40)
    converged = 0
    for n in (2, 3, 2, 3, 2):  # 4 to 9 states
        spec = random_spec(rng, n_max=n, state_limit=20, min_players=n, min_states=4)
        space = enumerate_states(spec)
        starts = np.stack([random_start(spec, space, rng) for _ in range(6)])
        P, lam, _, _, conv, _ = _solve_outer_batch(
            spec, space, starts, np.zeros((6, spec.n_players)), cfg)
        slack = np.abs(_slack(space, P, spec.pbar))
        grad_norms = _projected_grad_norms(P, _grad_all(spec, space, P, lam, cfg.c))
        assert np.all(slack[conv] < cfg.eps_feas)
        assert np.all(grad_norms[conv] < cfg.eps_grad)
        assert is_feasible(space, _cap_budgets(space, P[conv], spec.pbar),
                           spec.pbar).all()
        converged += int(conv.sum())
    assert converged >= 15


def test_alconfig_validation():
    with pytest.raises(ValueError):
        AlConfig(c=0.0)
    with pytest.raises(ValueError):
        AlConfig(delta=-1.0)
    with pytest.raises(ValueError):
        AlConfig(starts=0)


@pytest.mark.parametrize("name", ["c", "alpha_mult", "eps_grad", "eps_feas", "delta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_alconfig_rejects_nonpositive_and_non_finite_settings(name, value):
    # a NaN eps_grad fails every ``proj >= eps_grad`` test, so the ascent
    # never moved and the start reported converged, as with c = inf; a NaN
    # or infinite delta wrote a NaN best sum rate
    with pytest.raises(ValueError, match=name):
        AlConfig(**{name: value})


@pytest.mark.parametrize("name", ["max_outer", "max_inner"])
def test_alconfig_rejects_zero_caps(name):
    with pytest.raises(ValueError, match=name):
        AlConfig(**{name: 0})
    AlConfig(**{name: 1})


def test_alconfig_rejects_negative_seed():
    # numpy refused the seed only when multi_start drew the first start
    with pytest.raises(ValueError, match="seed"):
        AlConfig(seed=-1)


def test_default_delta_scales_with_state_probability():
    spec1 = GameSpec(1, [1.0], [1.0], pbar=1.0)
    space1 = enumerate_states(spec1)
    assert _default_delta(space1, AlConfig()) == pytest.approx(0.05)
    spec2 = bundled.spec("example1")
    space2 = enumerate_states(spec2)
    assert _default_delta(space2, AlConfig()) == pytest.approx(0.05 * 512)
    assert _default_delta(space2, AlConfig(delta=0.2)) == 0.2


# --- state-major einsum ascent, kept only as a reference -------------------

def reference_floors(space, P):
    """Floors of shape (..., N1, N) from an einsum contraction."""
    return np.einsum('kij,...jk->...ki', space.blocks, P) + space.hhat


def reference_gradient(spec, space, floors, P, slack, lam, c):
    Pt = np.swapaxes(P, -1, -2)
    own = spec.weights / (floors + Pt)
    moved = own * Pt / floors
    cross = np.einsum('kji,...kj->...ki', space.blocks, moved)
    per_state = own - cross + (2.0 * c * slack - lam)[..., None, :]
    return np.einsum('k,...ki->...ik', space.probs, per_state)


def reference_ascent_batch(spec, space, P, lam, cfg, delta, active=None,
                           carry=True):
    """Steepest ascent on (B, N1, N) tables with a per-member argmax loop.

    With ``carry`` the floors and slacks are formed once and then taken
    from the chosen candidate, as ``_ascent_batch`` takes them; without
    it they are formed afresh at every step.
    """
    batch, n, _ = P.shape
    if active is None:
        active = np.ones(batch, dtype=bool)
    active = active.copy()
    iterations = np.zeros(batch, dtype=int)
    probs = space.probs
    base_value = _lagrangian(spec, space, P, lam, cfg.c)
    floors = reference_floors(space, P)
    slack = spec.pbar - P @ probs
    for step in range(cfg.max_inner):
        if not active.any():
            break
        if step and not carry:
            floors = reference_floors(space, P)
            slack = spec.pbar - P @ probs
        grads = reference_gradient(spec, space, floors, P, slack, lam, cfg.c)
        pg = np.where(P > 0, grads, np.maximum(grads, 0.0))
        eligible = (np.sqrt((pg ** 2).sum(axis=-1)) >= cfg.eps_grad) & active[:, None]
        active &= eligible.any(axis=1)
        if not active.any():
            break
        iterations += active
        q = np.maximum(0.0, P + delta * grads)
        sel_b, sel_i = eligible.nonzero()
        mrows = np.arange(sel_b.size)
        dp = (q - P)[sel_b, sel_i]
        denom = floors[sel_b] + space.blocks[:, :, sel_i].transpose(2, 0, 1) \
            * dp[:, :, None]
        denom[mrows, :, sel_i] = floors[sel_b, :, sel_i]
        cand_powers = np.swapaxes(P, -1, -2)[sel_b]
        cand_powers[mrows, :, sel_i] = q[sel_b, sel_i]
        cand_slack = slack[sel_b]
        cand_slack[mrows, sel_i] -= dp @ probs
        values = (np.einsum('k,mki,i->m', probs, np.log1p(cand_powers / denom),
                            spec.weights)
                  + np.einsum('mi,mi->m', lam[sel_b], cand_slack)
                  - cfg.c * (cand_slack ** 2).sum(axis=-1))
        gain = values - base_value[sel_b]
        for b in active.nonzero()[0]:
            group = mrows[sel_b == b]
            pick = group[np.argmax(gain[group])]
            P[b, sel_i[pick], :] = q[b, sel_i[pick], :]
            base_value[b] = values[pick]
            floors[b] = denom[pick]
            slack[b] = cand_slack[pick]
    return P, iterations, active


def fresh_floor_ascent_batch(*args, **kwargs):
    """The reference ascent forming its floors and slacks at every step."""
    return reference_ascent_batch(*args, carry=False, **kwargs)


def assert_ascent_matches_reference(spec, space, starts, lam, cfg, active):
    delta = _default_delta(space, cfg)
    new = _ascent_batch(spec, space, starts.copy(), lam, cfg, delta, active.copy())
    ref = reference_ascent_batch(spec, space, starts.copy(), lam, cfg, delta,
                                 active.copy())
    for got, want in zip(new, ref):
        assert np.array_equal(got, want)
    return new


def test_ascent_matches_state_major_reference_on_bundled_games():
    # bit for bit: same iterates, iteration counts and cap flags, from a
    # partially active batch with nonzero multipliers
    rng = np.random.default_rng(31)
    for name in bundled.NAMES:
        spec = bundled.spec(name)
        space = enumerate_states(spec)
        starts = np.stack([random_start(spec, space, rng) for _ in range(4)])
        lam = rng.uniform(0.0, 1.0, size=(4, spec.n_players))
        active = np.array([True, False, True, True])
        P, iters, capped = assert_ascent_matches_reference(
            spec, space, starts, lam, AlConfig(max_inner=40), active)
        assert iters[1] == 0 and np.array_equal(P[1], starts[1])
        assert capped.any() and not capped[1]
        P, iters, capped = assert_ascent_matches_reference(
            spec, space, starts, lam, AlConfig(), active)
        assert iters.max() > 40  # the default cap let the ascent run on


def test_ascent_matches_state_major_reference_on_random_games():
    rng = np.random.default_rng(32)
    for n in (1, 2, 4):
        checked = 0
        while checked < 3:
            spec = random_spec(rng, n_max=n, state_limit=300)
            if spec.n_players != n or spec.direct_alphabet.size < 2:
                continue
            direct = spec.direct_probs.copy()
            direct[0, 0] = 0.0  # player 1's first direct gain never occurs
            direct /= direct.sum(axis=1, keepdims=True)
            spec = dataclasses.replace(spec, direct_probs=direct,
                                       alpha=rng.uniform(0.5, 2.0, size=n),
                                       weights=rng.uniform(0.5, 2.0, size=n))
            space = enumerate_states(spec)
            starts = np.stack([random_start(spec, space, rng) for _ in range(3)])
            lam = rng.uniform(0.0, 1.0, size=(3, n))
            assert_ascent_matches_reference(spec, space, starts, lam,
                                            AlConfig(max_inner=60),
                                            np.array([True, True, False]))
            checked += 1


def test_single_player_ascent_matches_state_major_reference():
    # one player: every candidate changes only its own row, so the tables
    # of the other receivers' rates are empty; at the default cap
    rng = np.random.default_rng(33)
    spec = GameSpec(1, [0.4, 1.0, 2.5], [1.0], pbar=1.5,
                    direct_probs=[[0.2, 0.5, 0.3]])
    space = enumerate_states(spec)
    starts = np.stack([random_start(spec, space, rng) for _ in range(3)])
    lam = rng.uniform(0.0, 1.0, size=(3, 1))
    P, iters, capped = assert_ascent_matches_reference(
        spec, space, starts, lam, AlConfig(), np.array([True, True, False]))
    assert iters[:2].min() > 60 and iters[2] == 0  # past the random games' cap


@functools.cache
def multi_start_of(name, cfg):
    """(spec, space, multi_start report) of a bundled game, or of
    "nonuniform": a seeded random 3-player game with unequal state
    probabilities; made once for the pins and the drift test."""
    if name == "nonuniform":
        spec = random_spec(np.random.default_rng(34), n_max=3, state_limit=300,
                           min_players=3, min_states=20)
    else:
        spec = bundled.spec(name)
    space = enumerate_states(spec)
    return spec, space, multi_start(spec, space, cfg)


def multi_start_with(ascent, spec, space, cfg, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr("ifgame.pareto._ascent_batch", ascent)
        return multi_start(spec, space, cfg)


def assert_multi_start_matches_reference(name, cfg, monkeypatch):
    spec, space, new = multi_start_of(name, cfg)
    ref = multi_start_with(reference_ascent_batch, spec, space, cfg, monkeypatch)
    assert new.best_sum_rate == ref.best_sum_rate
    for got, want in zip(new.per_start, ref.per_start):
        assert got.sum_rate == want.sum_rate
        assert got.outer_iterations == want.outer_iterations
        assert np.array_equal(got.multipliers, want.multipliers)
        assert np.array_equal(got.profile, want.profile)
    return space


EXAMPLE1_SEEDS = [dataclasses.replace(bundled.config("example1").solver.pareto, seed=seed)
                  for seed in (0, 1)]


def test_multi_start_matches_state_major_reference(monkeypatch):
    for cfg in EXAMPLE1_SEEDS:
        assert_multi_start_matches_reference("example1", cfg, monkeypatch)


def test_multi_start_matches_state_major_reference_on_nonuniform_game(monkeypatch):
    # unequal state probabilities weight every reduction over the states
    # unequally, where the bundled games' uniform ones would hide a
    # reordered sum
    space = assert_multi_start_matches_reference(
        "nonuniform", AlConfig(starts=2, max_outer=8), monkeypatch)
    assert np.unique(space.probs).size > 1


def test_ascent_tie_moves_the_lowest_player():
    # one state, mirror-image players: both candidates gain exactly as much
    spec = GameSpec(2, [2.0], [0.3], pbar=1.0)
    space = enumerate_states(spec)
    start = np.full((1, 2, 1), 0.5)
    P, iters, capped = assert_ascent_matches_reference(
        spec, space, start, np.zeros((1, 2)), AlConfig(max_inner=1),
        np.array([True]))
    assert iters[0] == 1 and capped[0]
    assert P[0, 0, 0] != 0.5 and P[0, 1, 0] == 0.5


def test_carried_floors_and_slacks_stay_accurate(monkeypatch):
    # the ascent carries its floors and slacks from the chosen candidate;
    # at every step they must stay close to fresh ones of the same iterate
    rng = np.random.default_rng(35)
    huge = load_config(json.dumps(HUGE_OWN_POWER_AL)).game.spec
    # on the game of budgets 17 orders apart a move can remove most of a
    # dominant interferer, and the carried floor loses digits
    games = [(bundled.spec("example1"), 1e-13), (bundled.spec("example2"), 1e-13),
             (huge, 1e-10)]
    for spec, tol in games:
        space = enumerate_states(spec)
        steps = []

        def spy(spec, space, floors, P, slack, lam, c, scratch=None):
            fresh = _floors(space, P)
            assert np.isfinite(floors).all() and (floors > 0).all()
            assert np.all(np.abs(floors - fresh) <= tol * fresh)
            budget = np.maximum(spec.pbar, P @ space.probs)
            assert np.all(np.abs(slack - _slack(space, P, spec.pbar)) <= tol * budget)
            steps.append(P.shape[0])
            return _gradient(spec, space, floors, P, slack, lam, c, scratch)

        starts = np.stack([random_start(spec, space, rng) for _ in range(3)])
        lam = rng.uniform(0.0, 1.0, size=(3, spec.n_players))
        with monkeypatch.context() as patch:
            patch.setattr("ifgame.pareto._gradient", spy)
            _, iters, _ = _ascent_batch(spec, space, starts, lam, AlConfig(),
                                        _default_delta(space, AlConfig()))
        # every start ran all 300 steps, and each step was checked
        assert np.all(iters == AlConfig().max_inner)
        assert steps == [3] * AlConfig().max_inner


def test_multi_start_drifts_little_from_fresh_floors(monkeypatch):
    # carried floors and slacks change only last bits: every start keeps
    # its outer rounds and flags against the ascent forming them afresh
    cases = [("example1", cfg) for cfg in EXAMPLE1_SEEDS]
    cases += [("example2", AlConfig(starts=3, max_outer=10)),
              ("nonuniform", AlConfig(starts=2, max_outer=8))]
    for name, cfg in cases:
        spec, space, new = multi_start_of(name, cfg)
        ref = multi_start_with(fresh_floor_ascent_batch, spec, space, cfg, monkeypatch)
        assert new.converged == ref.converged
        for got, want in zip(new.per_start, ref.per_start):
            assert got.outer_iterations == want.outer_iterations
            assert got.converged == want.converged
            assert got.sum_rate == pytest.approx(want.sum_rate, rel=1e-12)
            assert np.abs(got.profile - want.profile).max() <= 1e-12 * spec.pbar.max()
