"""Water-filling best response and iterative water-filling."""

import numpy as np
import pytest

from ifgame import (GameSpec, IwfConfig, enumerate_states, interference_floors,
                    iterate_waterfilling, waterfill, waterfill_levels,
                    waterfill_map, wf_residual)
from ifgame.spectral import contraction_condition
from ifgame.waterfilling import _breakpoint_levels
import bundled
from util_random import random_feasible_profile, random_spec


def bisect_waterfill(floors, probs, pbar, tol=1e-13):
    """Independent oracle: bisection on the water level."""
    floors = np.asarray(floors, float)
    probs = np.asarray(probs, float)
    lo = floors.min()
    hi = floors.max() + pbar / probs.sum() + 1.0

    def spent(level):
        return probs @ np.maximum(0.0, level - floors)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spent(mid) > pbar:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return np.maximum(0.0, 0.5 * (lo + hi) - floors)


def test_floor_values():
    spec = GameSpec.symmetric(2, [1.0, 2.0], [0.5], pbar=1.0)
    space = enumerate_states(spec)
    zero = np.zeros((2, space.n_states))
    f = interference_floors(spec, space, zero)[0]
    assert np.allclose(f, 1.0 / space.gains[:, 0, 0])
    # |h_ii|^2 = 2 with one interferer 0.5 * P_j = 1 gives (1+1)/2 = 1
    prof = np.array([[0.0] * space.n_states, [2.0] * space.n_states])
    f = interference_floors(spec, space, prof)[0]
    k = np.flatnonzero(space.gains[:, 0, 0] == 2.0)
    assert np.allclose(f[k], 1.0)


def test_floor_affine_increasing_in_interferer():
    spec = GameSpec.symmetric(2, [1.0], [0.5], pbar=1.0)
    space = enumerate_states(spec)
    base = np.zeros((2, 1))
    for bump in (0.5, 1.0, 2.0):
        prof = base.copy()
        prof[1, 0] = bump
        f = interference_floors(spec, space, prof)[0]
        assert f[0] == pytest.approx(1.0 + 0.5 * bump)


def test_waterfill_hand_values():
    one = waterfill([1.0], [1.0], 1.0)
    assert one.level == pytest.approx(2.0)
    assert one.powers == pytest.approx([1.0])
    assert one.active_states == 1

    half = waterfill([1.0, 3.0], [0.5, 0.5], 0.5)
    assert half.level == pytest.approx(2.0)
    assert np.allclose(half.powers, [1.0, 0.0])
    assert half.active_states == 1

    full = waterfill([1.0, 3.0], [0.5, 0.5], 2.0)
    assert full.level == pytest.approx(4.0)
    assert np.allclose(full.powers, [3.0, 1.0])
    assert full.active_states == 2


def test_waterfill_empty_input():
    with pytest.raises(ValueError):
        waterfill([], [], 1.0)


def test_waterfill_matches_bisection_oracle():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        floors = rng.uniform(0.05, 5.0, size=n)
        probs = rng.uniform(0.01, 1.0, size=n)
        probs /= probs.sum()
        pbar = rng.uniform(0.1, 5.0)
        res = waterfill(floors, probs, pbar)
        oracle = bisect_waterfill(floors, probs, pbar)
        assert np.abs(res.powers - oracle).max() < 1e-9
        # budget equality and complementary slackness
        assert probs @ res.powers == pytest.approx(pbar, abs=1e-9)
        on = res.powers > 0
        assert np.allclose(res.powers[on] + floors[on], res.level, atol=1e-12)
        assert np.all(res.level <= floors[~on] + 1e-12)
        assert np.array_equal(res.powers, np.maximum(0.0, res.level - floors))


def test_all_active_level_agrees_with_breakpoints():
    rng = np.random.default_rng(49)
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 60))
        floors = rng.uniform(0.05, 5.0, size=(n, m))
        probs = rng.uniform(0.01, 1.0, size=m)
        probs /= probs.sum()
        # a budget above what filling up to the top floor spends: all active
        need = floors.max(axis=1) - floors @ probs
        pbars = need + rng.uniform(0.0, 3.0, size=n)
        fast = waterfill_levels(floors, probs, pbars)
        assert np.all(floors.max(axis=1) <= fast)
        assert fast == pytest.approx(_breakpoint_levels(floors, probs, pbars),
                                     rel=1e-13, abs=0)


def test_mixed_stack_falls_through_to_breakpoints():
    """One row all active and one not: the whole stack takes the
    breakpoint method, bit for bit."""
    rng = np.random.default_rng(50)
    for _ in range(100):
        m = int(rng.integers(2, 60))
        floors = rng.uniform(0.05, 5.0, size=(2, m))
        probs = rng.uniform(0.01, 1.0, size=m)
        probs /= probs.sum()
        need = floors.max(axis=1) - floors @ probs
        pbars = np.array([need[0] + rng.uniform(0.0, 3.0),
                          rng.uniform(0.0, 0.9) * need[1]])
        levels = waterfill_levels(floors, probs, pbars)
        assert levels[1] < floors[1].max()
        assert np.array_equal(levels, _breakpoint_levels(floors, probs, pbars))


@pytest.mark.parametrize("floors, probs, pbar, level", [
    ([1.0, 1.0, 3.0], [0.25, 0.25, 0.5], 1.0, 3.0),   # level at the top floor
    ([2.0, 2.0, 2.0], [0.2, 0.3, 0.5], 0.5, 2.5),     # all floors tied
    ([1.0, 1.0, 3.0], [0.25, 0.25, 0.5], 0.5, 2.0),   # tie below, one inactive
    ([1.0, 9.0, 2.0], [0.5, 0.0, 0.5], 1.0, 2.5),     # zero-probability state above
    ([1.0, 0.5, 2.0], [0.5, 0.0, 0.5], 1.0, 2.5),     # zero-probability state below
])
def test_waterfill_level_edge_cases(floors, probs, pbar, level):
    res = waterfill(floors, probs, pbar)
    assert res.level == pytest.approx(level, rel=1e-15)
    assert np.asarray(probs) @ res.powers == pytest.approx(pbar, abs=1e-12)
    assert res.level == pytest.approx(
        float(_breakpoint_levels(np.asarray(floors), np.asarray(probs),
                                 np.asarray(pbar))), rel=1e-13)
    assert np.abs(res.powers - bisect_waterfill(floors, probs, pbar)).max() < 1e-9


def test_waterfill_budget_with_zero_probability_states():
    rng = np.random.default_rng(51)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        floors = rng.uniform(0.05, 5.0, size=n)
        probs = rng.uniform(0.01, 1.0, size=n)
        probs[rng.random(n) < 0.3] = 0.0
        probs[0] = max(probs[0], 0.1)
        probs /= probs.sum()
        pbar = rng.uniform(0.05, 8.0)
        res = waterfill(floors, probs, pbar)
        assert probs @ res.powers == pytest.approx(pbar, rel=1e-12, abs=0)
        on = probs > 0
        assert np.abs(res.powers[on] - bisect_waterfill(floors[on], probs[on], pbar)
                      ).max() < 1e-9


def test_waterfill_monotone_in_floors():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        floors = rng.uniform(0.1, 3.0, size=n)
        probs = np.full(n, 1.0 / n)
        pbar = rng.uniform(0.2, 3.0)
        raised = floors + rng.uniform(0.0, 1.0, size=n)
        base = waterfill(floors, probs, pbar)
        worse = waterfill(raised, probs, pbar)
        # entrywise higher floors can only raise the level
        assert worse.level >= base.level - 1e-12


def test_best_response_single_user_classic():
    spec = GameSpec.symmetric(1, [2.0, 0.5], [1.0], pbar=1.0, alpha=[2.0])
    space = enumerate_states(spec)
    powers = waterfill_map(spec, space, np.zeros((1, space.n_states)))[0]
    oracle = bisect_waterfill(1.0 / (2.0 * space.gains[:, 0, 0]),
                              space.probs, 1.0)
    assert np.abs(powers - oracle).max() < 1e-9


def test_best_response_variational_characterization():
    # at the best response, sum_h pi(h) (WF + f)(V - WF) >= 0 for every
    # budget-tight feasible V (first-order optimality of the projection)
    rng = np.random.default_rng(44)
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    prof = random_feasible_profile(rng, spec, space, tight=True)
    best = waterfill_map(spec, space, prof)
    floors = interference_floors(spec, space, prof)
    for i in range(spec.n_players):
        grad = best[i] + floors[i]
        for _ in range(100):
            v = rng.uniform(0.0, 1.0, size=space.n_states)
            v *= spec.pbar[i] / (space.probs @ v)
            weighted = space.probs @ (grad * (v - best[i]))
            assert weighted >= -1e-8
            # uniform state probabilities make the unweighted form equivalent
            assert (grad * (v - best[i])).sum() >= -1e-8 * space.n_states


def test_best_response_is_weighted_projection_of_negative_floors():
    from ifgame.vi import _project_face, make_vi_problem
    rng = np.random.default_rng(45)
    for _ in range(10):
        spec = random_spec(rng, state_limit=400)
        space = enumerate_states(spec)
        problem = make_vi_problem(spec, space)
        prof = random_feasible_profile(rng, spec, space)
        floors = interference_floors(spec, space, prof)
        projected = _project_face(problem, -floors.T).T
        assert np.abs(projected - waterfill_map(spec, space, prof)).max() < 1e-12


def test_iwf_single_user_immediate():
    spec = GameSpec.symmetric(1, [2.0, 0.5], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    report = iterate_waterfilling(spec, space, IwfConfig(tol=1e-10))
    assert report.converged
    assert report.iterations <= 2
    assert wf_residual(spec, space, report.profile) < 1e-12


def test_iwf_example1_converges():
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    report = iterate_waterfilling(spec, space, IwfConfig(tol=1e-8, max_iter=500))
    assert report.converged
    assert report.scheme == "simultaneous"
    assert wf_residual(spec, space, report.profile) < 1e-8
    assert report.residual_history[-1] < 1e-8


def test_iwf_converged_means_returned_profile_within_tol():
    """On a contractive game a ``converged`` IWF report is true of the
    profile it returns, not only of the step before it."""
    games = [spec for spec in map(bundled.spec, bundled.NAMES)
             if contraction_condition(spec)[1]]
    rng = np.random.default_rng(48)
    while len(games) < 31:
        spec = random_spec(rng, state_limit=400)
        if contraction_condition(spec)[1]:
            games.append(spec)
    config = IwfConfig()
    for spec in games:
        space = enumerate_states(spec)
        report = iterate_waterfilling(spec, space, config)
        assert report.converged
        assert wf_residual(spec, space, report.profile) < config.tol


def test_iwf_example1_unique_limit_from_random_starts():
    rng = np.random.default_rng(46)
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    limits = []
    for _ in range(10):
        init = random_feasible_profile(rng, spec, space, tight=True)
        rep = iterate_waterfilling(spec, space, IwfConfig(tol=1e-9, max_iter=500),
                                   init=init)
        assert rep.converged
        limits.append(rep.profile.powers)
    for other in limits[1:]:
        assert np.abs(limits[0] - other).max() < 1e-6


def test_iwf_example2_simultaneous_cycles_sequential_converges():
    # budget 2.0: the simultaneous sweep enters a 2-cycle
    spec = bundled.spec("example2")
    space = enumerate_states(spec)
    sim = iterate_waterfilling(spec, space, IwfConfig(tol=1e-8, max_iter=500))
    assert not sim.converged
    assert sim.iterations == 500
    assert sim.residual_history[-1] > 1.0
    seq = iterate_waterfilling(
        spec, space, IwfConfig(scheme="sequential", tol=1e-8, max_iter=500))
    assert seq.converged


def test_iwf_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        IwfConfig(scheme="jacobi")


def test_waterfill_map_matches_best_response():
    rng = np.random.default_rng(47)
    spec = bundled.spec("example2")
    space = enumerate_states(spec)
    prof = random_feasible_profile(rng, spec, space)
    wf = waterfill_map(spec, space, prof)
    floors = interference_floors(spec, space, prof)
    for i in range(spec.n_players):
        # one player's water-filling, as the sequential sweep computes it
        single = waterfill(floors[i], space.probs, spec.pbar[i]).powers
        assert np.array_equal(wf[i], single)
