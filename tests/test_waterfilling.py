"""Water-filling best response and iterative water-filling."""

import numpy as np
import pytest

from ifgame import (GameSpec, IwfConfig, enumerate_states, interference_floors,
                    iterate_waterfilling, waterfill_levels, waterfill_map,
                    wf_residual)
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


def fill(floors, probs, pbar):
    """One player's water level from ``waterfill_levels``, and the powers
    max{0, level - floors}, as the sequential sweep computes them."""
    floors = np.asarray(floors, float)
    level = float(waterfill_levels(floors, probs, pbar))
    return level, np.maximum(0.0, level - floors)


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
    level, powers = fill([1.0], [1.0], 1.0)
    assert level == pytest.approx(2.0)
    assert powers == pytest.approx([1.0])
    assert np.count_nonzero(powers) == 1

    level, powers = fill([1.0, 3.0], [0.5, 0.5], 0.5)
    assert level == pytest.approx(2.0)
    assert np.allclose(powers, [1.0, 0.0])
    assert np.count_nonzero(powers) == 1

    level, powers = fill([1.0, 3.0], [0.5, 0.5], 2.0)
    assert level == pytest.approx(4.0)
    assert np.allclose(powers, [3.0, 1.0])
    assert np.count_nonzero(powers) == 2


def test_waterfill_empty_input():
    with pytest.raises(ValueError):
        waterfill_levels([], [], 1.0)


def test_waterfill_matches_bisection_oracle():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        floors = rng.uniform(0.05, 5.0, size=n)
        probs = rng.uniform(0.01, 1.0, size=n)
        probs /= probs.sum()
        pbar = rng.uniform(0.1, 5.0)
        level, powers = fill(floors, probs, pbar)
        oracle = bisect_waterfill(floors, probs, pbar)
        assert np.abs(powers - oracle).max() < 1e-9
        # budget equality and complementary slackness
        assert probs @ powers == pytest.approx(pbar, abs=1e-9)
        on = powers > 0
        assert np.allclose(powers[on] + floors[on], level, atol=1e-12)
        assert np.all(level <= floors[~on] + 1e-12)


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


def reference_breakpoint_levels(floors, probs, pbars):
    """The breakpoint method with a stable index sort for every weight
    vector, the tie order the value sort must reproduce bit for bit."""
    order = np.argsort(floors, axis=-1, kind='stable')
    f = np.take_along_axis(floors, order, axis=-1)
    p = np.broadcast_to(probs, floors.shape)
    p = np.take_along_axis(p, order, axis=-1)
    mass = np.cumsum(p, axis=-1)
    spend = np.cumsum(p * f, axis=-1)
    with np.errstate(divide='ignore', invalid='ignore'):
        candidates = (pbars[..., None] + spend) / mass
    upper = np.concatenate([f[..., 1:],
                            np.full(f.shape[:-1] + (1,), np.inf)], axis=-1)
    k = np.argmax(candidates <= upper, axis=-1)
    return np.take_along_axis(candidates, k[..., None], axis=-1)[..., 0]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def tied_floors(rng, shape, values):
    """Floors drawn from a few values, so most of them tie."""
    return rng.choice(np.asarray(values, dtype=float), size=shape)


def test_value_sort_matches_index_sort_on_equal_weights():
    rng = np.random.default_rng(52)
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 80))
        probs = np.full(m, 1.0 / m)
        pbars = rng.uniform(0.01, 4.0, size=n)
        for floors in (tied_floors(rng, (n, m), rng.uniform(0.0, 3.0, size=3)),
                       tied_floors(rng, (n, m), [0.25, 0.5, 0.5, 1.0]),
                       rng.uniform(0.0, 3.0, size=(n, m))):
            assert_same_bits(_breakpoint_levels(floors, probs, pbars),
                             reference_breakpoint_levels(floors, probs, pbars))
            # the same weights stacked like the floors
            stacked = np.full((n, m), probs[0])
            assert_same_bits(_breakpoint_levels(floors, stacked, pbars),
                             reference_breakpoint_levels(floors, stacked, pbars))
    # a (2, 3, m) stack, and a single state
    floors = tied_floors(rng, (2, 3, 40), [-1.0, 0.0, 2.0, 2.0])
    pbars = rng.uniform(0.1, 2.0, size=(2, 3))
    assert_same_bits(_breakpoint_levels(floors, np.full(40, 0.025), pbars),
                     reference_breakpoint_levels(floors, np.full(40, 0.025), pbars))
    one = np.array([[0.7], [-0.0], [2.0]])
    pbars = np.array([0.5, 1.0, 0.0])
    assert_same_bits(_breakpoint_levels(one, np.ones(1), pbars),
                     reference_breakpoint_levels(one, np.ones(1), pbars))


def test_value_sort_signed_zero_and_infinite_floors():
    rng = np.random.default_rng(53)
    for _ in range(100):
        m = int(rng.integers(2, 40))
        probs = np.full(m, 0.5)
        pbars = rng.uniform(0.01, 2.0, size=3)
        zeros = tied_floors(rng, (3, m), [-0.0, 0.0, 0.0, 1.5])
        assert_same_bits(_breakpoint_levels(zeros, probs, pbars),
                         reference_breakpoint_levels(zeros, probs, pbars))
        for bad in (np.inf, -np.inf):
            floors = tied_floors(rng, (3, m), [bad, 0.5, 0.5, 2.0])
            assert_same_bits(_breakpoint_levels(floors, probs, pbars),
                             reference_breakpoint_levels(floors, probs, pbars))
        floors = tied_floors(rng, (3, m), [np.inf, -np.inf, 0.5, -0.0])
        with np.errstate(invalid='ignore'):
            assert_same_bits(_breakpoint_levels(floors, probs, pbars),
                             reference_breakpoint_levels(floors, probs, pbars))


def test_nan_floor_keeps_the_first_candidate():
    """A NaN floor sorts last and makes the last candidate NaN; when no
    earlier candidate fits, the first one is returned, as the index sort
    does."""
    rng = np.random.default_rng(56)
    for probs in (np.full(6, 0.5), rng.uniform(0.1, 1.0, size=6)):
        floors = tied_floors(rng, (4, 6), [0.5, 1.0, 2.0])
        floors[:, 2] = np.nan
        floors[0, 4] = np.nan
        pbars = np.array([0.1, 0.3, 5.0, 0.0])
        with np.errstate(invalid='ignore'):
            assert_same_bits(_breakpoint_levels(floors, probs, pbars),
                             reference_breakpoint_levels(floors, probs, pbars))
        assert np.isfinite(_breakpoint_levels(floors, probs, pbars)).all()


def test_value_sort_through_waterfill_levels():
    """Stacks where one row is not all active fall through to the
    breakpoint method, which must give the index sort's bits."""
    rng = np.random.default_rng(54)
    for _ in range(100):
        m = int(rng.integers(2, 60))
        floors = tied_floors(rng, (2, m), rng.uniform(0.05, 5.0, size=4))
        probs = np.full(m, 1.0 / m)
        need = floors.max(axis=1) - floors @ probs
        pbars = np.array([need[0] + rng.uniform(0.0, 3.0),
                          rng.uniform(0.0, 0.9) * need[1]])
        assert_same_bits(waterfill_levels(floors, probs, pbars),
                         reference_breakpoint_levels(floors, probs, pbars))
        level = waterfill_levels(floors[1], probs, pbars[1])
        assert level == reference_breakpoint_levels(floors[1], probs,
                                                    np.asarray(pbars[1]))


def test_unequal_weights_keep_the_index_sort():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 60))
        probs = rng.uniform(0.01, 1.0, size=m)
        probs[rng.random(m) < 0.2] = 0.0
        probs[0] = 0.5
        probs /= probs.sum()
        floors = tied_floors(rng, (n, m), rng.uniform(-1.0, 3.0, size=3))
        pbars = rng.uniform(0.01, 4.0, size=n)
        assert_same_bits(_breakpoint_levels(floors, probs, pbars),
                         reference_breakpoint_levels(floors, probs, pbars))
    # equal in value except one state, and all-zero weights
    floors = np.array([[1.0, 1.0, 0.5, 2.0]])
    for probs in ([0.25, 0.25, 0.25, 0.2500000000000001], [0.0, 0.0, -0.0, 0.0]):
        probs = np.asarray(probs)
        with np.errstate(divide='ignore', invalid='ignore'):
            assert_same_bits(_breakpoint_levels(floors, probs, np.array([0.3])),
                             reference_breakpoint_levels(floors, probs,
                                                         np.array([0.3])))


@pytest.mark.parametrize("floors, probs, pbar, level", [
    ([1.0, 1.0, 3.0], [0.25, 0.25, 0.5], 1.0, 3.0),   # level at the top floor
    ([2.0, 2.0, 2.0], [0.2, 0.3, 0.5], 0.5, 2.5),     # all floors tied
    ([1.0, 1.0, 3.0], [0.25, 0.25, 0.5], 0.5, 2.0),   # tie below, one inactive
    ([1.0, 9.0, 2.0], [0.5, 0.0, 0.5], 1.0, 2.5),     # zero-probability state above
    ([1.0, 0.5, 2.0], [0.5, 0.0, 0.5], 1.0, 2.5),     # zero-probability state below
])
def test_waterfill_level_edge_cases(floors, probs, pbar, level):
    got, powers = fill(floors, probs, pbar)
    assert got == pytest.approx(level, rel=1e-15)
    assert np.asarray(probs) @ powers == pytest.approx(pbar, abs=1e-12)
    assert got == pytest.approx(
        float(_breakpoint_levels(np.asarray(floors), np.asarray(probs),
                                 np.asarray(pbar))), rel=1e-13)
    assert np.abs(powers - bisect_waterfill(floors, probs, pbar)).max() < 1e-9


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
        _, powers = fill(floors, probs, pbar)
        assert probs @ powers == pytest.approx(pbar, rel=1e-12, abs=0)
        on = probs > 0
        assert np.abs(powers[on] - bisect_waterfill(floors[on], probs[on], pbar)
                      ).max() < 1e-9


def test_waterfill_monotone_in_floors():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        floors = rng.uniform(0.1, 3.0, size=n)
        probs = np.full(n, 1.0 / n)
        pbar = rng.uniform(0.2, 3.0)
        raised = floors + rng.uniform(0.0, 1.0, size=n)
        base = waterfill_levels(floors, probs, pbar)
        worse = waterfill_levels(raised, probs, pbar)
        # entrywise higher floors can only raise the level
        assert worse >= base - 1e-12


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
        projected = _project_face(problem, floors.copy())
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
        limits.append(rep.profile)
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


def test_iwf_config_rejects_zero_max_iter():
    # max_iter = 0 gave an empty residual_history, on which reporting the
    # solve raised IndexError
    with pytest.raises(ValueError, match="max_iter"):
        IwfConfig(max_iter=0)
    # an infinite tol reported converged after one map, at residual 0.24
    for bad in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            IwfConfig(tol=bad)


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
        level = waterfill_levels(floors[i], space.probs, spec.pbar[i])
        assert np.array_equal(wf[i], np.maximum(0.0, level - floors[i]))
