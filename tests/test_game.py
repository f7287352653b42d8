"""Channel model, state enumeration, rates and feasibility."""

import math
from itertools import product

import numpy as np
import pytest

from ifgame import (GainAlphabets, GameSpec, LinkDistribution,
                    StateSpace, StateSpaceTooLargeError, average_powers,
                    enumerate_states, expected_rates, interference,
                    interference_floors, is_feasible, rate_table, sum_rate)
import bundled
from util_random import random_feasible_profile, random_spec


def brute_force_states(spec):
    """Independent re-enumeration: links row-major, last alphabet fastest."""
    n = spec.n_players
    alphabets, pvecs = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                alphabets.append(spec.gains.direct)
                pvecs.append(spec.dists.direct[i])
            else:
                alphabets.append(spec.gains.cross)
                pvecs.append(spec.dists.cross[i, j])
    gains, probs = [], []
    for combo in product(*[range(a.size) for a in alphabets]):
        g = np.empty((n, n))
        p = 1.0
        for link, idx in enumerate(combo):
            g[link // n, link % n] = alphabets[link][idx]
            p *= pvecs[link][idx]
        gains.append(g)
        probs.append(p)
    return np.array(gains), np.array(probs)


def loop_sinr_and_floor(spec, space, P, k, i):
    """Plain-Python reference: SINR and water-filling floor of player i
    at state k."""
    g = space.gains[k]
    received = sum(g[i, j] * P[j, k] for j in range(spec.n_players) if j != i)
    sinr = spec.alpha[i] * g[i, i] * P[i, k] / (1.0 + received)
    floor = (1.0 + received) / (spec.alpha[i] * g[i, i])
    return sinr, floor


def brute_force_rate(spec, space, P, i):
    total = 0.0
    for k in range(space.n_states):
        sinr, _ = loop_sinr_and_floor(spec, space, P, k, i)
        total += space.probs[k] * math.log(1.0 + sinr)
    return total


def test_singleton_product():
    spec = GameSpec.symmetric(1, [2.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    assert space.n_states == 1
    assert space.probs[0] == 1.0
    assert space.gains[0, 0, 0] == 2.0


def test_three_player_count_and_uniform_probs():
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    assert space.n_states == 512
    assert np.allclose(space.probs, 2.0 ** -9)


def test_two_player_mixed_alphabets_count():
    spec = GameSpec.symmetric(2, [1.0, 2.0], [0.1, 0.2, 0.3], pbar=1.0)
    space = enumerate_states(spec)
    assert space.n_states == 36


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        spec = random_spec(rng, state_limit=800)
        space = enumerate_states(spec)
        gains, probs = brute_force_states(spec)
        assert gains.shape == space.gains.shape
        assert np.array_equal(gains, space.gains)
        assert np.allclose(probs, space.probs, rtol=0, atol=1e-15)
        assert abs(space.probs.sum() - 1.0) <= 1e-9


def test_cap_guard():
    spec = GameSpec.symmetric(4, [1.0, 2.0, 3.0], [0.1, 0.2, 0.3], pbar=1.0)
    with pytest.raises(StateSpaceTooLargeError, match="43046721"):
        enumerate_states(spec, cap=100_000)


def test_enumeration_keeps_only_positive_probability_states():
    # cross gain 5.0 has probability 0 on both links
    spec = GameSpec(n_players=2,
                    gains=GainAlphabets(direct=[1.0, 2.0], cross=[0.1, 5.0]),
                    dists=LinkDistribution(direct=np.full((2, 2), 0.5),
                                           cross=np.tile([1.0, 0.0], (2, 2, 1))),
                    pbar=1.0)
    space = enumerate_states(spec, cap=4)  # the cap counts the 4 states, not 16
    assert space.n_states == 4
    assert np.all(space.probs == 0.25)
    gains, probs = brute_force_states(spec)
    assert np.array_equal(space.gains, gains[probs > 0])
    assert np.array_equal(space.probs, probs[probs > 0])
    with pytest.raises(StateSpaceTooLargeError, match="needs 4 entries"):
        enumerate_states(spec, cap=3)


def test_state_space_stores_gains_player_major():
    # every kernel reads the row [i, j, :] of a link over all states in place
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    gains, probs = brute_force_states(spec)
    built = StateSpace(gains=gains, probs=probs)
    for s in (space, built):
        assert s.gains.shape == (512, 3, 3)
        assert s.gains.transpose(1, 2, 0).flags.c_contiguous
        assert not s.gains.flags.writeable
        assert np.array_equal(s.gains, gains)


def test_state_space_owns_its_gains():
    gains = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [0.5, 2.0]]])
    probs = np.array([0.5, 0.5])
    space = StateSpace(gains=gains, probs=probs)
    gains[0, 0, 0] = 7.0
    probs[0] = 0.25
    assert space.gains[0, 0, 0] == 2.0 and space.probs[0] == 0.5
    # an input that is already player-major is copied too
    pm = np.ascontiguousarray(gains.transpose(1, 2, 0))
    space = StateSpace(gains=pm.transpose(2, 0, 1), probs=[0.5, 0.5])
    pm[0, 0, 0] = 3.0
    assert space.gains[0, 0, 0] == 7.0


@pytest.mark.parametrize("probs", [[float("nan")], [1.5, -0.5],
                                   [float("inf"), -float("inf")]])
def test_state_space_rejects_bad_probabilities(probs):
    gains = np.ones((len(probs), 2, 2))
    with pytest.raises(ValueError, match="probabilities"):
        StateSpace(gains=gains, probs=probs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_state_space_rejects_bad_gains(bad):
    gains = np.ones((2, 2, 2))
    gains[1, 0, 1] = bad
    with pytest.raises(ValueError, match="gains must be finite and positive"):
        StateSpace(gains=gains, probs=[0.5, 0.5])


@pytest.mark.parametrize("key", ["pbar", "alpha", "weights"])
def test_game_spec_rejects_infinite_player_vectors(key):
    kwargs = {"pbar": 1.0, key: [1.0, np.inf]}
    with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
        GameSpec.symmetric(2, [1.0, 2.0], [0.5], **kwargs)


@pytest.mark.parametrize("name", ["direct", "cross"])
def test_gain_alphabets_reject_infinite_gains(name):
    alphabets = {"direct": [1.0, 2.0], "cross": [0.5], name: [1.0, np.inf]}
    with pytest.raises(ValueError, match=f"{name} gains must be finite and positive"):
        GainAlphabets(**alphabets)


def test_sinr_hand_values():
    spec = GameSpec.symmetric(2, [1.0, 3.0], [0.5], pbar=1.0)

    def sinr(state, p):
        space = StateSpace(gains=[state], probs=[1.0])
        signal, interf = interference(spec, space, np.array(p, float)[:, None])
        return float(signal[0, 0] / interf[0, 0])

    state = np.array([[3.0, 0.5], [0.5, 1.0]])
    assert sinr(state, [2.0, 2.0]) == pytest.approx(3.0)
    no_interf = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert sinr(no_interf, [1.0, 0.0]) == pytest.approx(1.0)
    assert sinr(state, [0.0, 2.0]) == 0.0


def test_rate_table_and_floors_match_loop_reference():
    rng = np.random.default_rng(14)
    for _ in range(10):
        spec = random_spec(rng, state_limit=400)
        spec = GameSpec(n_players=spec.n_players, gains=spec.gains, dists=spec.dists,
                        pbar=spec.pbar,
                        alpha=rng.uniform(0.5, 2.0, size=spec.n_players))
        space = enumerate_states(spec)
        P = random_feasible_profile(rng, spec, space)
        rates = rate_table(spec, space, P)
        floors = interference_floors(spec, space, P)
        signal, interf = interference(spec, space, P)
        assert rates.shape == (space.n_states, spec.n_players)
        assert rates.flags.c_contiguous
        assert floors.shape == signal.shape == interf.shape == P.shape
        for k in range(space.n_states):
            for i in range(spec.n_players):
                sinr, floor = loop_sinr_and_floor(spec, space, P, k, i)
                assert rates[k, i] == pytest.approx(math.log1p(sinr), rel=1e-13, abs=1e-15)
                assert floors[i, k] == pytest.approx(floor, rel=1e-13)
                assert signal[i, k] / interf[i, k] == pytest.approx(sinr, rel=1e-13,
                                                                    abs=1e-15)


def test_interference_is_layout_independent():
    # the received power is summed over transmitters in index order, so a
    # profile gives the same bits in any memory layout or batch position
    rng = np.random.default_rng(15)
    specs = [bundled.spec("example1"), bundled.spec("pd_not_contractive")]
    for n in (2, 4):
        spec = random_spec(rng, n_max=n, state_limit=600)
        while spec.n_players != n:
            spec = random_spec(rng, n_max=n, state_limit=600)
        specs.append(spec)
    specs.append(GameSpec.symmetric(3, [2.0, 1.0], [0.3, 0.2, 0.1], pbar=1.0,
                                    alpha=[1.0, 0.5, 2.0]))  # 5832 states
    for spec in specs:
        space = enumerate_states(spec)
        P = random_feasible_profile(rng, spec, space)
        want = interference(spec, space, P)
        # whole-table reference: transmitters in index order, own term
        # included and then subtracted
        G = space.gains.transpose(1, 2, 0)
        own = np.einsum('iik->ik', G) * P
        received = sum(G[:, j] * P[j] for j in range(spec.n_players))
        assert np.array_equal(want[0], spec.alpha[:, None] * own)
        assert np.array_equal(want[1], 1.0 + received - own)
        batch = np.stack([np.zeros_like(P), P, 2.0 * P])
        copies = [np.asfortranarray(P), batch[1], np.asfortranarray(batch)[1],
                  batch.transpose(0, 2, 1).copy().transpose(0, 2, 1)[1]]
        for table in want:
            assert table.shape == P.shape
        for other in copies:
            for got, ref in zip(interference(spec, space, other), want):
                assert np.array_equal(got, ref)
        for got, ref in zip(interference(spec, space, batch), want):
            assert np.array_equal(got[1], ref)


def test_expected_rate_basics():
    spec = GameSpec.symmetric(1, [1.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    assert expected_rates(spec, space, np.zeros((1, 1)))[0] == 0.0
    assert expected_rates(spec, space, np.ones((1, 1)))[0] == pytest.approx(math.log(2.0))


def test_expected_rate_equals_brute_force_oracle():
    rng = np.random.default_rng(7)
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    P = random_feasible_profile(rng, spec, space)
    rates = expected_rates(spec, space, P)
    for i in range(3):
        assert rates[i] == pytest.approx(brute_force_rate(spec, space, P, i), abs=1e-12)


def test_average_power():
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    assert average_powers(space, np.zeros((3, 512)))[0] == 0.0
    assert average_powers(space, np.full((3, 512), 0.7))[1] == pytest.approx(0.7)


def test_average_power_two_states_hand_value():
    spec = GameSpec(n_players=1,
                    gains=GainAlphabets(direct=[1.0, 2.0], cross=[1.0]),
                    dists=LinkDistribution(direct=np.array([[0.25, 0.75]]),
                                           cross=np.ones((1, 1, 1))),
                    pbar=[1.0])
    space = enumerate_states(spec)
    assert average_powers(space, np.array([[4.0, 0.0]]))[0] == pytest.approx(1.0)


def test_sum_rate_cases():
    spec1 = GameSpec.symmetric(1, [1.0], [1.0], pbar=1.0)
    space1 = enumerate_states(spec1)
    assert sum_rate(spec1, space1, np.zeros((1, 1))) == 0.0
    assert sum_rate(spec1, space1, np.ones((1, 1))) == pytest.approx(
        expected_rates(spec1, space1, np.ones((1, 1)))[0])
    spec2 = GameSpec.symmetric(2, [2.0], [0.3], pbar=1.0)
    space2 = enumerate_states(spec2)
    P = np.full((2, space2.n_states), 1.0)
    assert sum_rate(spec2, space2, P) == pytest.approx(
        2.0 * expected_rates(spec2, space2, P)[0])


def test_is_feasible():
    spec = GameSpec.symmetric(2, [1.0], [0.5], pbar=[1.0, 2.0])
    space = enumerate_states(spec)
    assert is_feasible(space, np.zeros((2, 1)), spec.pbar).all()
    tight = np.array([[1.0], [2.0]])
    assert is_feasible(space, tight, spec.pbar).all()
    over = np.array([[1.0 + 1e-6], [2.0]])
    assert not is_feasible(space, over, spec.pbar)[0]
    # a negative power is infeasible whatever the budget
    assert not is_feasible(space, np.array([[-0.1], [0.5]]), spec.pbar)[0]


def test_is_feasible_slack_scales_with_large_budgets():
    """Up to a budget of 1 the slack is FEAS_TOL; above it, FEAS_TOL times
    the budget, so rounding a few ulps over a large budget is feasible."""
    spec = GameSpec.symmetric(2, [1.0], [0.5], pbar=[0.5, 1e7])
    space = enumerate_states(spec)
    # two ulps over 1e7 is 3.7e-9, above the absolute slack of 1e-9
    rounded = np.array([[0.5 + 0.9e-9], [np.nextafter(np.nextafter(1e7, 2e7), 2e7)]])
    assert is_feasible(space, rounded, spec.pbar).all()
    over = np.array([[0.5 + 1.1e-9], [1e7 * (1 + 1.1e-9)]])
    assert not is_feasible(space, over, spec.pbar).any()


def test_rate_concave_in_own_powers():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = random_spec(rng, state_limit=400)
        space = enumerate_states(spec)
        base = random_feasible_profile(rng, spec, space)
        a = random_feasible_profile(rng, spec, space)
        b = random_feasible_profile(rng, spec, space)
        theta = rng.uniform(0.05, 0.95)
        i = int(rng.integers(spec.n_players))
        mix, pa, pb = base.copy(), base.copy(), base.copy()
        mix[i] = theta * a[i] + (1 - theta) * b[i]
        pa[i], pb[i] = a[i], b[i]
        r_mix, r_a, r_b = (expected_rates(spec, space, prof)[i] for prof in (mix, pa, pb))
        assert r_mix >= theta * r_a + (1 - theta) * r_b - 1e-9


def test_rate_monotone_in_interferer_power():
    rng = np.random.default_rng(12)
    for _ in range(20):
        spec = random_spec(rng, state_limit=400)
        if spec.n_players == 1:
            continue
        space = enumerate_states(spec)
        P = random_feasible_profile(rng, spec, space)
        i, j = rng.choice(spec.n_players, size=2, replace=False)
        k = int(rng.integers(space.n_states))
        bumped = P.copy()
        bumped[j, k] += 0.5
        assert expected_rates(spec, space, bumped)[i] <= \
            expected_rates(spec, space, P)[i] + 1e-12


def test_expected_rates_matches_expected_rate():
    rng = np.random.default_rng(13)
    spec = random_spec(rng)
    space = enumerate_states(spec)
    P = random_feasible_profile(rng, spec, space)
    rates = expected_rates(spec, space, P)
    per_state = rate_table(spec, space, P)
    for i in range(spec.n_players):
        assert rates[i] == pytest.approx(float(space.probs @ per_state[:, i]), abs=1e-14)
