"""Channel model, state enumeration, rates and feasibility."""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from ifgame import (GameSpec, StateSpace, StateSpaceTooLargeError, average_powers,
                    enumerate_states, expected_rates, interference_floors,
                    is_feasible, rate_table, sum_rate)
from ifgame.game import _STATE_BLOCK, _floors
import bundled
import reference_iwf
from util_random import random_feasible_profile, random_spec


def brute_force_states(spec):
    """Independent re-enumeration: links row-major, last alphabet fastest."""
    n = spec.n_players
    alphabets, pvecs = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                alphabets.append(spec.direct_alphabet)
                pvecs.append(spec.direct_probs[i])
            else:
                alphabets.append(spec.cross_alphabet)
                pvecs.append(spec.cross_probs[i, j])
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


def coupling_tables(gains, alpha):
    """(hhat, blocks) of a state-major gain table (K, N, N), formed as
    ``enumerate_states`` forms them: each gain divided by
    alpha_i |h_ii|^2, the diagonal set to 0, and hhat = 1 / (alpha_i |h_ii|^2)."""
    gains = np.asarray(gains, float)
    n = gains.shape[1]
    geff = np.asarray(alpha, float) * np.einsum('kii->ki', gains)
    blocks = gains / geff[:, :, None]
    blocks[:, np.arange(n), np.arange(n)] = 0.0
    return 1.0 / geff, blocks


def space_of(gains, probs, alpha):
    """The StateSpace of a state-major gain table."""
    hhat, blocks = coupling_tables(gains, alpha)
    return StateSpace(hhat=hhat, blocks=blocks, probs=probs)


def loop_sinr_and_floor(spec, gains, P, k, i):
    """Plain-Python reference from the gains: SINR and water-filling floor
    of player i at state k."""
    g = gains[k]
    received = sum(g[i, j] * P[j, k] for j in range(spec.n_players) if j != i)
    sinr = spec.alpha[i] * g[i, i] * P[i, k] / (1.0 + received)
    floor = (1.0 + received) / (spec.alpha[i] * g[i, i])
    return sinr, floor


def brute_force_rate(spec, space, P, i):
    gains, _ = brute_force_states(spec)  # every state has positive probability
    total = 0.0
    for k in range(space.n_states):
        sinr, _ = loop_sinr_and_floor(spec, gains, P, k, i)
        total += space.probs[k] * math.log(1.0 + sinr)
    return total


def test_singleton_product():
    spec = GameSpec(1, [2.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    assert space.n_states == 1
    assert space.probs[0] == 1.0
    assert space.hhat[0, 0] == 0.5 and space.blocks[0, 0, 0] == 0.0


def test_three_player_count_and_uniform_probs():
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    assert space.n_states == 512
    assert np.allclose(space.probs, 2.0 ** -9)


def test_two_player_mixed_alphabets_count():
    spec = GameSpec(2, [1.0, 2.0], [0.1, 0.2, 0.3], pbar=1.0)
    space = enumerate_states(spec)
    assert space.n_states == 36


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        spec = random_spec(rng, state_limit=800)
        space = enumerate_states(spec)
        gains, probs = brute_force_states(spec)
        hhat, blocks = coupling_tables(gains, spec.alpha)
        assert blocks.shape == space.blocks.shape and hhat.shape == space.hhat.shape
        assert np.array_equal(blocks, space.blocks)
        assert np.array_equal(hhat, space.hhat)
        assert np.allclose(probs, space.probs, rtol=0, atol=1e-15)
        assert abs(space.probs.sum() - 1.0) <= 1e-9


def unravel_states(spec):
    """Enumeration by one np.unravel_index over the supports of the links
    of more than one entry (a one-entry link's digit is always 0) and a
    gather per link, the probabilities of every link multiplied in link
    order."""
    n = spec.n_players
    supports = []
    for i in range(n):
        for j in range(n):
            alphabet = spec.direct_alphabet if i == j else spec.cross_alphabet
            pvec = spec.direct_probs[i] if i == j else spec.cross_probs[i, j]
            supports.append((alphabet[pvec > 0], pvec[pvec > 0]))
    total = math.prod(v.size for v, _ in supports)
    sizes = [v.size for v, _ in supports if v.size > 1] or [1]  # [1]: one state
    several = iter(np.unravel_index(np.arange(total), sizes))
    gains = np.empty((total, n, n))
    probs = np.ones(total)
    for link, (alphabet, pvec) in enumerate(supports):
        digits = next(several) if alphabet.size > 1 else np.zeros(total, dtype=int)
        gains[:, link // n, link % n] = alphabet[digits]
        probs *= pvec[digits]
    return gains, probs


def test_enumeration_matches_unravel_reference_bit_for_bit():
    """Broadcasting along one axis per link gives the coupling tables of
    the unravel reference's gains and its probabilities bit for bit, for
    the spec's alpha: on random
    non-uniform games, a zero-probability entry, size-1 links, one
    player, one-state games of 7 and 120 players (49 and 14 400 links),
    one-entry links of probability 1 - 1e-13, which join the product
    unlike those of probability 1, and the 65 536-state game."""
    rng = np.random.default_rng(77)
    specs = [random_spec(rng, state_limit=3000, min_states=2) for _ in range(40)]
    specs.append(GameSpec(3, [2.0, 1.0], [0.1, 0.3, 0.7], pbar=1.0,
                          direct_probs=[[0.3, 0.7], [1.0, 0.0], [0.5, 0.5]],
                          cross_probs=np.tile([0.2, 0.0, 0.8], (3, 3, 1))))
    specs.append(GameSpec(2, [3.0, 1.5], [0.2, 0.4], pbar=1.0,
                          direct_probs=[[0.25, 0.75], [0.6, 0.4]],
                          cross_probs=[[[1.0, 0.0], [0.0, 1.0]],
                                       [[0.1, 0.9], [0.5, 0.5]]]))
    specs.append(GameSpec(2, [1.0, 2.0], [0.5], pbar=1.0))
    specs.append(GameSpec(1, [1.0, 2.0, 4.0], [1.0], pbar=1.0))
    specs.append(GameSpec(7, [2.0], [0.1], pbar=1.0))
    specs.append(GameSpec(120, [2.0], [0.1], pbar=1.0))
    near = 1.0 - 1e-13
    cross = np.tile([0.0, 1.0], (3, 3, 1))
    cross[2, 0] = [near, 0.0]
    specs.append(GameSpec(3, [2.0, 1.0], [0.1, 0.3], pbar=1.0,
                          direct_probs=[[0.3, 0.7], [near, 0.0], [0.5, 0.5]],
                          cross_probs=cross))
    specs.append(bundled.n4_spec())
    specs[5] = dataclasses.replace(specs[5],
                                   alpha=rng.uniform(0.5, 2.0, specs[5].n_players))
    for spec in specs:
        space = enumerate_states(spec)
        gains, probs = unravel_states(spec)
        hhat, blocks = coupling_tables(gains, spec.alpha)
        assert space.hhat.tobytes() == hhat.tobytes()
        assert space.blocks.tobytes() == blocks.tobytes()
        assert space.probs.tobytes() == probs.tobytes()
    assert space.n_states == 65536
    assert enumerate_states(specs[-4]).blocks.shape == (1, 7, 7)
    assert enumerate_states(specs[-3]).blocks.shape == (1, 120, 120)
    # links (1, 1) and (2, 0) multiply by near in link order, between
    # the factors of the two-entry links (0, 0) and (2, 2)
    assert enumerate_states(specs[-2]).probs.tolist() == (
        [0.3 * near * near * 0.5] * 2 + [0.7 * near * near * 0.5] * 2)


def test_cap_guard():
    spec = GameSpec(4, [1.0, 2.0, 3.0], [0.1, 0.2, 0.3], pbar=1.0)
    with pytest.raises(StateSpaceTooLargeError, match="43046721"):
        enumerate_states(spec, cap=100_000)


def test_enumeration_keeps_only_positive_probability_states():
    # cross gain 5.0 has probability 0 on both links
    spec = GameSpec(2, [1.0, 2.0], [0.1, 5.0], pbar=1.0,
                    cross_probs=np.tile([1.0, 0.0], (2, 2, 1)))
    space = enumerate_states(spec, cap=4)  # the cap counts the 4 states, not 16
    assert space.n_states == 4
    assert np.all(space.probs == 0.25)
    gains, probs = brute_force_states(spec)
    hhat, blocks = coupling_tables(gains[probs > 0], spec.alpha)
    assert np.array_equal(space.hhat, hhat) and np.array_equal(space.blocks, blocks)
    assert np.array_equal(space.probs, probs[probs > 0])
    with pytest.raises(StateSpaceTooLargeError, match="needs 4 entries"):
        enumerate_states(spec, cap=3)


def test_state_space_stores_gains_player_major():
    # every kernel reads the row [i, j, :] of a block entry, and the row
    # [i, :] of hhat, over all states in place
    spec = dataclasses.replace(bundled.spec("example1"), alpha=[1.0, 0.5, 2.0])
    space = enumerate_states(spec)
    gains, probs = brute_force_states(spec)
    hhat, blocks = coupling_tables(gains, spec.alpha)
    built = StateSpace(hhat=hhat, blocks=blocks, probs=probs)
    for s in (space, built):
        assert s.blocks.shape == (512, 3, 3) and s.hhat.shape == (512, 3)
        assert s.blocks.transpose(1, 2, 0).flags.c_contiguous
        assert s.hhat.T.flags.c_contiguous
        for table in (s.hhat, s.blocks, s.probs):
            assert not table.flags.writeable
        assert np.array_equal(s.blocks, blocks) and np.array_equal(s.hhat, hhat)


def test_state_space_owns_its_gains():
    hhat = np.array([[0.5, 1.0], [1.0, 0.5]])
    blocks = np.array([[[0.0, 0.25], [0.5, 0.0]], [[0.0, 0.5], [0.25, 0.0]]])
    probs = np.array([0.5, 0.5])
    space = StateSpace(hhat=hhat, blocks=blocks, probs=probs)
    hhat[0, 0] = blocks[0, 0, 1] = 7.0
    probs[0] = 0.25
    assert space.hhat[0, 0] == 0.5 and space.blocks[0, 0, 1] == 0.25
    assert space.probs[0] == 0.5
    # inputs that are already player-major are copied too
    pm_hhat = space.hhat.T.copy()
    pm_blocks = space.blocks.transpose(1, 2, 0).copy()
    space = StateSpace(hhat=pm_hhat.T, blocks=pm_blocks.transpose(2, 0, 1),
                       probs=[0.5, 0.5])
    pm_hhat[0, 0] = pm_blocks[0, 1, 0] = 3.0
    assert space.hhat[0, 0] == 0.5 and space.blocks[0, 0, 1] == 0.25


@pytest.mark.parametrize("probs", [[float("nan")], [1.5, -0.5],
                                   [float("inf"), -float("inf")]])
def test_state_space_rejects_bad_probabilities(probs):
    n1 = len(probs)
    with pytest.raises(ValueError, match="probabilities"):
        StateSpace(hhat=np.ones((n1, 2)), blocks=np.zeros((n1, 2, 2)), probs=probs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_state_space_rejects_bad_gains(bad):
    """hhat = 1 / (alpha_i |h_ii|^2) must be finite and positive; the
    blocks |h_ij|^2 / (alpha_i |h_ii|^2) finite and nonnegative, with
    zero diagonals."""
    hhat, blocks = np.ones((2, 2)), np.zeros((2, 2, 2))
    hhat[1, 0] = bad
    with pytest.raises(ValueError, match="hhat must be finite and positive"):
        StateSpace(hhat=hhat, blocks=blocks, probs=[0.5, 0.5])
    hhat[1, 0] = 1.0
    blocks[1, 0, 1] = bad
    if bad == 0.0:
        space = StateSpace(hhat=hhat, blocks=blocks, probs=[0.5, 0.5])
        assert space.blocks[1, 0, 1] == 0.0
    else:
        with pytest.raises(ValueError, match="blocks must be finite and nonnegative"):
            StateSpace(hhat=hhat, blocks=blocks, probs=[0.5, 0.5])
    blocks[1, 0, 1] = 0.0
    blocks[0, 1, 1] = 0.5  # a diagonal entry
    with pytest.raises(ValueError, match="with zero diagonals"):
        StateSpace(hhat=hhat, blocks=blocks, probs=[0.5, 0.5])


@pytest.mark.parametrize("key", ["pbar", "alpha", "weights"])
def test_game_spec_rejects_infinite_player_vectors(key):
    kwargs = {"pbar": 1.0, key: [1.0, np.inf]}
    with pytest.raises(ValueError, match=f"{key} must be finite and positive"):
        GameSpec(2, [1.0, 2.0], [0.5], **kwargs)


@pytest.mark.parametrize("name", ["direct", "cross"])
def test_gain_alphabets_reject_infinite_gains(name):
    alphabets = {"direct_alphabet": [1.0, 2.0], "cross_alphabet": [0.5],
                 f"{name}_alphabet": [1.0, np.inf]}
    with pytest.raises(ValueError, match=f"{name}_alphabet must be finite and positive"):
        GameSpec(2, pbar=1.0, **alphabets)


def test_game_spec_default_probabilities_are_uniform():
    # a distribution not given is the uniform one, to the bit
    spec = GameSpec(3, [1.0, 2.0], [0.1, 0.2, 0.3], pbar=1.0)
    given = GameSpec(3, [1.0, 2.0], [0.1, 0.2, 0.3], pbar=1.0,
                     direct_probs=np.full((3, 2), 1.0 / 2),
                     cross_probs=np.full((3, 3, 3), 1.0 / 3))
    for a, b in ((spec.direct_probs, given.direct_probs),
                 (spec.cross_probs, given.cross_probs)):
        assert a.tobytes() == b.tobytes()
    space, other = enumerate_states(spec), enumerate_states(given)
    assert space.hhat.tobytes() == other.hhat.tobytes()
    assert space.blocks.tobytes() == other.blocks.tobytes()
    assert space.probs.tobytes() == other.probs.tobytes()


@pytest.mark.parametrize("probs, match", [
    ({"direct_probs": [[1.5, -0.5], [0.5, 0.5]]}, "nonnegative"),
    ({"cross_probs": [[[0.5, 0.5], [1.2, -0.2]], [[0.5, 0.5], [0.5, 0.5]]]},
     "nonnegative"),
    ({"direct_probs": [[0.5, 0.5], [0.5, np.nan]]}, "direct-link"),
    ({"direct_probs": [[0.5, 0.5]]}, r"direct_probs must have shape \(2, 2\)"),
    ({"direct_probs": [0.5, 0.5]}, "direct_probs must have shape"),
    ({"cross_probs": np.full((2, 2, 3), 1 / 3)}, r"cross_probs must have shape \(2, 2, 2\)"),
    ({"cross_probs": np.full((2, 1, 2), 0.5)}, "cross_probs must have shape"),
])
def test_game_spec_rejects_bad_probabilities(probs, match):
    with pytest.raises(ValueError, match=match):
        GameSpec(2, [1.0, 2.0], [0.1, 0.2], pbar=1.0, **probs)


def test_game_spec_cross_rows_checked_off_the_diagonal_only():
    # the diagonal rows of cross_probs are unused, so their sums are not checked
    cross = np.full((3, 3, 2), 0.5)
    cross[1, 1] = [0.9, 0.9]
    spec = GameSpec(3, [1.0], [0.1, 0.2], pbar=1.0, cross_probs=cross)
    assert spec.cross_probs[1, 1, 0] == 0.9
    # of several bad off-diagonal rows the first in row-major order is named
    cross[2, 0] = cross[1, 2] = cross[2, 1] = [0.9, 0.9]
    with pytest.raises(ValueError, match=r"cross-link \(1,2\) probabilities"):
        GameSpec(3, [1.0], [0.1, 0.2], pbar=1.0, cross_probs=cross)


def test_game_spec_owns_read_only_copies():
    direct, cross = [2.0, 1.0], np.array([0.1, 0.3])
    d, c, pbar = np.array([[0.25, 0.75]] * 2), np.full((2, 2, 2), 0.5), np.ones(2)
    spec = GameSpec(2, direct, cross, pbar, direct_probs=d, cross_probs=c)
    direct[0] = cross[0] = d[0, 0] = c[0, 1, 0] = pbar[0] = 7.0
    assert spec.direct_alphabet[0] == 2.0 and spec.cross_alphabet[0] == 0.1
    assert spec.direct_probs[0, 0] == 0.25 and spec.cross_probs[0, 1, 0] == 0.5
    assert spec.pbar[0] == 1.0
    for name in ("direct_alphabet", "cross_alphabet", "direct_probs", "cross_probs",
                 "pbar", "alpha", "weights"):
        assert not getattr(spec, name).flags.writeable


def test_sinr_hand_values():
    spec = GameSpec(2, [1.0, 3.0], [0.5], pbar=1.0)

    def sinr(state, p):
        # SINR = P / f, with f the floors
        space = space_of([state], [1.0], spec.alpha)
        P = np.array(p, float)[:, None]
        return float(P[0, 0] / interference_floors(spec, space, P)[0, 0])

    state = np.array([[3.0, 0.5], [0.5, 1.0]])
    assert sinr(state, [2.0, 2.0]) == pytest.approx(3.0)
    no_interf = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert sinr(no_interf, [1.0, 0.0]) == pytest.approx(1.0)
    assert sinr(state, [0.0, 2.0]) == 0.0


def test_rate_table_and_floors_match_loop_reference():
    rng = np.random.default_rng(14)
    for _ in range(10):
        spec = random_spec(rng, state_limit=400)
        spec = dataclasses.replace(spec, alpha=rng.uniform(0.5, 2.0, size=spec.n_players))
        space = enumerate_states(spec)
        gains, _ = brute_force_states(spec)  # every state has positive probability
        P = random_feasible_profile(rng, spec, space)
        rates = rate_table(spec, space, P)
        floors = interference_floors(spec, space, P)
        assert rates.shape == (space.n_states, spec.n_players)
        assert rates.flags.c_contiguous
        assert floors.shape == P.shape
        for k in range(space.n_states):
            for i in range(spec.n_players):
                sinr, floor = loop_sinr_and_floor(spec, gains, P, k, i)
                assert rates[k, i] == pytest.approx(math.log1p(sinr), rel=1e-13, abs=1e-15)
                assert floors[i, k] == pytest.approx(floor, rel=1e-13)
                assert P[i, k] / floors[i, k] == pytest.approx(sinr, rel=1e-13, abs=1e-15)


def test_interference_is_layout_independent():
    # the floors sum the coupling over transmitters in index order, so a
    # profile gives the same bits in any memory layout or batch position
    rng = np.random.default_rng(15)
    specs = [bundled.spec("example1"), bundled.spec("pd_not_contractive")]
    for n in (2, 4):
        spec = random_spec(rng, n_max=n, state_limit=600)
        while spec.n_players != n:
            spec = random_spec(rng, n_max=n, state_limit=600)
        specs.append(spec)
    specs.append(GameSpec(3, [2.0, 1.0], [0.3, 0.2, 0.1], pbar=1.0,
                          alpha=[1.0, 0.5, 2.0]))  # 5832 states
    for spec in specs:
        space = enumerate_states(spec)
        P = random_feasible_profile(rng, spec, space)
        want = interference_floors(spec, space, P)
        # whole-table reference: transmitters in index order, the own
        # term's zero block entry included, then hhat
        H = space.blocks.transpose(1, 2, 0)
        coupled = sum(H[:, j] * P[j] for j in range(spec.n_players))
        assert np.array_equal(want, coupled + space.hhat.T)
        batch = np.stack([np.zeros_like(P), P, 2.0 * P])
        copies = [np.asfortranarray(P), batch[1], np.asfortranarray(batch)[1],
                  batch.transpose(0, 2, 1).copy().transpose(0, 2, 1)[1]]
        assert want.shape == P.shape
        for other in copies:
            assert np.array_equal(interference_floors(spec, space, other), want)
        assert np.array_equal(interference_floors(spec, space, batch)[1], want)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_interference_blocks_keep_every_bit():
    """The floors kernel walks the states in blocks of ``_STATE_BLOCK``:
    the floors have the bits of the whole-table formula on a game of two
    full blocks and a partial one, for a profile, a batch of two, a
    strided view and a Fortran-ordered copy, also when written into an
    output table the caller passes, and the floors of one receiver row
    are that row of the whole table."""
    rng = np.random.default_rng(28)
    for spec in (reference_iwf.blocks_spec(),
                 reference_iwf.blocks_spec(alpha=[1.0, 0.5, 2.0])):
        space = enumerate_states(spec)
        assert 2 * _STATE_BLOCK < space.n_states == 19683 < 3 * _STATE_BLOCK
        P = random_feasible_profile(rng, spec, space)
        wide = np.repeat(random_feasible_profile(rng, spec, space), 2, axis=1)
        for X in (P, np.stack([P, 2.0 * P]), wide[:, 1::2], np.asfortranarray(P)):
            floors = interference_floors(spec, space, X)
            assert_same_bits(floors, reference_iwf.floors(space, X))
            given = np.full(X.shape, np.nan)
            got = _floors(space, X, out=given)
            assert got is given
            assert_same_bits(got, floors)
            for i in range(spec.n_players):
                assert_same_bits(_floors(space, X, slice(i, i + 1)),
                                 floors[..., i:i + 1, :])


def test_expected_rate_basics():
    spec = GameSpec(1, [1.0], [1.0], pbar=1.0)
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
    spec = GameSpec(1, [1.0, 2.0], [1.0], pbar=[1.0], direct_probs=[[0.25, 0.75]])
    space = enumerate_states(spec)
    assert average_powers(space, np.array([[4.0, 0.0]]))[0] == pytest.approx(1.0)


def test_sum_rate_cases():
    spec1 = GameSpec(1, [1.0], [1.0], pbar=1.0)
    space1 = enumerate_states(spec1)
    assert sum_rate(spec1, space1, np.zeros((1, 1))) == 0.0
    assert sum_rate(spec1, space1, np.ones((1, 1))) == pytest.approx(
        expected_rates(spec1, space1, np.ones((1, 1)))[0])
    spec2 = GameSpec(2, [2.0], [0.3], pbar=1.0)
    space2 = enumerate_states(spec2)
    P = np.full((2, space2.n_states), 1.0)
    assert sum_rate(spec2, space2, P) == pytest.approx(
        2.0 * expected_rates(spec2, space2, P)[0])


def test_is_feasible():
    spec = GameSpec(2, [1.0], [0.5], pbar=[1.0, 2.0])
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
    spec = GameSpec(2, [1.0], [0.5], pbar=[0.5, 1e7])
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
