"""Seeded random games and profiles shared by the test modules."""

import numpy as np

from ifgame import GameSpec, enumerate_states


def random_spec(rng, n_max=4, alph_max=3, state_limit=6561, uniform_probs=False,
                min_players=1, min_states=1):
    """Random game with N <= n_max and alphabet sizes <= alph_max.

    Combinations whose full enumeration would exceed ``state_limit``
    states are rejected (resampled) to keep bulk test runs fast.  So are
    those with fewer than ``min_players`` players or ``min_states``
    states: without a floor, many draws have one player or at most 3
    states.  The default floors reject nothing.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        n1 = int(rng.integers(1, alph_max + 1))
        n2 = int(rng.integers(1, alph_max + 1))
        states = float(n1) ** n * float(n2) ** (n * (n - 1))
        if n >= min_players and min_states <= states <= state_limit:
            break
    direct = np.sort(rng.uniform(0.2, 4.0, size=n1))[::-1].copy()
    cross = np.sort(rng.uniform(0.05, 2.0, size=n2))[::-1].copy()
    d = c = None  # uniform
    if not uniform_probs:
        d = rng.uniform(0.1, 1.0, size=(n, n1))
        d /= d.sum(axis=1, keepdims=True)
        c = rng.uniform(0.1, 1.0, size=(n, n, n2))
        c /= c.sum(axis=2, keepdims=True)
    return GameSpec(n, direct, cross, pbar=rng.uniform(0.5, 3.0, size=n),
                    direct_probs=d, cross_probs=c)


def random_feasible_profile(rng, spec, space, tight=False):
    """Uniform random powers, scaled into (or onto) the budget."""
    P = rng.uniform(0.0, 1.0, size=(spec.n_players, space.n_states))
    P *= spec.pbar[:, None]
    scale = spec.pbar / (P @ space.probs)
    if not tight:
        scale *= rng.uniform(0.3, 1.0, size=spec.n_players)
    return P * scale[:, None]


def spaced(spec, cap=100_000):
    return enumerate_states(spec, cap=cap)
