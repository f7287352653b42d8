"""Stochastic power-allocation game on a Gaussian interference channel.

N transmitter-receiver pairs share a channel whose power gains change
i.i.d. from slot to slot.  Direct gains |h_ii|^2 take values in a finite
alphabet H_d, cross gains |h_ij|^2 (i != j) in H_c, each link with its own
categorical distribution.  Player i transmits with a stationary policy
P_i(h) and receives

    SINR_i = alpha_i |h_ii|^2 P_i(h) / (1 + sum_{j != i} |h_ij|^2 P_j(h)),

noise power normalized to 1.  Expected rates are in nats
(natural logarithm), and the budget constraint is on the average power
E_pi[P_i] <= Pbar_i.

A power profile is the float array of shape (N, N1) whose entry [i, k]
is P_i at state k of the enumerated StateSpace; every solver returns
one, and every function here takes one (or a batch (..., N, N1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_STATE_CAP = 100_000

#: slack allowed when checking the average-power budget, relative to
#: budgets above 1
FEAS_TOL = 1e-9
#: floor of the IWF and VI stopping tests, relative to the largest budget:
#: 8 ulps, since a budget-tight profile has max|P| >= max(pbar)
ULP_FLOOR = 8 * 2.0 ** -52


class StateSpaceTooLargeError(ValueError):
    """Raised when the full channel-state enumeration would exceed the cap."""


def _positive_vector(x, n, name):
    v = np.array(x, dtype=float)  # owned copy; frozen below
    if v.ndim == 0:
        v = np.full(n, float(v))
    if v.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {v.shape}")
    if not np.all((v > 0) & (v < np.inf)):  # NaN fails too
        raise ValueError(f"{name} must be finite and positive")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class GainAlphabets:
    """Finite alphabets of direct and cross power gains."""

    direct: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        for name in ("direct", "cross"):
            v = np.array(getattr(self, name), dtype=float)
            if v.ndim != 1 or v.size == 0:
                raise ValueError(f"{name} gain alphabet must be a non-empty vector")
            if not np.all((v > 0) & (v < np.inf)):
                raise ValueError(f"{name} gains must be finite and positive")
            v.flags.writeable = False
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class LinkDistribution:
    """Per-link categorical distributions over the gain alphabets.

    ``direct[i]`` is the distribution of link (i, i) over the direct
    alphabet, ``cross[i, j]`` of link (i, j), i != j, over the cross
    alphabet.  Rows must sum to 1 within 1e-12.
    """

    direct: np.ndarray  # (N, n1)
    cross: np.ndarray   # (N, N, n2); diagonal rows unused

    def __post_init__(self):
        d = np.array(self.direct, dtype=float)
        c = np.array(self.cross, dtype=float)
        if d.ndim != 2 or c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[0] != d.shape[0]:
            raise ValueError("inconsistent link-distribution shapes")
        n = d.shape[0]
        if np.any(d < 0) or np.any(c < 0):
            raise ValueError("link probabilities must be nonnegative")
        # "not <=" rather than ">" so that NaN probabilities fail too
        if not np.all(np.abs(d.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("direct-link probabilities must sum to 1")
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        for i, j in off:
            if not abs(c[i, j].sum() - 1.0) <= 1e-12:
                raise ValueError(f"cross-link ({i},{j}) probabilities must sum to 1")
        d.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "direct", d)
        object.__setattr__(self, "cross", c)

    @classmethod
    def uniform(cls, n_players, n_direct, n_cross):
        d = np.full((n_players, n_direct), 1.0 / n_direct)
        c = np.full((n_players, n_players, n_cross), 1.0 / n_cross)
        return cls(direct=d, cross=c)


@dataclass(frozen=True)
class GameSpec:
    """Players, gain alphabets, link distributions, budgets and weights."""

    n_players: int
    gains: GainAlphabets
    dists: LinkDistribution
    pbar: np.ndarray
    alpha: np.ndarray = None
    weights: np.ndarray = None

    def __post_init__(self):
        n = self.n_players
        if n < 1:
            raise ValueError("need at least one player")
        object.__setattr__(self, "pbar", _positive_vector(self.pbar, n, "pbar"))
        alpha = np.ones(n) if self.alpha is None else self.alpha
        weights = np.ones(n) if self.weights is None else self.weights
        object.__setattr__(self, "alpha", _positive_vector(alpha, n, "alpha"))
        object.__setattr__(self, "weights", _positive_vector(weights, n, "weights"))
        if self.dists.direct.shape != (n, self.gains.direct.size):
            raise ValueError("direct link distribution shape does not match alphabet")
        if self.dists.cross.shape != (n, n, self.gains.cross.size):
            raise ValueError("cross link distribution shape does not match alphabet")

    @classmethod
    def symmetric(cls, n_players, direct, cross, pbar, alpha=None, weights=None):
        """Game with uniform link distributions over the given alphabets."""
        gains = GainAlphabets(direct=np.asarray(direct, float),
                              cross=np.asarray(cross, float))
        dists = LinkDistribution.uniform(n_players, gains.direct.size, gains.cross.size)
        return cls(n_players=n_players, gains=gains, dists=dists, pbar=pbar,
                   alpha=alpha, weights=weights)


@dataclass(frozen=True)
class StateSpace:
    """Enumerated channel states with their joint probabilities.

    ``gains[k]`` is the N x N gain matrix of state k, ``probs[k]`` its
    probability.  The ordering is deterministic: links in row-major order
    (1,1), (1,2), ..., (N,N), the last link's alphabet index varying
    fastest (plain mixed-radix / lexicographic enumeration over the
    positive-probability entries of each link's alphabet).

    The gains are stored player-major: ``gains.transpose(1, 2, 0)``, with
    entry [i, j, k] = |h_ij(k)|^2, is C-contiguous, so every kernel reads
    the row of a link over all states in place.  Gains must be finite and
    positive, probabilities finite, nonnegative and summing to 1 within
    1e-9.
    """

    gains: np.ndarray  # (N1, N, N), player-major in memory
    probs: np.ndarray  # (N1,)

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        p = np.array(self.probs, dtype=float)
        if g.ndim != 3 or g.shape[1] != g.shape[2] or p.shape != (g.shape[0],):
            raise ValueError("inconsistent state-space shapes")
        if not np.all((g > 0) & (g < np.inf)):
            raise ValueError("channel gains must be finite and positive")
        # "not <=" rather than ">" so that NaN probabilities fail too
        if not (np.all((p >= 0) & (p < np.inf)) and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError("state probabilities must be finite, nonnegative "
                             "and sum to 1")
        g = g.transpose(1, 2, 0).copy().transpose(2, 0, 1)  # owned, player-major
        g.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "probs", p)

    @property
    def n_states(self):
        return self.gains.shape[0]

    @property
    def n_players(self):
        return self.gains.shape[1]

    @property
    def direct_gains(self):
        """|h_ii|^2 of every player at every state, shape (N1, N)."""
        return np.einsum('kii->ki', self.gains)


def _link_supports(spec: GameSpec):
    """(alphabet entries, probabilities) of positive probability of each
    link (i, j), in the order i * N + j."""
    n = spec.n_players
    for i in range(n):
        for j in range(n):
            if i == j:
                alphabet, pvec = spec.gains.direct, spec.dists.direct[i]
            else:
                alphabet, pvec = spec.gains.cross, spec.dists.cross[i, j]
            support = pvec > 0
            yield alphabet[support], pvec[support]


def state_count(spec: GameSpec, cap: int = DEFAULT_STATE_CAP) -> int:
    """The number of channel states of positive probability, the product
    of the links' support sizes.  Raises StateSpaceTooLargeError when it
    is over ``cap``; the product is formed exactly only while it is at
    most ``cap``, and a count of more than 18 digits is named by its
    order of magnitude."""
    sizes = [values.size for values, _ in _link_supports(spec)]
    count = 1
    for size in sizes:
        count *= size
        if count > cap:
            digits = sum(map(math.log10, sizes))
            needs = math.prod(sizes) if digits < 18 else f"about 10^{digits:.0f}"
            raise StateSpaceTooLargeError(
                f"state space needs {needs} entries, cap is {cap}")
    return count


def enumerate_states(spec: GameSpec, cap: int = DEFAULT_STATE_CAP) -> StateSpace:
    """Enumerate the channel states of positive probability.

    Links are independent, so these are the Cartesian product of each
    link's positive-probability alphabet entries, and the joint
    probability of a state is the product of its per-link probabilities.
    Raises StateSpaceTooLargeError when there are more than ``cap``
    states (``state_count``).
    """
    n = spec.n_players
    total = state_count(spec, cap)
    supports = list(_link_supports(spec))
    digits = np.unravel_index(np.arange(total), [v.size for v, _ in supports])
    gains = np.empty((n, n, total))  # player-major, as StateSpace stores it
    probs = np.ones(total)
    for link, (alphabet, pvec) in enumerate(supports):
        gains[link // n, link % n] = alphabet[digits[link]]
        probs *= pvec[digits[link]]
    return StateSpace(gains=gains.transpose(2, 0, 1), probs=probs)


def _transmitter_sum(G, X, out):
    """sum_j G[i, j, k] X[..., j, k] into out, for G (N, N, N1) and
    X (..., N, N1).

    A plain loop over the transmitters j, in index order: every element
    is summed in the same order whatever the memory layout of X.
    """
    np.multiply(G[:, 0], X[..., 0:1, :], out=out)
    term = np.empty_like(out)
    for j in range(1, G.shape[1]):
        out += np.multiply(G[:, j], X[..., j:j + 1, :], out=term)
    return out


def interference(spec: GameSpec, space: StateSpace, P):
    """Received signal and interference of every player at every state.

    For powers P of shape (..., N, N1) returns (signal, interf) of the
    same shape: signal = alpha_i |h_ii|^2 P_i(h) and
    interf = 1 + sum_{j != i} |h_ij|^2 P_j(h).  Every solver builds on
    these two tables: the SINR is their ratio, the water-filling floors
    are interf / (alpha_i |h_ii|^2), and they feed the rate gradient.
    The received power is summed over the transmitters j in index order
    (the own term included, then subtracted), so the bits do not depend
    on the memory layout or batch shape of P.  The gains are read in
    place, player-major.
    """
    own = np.multiply(space.direct_gains.T, P, out=np.empty(P.shape))
    interf = _transmitter_sum(space.gains.transpose(1, 2, 0), P, np.empty(P.shape))
    interf += 1.0
    interf -= own
    own *= spec.alpha[:, None]
    return own, interf


def rate_table(spec, space, prof):
    """Per-state rates log(1 + SINR_i(h)) in nats, shape (..., N1, N).

    The table is state-major and C-ordered, so the reductions over
    states in expected_rates and the Monte-Carlo average always sum in
    the same order.
    """
    signal, interf = interference(spec, space, np.asarray(prof, float))
    return np.ascontiguousarray(np.swapaxes(np.log1p(signal / interf), -1, -2))


def expected_rates(spec, space, prof):
    """Expected rates E_h[log(1 + SINR_i)] of all players, shape (..., N)."""
    return np.einsum('k,...ki->...i', space.probs, rate_table(spec, space, prof))


def average_powers(space, prof):
    """Average transmit powers E_h[P_i(h)], shape (..., N)."""
    return np.asarray(prof, float) @ space.probs


def sum_rate(spec: GameSpec, space: StateSpace, prof) -> float:
    """Total expected rate over all players (nats)."""
    return float(expected_rates(spec, space, prof).sum())


def is_feasible(space: StateSpace, prof, pbar) -> np.ndarray:
    """Per-player feasibility: nonnegative and
    E[P_i] <= pbar_i + FEAS_TOL * max(1, pbar_i)."""
    P = np.asarray(prof, float)
    pbar = np.asarray(pbar, dtype=float)
    nonneg = np.all(P >= 0, axis=-1)
    return nonneg & (P @ space.probs <= pbar + FEAS_TOL * np.maximum(1.0, pbar))
