"""Stochastic power-allocation game on a Gaussian interference channel.

N transmitter-receiver pairs share a channel whose power gains change
i.i.d. from slot to slot.  Direct gains |h_ii|^2 take values in a finite
alphabet H_d, cross gains |h_ij|^2 (i != j) in H_c, each link with its own
categorical distribution.  Player i transmits with a stationary policy
P_i(h) and receives

    SINR_i = P_i(h) / f_i(h),
    f_i(h) = hhat(h)_i + sum_j Hhat(h)_ij P_j(h)
           = (1 + sum_{j != i} |h_ij|^2 P_j(h)) / (alpha_i |h_ii|^2),

with hhat(h)_i = 1 / (alpha_i |h_ii|^2) and Hhat(h)_ij =
|h_ij|^2 / (alpha_i |h_ii|^2), zero for j = i: the floors f are the
water-filling floors of every solver, and noise power is normalized to
1.  Expected rates are in nats (natural logarithm), and the budget
constraint is on the average power E_pi[P_i] <= Pbar_i.

A power profile is the float array of shape (N, N1) whose entry [i, k]
is P_i at state k of the enumerated StateSpace; every solver returns
one, and every function here takes one (or a batch (..., N, N1)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectral

DEFAULT_STATE_CAP = 100_000

#: slack allowed when checking the average-power budget, relative to
#: budgets above 1
FEAS_TOL = 1e-9
#: floor of the IWF and VI stopping tests, relative to the largest budget:
#: 8 ulps, since a budget-tight profile has max|P| >= max(pbar)
ULP_FLOOR = 8 * 2.0 ** -52


class StateSpaceTooLargeError(ValueError):
    """Raised when the full channel-state enumeration would exceed the cap."""


def _floats(x, name):
    """An owned float array of ``x``; a value numpy cannot read as one,
    such as a ragged table, is rejected under ``name``."""
    try:
        return np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _positive(x, name, n=None):
    """An owned, read-only float vector of finite positive entries: a
    non-empty alphabet, or with ``n`` given a per-player vector of length
    n, which one number fills."""
    v = _floats(x, name)  # owned copy; frozen below
    if n is not None and v.ndim == 0:
        v = np.full(n, float(v))
    if n is not None and v.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {v.shape}")
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty vector")
    if not np.all((v > 0) & (v < np.inf)):  # NaN fails too
        raise ValueError(f"{name} must be finite and positive")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class GameSpec:
    """Players, gain alphabets, link distributions, budgets and weights.

    ``direct_probs[i]`` is the categorical distribution of link (i, i)
    over ``direct_alphabet``, ``cross_probs[i, j]`` that of link (i, j),
    i != j, over ``cross_alphabet``; the diagonal rows of ``cross_probs``
    are unused.  A distribution not given is uniform.  Probabilities
    must be nonnegative and every used row must sum to 1 within 1e-12.
    ``alpha`` and ``weights`` default to ones; ``pbar``, ``alpha`` and
    ``weights`` may be given as one number for every player.  Every
    error message starts with the name of the argument it rejects.
    """

    n_players: int
    direct_alphabet: np.ndarray  # (n1,)
    cross_alphabet: np.ndarray   # (n2,)
    pbar: np.ndarray
    alpha: np.ndarray = None
    weights: np.ndarray = None
    direct_probs: np.ndarray = None  # (N, n1)
    cross_probs: np.ndarray = None   # (N, N, n2)

    def __post_init__(self):
        n = self.n_players
        if not (isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError(f"n_players: need at least one player, got {n!r}")
        direct = _positive(self.direct_alphabet, "direct_alphabet")
        cross = _positive(self.cross_alphabet, "cross_alphabet")
        d = (np.full((n, direct.size), 1.0 / direct.size) if self.direct_probs is None
             else _floats(self.direct_probs, "direct_probs"))
        c = (np.full((n, n, cross.size), 1.0 / cross.size) if self.cross_probs is None
             else _floats(self.cross_probs, "cross_probs"))
        if d.shape != (n, direct.size):
            raise ValueError(f"direct_probs must have shape {(n, direct.size)}, "
                             f"got {d.shape}")
        if c.shape != (n, n, cross.size):
            raise ValueError(f"cross_probs must have shape {(n, n, cross.size)}, "
                             f"got {c.shape}")
        for name, probs in (("direct_probs", d), ("cross_probs", c)):
            if np.any(probs < 0):
                raise ValueError(f"{name}: link probabilities must be nonnegative")
        # "not <=" rather than ">" so that NaN probabilities fail too
        if not np.all(np.abs(d.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("direct_probs: direct-link probabilities must sum to 1")
        bad = ~(np.abs(c.sum(axis=2) - 1.0) <= 1e-12)
        np.fill_diagonal(bad, False)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"cross_probs: cross-link ({i},{j}) probabilities "
                             "must sum to 1")
        d.flags.writeable = False
        c.flags.writeable = False
        alpha = np.ones(n) if self.alpha is None else self.alpha
        weights = np.ones(n) if self.weights is None else self.weights
        for name, value in (("direct_alphabet", direct), ("cross_alphabet", cross),
                            ("pbar", _positive(self.pbar, "pbar", n)),
                            ("alpha", _positive(alpha, "alpha", n)),
                            ("weights", _positive(weights, "weights", n)),
                            ("direct_probs", d), ("cross_probs", c)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class StateSpace:
    """Enumerated channel states: the best-response coupling of each state
    and its probability.

    With |h_ij(k)|^2 the gains of state k, ``hhat[k, i]`` is
    1 / (alpha_i |h_ii(k)|^2) and ``blocks[k, i, j]`` is
    |h_ij(k)|^2 / (alpha_i |h_ii(k)|^2) for j != i, 0 for j = i;
    ``probs[k]`` is the probability of state k.  These are the only
    description of the channel the solvers read, so a space is built for
    one alpha: a spec with other alpha needs its own ``enumerate_states``.
    The ordering is deterministic: links in row-major order (1,1), (1,2),
    ..., (N,N), the last link's alphabet index varying fastest (plain
    mixed-radix / lexicographic enumeration over the positive-probability
    entries of each link's alphabet).

    Both tables are stored player-major: ``hhat.T`` and
    ``blocks.transpose(1, 2, 0)``, with entry [i, j, k] = Hhat(k)_ij, are
    C-contiguous, so every kernel reads the row of a receiver or a link
    over all states in place.  hhat must be finite and positive, the
    blocks finite and nonnegative with zero diagonals, the probabilities
    finite, nonnegative and summing to 1 within 1e-9.

    The space is also the operator F(P) = hhat + (I + Hhat) P of the
    game's variational inequality: ``smax``, the PSD certificate
    ``definite``, ``sym_gram``, ``lipschitz`` and ``step(eps)`` are
    computed on first use and kept, so every caller on one space shares
    them (see ``ifgame.spectral``).
    """

    hhat: np.ndarray    # (N1, N), player-major in memory
    blocks: np.ndarray  # (N1, N, N), player-major in memory
    probs: np.ndarray   # (N1,)
    _taus: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.hhat, dtype=float)
        b = np.asarray(self.blocks, dtype=float)
        p = np.array(self.probs, dtype=float)
        if (b.ndim != 3 or b.shape[1] != b.shape[2] or h.shape != b.shape[:2]
                or p.shape != (b.shape[0],)):
            raise ValueError("inconsistent state-space shapes")
        if not np.all((h > 0) & (h < np.inf)):
            raise ValueError("hhat must be finite and positive")
        if not (np.all((b >= 0) & (b < np.inf)) and not np.einsum('kii->ki', b).any()):
            raise ValueError("blocks must be finite and nonnegative, with zero "
                             "diagonals")
        # "not <=" rather than ">" so that NaN probabilities fail too
        if not (np.all((p >= 0) & (p < np.inf)) and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError("state probabilities must be finite, nonnegative "
                             "and sum to 1")
        h = h.T.copy().T  # owned, player-major
        b = b.transpose(1, 2, 0).copy().transpose(2, 0, 1)
        for name, value in (("hhat", h), ("blocks", b), ("probs", p)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_states(self):
        return self.blocks.shape[0]

    @property
    def n_players(self):
        return self.blocks.shape[1]

    @cached_property
    def smax(self):
        """Smax, the (N, N) entrywise max of the blocks."""
        return self.blocks.max(axis=0)

    @cached_property
    def definite(self):
        """The PSD certificate ``spectral.definiteness(self)``:
        (psd, pd, min_sym_eig)."""
        return spectral.definiteness(self)

    @cached_property
    def sym_gram(self):
        """S = H + H^T and G = H^T H for each block H of
        ``spectral.representatives(self)``; every norm here is a max over
        blocks, and a relabelling of the players, an orthogonal
        similarity, keeps the norms of a block."""
        h = self.blocks[spectral.representatives(self)]
        return h + h.transpose(0, 2, 1), np.einsum('kji,kjl->kil', h, h)

    @cached_property
    def lipschitz(self):
        """||Htilde||_2 = max over blocks of the largest singular value of
        I + H, whose Gram matrix is I + S + G."""
        S, G = self.sym_gram
        return float(np.sqrt(1.0 + np.linalg.eigvalsh(S + G)[:, -1].max()))

    def step(self, eps):
        """(tau(eps), guaranteed): the searched step
        ``spectral._best_tau``, whose certified contraction guarantees
        convergence, else sigma / L^2 with sigma = eps + min_sym_eig -
        delta (delta = ``spectral._band(self)``) and L = ||Htilde||_2 +
        eps, guaranteed when sigma > 0, where F_eps is strongly monotone
        with modulus sigma; with sigma <= 0 the step is eps / L^2, not
        guaranteed."""
        if eps not in self._taus:
            tau = spectral._best_tau(self, eps)
            if tau is not None:
                self._taus[eps] = (tau, True)
            else:
                sigma = eps + self.definite[2] - spectral._band(self)
                tau = (sigma if sigma > 0 else eps) / (self.lipschitz + eps) ** 2
                self._taus[eps] = (tau, sigma > 0)
        return self._taus[eps]


def _per_link(direct, cross):
    """The (N, N) table of a value of each link: ``cross[i, j]`` off the
    diagonal and ``direct[i]`` on it, so its C order is link order."""
    table = np.array(cross)
    np.fill_diagonal(table, direct)
    return table


def _support_sizes(spec):
    """The (N, N) table of each link's number of positive-probability
    alphabet entries."""
    return _per_link(np.count_nonzero(spec.direct_probs > 0, axis=1),
                     np.count_nonzero(spec.cross_probs > 0, axis=2))


def state_count(spec: GameSpec, cap: int = DEFAULT_STATE_CAP) -> int:
    """The number of channel states of positive probability, the product
    of the links' support sizes.  Raises StateSpaceTooLargeError when it
    is over ``cap``; the product is formed exactly only while it is at
    most ``cap``, and a count of more than 18 digits is named by its
    order of magnitude."""
    sizes = _support_sizes(spec).ravel().tolist()
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
    probability of a state is the product of its per-link probabilities,
    multiplied in link order.  Raises StateSpaceTooLargeError when there
    are more than ``cap`` states (``state_count``).

    The states are laid out as a C-ordered grid with one axis per link of
    more than one support entry, in link order; each link's gains and
    probabilities are broadcast along its own axis.  A grid over d axes
    holds at least 2^d states, so the cap keeps d far inside numpy's
    dimension limit.  The links of one support entry are set all at
    once, and only those of probability other than exactly 1.0 join the
    product, since multiplying by 1.0 changes no bit.

    The gain table is then divided in place into the StateSpace's
    tables: each entry by alpha_i |h_ii|^2 into the blocks, with the
    diagonal set to 0, and hhat = 1 / (alpha_i |h_ii|^2).  No gain table
    is kept, so the space is built for ``spec.alpha``: a spec with other
    alpha needs its own enumeration.
    """
    n = spec.n_players
    total = state_count(spec, cap)
    sizes = _support_sizes(spec)
    one = sizes == 1
    # a one-entry link's only positive probability is its row's maximum
    only_gain = _per_link(spec.direct_alphabet[spec.direct_probs.argmax(axis=1)],
                          spec.cross_alphabet[spec.cross_probs.argmax(axis=2)])
    only_prob = _per_link(spec.direct_probs.max(axis=1), spec.cross_probs.max(axis=2))
    grid = sizes[~one].tolist()
    axes = np.cumsum(~one) - 1  # the grid axis of each link of several entries
    gains = np.empty((n, n, total))  # player-major, as StateSpace stores its blocks
    gains[one] = only_gain[one][:, None]
    probs = np.ones(grid)
    for link in np.flatnonzero(~one | (only_prob != 1.0)).tolist():
        i, j = divmod(link, n)
        if one[i, j]:
            probs *= only_prob[i, j]
            continue
        alphabet, pvec = ((spec.direct_alphabet, spec.direct_probs[i]) if i == j
                          else (spec.cross_alphabet, spec.cross_probs[i, j]))
        shape = [1] * len(grid)
        shape[axes[link]] = sizes[i, j]
        support = pvec > 0
        gains[i, j].reshape(grid)[...] = alphabet[support].reshape(shape)
        probs *= pvec[support].reshape(shape)
    diag = np.arange(n)
    geff = spec.alpha[:, None] * gains[diag, diag]  # alpha_i |h_ii|^2, (N, N1)
    gains /= geff[:, None, :]
    gains[diag, diag] = 0.0
    return StateSpace(hhat=(1.0 / geff).T, blocks=gains.transpose(2, 0, 1),
                      probs=probs.reshape(total))


def _transmitter_sum(G, X, out):
    """sum_j G[i, j, k] X[..., j, k] into out, for G (M, N, N1) and
    X (..., N, N1).

    A plain loop over the transmitters j, in index order: every element
    is summed in the same order whatever the memory layout of X.
    """
    np.multiply(G[:, 0], X[..., 0:1, :], out=out)
    term = np.empty_like(out)
    for j in range(1, G.shape[1]):
        out += np.multiply(G[:, j], X[..., j:j + 1, :], out=term)
    return out


#: states per block of the floors kernel: a (4, 8192) table of floats
#: is 256 KB, so a block's chain of operations stays in L2
_STATE_BLOCK = 8192


def _floors(space, P, rows=slice(None), out=None):
    """Floors f_i(h) = hhat(h)_i + sum_j Hhat(h)_ij P_j(h) of the receivers
    ``rows`` (a slice) under the profiles P (..., N, N1), shape
    P.shape[:-2] + (len(rows), N1), into ``out`` if given.

    The one kernel of every solver.  The coupling is summed over the
    transmitters j in index order (``_transmitter_sum``), the own term
    included: the blocks' zero diagonal drops it, so no noise is added to
    a received power and lost again.  The tables are read in place,
    player-major, and the states taken in blocks of ``_STATE_BLOCK``,
    each block through the whole chain of operations, so every element
    goes through the same operations in the same order as on the whole
    table, whatever the batch shape, layout or block, and a row has the
    same bits whichever rows are formed.  A game of one block is not
    sliced.
    """
    f = np.empty(P[..., rows, :].shape) if out is None else out
    tables = (space.blocks.transpose(1, 2, 0)[rows], space.hhat.T[rows], P, f)
    n_states = P.shape[-1]
    pieces = ([tables] if n_states <= _STATE_BLOCK else
              [[t[..., start:start + _STATE_BLOCK] for t in tables]
               for start in range(0, n_states, _STATE_BLOCK)])
    for coupling, hhat, x, o in pieces:
        _transmitter_sum(coupling, x, o)
        o += hhat
    return f


def rate_table(space, prof):
    """Per-state rates log(1 + P_i(h) / f_i(h)) in nats, shape (..., N1, N),
    with f the floors (``_floors``).

    The table is state-major and C-ordered, so the reductions over
    states in expected_rates and the Monte-Carlo average always sum in
    the same order.
    """
    P = np.asarray(prof, float)
    f = _floors(space, P)
    np.log1p(np.divide(P, f, out=f), out=f)
    return np.ascontiguousarray(np.swapaxes(f, -1, -2))


def expected_rates(space, prof):
    """Expected rates E_h[log(1 + SINR_i)] of all players, shape (..., N)."""
    return np.einsum('k,...ki->...i', space.probs, rate_table(space, prof))


def average_powers(space, prof):
    """Average transmit powers E_h[P_i(h)], shape (..., N)."""
    return np.asarray(prof, float) @ space.probs


def sum_rate(space: StateSpace, prof) -> float:
    """Total expected rate over all players (nats)."""
    return float(expected_rates(space, prof).sum())


def is_feasible(space: StateSpace, prof, pbar) -> np.ndarray:
    """Per-player feasibility: nonnegative and
    E[P_i] <= pbar_i + FEAS_TOL * max(1, pbar_i)."""
    P = np.asarray(prof, float)
    pbar = np.asarray(pbar, dtype=float)
    nonneg = np.all(P >= 0, axis=-1)
    return nonneg & (P @ space.probs <= pbar + FEAS_TOL * np.maximum(1.0, pbar))
