"""Water-filling best response and iterative water-filling.

Against fixed opponents, player i's optimal policy is water-filling on
the per-state floors

    f_i(h) = hhat(h)_i + sum_j Hhat(h)_ij P_j(h)
           = (1 + sum_{j != i} |h_ij|^2 P_j(h)) / (alpha_i |h_ii|^2):

    P_i(h) = max{0, level - f_i(h)},

with the level chosen so the average-power budget holds with equality
(the rate is strictly increasing in own power, so the budget always
binds).  The level is exact: in closed form when every state is active,
else by the sorted-breakpoint method.
Iterating the best response of every player (Jacobi or Gauss-Seidel
sweeps) converges to the unique Nash equilibrium whenever the
contraction condition holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import ULP_FLOOR, GameSpec, StateSpace, _floors

SCHEME_CHOICES = ("simultaneous", "sequential")


@dataclass(frozen=True)
class IwfConfig:
    """Settings of ``iterate_waterfilling``; ``scheme`` is one of SCHEME_CHOICES."""

    scheme: str = "simultaneous"
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.scheme not in SCHEME_CHOICES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.tol < np.inf:  # NaN fails too
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IwfReport:
    profile: np.ndarray  # (N, N1) power profile, see ifgame.game
    iterations: int
    residual_history: list[float]
    converged: bool
    scheme: str


def waterfill_levels(floors, probs, pbars) -> np.ndarray:
    """Water levels for a stack of problems; floors (..., N1), pbars (...,),
    probs broadcastable to floors.

    When every state is active the level is (pbar + sum_h pi(h) f(h)) /
    sum_h pi(h); it is returned as is when no row's top floor lies above
    it, as at every IWF map of example 1.  Otherwise the level
    comes from the sorted-breakpoint method (``_breakpoint_levels``),
    which the VI projection always uses.
    """
    floors = np.asarray(floors, dtype=float)
    probs = np.asarray(probs, dtype=float)
    pbars = np.asarray(pbars, dtype=float)
    if floors.shape[-1] == 0:
        raise ValueError("water-filling needs at least one state")
    with np.errstate(divide='ignore', invalid='ignore'):
        level = (pbars + (floors * probs).sum(axis=-1)) / probs.sum(axis=-1)
    if np.all(floors.max(axis=-1) <= level):
        return level
    return _breakpoint_levels(floors, probs, pbars)


def _equal_weight_sums(probs, n_states):
    """Cumulative sums of the weights over ``n_states`` sorted states when
    every weight is the same nonzero value, as under uniform link
    probabilities; None otherwise."""
    p0 = probs.flat[0]
    if p0 != 0 and np.all(probs == p0):
        return np.cumsum(np.full(n_states, p0))
    return None


def _breakpoint_levels(floors, probs, pbars, mass=None) -> np.ndarray:
    """``waterfill_levels`` by the sorted-breakpoint method alone.

    With floors sorted ascending, the budget spent up to level L is
    piecewise linear in L, so the level solving the budget equation is
    found from cumulative sums in closed form: it is the first candidate
    (pbar + sum p f) / sum p, summed up to a breakpoint, that does not
    exceed the next floor.

    When every weight is the same nonzero value p, as under uniform link
    probabilities, the floor values alone are sorted: tied floors then
    add equal terms p*f to the sums, so their order cannot change a bit
    of the result (-0.0 and 0.0 tie too, and the sign of a zero sum is
    lost on adding any budget but -0.0).  The weight sums are then one
    cumulative sum of p, ``_equal_weight_sums(probs, n_states)``, shared
    by every row; a caller that projects often passes it as ``mass``.
    Otherwise ties are broken by state index (stable argsort) so the
    result is deterministic.  Every sum is sequential, so the level has
    the bits of adding the sorted terms in order.
    """
    if mass is None:
        mass = _equal_weight_sums(probs, floors.shape[-1])
    if mass is not None:
        f = np.sort(floors, axis=-1)
        spend = np.multiply(mass[0], f)
    else:
        order = np.argsort(floors, axis=-1, kind='stable')
        f = np.take_along_axis(floors, order, axis=-1)
        mass = np.take_along_axis(np.broadcast_to(probs, floors.shape), order,
                                  axis=-1)
        spend = np.multiply(mass, f)
        np.add.accumulate(mass, axis=-1, out=mass)
    candidates = np.add.accumulate(spend, axis=-1, out=spend)
    with np.errstate(divide='ignore', invalid='ignore'):
        candidates += pbars[..., None]
        candidates /= mass
    # the first candidate at or below the next floor; the last one has
    # no next floor and is taken unless it is NaN
    fits = np.empty(f.shape, dtype=bool)
    np.less_equal(candidates[..., :-1], f[..., 1:], out=fits[..., :-1])
    np.less_equal(candidates[..., -1], np.inf, out=fits[..., -1])
    k = np.argmax(fits, axis=-1)
    rows = candidates.reshape(-1, f.shape[-1])
    return rows[np.arange(len(rows)), k.ravel()].reshape(k.shape)


def interference_floors(spec: GameSpec, space: StateSpace, prof) -> np.ndarray:
    """Floors f_i(h) of every player under the same frozen profile, (N, N1)."""
    return _floors(space, np.asarray(prof, float))


def waterfill_map(spec: GameSpec, space: StateSpace, prof) -> np.ndarray:
    """Best responses of all players to the same frozen profile, (N, N1)."""
    floors = _floors(space, np.asarray(prof, float))
    levels = waterfill_levels(floors, space.probs, spec.pbar)
    best = np.subtract(levels[:, None], floors, out=floors)
    return np.maximum(0.0, best, out=best)


def wf_residual(spec: GameSpec, space: StateSpace, prof) -> float:
    """Fixed-point residual ||P - WF(P)||_inf; zero exactly at an NE."""
    P = np.asarray(prof, float)
    return float(np.abs(P - waterfill_map(spec, space, P)).max())


def iterate_waterfilling(spec: GameSpec, space: StateSpace,
                         config: IwfConfig = IwfConfig(), init=None) -> IwfReport:
    """Iterate the best-response map until the sweep moves no player by
    ``config.tol`` or more, or by ULP_FLOOR * max(pbar) if that is larger.

    ``simultaneous`` updates every player from the same previous profile
    (Jacobi, the scheme the contraction analysis covers); ``sequential``
    updates players in index order using fresh values (Gauss-Seidel),
    forming only the updated player's floors.
    Non-convergence within ``config.max_iter`` sweeps is reported, not
    raised.
    """
    n = spec.n_players
    P = np.zeros((n, space.n_states)) if init is None else np.array(init, float)
    history = []
    converged = False
    iterations = 0
    tol = max(config.tol, ULP_FLOOR * spec.pbar.max())
    for iterations in range(1, config.max_iter + 1):
        if config.scheme == "simultaneous":
            new = waterfill_map(spec, space, P)
        else:
            new = P.copy()
            for i in range(n):
                floors = _floors(space, new, slice(i, i + 1))[0]
                level = waterfill_levels(floors, space.probs, spec.pbar[i])
                new[i] = np.maximum(0.0, level - floors)
        # P is this loop's own buffer: its zeros, its copy of init, or an
        # earlier sweep's result, so the old profile can hold |new - P|
        change = np.abs(np.subtract(new, P, out=P), out=P)
        residual = float(change.max())
        history.append(residual)
        P = new
        if residual < tol:
            converged = True
            break
    return IwfReport(profile=P, iterations=iterations, residual_history=history,
                     converged=converged, scheme=config.scheme)
