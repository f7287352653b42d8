"""Water-filling best response and iterative water-filling.

Against fixed opponents, player i's optimal policy is water-filling on
the per-state floors

    f_i(h) = (1 + sum_{j != i} |h_ij|^2 P_j(h)) / (alpha_i |h_ii|^2):

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

from .game import GameSpec, PowerProfile, StateSpace, _powers, interference

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


@dataclass(frozen=True)
class WaterfillResult:
    """One player's water-filled powers, the water level, and the number
    of states with positive power."""

    powers: np.ndarray
    level: float
    active_states: int


@dataclass(frozen=True)
class IwfReport:
    profile: PowerProfile
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
        raise ValueError("waterfill needs at least one state")
    with np.errstate(divide='ignore', invalid='ignore'):
        level = (pbars + (floors * probs).sum(axis=-1)) / probs.sum(axis=-1)
    if np.all(floors.max(axis=-1) <= level):
        return level
    return _breakpoint_levels(floors, probs, pbars)


def _breakpoint_levels(floors, probs, pbars) -> np.ndarray:
    """``waterfill_levels`` by the sorted-breakpoint method alone.

    With floors sorted ascending, the budget spent up to level L is
    piecewise linear in L, so the level solving the budget equation is
    found from cumulative sums in closed form.  Ties in the floors are
    broken by state index (stable sort) so the result is deterministic.
    """
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


def waterfill(floors, probs, pbar: float) -> WaterfillResult:
    """Exact water-filling: powers = max{0, level - floors} with
    sum_h probs[h] * powers[h] == pbar."""
    floors = np.asarray(floors, dtype=float)
    level = float(waterfill_levels(floors, probs, np.asarray(float(pbar))))
    powers = np.maximum(0.0, level - floors)
    return WaterfillResult(powers=powers, level=level,
                           active_states=int(np.count_nonzero(powers)))


def interference_floors(spec: GameSpec, space: StateSpace, prof) -> np.ndarray:
    """Floors f_i(h) of every player under the same frozen profile, (N, N1)."""
    _, interf = interference(spec, space, _powers(prof))
    return interf / (spec.alpha[:, None] * space.direct_gains.T)


def waterfill_map(spec: GameSpec, space: StateSpace, prof) -> np.ndarray:
    """Best responses of all players to the same frozen profile, (N, N1)."""
    floors = interference_floors(spec, space, prof)
    levels = waterfill_levels(floors, space.probs, spec.pbar)
    return np.maximum(0.0, levels[:, None] - floors)


def wf_residual(spec: GameSpec, space: StateSpace, prof) -> float:
    """Fixed-point residual ||P - WF(P)||_inf; zero exactly at an NE."""
    P = _powers(prof)
    return float(np.abs(P - waterfill_map(spec, space, P)).max())


def iterate_waterfilling(spec: GameSpec, space: StateSpace,
                         config: IwfConfig = IwfConfig(), init=None) -> IwfReport:
    """Iterate the best-response map until the sweep moves no player by
    ``config.tol`` or more.

    ``simultaneous`` updates every player from the same previous profile
    (Jacobi, the scheme the contraction analysis covers); ``sequential``
    updates players in index order using fresh values (Gauss-Seidel).
    Non-convergence within ``config.max_iter`` sweeps is reported, not
    raised.
    """
    n = spec.n_players
    P = np.zeros((n, space.n_states)) if init is None else _powers(init).copy()
    history = []
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        if config.scheme == "simultaneous":
            new = waterfill_map(spec, space, P)
        else:
            new = P.copy()
            for i in range(n):
                floors = interference_floors(spec, space, new)[i]
                new[i] = waterfill(floors, space.probs, spec.pbar[i]).powers
        residual = float(np.abs(new - P).max())
        history.append(residual)
        P = new
        if residual < config.tol:
            converged = True
            break
    return IwfReport(profile=PowerProfile(powers=P), iterations=iterations,
                     residual_history=history, converged=converged,
                     scheme=config.scheme)
