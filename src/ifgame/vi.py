"""Nash equilibria via a regularized projection method.

The fixed points of the water-filling map are the solutions of the
affine variational inequality with operator

    F(P) = hhat + Htilde P,   Htilde = I + Hhat   (blockwise per state),

posed over the product of the per-player policy sets restricted to their
budget-equality face, K_i = {P_i >= 0 : sum_h pi(h) P_i(h) = pbar_i},
with the pi-weighted inner product <x, y> = sum_{i,h} pi(h) x_i(h) y_i(h).
In that geometry the projection onto K_i is exactly water-filling on the
negated input, so the natural residual ||P - Pi_K(P - F(P))||_inf equals
the best-response residual ||P - WF(P)||_inf.  (Over the budget
*inequality* set the iteration P <- Pi(P - tau F(P)) collapses to zero
because F is strictly positive; the inequality-set Euclidean projection
is provided separately as project_block.)  Both projections are solved
in closed form by the sorted-breakpoint water-filling solver.

When the symmetric part of Htilde is positive definite, F itself is
strongly monotone with modulus min_sym_eig and the projection iteration
with a fixed step converges (Facchinei & Pang 2003, Sec. 12.1), so the
VI is solved directly at eps = 0.  When it is only positive
semidefinite, the Tikhonov-regularized operator F_eps = F + eps*P is
strongly monotone and the projection iteration converges for each
eps > 0; driving eps -> 0 recovers a solution of the unregularized VI.
Each eps round starts from the projected secant of the last two
solutions, a predictor along the smooth path eps -> P(eps).  Without
the semidefinite certificate the path runs while the step search
certifies a contraction, and stops at the first eps where it does not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import ULP_FLOOR, GameSpec, StateSpace, _transmitter_sum
# unused here, but perfbench/layers.py wraps ifgame.vi.definiteness by name
from .spectral import definiteness  # noqa: F401
from .waterfilling import (_breakpoint_levels, _equal_weight_sums,
                           waterfill_levels)


@dataclass(frozen=True)
class ViConfig:
    """Settings of the regularized projection method: eps_n = eps0 * decay^n,
    and the tolerance and cap of the eps path (outer) and of each fixed-eps
    solve (inner).  A positive definite game is solved at eps = 0 in one
    inner solve, so ``eps0``, ``decay`` and ``max_outer`` act only on the
    other games."""

    eps0: float = 1.0
    decay: float = 0.5
    outer_tol: float = 1e-7
    inner_tol: float = 1e-9
    max_outer: int = 60
    max_inner: int = 200_000

    def __post_init__(self):
        if not (0.0 < self.eps0 < np.inf and 0.0 < self.decay < 1.0):  # NaN fails too
            raise ValueError("need 0 < eps0 < inf and 0 < decay < 1")
        if not (0 < self.outer_tol < np.inf and 0 < self.inner_tol < np.inf):
            raise ValueError("outer_tol and inner_tol must be positive and finite")
        if min(self.max_outer, self.max_inner) < 1:
            raise ValueError("max_outer and max_inner must be at least 1")


@dataclass(frozen=True)
class ViProblem:
    """The game's state space, which is the operator and holds the state
    probabilities, and the per-player budgets of the feasible set."""

    space: StateSpace
    pbar: np.ndarray

    @property
    def n_players(self):
        return self.space.n_players

    @property
    def n_states(self):
        return self.space.n_states

    @cached_property
    def _mass(self):
        """``_equal_weight_sums`` of the state probabilities, for every
        face projection of this problem."""
        return _equal_weight_sums(self.space.probs, self.n_states)


@dataclass(frozen=True)
class ViReport:
    solution: np.ndarray  # (N, N1) power profile, see ifgame.game
    eps_path: list[tuple[float, int, float]]  # (eps, inner iterations, residual)
    converged: bool
    tau_used: float


def make_vi_problem(spec: GameSpec, space: StateSpace) -> ViProblem:
    return ViProblem(space=space, pbar=spec.pbar)


def _as_rows(problem, prof):
    """Power data as the player-major rows (N, N1) the iteration runs on."""
    P = np.asarray(prof, float)
    if P.shape == (problem.n_players, problem.n_states):
        return P
    raise ValueError(f"profile shape {P.shape} does not match problem "
                     f"({problem.n_players} players, {problem.n_states} states)")


def _eval_F(problem, P, eps=0.0):
    """F_eps on player-major rows, (N, N1): hhat + (1 + eps) P + Hhat P.

    The coupling sum_j Hhat(h)_ij P_j(h) is summed over j in index
    order by the floors kernel's transmitter loop, on the space's
    player-major memory read in place.
    """
    space = problem.space
    coupled = _transmitter_sum(space.blocks.transpose(1, 2, 0), P, np.empty(P.shape))
    out = np.multiply(1.0 + eps, P)
    out += space.hhat.T
    out += coupled
    return out


def project_block(x, probs, pbar: float) -> np.ndarray:
    """Euclidean projection of x onto {p >= 0, sum_h probs[h] p[h] <= pbar}.

    If clipping to the orthant is already within budget that is the
    projection; otherwise p(h) = max{0, x(h) - mu * probs[h]} with the
    unique mu > 0 that makes the budget tight.  Where probs[h] > 0 that
    is probs[h] * max{0, level - f(h)} with floors f = -x / probs and
    level = -mu: water-filling on f with weights probs^2, solved exactly
    by waterfill_levels.  Zero-probability states spend no budget and
    stay clipped.
    """
    x = np.asarray(x, dtype=float)
    probs = np.asarray(probs, dtype=float)
    clipped = np.maximum(x, 0.0)
    # the slack scales with pbar, so a tiny budget is not overspent
    if probs @ clipped <= pbar * (1.0 + 1e-9):
        return clipped
    on = probs > 0
    floors = -x[on] / probs[on]
    level = waterfill_levels(floors, probs[on] ** 2, pbar)
    clipped[on] = probs[on] * np.maximum(0.0, level - floors)
    return clipped


def _project_face(problem, floors):
    """Projection of the point -floors onto the budget-equality face in
    the pi-weighted metric, written over ``floors`` (N, N1).

    Per player this is min sum_h pi(h)(p(h) - x(h))^2 over
    {p >= 0, sum pi p = pbar}, whose KKT system is p = max{0, x + level}
    with the budget tight: water-filling on floors -x.
    """
    # no all-active check: it passes on 94 of the 9 752 projections of the
    # pd_not_contractive sweep and costs ~7 us of a ~21 us call at (3, 512)
    levels = _breakpoint_levels(floors, problem.space.probs, problem.pbar, problem._mass)
    np.subtract(levels[:, None], floors, out=floors)
    return np.maximum(0.0, floors, out=floors)


def _projection_step(problem, P, tau, eps):
    """One iteration P <- Pi_K(P - tau F_eps(P)) on player-major rows.

    The floors tau F - P are -(P - tau F) but for the sign of an exact
    zero, which cannot change the projection.
    """
    floors = _eval_F(problem, P, eps)
    floors *= tau
    floors -= P
    return _project_face(problem, floors)


def natural_residual(problem: ViProblem, prof, eps: float = 0.0) -> float:
    """||P - Pi_K(P - F_eps(P))||_inf, zero exactly at a solution."""
    P = _as_rows(problem, prof)
    return float(np.abs(P - _projection_step(problem, P, 1.0, eps)).max())


def _uniform_start(problem):
    """Budget-tight constant policy, P_i(h) = pbar_i."""
    return np.repeat(problem.pbar[:, None], problem.n_states, axis=1)


def solve_strong(problem: ViProblem, eps: float, config: ViConfig = ViConfig(),
                 init=None) -> tuple[np.ndarray, int]:
    """Projection iteration P <- Pi_K(P - tau F_eps(P)) at fixed eps.

    tau is ``problem.space.step(eps)``, searched once per space and eps;
    a step without a convergence guarantee is taken with a warning.
    Stops when both the successive-iterate gap and the natural residual
    of F_eps fall below max(``config.inner_tol``, ULP_FLOOR * max(pbar));
    hitting ``config.max_inner`` is reported by returning the iterate
    reached (no exception).  eps = 0 is accepted only when Htilde is
    positive definite, where F itself is strongly monotone.
    """
    if not (eps > 0 or (eps == 0 and problem.space.definite[1])):
        raise ValueError("eps must be positive, or zero on a positive "
                         "definite problem")
    tau, guaranteed = problem.space.step(eps)
    if not guaranteed:
        warnings.warn("Htilde is not positive semidefinite; the projection "
                      "iteration has no convergence guarantee", stacklevel=2)
    tol = max(config.inner_tol, ULP_FLOOR * problem.pbar.max())
    P = _uniform_start(problem) if init is None else _as_rows(problem, init)
    iterations = 0
    for iterations in range(1, config.max_inner + 1):
        new = _projection_step(problem, P, tau, eps)
        gap = float(np.abs(new - P).max())
        P = new
        if gap < tol and natural_residual(problem, P, eps=eps) < tol:
            break
    return P, iterations


def solve_regularized(problem: ViProblem, config: ViConfig = ViConfig(),
                      init=None) -> ViReport:
    """Solve the VI from ``init``: directly if Htilde is positive definite,
    else along the regularization path eps_n = eps0 * decay^n -> 0.

    A positive definite problem walks the one-round path eps = [0.0]: one
    ``solve_strong`` at eps = 0, reported as the one-row path
    [(0.0, inner iterations, residual)].  Otherwise each round runs the
    fixed-step projection iteration on F_eps_n.  The first two start from
    ``init`` and from the first solution; every later one starts from
    Pi_K(P_n + decay (P_n - P_{n-1})),
    the secant through the last two solutions extrapolated to eps_{n+1}
    (on the geometric grid the step along the secant is exactly ``decay``)
    and projected onto the budget face.  Only the start moves: each round
    still converges to the same P(eps_n) to ``config.inner_tol``.  The
    path stops as soon as the natural residual of the *unregularized* F
    drops below max(``config.outer_tol``, ULP_FLOOR * max(pbar)), or after
    ``config.max_outer`` rounds.  It also stops before the first round
    whose step has no convergence guarantee (``problem.space.step``); if
    that is the first round, the path is the one row (eps0, 0, residual
    of the start).
    """
    P = _uniform_start(problem) if init is None else _as_rows(problem, init)
    psd, pd, _ = problem.space.definite
    if not psd:
        warnings.warn("Htilde is not positive semidefinite; regularization "
                      "path has no convergence guarantee", stacklevel=2)
    epsilons = [0.0] if pd else (config.eps0 * config.decay ** n
                                 for n in range(config.max_outer))
    prev = None  # the solution of the round before P's
    path = []
    converged = False
    tau = 0.0
    outer_tol = max(config.outer_tol, ULP_FLOOR * problem.pbar.max())
    for n, eps in enumerate(epsilons):
        step, guaranteed = problem.space.step(eps)
        if not guaranteed:
            if not path:
                residual = natural_residual(problem, P)
                path.append((float(eps), 0, residual))
                converged = residual < outer_tol
            break
        tau = step
        # Pi_K(P + decay (P - prev)); _project_face takes the negated point
        start = P if n < 2 else _project_face(problem, config.decay * (prev - P) - P)
        prev = P
        P, inner = solve_strong(problem, eps, config, init=start)
        residual = natural_residual(problem, P)
        path.append((float(eps), int(inner), float(residual)))
        if residual < outer_tol:
            converged = True
            break
    return ViReport(solution=P, eps_path=path, converged=converged,
                    tau_used=float(tau))
