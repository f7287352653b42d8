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
is provided separately as project_block / project_feasible.)  Both
projections are solved in closed form by the sorted-breakpoint
water-filling solver.

When the symmetric part of Htilde is positive semidefinite, the
Tikhonov-regularized operator F_eps = F + eps*P is strongly monotone and
the projection iteration with a fixed step converges; driving eps -> 0
with warm starts recovers the solution of the unregularized VI.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .game import GameSpec, PowerProfile, StateSpace, _powers
from .spectral import (InterferenceOperator, _plus_identity, build_operator,
                       definiteness)
from .waterfilling import waterfill_levels


@dataclass(frozen=True)
class ViProblem:
    """Operator data plus the per-player feasible-set description."""

    op: InterferenceOperator
    probs: np.ndarray
    pbar: np.ndarray

    @property
    def n_players(self):
        return self.op.n_players

    @property
    def n_states(self):
        return self.op.n_states


@dataclass(frozen=True)
class ViReport:
    solution: PowerProfile
    eps_path: list[tuple[float, int, float]]  # (eps, inner iterations, residual)
    converged: bool
    tau_used: float


def make_vi_problem(spec: GameSpec, space: StateSpace) -> ViProblem:
    return ViProblem(op=build_operator(spec, space), probs=space.probs,
                     pbar=spec.pbar)


def _as_table(problem, prof):
    """Power data as the state-major table (N1, N) the blocks act on."""
    P = _powers(prof)
    if P.shape == (problem.n_players, problem.n_states):
        return P.T
    raise ValueError(f"profile shape {P.shape} does not match problem "
                     f"({problem.n_players} players, {problem.n_states} states)")


def _eval_F_table(problem, table, eps=0.0):
    """F_eps blockwise on a state-major table: hhat + (I + Hhat + eps I) P."""
    coupled = np.einsum('kij,kj->ki', problem.op.blocks, table)
    return problem.op.hhat + (1.0 + eps) * table + coupled


def eval_F(problem: ViProblem, prof, eps: float = 0.0) -> np.ndarray:
    """F_eps(P) = hhat + Htilde P + eps P as a flat state-major vector of
    length N*N1; eps = 0 gives the unregularized operator F."""
    return _eval_F_table(problem, _as_table(problem, prof), eps=eps).ravel()


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
    if probs @ clipped <= pbar + 1e-9:
        return clipped
    on = probs > 0
    floors = -x[on] / probs[on]
    level = waterfill_levels(floors, probs[on] ** 2, pbar)
    clipped[on] = probs[on] * np.maximum(0.0, level - floors)
    return clipped


def project_feasible(problem: ViProblem, z) -> PowerProfile:
    """Blockwise projection of an arbitrary point onto the product of the
    per-player budget-inequality sets (the feasible set is a product, so
    the projection decomposes player by player)."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z.reshape(problem.n_states, problem.n_players).T
    rows = [project_block(z[i], problem.probs, float(problem.pbar[i]))
            for i in range(problem.n_players)]
    return PowerProfile(powers=np.array(rows))


def _project_face(problem, table):
    """Projection onto the budget-equality face in the pi-weighted metric.

    Per player this is min sum_h pi(h)(p(h) - x(h))^2 over
    {p >= 0, sum pi p = pbar}, whose KKT system is p = max{0, x + level}
    with the budget tight: water-filling on floors -x.
    """
    floors = -table.T
    levels = waterfill_levels(floors, problem.probs, problem.pbar)
    return np.maximum(0.0, levels[:, None] - floors).T


def natural_residual(problem: ViProblem, prof, eps: float = 0.0) -> float:
    """||P - Pi_K(P - F_eps(P))||_inf, zero exactly at a solution."""
    table = _as_table(problem, prof)
    step = table - _eval_F_table(problem, table, eps=eps)
    return float(np.abs(table - _project_face(problem, step)).max())


def _max_singular(blocks) -> float:
    """Largest singular value over a stack of square blocks, from the
    top eigenvalue of each Gram matrix B^T B."""
    gram = np.einsum('kji,kjl->kil', blocks, blocks)
    return float(np.sqrt(np.linalg.eigvalsh(gram)[:, -1].max()))


def _lipschitz(problem) -> float:
    """||Htilde||_2 = max over blocks of the largest singular value."""
    return _max_singular(_plus_identity(problem.op.blocks.copy()))


def _iteration_norm(m_blocks, tau):
    """||I - tau*M||_2 over the block diagonal (exact, via the Gram)."""
    return _max_singular(_plus_identity(-tau * m_blocks))


def _best_tau(problem, eps, fallback):
    """Step minimizing the contraction norm ||I - tau*(Htilde + eps I)||_2.

    The norm is a convex function of tau (max of singular values of an
    affine matrix family), so ternary search finds the minimizer; the
    result is never worse than the sigma/L^2 bound used as fallback.
    """
    m = _plus_identity(problem.op.blocks.copy(), 1.0 + eps)
    lo, hi = 0.0, 4.0
    for _ in range(35):
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        if _iteration_norm(m, t1) <= _iteration_norm(m, t2):
            hi = t2
        else:
            lo = t1
    tau = 0.5 * (lo + hi)
    if _iteration_norm(m, tau) < 1.0:
        return tau
    return fallback


def _uniform_start(problem):
    """Budget-tight constant policy, P_i(h) = pbar_i."""
    return np.tile(problem.pbar[None, :], (problem.n_states, 1))


def solve_strong(problem: ViProblem, eps: float, init=None, tol: float = 1e-9,
                 max_iter: int = 200_000, _tau: float | None = None
                 ) -> tuple[PowerProfile, int]:
    """Projection iteration P <- Pi_K(P - tau F_eps(P)) at fixed eps.

    The step minimizes the computed per-iteration contraction norm
    ||I - tau (Htilde + eps I)||_2 over the blocks; if no step certifies
    contraction it falls back to sigma / L^2 with the strong-monotonicity
    modulus sigma = eps + max(0, min_sym_eig(Htilde)) and the Lipschitz
    constant L = ||Htilde||_2 + eps.  Stops when both the
    successive-iterate gap and the natural residual of F_eps fall below
    tol; hitting max_iter is reported by returning the iterate reached
    (no exception).  A caller that passes ``_tau`` has chosen the step and
    checked definiteness itself, so neither is done again here.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if _tau is None:
        psd, _, min_eig = definiteness(problem.op)
        if not psd:
            warnings.warn("Htilde is not positive semidefinite; the projection "
                          "iteration has no convergence guarantee", stacklevel=2)
        lip = _lipschitz(problem) + eps
        _tau = _best_tau(problem, eps, (eps + max(0.0, min_eig)) / lip ** 2)
    table = _uniform_start(problem) if init is None else _as_table(problem, init)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = _project_face(problem, table - _tau * _eval_F_table(problem, table, eps=eps))
        gap = float(np.abs(new - table).max())
        table = new
        if gap < tol and natural_residual(problem, table.T, eps=eps) < tol:
            break
    return PowerProfile(powers=table.T.copy()), iterations


def solve_regularized(problem: ViProblem, eps0: float = 1.0, decay: float = 0.5,
                      outer_tol: float = 1e-7, inner_tol: float = 1e-9,
                      init=None, max_outer: int = 60,
                      max_inner: int = 200_000) -> ViReport:
    """Drive eps_n = eps0 * decay^n -> 0 with warm starts.

    Each inner solve runs the fixed-step projection iteration on F_eps_n
    starting from the previous solution; the path stops as soon as the
    natural residual of the *unregularized* F drops below outer_tol.
    """
    if eps0 <= 0 or not (0.0 < decay < 1.0):
        raise ValueError("need eps0 > 0 and 0 < decay < 1")
    psd, _, min_eig = definiteness(problem.op)
    if not psd:
        warnings.warn("Htilde is not positive semidefinite; regularization "
                      "path has no convergence guarantee", stacklevel=2)
    lip0 = _lipschitz(problem)
    sigma0 = max(0.0, min_eig)
    table = _uniform_start(problem) if init is None else _as_table(problem, init)
    path = []
    converged = False
    tau = 0.0
    eps = eps0
    for n in range(max_outer):
        eps = eps0 * decay ** n
        tau = _best_tau(problem, eps, (eps + sigma0) / (lip0 + eps) ** 2)
        prof, inner = solve_strong(problem, eps, init=table.T, tol=inner_tol,
                                   max_iter=max_inner, _tau=tau)
        table = _as_table(problem, prof)
        residual = natural_residual(problem, prof)
        path.append((float(eps), int(inner), float(residual)))
        if residual < outer_tol:
            converged = True
            break
    return ViReport(solution=PowerProfile(powers=table.T.copy()),
                    eps_path=path, converged=converged, tau_used=float(tau))
