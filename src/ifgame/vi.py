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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .game import GameSpec, PowerProfile, StateSpace, _powers
from .spectral import (InterferenceOperator, _plus_identity, build_operator,
                       definiteness)
from .waterfilling import _breakpoint_levels, waterfill_levels


@dataclass(frozen=True)
class ViConfig:
    """Settings of the regularized projection method: eps_n = eps0 * decay^n,
    and the tolerance and cap of the eps path (outer) and of each fixed-eps
    solve (inner)."""

    eps0: float = 1.0
    decay: float = 0.5
    outer_tol: float = 1e-7
    inner_tol: float = 1e-9
    max_outer: int = 60
    max_inner: int = 200_000

    def __post_init__(self):
        if self.eps0 <= 0 or not (0.0 < self.decay < 1.0):
            raise ValueError("need eps0 > 0 and 0 < decay < 1")


class _StepData:
    """Budget-free data of the projection step, computed on first use.

    The PSD certificate, ||Htilde||_2 and tau(eps) depend on the operator
    only, so problems made by ``dataclasses.replace(problem, pbar=...)``
    share them; tau is searched once per eps.
    """

    def __init__(self, op):
        self.op = op
        self.taus = {}

    @cached_property
    def definite(self):
        """The PSD certificate ``definiteness(op)``: (psd, pd, min_sym_eig)."""
        return definiteness(self.op)

    @cached_property
    def blocks(self):
        """The distinct blocks Hhat(h); every norm here is a max over blocks."""
        b = self.op.blocks
        rows = b.reshape(b.shape[0], -1)
        rows = rows[np.lexsort(rows.T)]  # equal rows end up adjacent
        first = np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]
        return rows[first].reshape(-1, *b.shape[1:])

    @cached_property
    def lipschitz(self):
        """||Htilde||_2 = max over blocks of the largest singular value."""
        h = _plus_identity(self.blocks.copy())
        gram = np.einsum('kji,kjl->kil', h, h)
        return float(np.sqrt(np.linalg.eigvalsh(gram)[:, -1].max()))

    @cached_property
    def sym_gram(self):
        """S = H + H^T and G = H^T H for each distinct block H, with the
        smallest and largest eigenvalue of each, (K, 2), for the bounds
        in ``_step_norm``."""
        h = self.blocks
        S = h + h.transpose(0, 2, 1)
        G = np.einsum('kji,kjl->kil', h, h)
        return S, G, np.linalg.eigvalsh(S)[:, [0, -1]], np.linalg.eigvalsh(G)[:, [0, -1]]

    def step(self, eps):
        """tau(eps), with the fallback sigma / L^2 at L = ||Htilde||_2 + eps."""
        if eps not in self.taus:
            sigma = max(0.0, self.definite[2])
            self.taus[eps] = _best_tau(self, eps,
                                       (eps + sigma) / (self.lipschitz + eps) ** 2)
        return self.taus[eps]


@dataclass(frozen=True)
class ViProblem:
    """Operator data plus the per-player feasible-set description."""

    op: InterferenceOperator
    probs: np.ndarray
    pbar: np.ndarray
    _steps: _StepData | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._steps is None or self._steps.op is not self.op:
            object.__setattr__(self, "_steps", _StepData(self.op))

    @property
    def n_players(self):
        return self.op.n_players

    @property
    def n_states(self):
        return self.op.n_states

    @property
    def definite(self):
        """``definiteness(op)``, computed once per operator; the condition
        checks take it from here."""
        return self._steps.definite


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
    # no all-active check: it passes on 94 of the 9 752 projections of the
    # pd_not_contractive sweep and costs ~20 us of a ~150 us call at (3, 512)
    levels = _breakpoint_levels(floors, problem.probs, problem.pbar)
    return np.maximum(0.0, levels[:, None] - floors).T


def natural_residual(problem: ViProblem, prof, eps: float = 0.0) -> float:
    """||P - Pi_K(P - F_eps(P))||_inf, zero exactly at a solution."""
    table = _as_table(problem, prof)
    step = table - _eval_F_table(problem, table, eps=eps)
    return float(np.abs(table - _project_face(problem, step)).max())


def _step_norm(steps, tau, eps):
    """||I - tau (Htilde + eps I)||_2 over the blocks.

    With a = 1 - tau (1 + eps) each block is a I - tau H, whose Gram
    matrix is a^2 I - a tau S + tau^2 G (S and G from ``sym_gram``); its
    top eigenvalue is a^2 plus that of M = tau^2 G - a tau S.  By Weyl's
    inequalities the top eigenvalue of M lies between
    max(tau^2 g_max + min(-a tau s), tau^2 g_min + max(-a tau s)) and
    tau^2 g_max + max(-a tau s), with s over the ends of the spectrum of
    S, so only the blocks whose upper bound reaches the largest lower
    bound are solved.  eigvalsh solves each stacked matrix on its own,
    so the result is bit-identical to solving every block.
    """
    S, G, s_ends, g_ends = steps.sym_gram
    a = 1.0 - tau * (1.0 + eps)
    t2, at = tau * tau, a * tau
    shift = -at * s_ends
    upper = t2 * g_ends[:, 1] + shift.max(axis=1)
    lower = np.maximum(t2 * g_ends[:, 1] + shift.min(axis=1),
                       t2 * g_ends[:, 0] + shift.max(axis=1))
    # covers the rounding of the bounds and of eigvalsh
    margin = 1e-10 * (t2 * np.abs(g_ends).max() + abs(at) * np.abs(s_ends).max())
    keep = upper >= lower.max() - margin
    top = np.linalg.eigvalsh(t2 * G[keep] - at * S[keep])[:, -1].max()
    return float(np.sqrt(a * a + top))


def _best_tau(steps, eps, fallback):
    """Step minimizing the contraction norm ||I - tau*(Htilde + eps I)||_2.

    The norm is a convex function of tau (max of singular values of an
    affine matrix family), so a 35-round ternary search on [0, 4] finds
    the minimizer to within about 1e-6.  That step is returned when its
    norm is below 1, which certifies a contraction; otherwise the
    sigma/L^2 bound passed as ``fallback`` is returned.
    """
    lo, hi = 0.0, 4.0
    for _ in range(35):
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        if _step_norm(steps, t1, eps) <= _step_norm(steps, t2, eps):
            hi = t2
        else:
            lo = t1
    tau = 0.5 * (lo + hi)
    if _step_norm(steps, tau, eps) < 1.0:
        return tau
    return fallback


def _uniform_start(problem):
    """Budget-tight constant policy, P_i(h) = pbar_i."""
    return np.tile(problem.pbar[None, :], (problem.n_states, 1))


def solve_strong(problem: ViProblem, eps: float, config: ViConfig = ViConfig(),
                 init=None, _tau: float | None = None) -> tuple[PowerProfile, int]:
    """Projection iteration P <- Pi_K(P - tau F_eps(P)) at fixed eps.

    The step minimizes the computed per-iteration contraction norm
    ||I - tau (Htilde + eps I)||_2 over the blocks; if no step certifies
    contraction it falls back to sigma / L^2 with the strong-monotonicity
    modulus sigma = eps + max(0, min_sym_eig(Htilde)) and the Lipschitz
    constant L = ||Htilde||_2 + eps.  Stops when both the
    successive-iterate gap and the natural residual of F_eps fall below
    ``config.inner_tol``; hitting ``config.max_inner`` is reported by
    returning the iterate reached (no exception).  The step is searched
    once per operator and eps (see ``_StepData``).  A caller that passes
    ``_tau`` has chosen the step and checked definiteness itself, so
    neither is done again here.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if _tau is None:
        if not problem.definite[0]:
            warnings.warn("Htilde is not positive semidefinite; the projection "
                          "iteration has no convergence guarantee", stacklevel=2)
        _tau = problem._steps.step(eps)
    tol = config.inner_tol
    table = _uniform_start(problem) if init is None else _as_table(problem, init)
    iterations = 0
    for iterations in range(1, config.max_inner + 1):
        new = _project_face(problem, table - _tau * _eval_F_table(problem, table, eps=eps))
        gap = float(np.abs(new - table).max())
        table = new
        if gap < tol and natural_residual(problem, table.T, eps=eps) < tol:
            break
    return PowerProfile(powers=table.T.copy()), iterations


def solve_regularized(problem: ViProblem, config: ViConfig = ViConfig(),
                      init=None) -> ViReport:
    """Drive eps_n = eps0 * decay^n -> 0 with warm starts.

    Each inner solve runs the fixed-step projection iteration on F_eps_n
    starting from the previous solution; the path stops as soon as the
    natural residual of the *unregularized* F drops below
    ``config.outer_tol``, or after ``config.max_outer`` rounds.  The
    steps come from the problem's budget-free ``_StepData``.
    """
    steps = problem._steps
    if not steps.definite[0]:
        warnings.warn("Htilde is not positive semidefinite; regularization "
                      "path has no convergence guarantee", stacklevel=2)
    table = _uniform_start(problem) if init is None else _as_table(problem, init)
    path = []
    converged = False
    tau = 0.0
    for n in range(config.max_outer):
        eps = config.eps0 * config.decay ** n
        tau = steps.step(eps)
        prof, inner = solve_strong(problem, eps, config, init=table.T, _tau=tau)
        table = _as_table(problem, prof)
        residual = natural_residual(problem, prof)
        path.append((float(eps), int(inner), float(residual)))
        if residual < config.outer_tol:
            converged = True
            break
    return ViReport(solution=PowerProfile(powers=table.T.copy()),
                    eps_path=path, converged=converged, tau_used=float(tau))
