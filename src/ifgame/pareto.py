"""Local Pareto-optimal allocations by distributed augmented-Lagrangian ascent.

The weighted-sum objective sum_i w_i r_i is maximized over the average
power constraints through the augmented Lagrangian

    L(P, lam) = sum_i w_i r_i(P)
              + sum_i lam_i * (pbar_i - E[P_i])
              - c * sum_i (pbar_i - E[P_i])^2

(quadratic penalty with the sign that penalizes constraint violation
under maximization).  The inner loop is a steepest-ascent coordination:
every player forms a candidate gradient step, and only the single player
whose candidate improves L the most is updated (ties broken by lowest
player index).  The outer loop raises or lowers the multipliers by
lam_i <- max(0, lam_i - alpha * (pbar_i - E[P_i])) until every player's
power residual is within eps_feas.

The problem is nonconvex, so the method converges to a local Pareto
point depending on the start; multi_start runs K seeded random starts
and keeps the allocation with the best sum rate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .game import GameSpec, StateSpace, _floors, _transmitter_sum, expected_rates


@dataclass(frozen=True)
class AlConfig:
    """Tuning knobs of the augmented-Lagrangian solver.

    ``delta = None`` scales the default ascent step by the largest state
    probability (0.05 / max_h pi(h)); gradient entries carry a pi(h)
    factor, so a fixed step would shrink with the state-space size.
    ``max_inner`` caps one ascent call, not the whole solve: a capped,
    still-ascending start simply continues in the next outer round.
    """

    c: float = 10.0
    alpha_mult: float = 10.0
    delta: float | None = None
    eps_grad: float = 1e-4
    eps_feas: float = 1e-4
    max_outer: int = 200
    max_inner: int = 300
    starts: int = 10
    seed: int = 0

    def __post_init__(self):
        # the comparison rejects NaN and inf too: a NaN tolerance or an
        # infinite penalty stops the ascent at its start, and a NaN or
        # infinite step puts NaN into the profiles
        if not all(0 < x < np.inf for x in (self.c, self.alpha_mult,
                                            self.eps_grad, self.eps_feas)):
            raise ValueError("c, alpha_mult, eps_grad, eps_feas must be positive "
                             "and finite")
        if self.delta is not None and not 0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")
        if min(self.starts, self.max_outer, self.max_inner) < 1:
            raise ValueError("starts, max_outer and max_inner must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class StartResult:
    profile: np.ndarray  # (N, N1) power profile, see ifgame.game
    sum_rate: float
    outer_iterations: int
    feasibility_residuals: np.ndarray
    converged: bool
    multipliers: np.ndarray
    seed_key: tuple[int, int]


@dataclass(frozen=True)
class ParetoReport:
    best: np.ndarray  # (N, N1) power profile, see ifgame.game
    best_sum_rate: float
    per_start: list[StartResult]
    multipliers: np.ndarray
    converged: bool
    trajectories: list[list[float]] | None = None


def _slack(space, P, pbar):
    """pbar_i - E[P_i], shape (..., N)."""
    return pbar - P @ space.probs


def _lagrangian(spec, space, P, lam, c):
    slack = _slack(space, P, spec.pbar)
    value = expected_rates(spec, space, P) @ spec.weights
    return value + np.einsum('...i,...i->...', lam, slack) - c * (slack ** 2).sum(axis=-1)


def _by_transmitter(space):
    """The blocks read by transmitter, (N, N, N1): entry [i, j, k] is
    Hhat(k)_ji, and row [:, j] is receiver j's contiguous row of the
    player-major blocks."""
    return space.blocks.transpose(2, 1, 0)


def _gradient(spec, space, floors, P, slack, lam, c, scratch=None):
    """Gradient of L w.r.t. every power variable, shape (..., N, N1), from
    the profiles P, their floors and their budget slacks.

    Per state h, with f the floors:  dL/dP_i(h) = pi(h) * [ w_i / (f_i + P_i)
        - sum_j Hhat_ji w_j P_j / (f_j (f_j + P_j))  - lam_i
        + 2c (pbar_i - E[P_i]) ].
    The sum over j is the floors kernel's transmitter loop on the blocks
    read by transmitter, whose zero diagonal drops the own term; the
    product f_j (f_j + P_j) is never formed.  ``scratch`` is three tables
    shaped like ``P`` to work in, the first of which returns the
    gradient; fresh ones are made if it is not given.
    """
    own, moved, cross = scratch or [np.empty(P.shape) for _ in range(3)]
    np.add(floors, P, out=own)
    np.divide(spec.weights[:, None], own, out=own)   # w_i / (f_i + P_i)
    np.multiply(own, P, out=moved)
    moved /= floors
    _transmitter_sum(_by_transmitter(space), moved, cross)
    grad = np.subtract(own, cross, out=own)         # the per-state bracket, in place
    grad -= lam[..., :, None]
    grad += 2.0 * c * slack[..., :, None]
    grad *= space.probs
    return grad


def _grad_all(spec, space, P, lam, c):
    """Gradient of L w.r.t. every power variable, shape (..., N, N1)."""
    return _gradient(spec, space, _floors(space, P), P,
                     _slack(space, P, spec.pbar), lam, c)


def _projected_grad_norms(P, grads):
    """Norms of the gradients projected on the tangent cone of {P >= 0}."""
    pg = np.where(P > 0, grads, np.maximum(grads, 0.0))
    return np.sqrt((pg ** 2).sum(axis=-1))


def _ascent_batch(spec, space, P, lam, cfg, delta, active=None):
    """Steepest ascent on a batch of profiles; returns (P, iterations, hit_cap).

    Each iteration: every player of every active batch member forms the
    candidate Q_i = max(0, P_i + delta * grad_i); the single player whose
    candidate improves L the most is updated (argmax ties resolve to the
    lowest player index).  A batch member stops when every player's
    nonnegativity-projected gradient norm is below eps_grad (the
    projected norm never exceeds the raw norm, so this also covers the
    unconstrained stationarity test), or at the iteration cap.

    Players already below the tolerance are excluded from the candidate
    evaluation: their improvement is O(delta * eps_grad^2) and cannot win
    the argmax against any player still above it.

    All intermediates are shared between the gradient and the candidate
    values.  Candidate (b, j) differs from profile b only in row j, so
    only its own rate log1p(q_j / f_j) and the floors f_i + Hhat_ij *
    (q_j - P_j) of the receivers i != j change: the own rates of every
    candidate come from one (B, N, N1) table, and the other receivers'
    rates log1p(P_i / (f_i + Hhat_ij dp)) from an (M, N-1, N1) table of
    the M candidates, built on a contiguous copy of the off-diagonal
    blocks made once per call.  Every table is player-major, like the
    blocks.  The tables hold only the members still ascending: the rows
    of ``active`` are gathered once per call, a member is dropped when
    it stops, and its rows are written back into P then or at the end.
    The floors and gradient tables are made once per call and sliced to
    the members still ascending.  Every
    member goes through the same arithmetic as in a table of the whole
    batch, so its bits do not depend on which other members are still
    ascending.
    """
    batch, n, n_states = P.shape
    rows = np.arange(batch) if active is None else active.nonzero()[0]
    iterations = np.zeros(batch, dtype=int)
    probs = space.probs
    off = ~np.eye(n, dtype=bool)
    others = off.nonzero()[1].reshape(n, n - 1)       # [j] = the rows i != j
    off_tx = _by_transmitter(space)[off].reshape(n, n - 1, n_states)  # [j, m] = Hhat_ij
    tables = np.empty((4, rows.size, n, n_states))    # reused by every step
    work, lam = P[rows], lam[rows]
    base_value = _lagrangian(spec, space, work, lam, cfg.c)
    for _ in range(cfg.max_inner):
        floors, *scratch = tables[:, :rows.size]  # (B, N, S) each
        _floors(space, work, out=floors)
        slack = _slack(space, work, spec.pbar)     # (B, N)
        grads = _gradient(spec, space, floors, work, slack, lam, cfg.c, scratch)
        eligible = _projected_grad_norms(work, grads) >= cfg.eps_grad
        moving = eligible.any(axis=1)
        if not moving.all():
            P[rows[~moving]] = work[~moving]
            rows, work, lam, base_value, eligible, floors, slack, grads = (
                x[moving] for x in (rows, work, lam, base_value, eligible,
                                    floors, slack, grads))
        if not rows.size:
            break
        iterations[rows] += 1
        q = np.multiply(delta, grads, out=grads)
        q += work
        np.maximum(0.0, q, out=q)
        sel_b, sel_i = eligible.nonzero()          # ordered by (b, then i)
        mrows = np.arange(sel_b.size)
        dp = np.subtract(q, work, out=scratch[1][:rows.size])[sel_b, sel_i]  # (M, S)
        own = np.divide(q, floors, out=scratch[2][:rows.size])
        np.log1p(own, out=own)                     # every candidate's own row
        # the rows i != j of candidate (b, j): floors Hhat_ij * dp + f_i
        # under the move, the power P_i unchanged
        flat = (sel_b * n)[:, None] + others[sel_i]  # (M, N-1) rows of (B*N, S)
        denom = off_tx[sel_i]
        denom *= dp[:, None, :]
        denom += floors.reshape(-1, n_states).take(flat, axis=0)
        cand = work.reshape(-1, n_states).take(flat, axis=0)
        cand /= denom
        np.log1p(cand, out=cand)
        rates = (own @ probs)[sel_b]               # (M, N) expected rates
        rates[off[sel_i]] = (cand @ probs).ravel()
        cand_slack = slack[sel_b]
        cand_slack[mrows, sel_i] -= dp @ probs
        value = np.full((rows.size, n), -np.inf)
        value[sel_b, sel_i] = (rates @ spec.weights
                               + (lam[sel_b] * cand_slack).sum(axis=-1)
                               - cfg.c * (cand_slack ** 2).sum(axis=-1))
        gain = value - base_value[:, None]
        pick = gain.argmax(axis=1)                 # first maximum: lowest index
        members = np.arange(rows.size)
        work[members, pick] = q[members, pick]
        base_value = value[members, pick]
    P[rows] = work
    capped = np.zeros(batch, dtype=bool)
    capped[rows] = True
    return P, iterations, capped


def _default_delta(space, cfg):
    return cfg.delta if cfg.delta is not None else 0.05 / float(space.probs.max())


def steepest_ascent(spec: GameSpec, space: StateSpace, prof, lambdas,
                    config: AlConfig = AlConfig()) -> np.ndarray:
    """Single-profile steepest ascent at fixed multipliers."""
    P = np.array(prof, float)[None]
    lam = np.asarray(lambdas, float)[None]
    P, _, capped = _ascent_batch(spec, space, P, lam, config,
                                 _default_delta(space, config))
    if capped[0]:
        warnings.warn("steepest ascent hit the inner iteration cap before "
                      "reaching the gradient tolerance", stacklevel=2)
    return P[0]


def _cap_budgets(space, P, pbar):
    """Scale any row spending more than its budget down to equality."""
    avg = P @ space.probs
    target = np.broadcast_to(pbar, avg.shape)
    over = avg > target
    if np.any(over):
        P = P.copy()
        P[over] *= (target[over] / avg[over])[:, None]
    return P


def _solve_outer_batch(spec, space, P, lam, cfg, track=False):
    """Multiplier loop on a batch; members freeze as they become feasible."""
    batch = P.shape[0]
    delta = _default_delta(space, cfg)
    active = np.ones(batch, dtype=bool)
    outer_iters = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    residuals = np.zeros((batch, spec.n_players))
    trail = [[] for _ in range(batch)] if track else None
    for _ in range(cfg.max_outer):
        if not active.any():
            break
        P, _, capped = _ascent_batch(spec, space, P, lam, cfg, delta, active)
        slack = _slack(space, P, spec.pbar)
        outer_iters += active
        residuals[active] = np.abs(slack[active])
        if track:
            rates = expected_rates(spec, space, P).sum(axis=-1)
            for b in active.nonzero()[0]:
                trail[b].append(float(rates[b]))
        # a member is done only when feasible *and* the ascent reached
        # stationarity (a capped inner loop keeps ascending next round)
        feasible = np.all(np.abs(slack) < cfg.eps_feas, axis=-1) & ~capped
        converged |= active & feasible
        active &= ~feasible
        update = active & (np.abs(slack).max(axis=-1) >= cfg.eps_feas)
        lam[update] = np.maximum(0.0, lam[update] - cfg.alpha_mult * slack[update])
    return P, lam, outer_iters, residuals, converged, trail


def random_start(spec: GameSpec, space: StateSpace, rng) -> np.ndarray:
    """Entries uniform on [0, pbar_i], then scaled so E[P_i] = pbar_i."""
    P = rng.uniform(0.0, 1.0, size=(spec.n_players, space.n_states))
    P *= spec.pbar[:, None]
    P *= (spec.pbar / (P @ space.probs))[:, None]
    return P


def multi_start(spec: GameSpec, space: StateSpace,
                config: AlConfig = AlConfig(), track=False) -> ParetoReport:
    """Run the multiplier loop from K seeded random starts, keep the best
    sum rate.

    Start k draws its profile from numpy's PCG64 seeded with
    (config.seed, k), so runs are reproducible and the start sequence is
    nested in K.  The best profile is chosen among converged (feasible)
    starts; if none converged the report carries converged=False and the
    best over all starts.
    """
    k = config.starts
    starts = np.stack([random_start(spec, space, np.random.default_rng([config.seed, j]))
                       for j in range(k)])
    lam = np.zeros((k, spec.n_players))
    P, lam, iters, residuals, conv, trail = _solve_outer_batch(
        spec, space, starts, lam, config, track=track)
    P = _cap_budgets(space, P, spec.pbar)
    rates = expected_rates(spec, space, P).sum(axis=-1)
    per_start = [StartResult(profile=P[j], sum_rate=float(rates[j]),
                             outer_iterations=int(iters[j]),
                             feasibility_residuals=residuals[j].copy(),
                             converged=bool(conv[j]),
                             multipliers=lam[j].copy(),
                             seed_key=(config.seed, j))
                 for j in range(k)]
    eligible = conv if conv.any() else np.ones(k, dtype=bool)
    masked = np.where(eligible, rates, -np.inf)
    best = int(masked.argmax())
    return ParetoReport(best=per_start[best].profile,
                        best_sum_rate=per_start[best].sum_rate,
                        per_start=per_start,
                        multipliers=per_start[best].multipliers,
                        converged=bool(conv.any()),
                        trajectories=trail)
