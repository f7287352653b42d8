"""Uniqueness and convergence condition checks for the power game.

The water-filling best response is affine in the opponents' powers with a
block-diagonal coupling operator: per state h,

    hhat(h)_i   = 1 / (alpha_i |h_ii|^2),
    Hhat(h)_ij  = |h_ij|^2 / (alpha_i |h_ii|^2)   (i != j, zero diagonal),

and Smax_ij = max_h Hhat(h)_ij.  Four checks decide which solver is
guaranteed to work:

  * contraction: rho(Smax) < 1, which makes iterative water-filling a
    contraction with a unique fixed point; the alphabet ratio
    (N-1) * max(H_c) / (min_i alpha_i * min(H_d)) bounds rho(Smax) and
    equals it when every alphabet entry has positive probability and
    every alpha_i is the same (then it is the common row sum of Smax);
  * rho(Hhat) over the whole block-diagonal operator, equal to rho(Smax)
    because Smax is itself one of the blocks and dominates the rest, so
    the report takes it from Smax; rho_blockdiag computes it over every
    block, and the tests check the two agree bit for bit;
  * positive (semi)definiteness of the quadratic form of
    Htilde = I + Hhat, tested on the symmetric part of each block; this
    is the monotonicity condition under which the regularized projection
    solver converges even when rho(Hhat) >= 1;
  * the step certificate: a step tau with ||I - tau (Htilde + eps I)||_2
    < 1, which makes the projection iteration on F_eps a contraction
    (Facchinei & Pang 2003, Sec. 12.1); InterferenceOperator.step
    searches it.

The certificate, ||Htilde||_2 and tau(eps) depend on the operator alone,
so the operator computes each on first use and keeps it: the condition
checks and every VI problem on one operator share them, and tau is
searched once per eps.

Spectral radii come from numpy's batched eigenvalue solver applied to the
N x N blocks; the block-diagonal operator is never densified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .game import GameSpec, StateSpace


@dataclass(frozen=True)
class InterferenceOperator:
    """Blockwise interference coupling of the best-response map."""

    hhat: np.ndarray    # (N1, N): hhat[k] is the block of state k; player-major
    blocks: np.ndarray  # (N1, N, N): Hhat(h) per state, zero diagonals; player-major
    smax: np.ndarray    # (N, N): entrywise max of the blocks
    _taus: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_states(self):
        return self.blocks.shape[0]

    @property
    def n_players(self):
        return self.blocks.shape[1]

    @cached_property
    def definite(self):
        """The PSD certificate ``definiteness(self)``: (psd, pd, min_sym_eig)."""
        return definiteness(self)

    @cached_property
    def representatives(self):
        """Index of the first block of each class of blocks equal up to a
        relabelling of the players: each block's players are ordered by
        their sorted row entries, then their sorted column entries (ties in
        index order), and equal relabelled blocks are one class.  A tie can
        split a class in two, which costs only time."""
        b = self.blocks
        keys = np.concatenate([np.sort(b, axis=2), np.sort(b, axis=1).transpose(0, 2, 1)], 2)
        perm = np.lexsort(keys.transpose(2, 0, 1)[::-1], axis=-1)
        rows = b[np.arange(self.n_states)[:, None, None], perm[:, :, None], perm[:, None, :]]
        rows = rows.reshape(self.n_states, -1)
        order = np.lexsort(rows.T)  # equal rows end up adjacent, in index order
        rows = rows[order]
        return order[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]

    @cached_property
    def sym_gram(self):
        """S = H + H^T and G = H^T H for each representative block H; every
        norm here is a max over blocks, and a relabelling of the players, an
        orthogonal similarity, keeps the norms of a block."""
        h = self.blocks[self.representatives]
        return h + h.transpose(0, 2, 1), np.einsum('kji,kjl->kil', h, h)

    @cached_property
    def lipschitz(self):
        """||Htilde||_2 = max over blocks of the largest singular value of
        I + H, whose Gram matrix is I + S + G."""
        S, G = self.sym_gram
        return float(np.sqrt(1.0 + np.linalg.eigvalsh(S + G)[:, -1].max()))

    def step(self, eps):
        """(tau(eps), guaranteed): the searched step, whose certified
        contraction guarantees convergence, else sigma / L^2 with sigma =
        eps + max(0, min_sym_eig) and L = ||Htilde||_2 + eps, guaranteed
        if Htilde is PSD, where sigma > 0 makes F_eps strongly monotone."""
        if eps not in self._taus:
            tau = _best_tau(self, eps)
            psd, _, m = self.definite
            self._taus[eps] = ((tau, True) if tau is not None else
                               ((eps + max(0.0, m)) / (self.lipschitz + eps) ** 2, psd))
        return self._taus[eps]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of all solver-guarantee checks for one game."""

    rho_smax: float
    rho_hhat: float
    ratio_bound: float       # alphabet bound on rho(Smax), see contraction_condition
    contraction_ok: bool
    htilde_psd: bool
    htilde_pd: bool
    min_sym_eig: float


def build_operator(spec: GameSpec, space: StateSpace) -> InterferenceOperator:
    """Assemble hhat, the Hhat blocks and Smax for an enumerated game.

    alpha_i is folded into the effective direct gain alpha_i * |h_ii|^2.
    Like the gains, hhat and the blocks are computed player-major, so
    ``hhat.T`` and ``blocks.transpose(1, 2, 0)`` are C-contiguous.
    """
    geff = spec.alpha[:, None] * space.direct_gains.T
    blocks = space.gains.transpose(1, 2, 0) / geff[:, None, :]
    n = space.n_players
    blocks[np.arange(n), np.arange(n)] = 0.0
    return InterferenceOperator(hhat=(1.0 / geff).T, blocks=blocks.transpose(2, 0, 1),
                                smax=blocks.max(axis=2))


def spectral_radius(matrix) -> float:
    """rho(A) = max |eigenvalue| of a square matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return float(np.abs(np.linalg.eigvals(a)).max())


def rho_blockdiag(op: InterferenceOperator) -> float:
    """rho of the block-diagonal operator: max over blocks of rho(Hhat(h))."""
    return float(np.abs(np.linalg.eigvals(op.blocks)).max(-1).max())


def _plus_identity(blocks, shift=1.0):
    """Add ``shift`` to the diagonal of each square block, in place."""
    n = blocks.shape[-1]
    blocks[..., np.arange(n), np.arange(n)] += shift
    return blocks


def contraction_condition(spec: GameSpec) -> tuple[float, bool]:
    """Contraction ratio (N-1) * max(H_c) / (min_i alpha_i * min(H_d)) and
    whether it is < 1.  The ratio is taken over the whole alphabets, so it
    bounds rho(Smax) from above.  It equals rho(Smax), the largest row
    sum of Smax, only when every alphabet entry has positive probability
    on every link and alpha is constant."""
    if spec.n_players == 1:
        return 0.0, True
    ratio = ((spec.n_players - 1) * spec.gains.cross.max()
             / (spec.alpha.min() * spec.gains.direct.min()))
    return float(ratio), bool(ratio < 1.0)


def definiteness(op: InterferenceOperator) -> tuple[bool, bool, float]:
    """Quadratic-form definiteness of Htilde = I + Hhat.

    Returns (psd, pd, min_sym_eig) where min_sym_eig is the smallest
    eigenvalue over all blocks of I + (Hhat(h) + Hhat(h)^T)/2.  The
    symmetric part is what bounds (P-V)^T Htilde (P-V), which is the
    quantity the monotonicity analysis needs; for nonsymmetric blocks it
    is not implied by eigenvalues having positive real parts.
    """
    sym = _plus_identity(0.5 * (op.blocks + op.blocks.transpose(0, 2, 1)))
    m = float(np.linalg.eigvalsh(sym)[:, 0].min())
    return bool(m >= -1e-10), bool(m > 1e-10), m


def _step_norm(op, tau, eps):
    """||I - tau (Htilde + eps I)||_2 over the blocks.

    With a = 1 - tau (1 + eps) each block is a I - tau H, whose Gram
    matrix is a^2 I - a tau S + tau^2 G (S and G from ``sym_gram``); its
    top eigenvalue is a^2 plus that of tau^2 G - a tau S, solved for
    one block of each relabelling class (``representatives``) in one
    batched eigvalsh: a relabelled block has the same norm.
    """
    S, G = op.sym_gram
    a = 1.0 - tau * (1.0 + eps)
    top = np.linalg.eigvalsh((tau * tau) * G - (a * tau) * S)[:, -1].max()
    return float(np.sqrt(a * a + top))


def _best_tau(op, eps):
    """Step minimizing the contraction norm ||I - tau*(Htilde + eps I)||_2.

    The norm is a convex function of tau (max of singular values of an
    affine matrix family), so a golden-section search on [0, 4] finds the
    minimizer: two interior probes, then one new probe in each of 30
    rounds, each round keeping the 0.618 of the bracket around the lower
    norm, and a last comparison of the two interior norms, which leaves a
    bracket 4 * 0.618^31 = 1.33e-6 wide.  Its midpoint is returned when
    its norm is below 1, which certifies a contraction; otherwise None is
    returned.  That makes 33 norms per search.
    """
    r = 0.5 * (np.sqrt(5.0) - 1.0)
    lo, hi = 0.0, 4.0
    t1, t2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = _step_norm(op, t1, eps), _step_norm(op, t2, eps)
    for _ in range(30):
        if f1 <= f2:
            hi, t2, f2 = t2, t1, f1
            t1 = hi - r * (hi - lo)
            f1 = _step_norm(op, t1, eps)
        else:
            lo, t1, f1 = t1, t2, f2
            t2 = lo + r * (hi - lo)
            f2 = _step_norm(op, t2, eps)
    tau = 0.5 * (lo + t2) if f1 <= f2 else 0.5 * (t1 + hi)
    return tau if _step_norm(op, tau, eps) < 1.0 else None


def condition_report(spec: GameSpec, space: StateSpace,
                     op: InterferenceOperator | None = None) -> ConditionReport:
    """Run every check once and collect the results; the certificate is
    the operator's ``definite``, shared with every VI problem on it."""
    if op is None:
        op = build_operator(spec, space)
    rho_s = spectral_radius(op.smax)
    ratio, _ = contraction_condition(spec)
    psd, pd, min_eig = op.definite
    return ConditionReport(
        rho_smax=rho_s,
        rho_hhat=rho_s,  # = rho_blockdiag(op): Smax is a block and dominates
        ratio_bound=ratio,
        contraction_ok=bool(rho_s < 1.0),
        htilde_psd=psd,
        htilde_pd=pd,
        min_sym_eig=min_eig,
    )
