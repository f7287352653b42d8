"""Uniqueness and convergence condition checks for the power game.

The water-filling best response is affine in the opponents' powers with a
block-diagonal coupling operator: per state h,

    hhat(h)_i   = 1 / (alpha_i |h_ii|^2),
    Hhat(h)_ij  = |h_ij|^2 / (alpha_i |h_ii|^2)   (i != j, zero diagonal),

and Smax_ij = max_h Hhat(h)_ij.  Three checks decide which solver is
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
    solver converges even when rho(Hhat) >= 1.

Spectral radii come from numpy's batched eigenvalue solver applied to the
N x N blocks; the block-diagonal operator is never densified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, StateSpace


@dataclass(frozen=True)
class InterferenceOperator:
    """Blockwise interference coupling of the best-response map."""

    hhat: np.ndarray    # (N1, N): hhat[k] is the block of state k; player-major
    blocks: np.ndarray  # (N1, N, N): Hhat(h) per state, zero diagonals; player-major
    smax: np.ndarray    # (N, N): entrywise max of the blocks

    @property
    def n_states(self):
        return self.blocks.shape[0]

    @property
    def n_players(self):
        return self.blocks.shape[1]


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


def condition_report(spec: GameSpec, space: StateSpace,
                     op: InterferenceOperator | None = None,
                     definite: tuple[bool, bool, float] | None = None
                     ) -> ConditionReport:
    """Run every check once and collect the results.  A caller that has
    ``definiteness(op)`` already passes it as ``definite``."""
    if op is None:
        op = build_operator(spec, space)
    rho_s = spectral_radius(op.smax)
    ratio, _ = contraction_condition(spec)
    psd, pd, min_eig = definiteness(op) if definite is None else definite
    return ConditionReport(
        rho_smax=rho_s,
        rho_hhat=rho_s,  # = rho_blockdiag(op): Smax is a block and dominates
        ratio_bound=ratio,
        contraction_ok=bool(rho_s < 1.0),
        htilde_psd=psd,
        htilde_pd=pd,
        min_sym_eig=min_eig,
    )
