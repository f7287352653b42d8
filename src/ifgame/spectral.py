"""Uniqueness and convergence condition checks for the power game.

The water-filling best response is affine in the opponents' powers with a
block-diagonal coupling operator, whose tables a StateSpace holds: per
state h,

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
    Htilde = I + Hhat, tested on the symmetric part of each block up to
    a rounding band of a few ulp (``_band``); this is the monotonicity
    condition under which the regularized projection solver converges
    even when rho(Hhat) >= 1;
  * the step certificate: a step tau with ||I - tau (Htilde + eps I)||_2
    < 1, which makes the projection iteration on F_eps a contraction
    (Facchinei & Pang 2003, Sec. 12.1); StateSpace.step searches it with
    ``_best_tau``.

The certificate, ||Htilde||_2 and tau(eps) depend on the state space
alone, so the StateSpace computes each on first use and keeps it
(``definite``, ``lipschitz``, ``step``): the condition checks and every
VI problem on one space share them, whichever asks first, and tau is
searched once per eps.  The algorithms below are functions of a space.

Spectral radii come from numpy's batched eigenvalue solver applied to the
N x N blocks; the block-diagonal operator is never densified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # game imports this module
    from .game import GameSpec, StateSpace


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


def spectral_radius(matrix) -> float:
    """rho(A) = max |eigenvalue| of a square matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return float(np.abs(np.linalg.eigvals(a)).max())


def rho_blockdiag(space: StateSpace) -> float:
    """rho of the block-diagonal operator: max over blocks of rho(Hhat(h))."""
    return float(np.abs(np.linalg.eigvals(space.blocks)).max(-1).max())


def contraction_condition(spec: GameSpec) -> tuple[float, bool]:
    """Contraction ratio (N-1) * max(H_c) / (min_i alpha_i * min(H_d)) and
    whether it is < 1.  The ratio is taken over the whole alphabets, so it
    bounds rho(Smax) from above.  It equals rho(Smax), the largest row
    sum of Smax, only when every alphabet entry has positive probability
    on every link and alpha is constant."""
    if spec.n_players == 1:
        return 0.0, True
    ratio = ((spec.n_players - 1) * spec.cross_alphabet.max()
             / (spec.alpha.min() * spec.direct_alphabet.min()))
    return float(ratio), bool(ratio < 1.0)


#: blocks of large Gershgorin radius that ``definiteness`` solves first
_SAMPLE = 64
#: blocks per chunk of the certificate pass, which bounds its temporaries
_CHUNK = 4096


def _band(space) -> float:
    """delta = 16 N^2 u R, the rounding band of ``definiteness``.

    u = 2^-53, and R = 1 + max_i (row sum + column sum of Smax)_i / 2
    bounds ||I + S(h)/2||_inf, and so the 2-norm, of every block from
    above (the blocks are nonnegative and Smax is their entrywise max);
    R is the largest such norm when the states are the full product of
    the link supports.  delta covers eigvalsh's error on a block, u R
    times a modest function of N (Golub & Van Loan, Matrix Computations,
    4th ed., 2013, ch. 8), plus that of an LDL^T factorization of a
    block shifted by at most R + delta, about 2 N (N + 1) u R (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    Thm 10.3).
    """
    s = space.smax
    norm = 1.0 + 0.5 * float((s.sum(axis=0) + s.sum(axis=1)).max())
    return 16 * space.n_players ** 2 * 2.0 ** -53 * norm


def _sym(h):
    """I + (H + H^T)/2 of player-major blocks h (N, N, K), player-major."""
    a = 0.5 * (h + h.transpose(1, 0, 2))
    n = a.shape[0]
    a[np.arange(n), np.arange(n)] += 1.0
    return a


def _clears(a, t, band):
    """Mask of the symmetric player-major blocks a (N, N, K) whose eigvalsh
    minimum exceeds t (a scalar or one value per block): those whose
    LDL^T factorization of a - (t + band) I, without pivoting, has only
    positive pivots.

    The factorization is exact for a nearby matrix (Higham, Thm 10.3), so
    positive pivots put the exact smallest eigenvalue above t + band less
    the factorization's error, and with band = ``_band`` eigvalsh's result
    above t.  Only the lower triangle is read, so every diagonal entry
    only falls and a positive pivot is finite; a NaN pivot fails.
    """
    n = a.shape[0]
    a = a.copy()
    a[np.arange(n), np.arange(n)] -= t + band
    clear = np.ones(a.shape[2], dtype=bool)
    with np.errstate(all="ignore"):  # a failed pivot can be 0 or tiny
        for k in range(n):
            d = a[k, k]
            clear &= d > 0
            col = a[k + 1:, k]
            a[k + 1:, k + 1:] -= (col / d)[:, None] * col
    return clear


def definiteness(space: StateSpace) -> tuple[bool, bool, float]:
    """Quadratic-form definiteness of Htilde = I + Hhat.

    Returns (psd, pd, min_sym_eig) where min_sym_eig is the smallest
    eigenvalue over all blocks of I + (Hhat(h) + Hhat(h)^T)/2.  The
    symmetric part is what bounds (P-V)^T Htilde (P-V), which is the
    quantity the monotonicity analysis needs; for nonsymmetric blocks it
    is not implied by eigenvalues having positive real parts.  With the
    rounding band delta = ``_band(space)``, psd is min_sym_eig >= -delta and
    pd is min_sym_eig > delta.

    min_sym_eig is, bit for bit, the minimum of eigvalsh's smallest
    eigenvalue over every block, but eigvalsh solves only the blocks that
    could set it: first ``_SAMPLE`` blocks whose Gershgorin radius is
    among the ``_SAMPLE`` largest, then, chunk by chunk, each block that
    ``_clears`` does not certify above the minimum found so far.
    """
    h = space.blocks.transpose(1, 2, 0)  # player-major, C-contiguous
    band = _band(space)
    # twice the Gershgorin radius of each block: its largest row sum of S
    radius = (h.sum(axis=0) + h.sum(axis=1)).max(axis=0)
    sampled = space.n_states > _SAMPLE
    # np.sort, which the solvers use anyway: the first argpartition call
    # maps in about 0.25 MB more of numpy's code
    sample = (np.flatnonzero(radius >= np.sort(radius)[-_SAMPLE])[:_SAMPLE]
              if sampled else slice(None))
    m = np.linalg.eigvalsh(_sym(h[:, :, sample]).transpose(2, 0, 1))[:, 0].min()
    for start in range(0, space.n_states if sampled else 0, _CHUNK):
        a = _sym(h[:, :, start:start + _CHUNK])
        left = ~_clears(a, m, band)
        if left.any():
            m = min(m, np.linalg.eigvalsh(a[:, :, left].transpose(2, 0, 1))[:, 0].min())
    m = float(m)
    return bool(m >= -band), bool(m > band), m


def representatives(space):
    """Index of the first block of each class of blocks equal up to a
    relabelling of the players: each block's players are ordered by their
    sorted row entries, then their sorted column entries (ties in index
    order), and equal relabelled blocks are one class.  A tie can split a
    class in two, which costs only time."""
    b = space.blocks
    keys = np.concatenate([np.sort(b, axis=2), np.sort(b, axis=1).transpose(0, 2, 1)], 2)
    perm = np.lexsort(keys.transpose(2, 0, 1)[::-1], axis=-1)
    rows = b[np.arange(space.n_states)[:, None, None], perm[:, :, None], perm[:, None, :]]
    rows = rows.reshape(space.n_states, -1)
    order = np.lexsort(rows.T)  # equal rows end up adjacent, in index order
    rows = rows[order]
    return order[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


def _step_norm(space, tau, eps):
    """||I - tau (Htilde + eps I)||_2 over the blocks.

    With a = 1 - tau (1 + eps) each block is a I - tau H, whose Gram
    matrix is a^2 I - a tau S + tau^2 G (S and G, the space's
    ``sym_gram``); its top eigenvalue is a^2 plus that of
    tau^2 G - a tau S, solved for one block of each relabelling class
    (``representatives``) in one batched eigvalsh: a relabelled block
    has the same norm.
    """
    S, G = space.sym_gram
    a = 1.0 - tau * (1.0 + eps)
    top = np.linalg.eigvalsh((tau * tau) * G - (a * tau) * S)[:, -1].max()
    return float(np.sqrt(a * a + top))


def _best_tau(space, eps):
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
    f1, f2 = _step_norm(space, t1, eps), _step_norm(space, t2, eps)
    for _ in range(30):
        if f1 <= f2:
            hi, t2, f2 = t2, t1, f1
            t1 = hi - r * (hi - lo)
            f1 = _step_norm(space, t1, eps)
        else:
            lo, t1, f1 = t1, t2, f2
            t2 = lo + r * (hi - lo)
            f2 = _step_norm(space, t2, eps)
    tau = 0.5 * (lo + t2) if f1 <= f2 else 0.5 * (t1 + hi)
    return tau if _step_norm(space, tau, eps) < 1.0 else None


def condition_report(spec: GameSpec, space: StateSpace) -> ConditionReport:
    """Run every check once on the game's state space and collect the
    results; the certificate is the space's ``definite``, shared with
    every VI problem on it."""
    rho_s = spectral_radius(space.smax)
    ratio, _ = contraction_condition(spec)
    psd, pd, min_eig = space.definite
    return ConditionReport(
        rho_smax=rho_s,
        rho_hhat=rho_s,  # = rho_blockdiag(space): Smax is a block and dominates
        ratio_bound=ratio,
        contraction_ok=bool(rho_s < 1.0),
        htilde_psd=psd,
        htilde_pd=pd,
        min_sym_eig=min_eig,
    )
