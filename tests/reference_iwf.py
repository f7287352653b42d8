"""Whole-table floors and iterative water-filling, kept as bit-level
references.

Every table here is formed whole, in fresh arrays, and the sequential
sweep forms the floors of every player to keep one row.  The solver
walks the states in blocks, reuses its buffers and forms one row per
player in the sequential sweep; every operation is elementwise and
keeps its order, so the tests require the same bits from both.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from ifgame import load_config, waterfill_levels
from ifgame.game import ULP_FLOOR

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from output_digests import BLOCKS  # noqa: E402


def blocks_spec(alpha=None):
    """The game ``BLOCKS`` of ``tools/output_digests.py``, 3 players and
    3^9 = 19 683 states: two full blocks of the floors kernel and a
    partial one; ``alpha`` replaces its modulation constants."""
    spec = load_config(json.dumps(BLOCKS)).game.spec
    return spec if alpha is None else dataclasses.replace(spec, alpha=alpha)


def floors(space, P):
    """The floors over all states at once: the coupling summed over the
    transmitters in index order, the own term's zero block entry
    included, then hhat added."""
    H = space.blocks.transpose(1, 2, 0)
    coupled = H[:, 0] * P[..., 0:1, :]
    for j in range(1, space.n_players):
        coupled = coupled + H[:, j] * P[..., j:j + 1, :]
    return coupled + space.hhat.T


def iterate_waterfilling(spec, space, config):
    """(profile, iterations, residual history, converged) from zero powers."""
    n = spec.n_players
    P = np.zeros((n, space.n_states))
    history = []
    tol = max(config.tol, ULP_FLOOR * spec.pbar.max())
    for iterations in range(1, config.max_iter + 1):
        if config.scheme == "simultaneous":
            f = floors(space, P)
            levels = waterfill_levels(f, space.probs, spec.pbar)
            new = np.maximum(0.0, levels[:, None] - f)
        else:
            new = P.copy()
            for i in range(n):
                f = floors(space, new)[i]
                level = waterfill_levels(f, space.probs, spec.pbar[i])
                new[i] = np.maximum(0.0, level - f)
        residual = float(np.abs(new - P).max())
        history.append(residual)
        P = new
        if residual < tol:
            return P, iterations, history, True
    return P, iterations, history, False
