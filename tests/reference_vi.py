"""The state-major VI projection iteration, kept as a bit-level reference.

The iterate is a state-major table (N1, N): the coupling is an einsum
over the blocks, every projection sorts strided rows of -table.T, and
the water level comes from the breakpoint method with the weight sums
and the chosen candidate formed over the whole broadcast stack.  The
solver iterates player-major rows instead; the tests require the same
bits from both wherever einsum sums in index order (N <= 3).
"""

import numpy as np

from ifgame import PowerProfile


def breakpoint_levels(floors, probs, pbars):
    p0 = probs.flat[0]
    if p0 != 0 and np.all(probs == p0):
        f = np.sort(floors, axis=-1)
        p = np.broadcast_to(p0, f.shape)
    else:
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


def eval_F_table(problem, table, eps=0.0):
    coupled = np.einsum('kij,kj->ki', problem.op.blocks, table)
    return problem.op.hhat + (1.0 + eps) * table + coupled


def project_face(problem, table):
    floors = -table.T
    levels = breakpoint_levels(floors, problem.probs, problem.pbar)
    return np.maximum(0.0, levels[:, None] - floors).T


def natural_residual(problem, table, eps=0.0):
    step = table - eval_F_table(problem, table, eps=eps)
    return float(np.abs(table - project_face(problem, step)).max())


def solve_strong(problem, eps, config, table, tau):
    """The fixed-eps projection iteration from ``table`` at step ``tau``."""
    tol = config.inner_tol
    iterations = 0
    for iterations in range(1, config.max_inner + 1):
        new = project_face(problem, table - tau * eval_F_table(problem, table, eps=eps))
        gap = float(np.abs(new - table).max())
        table = new
        if gap < tol and natural_residual(problem, table, eps=eps) < tol:
            break
    return table, iterations


def solve_regularized(problem, config):
    """The solve from the uniform start, with the problem's own tau(eps):
    one eps = 0 solve on a positive definite problem, else the eps path,
    which without the semidefinite certificate stops before the first
    round whose step is not certified.

    Returns (solution powers (N, N1), eps path, converged, tau used).
    """
    steps = problem._steps
    table = np.tile(problem.pbar[None, :], (problem.n_states, 1))
    if steps.definite[1]:
        tau = steps.search(0.0)[0]
        table, inner = solve_strong(problem, 0.0, config, table, tau)
        residual = natural_residual(problem, table)
        return (PowerProfile(powers=table.T.copy()).powers,
                [(0.0, int(inner), residual)], residual < config.outer_tol, float(tau))
    psd = steps.definite[0]
    prev = None
    path = []
    converged = False
    tau = 0.0
    for n in range(config.max_outer):
        eps = config.eps0 * config.decay ** n
        step, certified = steps.search(eps)
        if not (psd or certified):
            if not path:
                residual = natural_residual(problem, table)
                path.append((float(eps), 0, residual))
                converged = residual < config.outer_tol
            break
        tau = step
        start = table if n < 2 else project_face(
            problem, -((prev - table) * config.decay - table))
        prev = table
        table, inner = solve_strong(problem, eps, config, start, tau)
        residual = natural_residual(problem, table)
        path.append((float(eps), int(inner), float(residual)))
        if residual < config.outer_tol:
            converged = True
            break
    return PowerProfile(powers=table.T.copy()).powers, path, converged, float(tau)
