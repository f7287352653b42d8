"""Finding the Nash equilibrium: iterative water-filling vs. the
projection method for the variational inequality.

On example1 the water-filling map is a contraction and both solvers find
the same unique NE.  On example2 (at budget 2.0) the simultaneous
water-filling sweep enters a 2-cycle, the sequential sweep happens to
converge, and the projection method converges with a guarantee because
the quadratic form of the coupling stays positive definite.  On both
games that makes the VI operator strongly monotone, so the solver runs
the projection iteration once, at eps = 0, and walks no regularization path
("eps rounds=1"); the path runs on games that are only positive
semidefinite, such as configs/psd_boundary.json.
"""

import pathlib

import numpy as np

from ifgame import (IwfConfig, ViConfig, enumerate_states, iterate_waterfilling,
                    load_config_file, make_vi_problem, natural_residual,
                    solve_regularized, sum_rate, wf_residual)

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def solve_and_print(name, config):
    spec = load_config_file(CONFIGS / f"{config}.json").game.spec
    print(f"=== {name} ===")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)

    sim = iterate_waterfilling(spec, space)  # IwfConfig(): tol 1e-8, 500 sweeps
    print(f"simultaneous IWF: converged={sim.converged} "
          f"iters={sim.iterations} last residual={sim.residual_history[-1]:.2e}")
    seq = iterate_waterfilling(spec, space, IwfConfig(scheme="sequential"))
    print(f"sequential   IWF: converged={seq.converged} iters={seq.iterations}")

    vi = solve_regularized(problem, ViConfig(outer_tol=1e-8))
    print(f"projection VI:    converged={vi.converged} "
          f"eps rounds={len(vi.eps_path)} tau={vi.tau_used:.3f}")
    print(f"  natural residual     = {natural_residual(problem, vi.solution):.2e}")
    print(f"  ||P - WF(P)||_inf    = {wf_residual(spec, space, vi.solution):.2e}"
          "   (identical quantities: the projection onto the budget face")
    print("                          in the pi-weighted metric IS water-filling)")
    if sim.converged:
        gap = np.abs(sim.profile - vi.solution).max()
        print(f"  |IWF - VI| = {gap:.2e}")
    print(f"  NE sum rate = {sum_rate(spec, space, vi.solution):.6f} nats")
    print()


solve_and_print("example1, budget 1.0", "example1")
solve_and_print("example2, budget 2.0", "example2")
