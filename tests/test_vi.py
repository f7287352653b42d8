"""Regularized projection solver for the NE variational inequality."""

import warnings

import numpy as np
import pytest

from ifgame import (GameSpec, IwfConfig, LinkDistribution, ViConfig,
                    enumerate_states, eval_F, iterate_waterfilling,
                    make_vi_problem, natural_residual, project_block,
                    project_feasible, solve_regularized, solve_strong,
                    waterfill_map, wf_residual)
from ifgame.spectral import _plus_identity
from ifgame.vi import _best_tau, _eval_F_table, _project_face, _step_norm
import bundled
from util_random import random_feasible_profile, random_spec


def small_problem():
    spec = GameSpec.symmetric(2, [1.0, 2.0], [0.5], pbar=[1.0, 1.5])
    space = enumerate_states(spec)
    return spec, space, make_vi_problem(spec, space)


def dense_operator(problem):
    """Densified Htilde and hhat for the state-major flat layout."""
    n, n1 = problem.n_players, problem.n_states
    dense = np.zeros((n * n1, n * n1))
    for k in range(n1):
        block = np.eye(n) + problem.op.blocks[k]
        dense[k * n:(k + 1) * n, k * n:(k + 1) * n] = block
    return dense, problem.op.hhat.ravel()


def test_eval_F_trivial_and_dense_oracle():
    spec, space, problem = small_problem()
    zero = np.zeros((2, space.n_states))
    assert np.array_equal(eval_F(problem, zero), problem.op.hhat.ravel())

    rng = np.random.default_rng(1)
    dense, hvec = dense_operator(problem)
    for _ in range(10):
        P = random_feasible_profile(rng, spec, space)
        flat = P.T.ravel()
        assert np.abs(eval_F(problem, P) - (hvec + dense @ flat)).max() < 1e-12


def test_eval_F_single_player_is_shift():
    spec = GameSpec.symmetric(1, [1.0, 2.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    P = np.array([[0.3, 0.7]])
    assert np.allclose(eval_F(problem, P), P[0] + problem.op.hhat[:, 0])


def test_eval_F_eps_properties():
    spec, space, problem = small_problem()
    rng = np.random.default_rng(2)
    zero = np.zeros((2, space.n_states))
    assert np.array_equal(eval_F(problem, zero, 0.5), problem.op.hhat.ravel())
    P = random_feasible_profile(rng, spec, space)
    assert np.abs(eval_F(problem, P, 0.25)
                  - (eval_F(problem, P) + 0.25 * P.T.ravel())).max() < 1e-14
    # affine in P: F(aP + (1-a)Q) = a F(P) + (1-a) F(Q)
    Q = random_feasible_profile(rng, spec, space)
    a = 0.3
    mix = a * P + (1 - a) * Q
    assert np.abs(eval_F(problem, mix, 0.25)
                  - a * eval_F(problem, P, 0.25)
                  - (1 - a) * eval_F(problem, Q, 0.25)).max() < 1e-12


def test_project_block_hand_values():
    probs = np.array([0.5, 0.5])
    feasible = np.array([0.4, 0.6])
    assert np.array_equal(project_block(feasible, probs, 1.0), feasible)
    projected = project_block(np.array([2.0, 2.0]), probs, 1.0)
    assert np.allclose(projected, [1.0, 1.0], atol=1e-10)
    assert np.array_equal(project_block(np.array([-1.0, -0.2]), probs, 1.0),
                          np.zeros(2))
    # mu = 1 balances the budget: max(0, x - mu * probs) = [1.5, 0.5]
    assert np.allclose(project_block(np.array([2.0, 1.0]), probs, 1.0), [1.5, 0.5])
    # a zero-probability state spends no budget and is only clipped
    assert np.allclose(project_block(np.array([2.0, 2.0, 5.0]),
                                     np.array([0.5, 0.5, 0.0]), 1.0), [1.0, 1.0, 5.0])


def test_project_block_projection_inequality_and_idempotence():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        probs = rng.uniform(0.01, 1.0, size=n)
        probs /= probs.sum()
        pbar = rng.uniform(0.2, 2.0)
        x = rng.uniform(-1.0, 3.0, size=n)
        p = project_block(x, probs, pbar)
        assert np.all(p >= 0) and probs @ p <= pbar + 1e-9
        assert np.array_equal(project_block(p, probs, pbar), p)
        for _ in range(20):
            y = rng.uniform(0.0, 2.0, size=n)
            if probs @ y > pbar:
                y *= pbar / (probs @ y)
            assert (p - x) @ (y - p) >= -1e-9


def test_project_feasible_blockwise():
    spec, space, problem = small_problem()
    rng = np.random.default_rng(4)
    member = random_feasible_profile(rng, spec, space)
    assert np.array_equal(project_feasible(problem, member).powers, member)
    z = rng.uniform(-1.0, 3.0, size=2 * space.n_states)
    prof = project_feasible(problem, z)
    again = project_feasible(problem, prof.powers)
    assert np.array_equal(prof.powers, again.powers)
    table = z.reshape(space.n_states, 2).T
    for i in range(2):
        assert np.array_equal(prof.powers[i],
                              project_block(table[i], space.probs,
                                            float(spec.pbar[i])))


def test_natural_residual_equals_waterfilling_residual():
    rng = np.random.default_rng(5)
    for spec in (bundled.spec("example1"), bundled.spec("example2")):
        space = enumerate_states(spec)
        problem = make_vi_problem(spec, space)
        for _ in range(5):
            P = random_feasible_profile(rng, spec, space, tight=True)
            assert natural_residual(problem, P) == pytest.approx(
                wf_residual(spec, space, P), abs=1e-11)


def test_solve_strong_single_player_matches_best_response():
    spec = GameSpec.symmetric(1, [2.0, 0.5], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    wf = waterfill_map(spec, space, np.zeros((1, space.n_states)))[0]
    prof, _ = solve_strong(problem, 1.0, ViConfig(inner_tol=1e-12))
    # eps shrinks the solution toward the floor shape; follow the path down
    for eps in (1.0, 0.1, 0.01, 1e-4, 1e-8):
        prof, _ = solve_strong(problem, eps, ViConfig(inner_tol=1e-12), init=prof)
    assert np.abs(prof.powers[0] - wf).max() < 1e-8


def test_solve_strong_satisfies_vi_inequality():
    rng = np.random.default_rng(6)
    spec = bundled.spec("example2")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    eps = 0.05
    prof, _ = solve_strong(problem, eps, ViConfig(inner_tol=1e-11))
    table = prof.powers.T
    f_eps = _eval_F_table(problem, table, eps=eps)
    for _ in range(100):
        x = random_feasible_profile(rng, spec, space, tight=True).T
        value = np.einsum('k,ki,ki->', space.probs, f_eps, x - table)
        assert value >= -1e-7


def test_monotonicity_certificate():
    rng = np.random.default_rng(7)
    for spec in map(bundled.spec, bundled.NAMES):
        space = enumerate_states(spec)
        problem = make_vi_problem(spec, space)
        eps = 0.25
        for _ in range(20):
            P = random_feasible_profile(rng, spec, space)
            V = random_feasible_profile(rng, spec, space)
            dF = eval_F(problem, P, eps) - eval_F(problem, V, eps)
            dP = P.T.ravel() - V.T.ravel()
            assert dF @ dP >= eps * dP @ dP - 1e-9


def test_projection_iteration_gap_is_monotone():
    spec = bundled.spec("example2")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    from ifgame.vi import _uniform_start
    eps = 0.01
    steps = problem._steps
    tau = _best_tau(steps, eps, eps / (steps.lipschitz + eps) ** 2)
    table = _uniform_start(problem)
    gaps = []
    for _ in range(60):
        new = _project_face(problem, table - tau * _eval_F_table(problem, table,
                                                                 eps=eps))
        gaps.append(float(np.abs(new - table).max()))
        table = new
    for before, after in zip(gaps, gaps[1:]):
        if before < 1e-14:
            break
        assert after <= before * (1.0 + 1e-9)


def reference_step_norm(blocks, tau, eps):
    """||I - tau (I + H + eps I)||_2 from the Gram matrix of every assembled
    block I - tau M, as the step search computed it before S and G."""
    m = _plus_identity(blocks.copy(), 1.0 + eps)
    b = _plus_identity(-tau * m)
    gram = np.einsum('kji,kjl->kil', b, b)
    return float(np.sqrt(np.linalg.eigvalsh(gram)[:, -1].max()))


def reference_best_tau(blocks, eps, fallback):
    lo, hi = 0.0, 4.0
    for _ in range(35):
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        if reference_step_norm(blocks, t1, eps) <= reference_step_norm(blocks, t2, eps):
            hi = t2
        else:
            lo = t1
    tau = 0.5 * (lo + hi)
    return tau if reference_step_norm(blocks, tau, eps) < 1.0 else fallback


def test_step_norm_matches_gram_reference():
    # a^2 I - a tau S + tau^2 G rounds differently from the Gram matrix of
    # the assembled blocks, by up to about 2 ulp on the bundled games;
    # the search must still pick the same step at every eps of the path.
    ulp = np.finfo(float).eps
    for name in bundled.NAMES:
        spec = bundled.spec(name)
        problem = make_vi_problem(spec, enumerate_states(spec))
        steps, blocks = problem._steps, problem.op.blocks
        for k in range(30):
            eps = 2.0 ** -k
            for tau in np.linspace(0.05, 4.0, 8):
                assert _step_norm(steps, tau, eps) == pytest.approx(
                    reference_step_norm(blocks, tau, eps), rel=8 * ulp, abs=0)
            tau = _best_tau(steps, eps, -1.0)
            assert tau > 0 and tau == reference_best_tau(blocks, eps, -1.0)
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 8:
        spec = random_spec(rng, state_limit=400)
        if spec.gains.direct.size < 2:
            continue
        direct = spec.dists.direct.copy()
        direct[0, 0] = 0.0  # player 1's first direct gain never occurs
        direct /= direct.sum(axis=1, keepdims=True)
        spec = GameSpec(n_players=spec.n_players, gains=spec.gains,
                        dists=LinkDistribution(direct=direct, cross=spec.dists.cross),
                        pbar=spec.pbar,
                        alpha=rng.uniform(0.5, 2.0, size=spec.n_players))
        problem = make_vi_problem(spec, enumerate_states(spec))
        for eps in (1.0, 0.3, 1e-3, 1e-8):
            for tau in rng.uniform(0.0, 4.0, size=6):
                assert _step_norm(problem._steps, tau, eps) == pytest.approx(
                    reference_step_norm(problem.op.blocks, tau, eps), rel=1e-12)
        checked += 1


def test_regularized_example1_agrees_with_iwf():
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    report = solve_regularized(problem, ViConfig(outer_tol=1e-8))
    assert report.converged
    iwf = iterate_waterfilling(spec, space, IwfConfig(tol=1e-10))
    assert np.abs(report.solution.powers - iwf.profile.powers).max() < 1e-5
    eps_values = [p[0] for p in report.eps_path]
    assert eps_values == sorted(eps_values, reverse=True)
    assert report.tau_used > 0


def test_regularized_example2_finds_wf_fixed_point():
    spec = bundled.spec("example2")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    report = solve_regularized(problem, ViConfig(outer_tol=1e-8))
    assert report.converged
    assert natural_residual(problem, report.solution) < 1e-6
    assert wf_residual(spec, space, report.solution) < 1e-5
    # warm-started second run from a different start agrees (uniqueness)
    rng = np.random.default_rng(8)
    other = solve_regularized(problem, ViConfig(outer_tol=1e-8),
                              init=random_feasible_profile(rng, spec, space,
                                                           tight=True))
    assert np.abs(report.solution.powers - other.solution.powers).max() < 1e-5


def test_solver_warns_without_psd_certificate():
    # shrink direct gains until the symmetric part goes indefinite
    spec = GameSpec.symmetric(3, [0.08], [0.2], pbar=1.0)
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    from ifgame import definiteness
    psd, _, _ = definiteness(problem.op)
    assert not psd
    with pytest.warns(UserWarning):
        solve_strong(problem, 0.5, ViConfig(inner_tol=1e-6, max_inner=200))
    # with two direct gains the path runs several eps rounds; it warns
    # once, not once per round
    spec = GameSpec.symmetric(3, [0.08, 0.1], [0.2], pbar=1.0)
    problem = make_vi_problem(spec, enumerate_states(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = solve_regularized(
            problem, ViConfig(inner_tol=1e-6, max_outer=3, max_inner=200))
    assert len(report.eps_path) == 3
    assert [w.category for w in caught] == [UserWarning]


def test_regularized_checks_definiteness_once(monkeypatch):
    import ifgame.vi
    calls = []
    original = ifgame.vi.definiteness

    def counted(op):
        calls.append(op)
        return original(op)

    monkeypatch.setattr(ifgame.vi, "definiteness", counted)
    _, _, problem = small_problem()
    report = solve_regularized(problem)
    assert report.converged and len(report.eps_path) > 1
    assert len(calls) == 1


def test_parameter_validation():
    spec, space, problem = small_problem()
    with pytest.raises(ValueError):
        solve_strong(problem, eps=0.0)
    with pytest.raises(ValueError):
        ViConfig(eps0=-1.0)
    with pytest.raises(ValueError):
        ViConfig(decay=1.5)
    with pytest.raises(ValueError):
        eval_F(problem, np.zeros((3, space.n_states)))
