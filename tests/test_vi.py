"""Regularized projection solver for the NE variational inequality."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from ifgame import (GameSpec, IwfConfig, ViConfig, enumerate_states,
                    iterate_waterfilling, make_vi_problem, natural_residual,
                    project_block, solve_regularized, solve_strong,
                    waterfill_map, wf_residual)
from ifgame.config import SweepConfig
from ifgame.game import state_count
from ifgame.spectral import _best_tau, _step_norm
from ifgame.vi import _eval_F, _project_face, _projection_step, _uniform_start
import bundled
import reference_vi
from test_waterfilling import bisect_waterfill
from util_random import random_feasible_profile, random_spec


def small_problem():
    spec = GameSpec(2, [1.0, 2.0], [0.5], pbar=[1.0, 1.5])
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


def flat_F(problem, P, eps=0.0):
    """F_eps(P) as a flat state-major vector of length N*N1."""
    return _eval_F(problem, P, eps).T.ravel()


def test_eval_F_trivial_and_dense_oracle():
    spec, space, problem = small_problem()
    zero = np.zeros((2, space.n_states))
    assert np.array_equal(flat_F(problem, zero), problem.op.hhat.ravel())

    rng = np.random.default_rng(1)
    dense, hvec = dense_operator(problem)
    for _ in range(10):
        P = random_feasible_profile(rng, spec, space)
        flat = P.T.ravel()
        assert np.abs(flat_F(problem, P) - (hvec + dense @ flat)).max() < 1e-12


def test_eval_F_single_player_is_shift():
    spec = GameSpec(1, [1.0, 2.0], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    P = np.array([[0.3, 0.7]])
    assert np.allclose(flat_F(problem, P), P[0] + problem.op.hhat[:, 0])


def test_eval_F_eps_properties():
    spec, space, problem = small_problem()
    rng = np.random.default_rng(2)
    zero = np.zeros((2, space.n_states))
    assert np.array_equal(flat_F(problem, zero, 0.5), problem.op.hhat.ravel())
    P = random_feasible_profile(rng, spec, space)
    assert np.abs(flat_F(problem, P, 0.25)
                  - (flat_F(problem, P) + 0.25 * P.T.ravel())).max() < 1e-14
    # affine in P: F(aP + (1-a)Q) = a F(P) + (1-a) F(Q)
    Q = random_feasible_profile(rng, spec, space)
    a = 0.3
    mix = a * P + (1 - a) * Q
    assert np.abs(flat_F(problem, mix, 0.25)
                  - a * flat_F(problem, P, 0.25)
                  - (1 - a) * flat_F(problem, Q, 0.25)).max() < 1e-12


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


def test_project_block_small_budget_is_not_overspent():
    # at pbar = 1e-12 an absolute within-budget slack of 1e-9 passed the
    # clipped point through, spending 250 times the budget
    probs = np.array([0.5, 0.5])
    p = project_block(np.array([5.01e-10, 0.0]), probs, 1e-12)
    assert probs @ p == pytest.approx(1e-12, rel=1e-9)
    assert p == pytest.approx([2e-12, 0.0], rel=1e-9, abs=0)
    assert np.array_equal(project_block(np.array([5e-10, 0.0, 3.0]),
                                        np.array([0.25, 0.25, 0.5]), 0.0),
                          np.zeros(3))


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
    spec = GameSpec(1, [2.0, 0.5], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    wf = waterfill_map(spec, space, np.zeros((1, space.n_states)))[0]
    prof, _ = solve_strong(problem, 1.0, ViConfig(inner_tol=1e-12))
    # eps shrinks the solution toward the floor shape; follow the path down
    for eps in (1.0, 0.1, 0.01, 1e-4, 1e-8):
        prof, _ = solve_strong(problem, eps, ViConfig(inner_tol=1e-12), init=prof)
    assert np.abs(prof[0] - wf).max() < 1e-8


def test_solve_strong_satisfies_vi_inequality():
    rng = np.random.default_rng(6)
    spec = bundled.spec("example2")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    eps = 0.05
    prof, _ = solve_strong(problem, eps, ViConfig(inner_tol=1e-11))
    P = prof
    f_eps = _eval_F(problem, P, eps=eps)
    for _ in range(100):
        x = random_feasible_profile(rng, spec, space, tight=True)
        value = np.einsum('k,ik,ik->', space.probs, f_eps, x - P)
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
            dF = flat_F(problem, P, eps) - flat_F(problem, V, eps)
            dP = P.T.ravel() - V.T.ravel()
            assert dF @ dP >= eps * dP @ dP - 1e-9


def test_projection_iteration_gap_is_monotone():
    spec = bundled.spec("example2")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    eps = 0.01
    tau = problem.op.step(eps)[0]
    P = _uniform_start(problem)
    gaps = []
    for _ in range(60):
        new = _projection_step(problem, P, tau, eps)
        gaps.append(float(np.abs(new - P).max()))
        P = new
    for before, after in zip(gaps, gaps[1:]):
        if before < 1e-14:
            break
        assert after <= before * (1.0 + 1e-9)


def plus_identity(blocks, shift=1.0):
    """Add ``shift`` to the diagonal of each square block, in place."""
    n = blocks.shape[-1]
    blocks[..., np.arange(n), np.arange(n)] += shift
    return blocks


def reference_step_norm(blocks, tau, eps):
    """||I - tau (I + H + eps I)||_2 from the Gram matrix of every assembled
    block I - tau M, as the step search computed it before S and G."""
    m = plus_identity(blocks.copy(), 1.0 + eps)
    b = plus_identity(-tau * m)
    gram = np.einsum('kji,kjl->kil', b, b)
    return float(np.sqrt(np.linalg.eigvalsh(gram)[:, -1].max()))


def golden_tau(norm):
    """The golden-section step search of ``_best_tau`` on the norm
    function ``norm(tau)``, written out on its own."""
    r = (5.0 ** 0.5 - 1.0) / 2.0
    lo, hi = 0.0, 4.0
    t1, t2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = norm(t1), norm(t2)
    for _ in range(30):
        if f1 <= f2:
            hi, t2, f2 = t2, t1, f1
            t1 = hi - r * (hi - lo)
            f1 = norm(t1)
        else:
            lo, t1, f1 = t1, t2, f2
            t2 = lo + r * (hi - lo)
            f2 = norm(t2)
    tau = (lo + t2) / 2.0 if f1 <= f2 else (t1 + hi) / 2.0
    return tau if norm(tau) < 1.0 else None


def ternary_tau(norm):
    """The 35-round ternary step search the package used before the
    golden-section one, kept as a reference for the quality of the step."""
    lo, hi = 0.0, 4.0
    for _ in range(35):
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        if norm(t1) <= norm(t2):
            hi = t2
        else:
            lo = t1
    tau = 0.5 * (lo + hi)
    return tau if norm(tau) < 1.0 else None


def test_step_norm_matches_gram_reference():
    # a^2 I - a tau S + tau^2 G rounds differently from the Gram matrix of
    # the assembled blocks, by up to about 2 ulp on the bundled games;
    # the search must still pick the same step at every eps of the path.
    ulp = np.finfo(float).eps
    for name in bundled.NAMES:
        spec = bundled.spec(name)
        problem = make_vi_problem(spec, enumerate_states(spec))
        steps, blocks = problem.op, problem.op.blocks
        for k in range(30):
            eps = 2.0 ** -k
            for tau in np.linspace(0.05, 4.0, 8):
                assert _step_norm(steps, tau, eps) == pytest.approx(
                    reference_step_norm(blocks, tau, eps), rel=8 * ulp, abs=0)
            tau = _best_tau(steps, eps)
            assert tau > 0 and tau == golden_tau(
                lambda t: reference_step_norm(blocks, t, eps))
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 8:
        spec = random_spec(rng, state_limit=400)
        if spec.direct_alphabet.size < 2:
            continue
        direct = spec.direct_probs.copy()
        direct[0, 0] = 0.0  # player 1's first direct gain never occurs
        direct /= direct.sum(axis=1, keepdims=True)
        spec = dataclasses.replace(spec, direct_probs=direct,
                                   alpha=rng.uniform(0.5, 2.0, size=spec.n_players))
        problem = make_vi_problem(spec, enumerate_states(spec))
        for eps in (1.0, 0.3, 1e-3, 1e-8):
            for tau in rng.uniform(0.0, 4.0, size=6):
                assert _step_norm(problem.op, tau, eps) == pytest.approx(
                    reference_step_norm(problem.op.blocks, tau, eps), rel=1e-12)
        checked += 1


def bundled_steps():
    """Operators of the bundled games."""
    return [make_vi_problem(spec, enumerate_states(spec)).op
            for spec in map(bundled.spec, bundled.NAMES)]


def random_alpha_steps(rng, count, shared=False):
    """Operators of ``count`` seeded random games with random alpha, one
    value for every player if ``shared``, which keeps players exchangeable."""
    out = []
    while len(out) < count:
        spec = random_spec(rng, state_limit=400)
        spec = dataclasses.replace(
            spec, alpha=rng.uniform(0.3, 3.0, size=None if shared else spec.n_players))
        out.append(make_vi_problem(spec, enumerate_states(spec)).op)
    return out


def written_out_step_norm(sym_gram, tau, eps):
    """The step norm written out: the top eigenvalue of every block of
    ``sym_gram = (S, G)``."""
    S, G = sym_gram
    a = 1.0 - tau * (1.0 + eps)
    top = np.linalg.eigvalsh((tau * tau) * G - (a * tau) * S)[:, -1].max()
    return float(np.sqrt(a * a + top))


def memoized_step_norm(sym_gram, eps):
    """``tau -> written_out_step_norm(sym_gram, tau, eps)``, each tau
    solved once."""
    return functools.cache(lambda tau: written_out_step_norm(sym_gram, tau, eps))


def all_blocks_sym_gram(steps):
    """S and G of every block of the operator, one per state, with no
    block left out as a relabelling of another."""
    h = steps.blocks
    return h + h.transpose(0, 2, 1), np.einsum('kji,kjl->kil', h, h)


def test_memoized_tau_search_equals_every_block_search(monkeypatch):
    """Every probe of ``_best_tau`` gives the norm written out over the
    operator's representative blocks at its tau, and the step equals a
    search that solves them all at every probe; no norm is carried from
    one probe or one eps to the next.  The search reads one block per
    relabelling class, so it is also checked against every block of the
    operator: the same step and ``lipschitz`` bit for bit, and each probe
    norm within 8 ulp, the rounding of eigvalsh on a relabelled block (1 728
    of 27 753 probes differ here, by at most 6 ulp)."""
    import ifgame.spectral
    ulp = np.finfo(float).eps
    probes = []
    original = ifgame.spectral._step_norm

    def recorded(steps, tau, eps):
        norm = original(steps, tau, eps)
        probes.append((tau, norm))
        return norm

    monkeypatch.setattr(ifgame.spectral, "_step_norm", recorded)
    games = bundled_steps()
    rng = np.random.default_rng(23)
    games += random_alpha_steps(rng, 30)
    # eps in a shuffled order: a norm carried over from another eps
    # would be stale in both directions
    cases = [(steps, [2.0 ** -int(k) for k in
                      rng.permutation(30 if i < len(bundled.NAMES) else 12)])
             for i, steps in enumerate(games)]
    rng = np.random.default_rng(24)
    cases += [(steps, [2.0 ** -int(k) for k in rng.permutation(12)])
              for steps in random_alpha_steps(rng, 30, shared=True)]
    n4 = bundled.n4_spec()
    cases.append((make_vi_problem(n4, enumerate_states(n4)).op, [0.0]))
    for steps, eps_values in cases:
        S, G = whole = all_blocks_sym_gram(steps)
        assert steps.lipschitz == float(
            np.sqrt(1.0 + np.linalg.eigvalsh(S + G)[:, -1].max()))
        for eps in eps_values:
            written_out = memoized_step_norm(steps.sym_gram, eps)
            all_blocks_norm = memoized_step_norm(whole, eps)
            probes.clear()
            tau = _best_tau(steps, eps)
            assert len(probes) == 33
            for t, norm in probes:
                assert norm == written_out(t)
                assert norm == pytest.approx(all_blocks_norm(t), rel=8 * ulp, abs=0)
            assert tau == golden_tau(written_out)
            assert tau == golden_tau(all_blocks_norm)


def test_golden_step_as_good_as_ternary():
    """The golden-section step is as good as the ternary search's: the same
    certification decision, a tau within the ternary search's final bracket of
    4 (2/3)^35 = 2.75e-6, and an all-blocks norm at most 1e-6 above."""
    rng = np.random.default_rng(25)
    games = bundled_steps() + random_alpha_steps(rng, 20)
    for steps in games:
        for k in range(30):
            eps = 2.0 ** -k

            def norm(tau):
                return _step_norm(steps, tau, eps)

            golden, ternary = _best_tau(steps, eps), ternary_tau(norm)
            assert (golden is None) == (ternary is None)
            if golden is not None:
                assert abs(golden - ternary) <= 2.75e-6
                assert norm(golden) <= norm(ternary) + 1e-6


def test_regularized_example1_agrees_with_iwf():
    spec = bundled.spec("example1")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    report = solve_regularized(problem, ViConfig(outer_tol=1e-8))
    assert report.converged
    iwf = iterate_waterfilling(spec, space, IwfConfig(tol=1e-10))
    assert np.abs(report.solution - iwf.profile).max() < 1e-5
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
    assert np.abs(report.solution - other.solution).max() < 1e-5


def test_solver_warns_without_psd_certificate():
    # shrink direct gains until the symmetric part goes indefinite
    spec = GameSpec(3, [0.08], [0.2], pbar=1.0)
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    from ifgame import definiteness
    psd, _, _ = definiteness(problem.op)
    assert not psd
    with pytest.warns(UserWarning):
        solve_strong(problem, 0.5, ViConfig(inner_tol=1e-6, max_inner=200))
    # the repro game certifies a step for its first 8 eps rounds, so the
    # path runs several rounds; it warns once, not once per round
    problem = make_vi_problem(*uncertified_repro())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = solve_regularized(
            problem, ViConfig(inner_tol=1e-6, max_outer=3, max_inner=200))
    assert len(report.eps_path) == 3
    assert [w.category for w in caught] == [UserWarning]


def uncertified_repro():
    """A game that is not PSD (min_sym_eig -0.00767) and whose step search
    certifies a contraction only down to eps = 2^-7, and its states."""
    spec = GameSpec(3, [1.0, 2.0], [0.6, 0.9], pbar=1.0)
    return spec, enumerate_states(spec)


def test_path_stops_at_first_uncertified_step():
    """Without the PSD certificate the path ends before the first eps
    whose step search certifies nothing, instead of iterating at the
    uncertified sigma / L^2 step to the cap in every later round."""
    problem = make_vi_problem(*uncertified_repro())
    assert not problem.op.definite[0]
    # room for 4 rounds past the last certified one, at a cap that bounds
    # each of them and still leaves every certified round converging
    config = ViConfig(max_outer=12, max_inner=20_000)
    with pytest.warns(UserWarning):
        report = solve_regularized(problem, config)
    assert [eps for eps, _, _ in report.eps_path] == [2.0 ** -n for n in range(8)]
    assert all(0 < inner < config.max_inner for _, inner, _ in report.eps_path)
    assert not report.converged
    assert report.eps_path[-1][2] == natural_residual(problem, report.solution)
    assert report.eps_path[-1][2] > config.outer_tol
    assert report.tau_used == problem.op.step(2.0 ** -7)[0]
    assert problem.op.step(2.0 ** -8)[1] is False
    # no step is certified at the first eps: one row at the start
    spec = GameSpec(3, [0.08, 0.1], [0.2], pbar=1.0)
    problem = make_vi_problem(spec, enumerate_states(spec))
    with pytest.warns(UserWarning):
        report = solve_regularized(problem, config)
    start = _uniform_start(problem)
    assert report.eps_path == [(1.0, 0, natural_residual(problem, start))]
    assert not report.converged
    assert np.array_equal(report.solution, start)


def test_solve_strong_warns_only_without_a_guaranteed_step():
    """The repro game is not PSD, but its searched step certifies a
    contraction down to eps = 2^-7: there the iteration converges, and
    only at 2^-8, where no step is certified, does it warn."""
    problem = make_vi_problem(*uncertified_repro())
    assert not problem.op.definite[0]
    config = ViConfig(inner_tol=1e-6, max_inner=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_strong(problem, 2.0 ** -7, config)
    with pytest.warns(UserWarning, match="no convergence guarantee"):
        solve_strong(problem, 2.0 ** -8, config)


def test_fallback_step_is_guaranteed_only_on_psd_games(monkeypatch):
    """With no step certified, the sigma / L^2 fallback is guaranteed when
    sigma = eps + min_sym_eig - delta > 0 makes F_eps strongly monotone:
    on a PSD game at eps = 0.5, and not on a game whose min_sym_eig is
    -1.5."""
    import ifgame.spectral
    monkeypatch.setattr(ifgame.spectral, "_best_tau", lambda steps, eps: None)
    config = ViConfig(max_inner=50)
    _, _, psd_game = small_problem()
    spec = GameSpec(3, [0.08], [0.2], pbar=1.0)
    indefinite = make_vi_problem(spec, enumerate_states(spec))
    for problem, psd in ((psd_game, True), (indefinite, False)):
        assert problem.op.definite[0] is psd
        tau, guaranteed = problem.op.step(0.5)
        assert guaranteed is psd and tau > 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_strong(problem, 0.5, config)
        assert [w.category for w in caught] == ([] if psd else [UserWarning])


def test_regularized_checks_definiteness_once(monkeypatch):
    import ifgame.spectral
    calls = []
    original = ifgame.spectral.definiteness

    def counted(op):
        calls.append(op)
        return original(op)

    monkeypatch.setattr(ifgame.spectral, "definiteness", counted)
    # a PSD, not PD game walks the eps path
    spec = bundled.spec("psd_boundary")
    report = solve_regularized(make_vi_problem(spec, enumerate_states(spec)))
    assert report.converged and len(report.eps_path) > 1
    assert len(calls) == 1
    # a PD game solves once at eps = 0
    _, _, problem = small_problem()
    report = solve_regularized(problem)
    assert report.converged and [p[0] for p in report.eps_path] == [0.0]
    assert len(calls) == 2


def test_vi_config_rejects_nonpositive_tolerances():
    # inner_tol = -1 made every eps round run all max_inner iterations;
    # infinite tolerances reported converged after one round
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="inner_tol"):
            ViConfig(inner_tol=bad)
        with pytest.raises(ValueError, match="outer_tol"):
            ViConfig(outer_tol=bad)


def test_vi_config_rejects_negative_max_inner():
    with pytest.raises(ValueError, match="max_inner"):
        ViConfig(max_inner=-5)
    with pytest.raises(ValueError, match="max_inner"):
        ViConfig(max_inner=0)


def test_vi_config_rejects_non_finite_eps0():
    # solve_regularized then failed inside _step_norm with "zero-size
    # array to reduction operation maximum"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps0"):
            ViConfig(eps0=bad)


def test_vi_config_rejects_zero_max_outer():
    # max_outer = 0 gave an empty eps_path, on which reporting the solve
    # raised IndexError
    with pytest.raises(ValueError, match="max_outer"):
        ViConfig(max_outer=0)
    spec = bundled.spec("psd_boundary")  # walks the eps path
    problem = make_vi_problem(spec, enumerate_states(spec))
    assert len(solve_regularized(problem, ViConfig(max_outer=1)).eps_path) == 1


def test_parameter_validation():
    spec, space, problem = small_problem()
    assert problem.op.definite[1]
    with pytest.raises(ValueError, match="eps"):
        solve_strong(problem, eps=-1e-300)
    solve_strong(problem, eps=0.0)  # F itself is strongly monotone
    spec = bundled.spec("psd_boundary")
    boundary = make_vi_problem(spec, enumerate_states(spec))
    assert boundary.op.definite[:2] == (True, False)
    for eps in (0.0, -0.5):
        with pytest.raises(ValueError, match="eps"):
            solve_strong(boundary, eps=eps)
    with pytest.raises(ValueError):
        ViConfig(eps0=-1.0)
    with pytest.raises(ValueError):
        ViConfig(decay=1.5)
    with pytest.raises(ValueError):
        natural_residual(problem, np.zeros((3, space.n_states)))


def random_games(rng, count, n_players, uniform_probs):
    """VI problems of ``count`` seeded random games with ``n_players``
    players, from 4 to a few hundred states, and random alpha.  The space
    is enumerated after alpha is replaced: it is built for its spec's
    alpha."""
    out = []
    while len(out) < count:
        spec = random_spec(rng, n_max=max(n_players), state_limit=300,
                           uniform_probs=uniform_probs)
        if spec.n_players not in n_players or state_count(spec) < 4:
            continue
        spec = dataclasses.replace(spec, alpha=rng.uniform(0.3, 3.0, size=spec.n_players))
        out.append(make_vi_problem(spec, enumerate_states(spec)))
    return out


def solve_both(problem, config):
    """The solver's report and the state-major reference's, with the
    step data shared, so tau(eps) is the same for both."""
    report = solve_regularized(problem, config)
    return report, reference_vi.solve_regularized(problem, config)


def assert_same_solve(problem, config):
    report, (powers, path, converged, tau) = solve_both(problem, config)
    assert report.solution.tobytes() == powers.tobytes()
    assert repr(report.eps_path) == repr(path)  # repr tells every float apart
    assert report.converged == converged
    assert repr(report.tau_used) == repr(tau)
    return report


def test_player_major_iteration_matches_state_major_reference():
    """Bit for bit: the bundled games at their own budget and at every
    sweep budget, as ``sweep`` solves them."""
    config = ViConfig()
    for name in bundled.NAMES:
        spec = bundled.spec(name)
        problem = make_vi_problem(spec, enumerate_states(spec))
        for value in [None, *SweepConfig().values]:
            point = problem if value is None else dataclasses.replace(
                problem, pbar=np.full(spec.n_players, float(value)))
            assert assert_same_solve(point, config).converged


def test_player_major_iteration_matches_reference_on_random_games():
    """Bit for bit on seeded random games with N <= 3, where the
    reference's einsum adds the coupling terms in index order, with
    uniform and non-uniform link probabilities."""
    rng = np.random.default_rng(25)
    config = ViConfig(max_outer=30, max_inner=300)
    capped = ViConfig(max_outer=3, max_inner=300)  # no guarantee: hits the cap
    converged = 0
    for uniform in (True, False):
        for problem in random_games(rng, 10, (1, 2, 3), uniform):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                report = assert_same_solve(
                    problem, config if problem.op.definite[0] else capped)
            converged += report.converged
    assert converged >= 10


def test_player_major_iteration_at_four_players_moves_by_rounding():
    """At N = 4 the reference's einsum sums the coupling in another
    order, so values may move by rounding; the iteration counts and the
    path must not.  PSD games only: without the certificate nothing
    damps a rounding difference."""
    rng = np.random.default_rng(26)
    config = ViConfig(max_outer=30, max_inner=300)
    for uniform in (True, False):
        checked = 0
        while checked < 3:
            problem = random_games(rng, 1, (4,), uniform)[0]
            if not problem.op.definite[0]:
                continue
            report, (powers, path, converged, tau) = solve_both(problem, config)
            scale = np.abs(powers).max()
            assert np.abs(report.solution - powers).max() <= 1e-14 * scale
            assert [p[:2] for p in report.eps_path] == [p[:2] for p in path]
            assert report.converged == converged and report.tau_used == tau
            checked += 1


def walk_path(problem, config, secant=True):
    """The eps path from the uniform start, walked with ``solve_strong`` at
    the problem's own tau(eps) on any PSD problem, PD or not.  From the
    third round on each round starts at the projected secant of the last
    two solutions (``secant``), as ``solve_regularized`` walks the path,
    or at the last solution, as the solver ran before the secant start.
    Returns (eps path, converged)."""
    P = _uniform_start(problem)
    prev = None
    path = []
    for n in range(config.max_outer):
        eps = config.eps0 * config.decay ** n
        start = P if n < 2 or not secant else _project_face(
            problem, config.decay * (prev - P) - P)
        prof, inner = solve_strong(problem, eps, config, init=start)
        prev, P = P, prof
        path.append((eps, inner, natural_residual(problem, P)))
        if path[-1][2] < config.outer_tol:
            return path, True
    return path, False


def test_secant_start_saves_iterations_and_costs_none():
    """Against the plain warm start, on the PSD-boundary game at its own
    and every sweep budget, where ``solve_regularized`` walks the eps path:
    the same ``converged``, no more rounds and no more inner iterations at
    any budget, and at least 65 % fewer inner iterations over the set.
    (Random games put on the PSD boundary mostly do not converge within a
    test-sized cap, with either start, so they would compare the caps.)"""
    spec = bundled.spec("psd_boundary")
    problem = make_vi_problem(spec, enumerate_states(spec))
    config = ViConfig()
    totals = np.zeros(2, dtype=int)
    for value in [None, *SweepConfig().values]:
        point = problem if value is None else dataclasses.replace(
            problem, pbar=np.full(spec.n_players, float(value)))
        report = solve_regularized(point, config)
        path, converged = walk_path(point, config, secant=False)
        assert report.converged and converged
        assert 1 < len(report.eps_path) <= len(path)
        inner = [sum(p[1] for p in report.eps_path), sum(p[1] for p in path)]
        assert inner[0] <= inner[1]
        assert natural_residual(point, report.solution) < config.outer_tol
        totals += inner
    assert totals[0] <= 0.35 * totals[1]


def test_eps_path_converges_on_psd_boundary_game():
    """The bundled PSD, not PD game walks the whole regularization path
    and converges.  The NE need not be unique at min_sym_eig = 0, so the
    test checks the flag and an independently recomputed natural
    residual, not one profile."""
    spec = bundled.spec("psd_boundary")
    space = enumerate_states(spec)
    problem = make_vi_problem(spec, space)
    psd, pd, min_eig = problem.op.definite
    assert psd and not pd and abs(min_eig) <= 1e-12
    config = ViConfig()
    report = solve_regularized(problem, config)
    assert report.converged
    assert [p[0] for p in report.eps_path] == [0.5 ** n for n in range(len(report.eps_path))]
    assert len(report.eps_path) > 20
    P = report.solution
    assert dense_natural_residual(problem, P) < config.outer_tol
    assert P.min() >= 0 and np.abs(P @ space.probs - spec.pbar).max() < 1e-9


def test_direct_solve_beats_the_eps_path_on_pd_games():
    """On seeded random PD games, and on the 2-player games with direct
    gains [1, 2] and cross gains (1 - d) [1, 0.5], whose min_sym_eig is d,
    from d = 0.1 down to 3e-10, still far above the PD band delta: the
    one eps = 0 solve takes no more inner iterations than the eps path,
    reports the same ``converged``, and converges to a natural residual
    below outer_tol."""
    rng = np.random.default_rng(5)
    problems = []
    while len(problems) < 30:
        spec = random_spec(rng, state_limit=800, uniform_probs=len(problems) % 2 == 0,
                           min_players=2)
        problem = make_vi_problem(spec, enumerate_states(spec))
        if problem.op.definite[1]:
            problems.append(problem)
    for d in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6,
              3e-7, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 3e-10):
        spec = GameSpec(2, [1.0, 2.0], [1.0 - d, 0.5 * (1.0 - d)], pbar=1.0)
        problem = make_vi_problem(spec, enumerate_states(spec))
        assert problem.op.definite[1] and problem.op.definite[2] == pytest.approx(d, rel=1e-5)
        problems.append(problem)
    config = ViConfig()
    for problem in problems:
        report = solve_regularized(problem, config)
        path, converged = walk_path(problem, config)
        assert [p[0] for p in report.eps_path] == [0.0]
        assert report.eps_path[0][1] <= sum(p[1] for p in path)
        assert report.converged == converged
        assert report.converged
        assert natural_residual(problem, report.solution) < config.outer_tol


def dense_natural_residual(problem, P):
    """||P - Pi_K(P - F(P))||_inf from the dense block-diagonal Htilde and
    a bisection water level."""
    dense, hvec = dense_operator(problem)
    F = (hvec + dense @ P.T.ravel()).reshape(problem.n_states, problem.n_players).T
    floors = F - P  # Pi_K(x) is water-filling on the floors -x
    projected = [bisect_waterfill(f, problem.probs, pbar)
                 for f, pbar in zip(floors, problem.pbar)]
    return float(np.abs(P - np.array(projected)).max())


def test_reported_convergence_holds_for_random_games():
    """Whenever the regularized solve reports ``converged``, the natural
    residual of its solution, recomputed independently, is below
    outer_tol; every residual on the path is finite."""
    rng = np.random.default_rng(27)
    # a PD game solves at eps = 0; on a PSD game that is not PD, a path
    # from eps = 2^-10 needs about 15 rounds, not 25, to converge
    config = ViConfig(eps0=2.0 ** -10, max_outer=20, max_inner=2000)
    checked = converged = 0
    while checked < 30:
        uniform = checked % 2 == 0
        problem = random_games(rng, 1, (1, 2, 3, 4), uniform)[0]
        if not problem.op.definite[0]:
            continue
        report = solve_regularized(problem, config)
        assert all(np.isfinite(r) for _, _, r in report.eps_path)
        if report.converged:
            residual = dense_natural_residual(problem, report.solution)
            assert residual < config.outer_tol
            converged += 1
        checked += 1
    assert converged >= 15
