"""The state space as the interference operator, spectral radii, and the
solver-guarantee checks."""

import dataclasses
import itertools

import numpy as np
import pytest

from ifgame import (GameSpec, StateSpace, condition_report, contraction_condition,
                    definiteness, enumerate_states, make_vi_problem, rho_blockdiag,
                    spectral_radius)
from ifgame import spectral
from ifgame.spectral import _band, _clears, _sym, representatives
import bundled
from util_random import random_spec


def bundled_space(name):
    return enumerate_states(bundled.spec(name))


def dense_rho(matrix):
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def test_single_player_operator_is_trivial():
    spec = GameSpec(1, [2.0, 0.5], [1.0], pbar=1.0)
    op = enumerate_states(spec)
    assert np.all(op.blocks == 0.0)
    assert op.smax.shape == (1, 1) and op.smax[0, 0] == 0.0
    assert rho_blockdiag(op) == 0.0
    assert np.allclose(op.hhat[:, 0], 1.0 / np.array([2.0, 0.5]))


def test_operator_is_player_major_in_memory():
    # the VI iteration reads blocks.transpose(1, 2, 0) and hhat.T in
    # place, so no VI run copies them
    for name in bundled.NAMES:
        op = bundled_space(name)
        assert op.blocks.transpose(1, 2, 0).flags.c_contiguous
        assert op.hhat.T.flags.c_contiguous


def test_operator_and_vi_problem_wrap_the_space_tables():
    """The space is the operator, and every VI problem reads the space's
    own hhat and blocks: a run holds one (N1, N, N) channel table."""
    for spec in (bundled.spec("example1"), GameSpec(1, [2.0, 0.5], [1.0], pbar=1.0)):
        space = enumerate_states(spec)
        assert make_vi_problem(spec, space).space is space
        assert np.array_equal(space.smax, space.blocks.max(axis=0))


def test_operator_entry_ranges():
    op1 = bundled_space("example1")
    assert op1.smax.max() == pytest.approx(0.5 / 1.5)
    opc = bundled_space("pd_not_contractive")
    assert opc.smax.max() == pytest.approx(0.2 / 0.3)
    for op in (op1, opc):
        n = op.n_players
        assert np.all(np.einsum('kii->ki', op.blocks) == 0.0)
        assert np.all(op.blocks >= 0.0)
        assert np.all(op.hhat > 0.0)
        assert np.array_equal(op.smax, op.blocks.max(axis=0))


def test_alpha_folds_into_effective_gain():
    base = GameSpec(2, [2.0], [0.5], pbar=1.0)
    scaled = GameSpec(2, [2.0], [0.5], pbar=1.0, alpha=[2.0, 4.0])
    op_b = enumerate_states(base)
    op_s = enumerate_states(scaled)
    assert np.allclose(op_s.hhat, op_b.hhat / np.array([2.0, 4.0]))
    assert np.allclose(op_s.blocks[:, 0, :], op_b.blocks[:, 0, :] / 2.0)
    assert np.allclose(op_s.blocks[:, 1, :], op_b.blocks[:, 1, :] / 4.0)


def test_spectral_radius_zero_and_shape_guard():
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))


def test_spectral_radius_example_values():
    op1 = bundled_space("example1")
    assert spectral_radius(op1.smax) == pytest.approx(2.0 / 3.0, abs=1e-9)
    op2 = bundled_space("example2")
    assert spectral_radius(op2.smax) == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_spectral_radius_unequal_row_sums_hand_values():
    # row sums 1 and 4 bracket the radius; eigenvalues are +-2
    assert spectral_radius([[0.0, 1.0], [4.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)
    # triangular: eigenvalues on the diagonal, row sums 3 and 1
    assert spectral_radius([[2.0, 1.0], [0.0, 1.0]]) == pytest.approx(2.0, abs=1e-12)
    # eigenvalues (5 +- sqrt(33)) / 2, row sums 3 and 7
    assert spectral_radius([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(
        (5.0 + 33.0 ** 0.5) / 2.0, abs=1e-12)


def test_spectral_radius_equal_row_sums_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.1, 1.0, size=(n, n))
        target = rng.uniform(0.5, 3.0)
        a *= target / a.sum(axis=1, keepdims=True)
        assert spectral_radius(a) == pytest.approx(target, abs=1e-9)


def test_spectral_radius_against_dense_eigensolver():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 2.0, size=(n, n))
        assert spectral_radius(a) == pytest.approx(dense_rho(a), abs=1e-8)


def test_rho_blockdiag_equals_smax_rho():
    rng = np.random.default_rng(5)
    for _ in range(30):
        spec = random_spec(rng, state_limit=800)
        op = enumerate_states(spec)
        r_blocks = rho_blockdiag(op)
        assert r_blocks == pytest.approx(spectral_radius(op.smax), abs=1e-9)
        dense = max(dense_rho(b) for b in op.blocks)
        assert r_blocks == pytest.approx(dense, abs=1e-8)


def test_condition_report_rho_hhat_is_rho_blockdiag():
    """rho_hhat is reported from Smax; it equals the radius over every
    block bit for bit, because Smax is one of the blocks and dominates."""
    rng = np.random.default_rng(12)
    specs = [bundled.spec(name) for name in bundled.NAMES]
    specs += [random_spec(rng, state_limit=800, uniform_probs=k % 2 == 0)
              for k in range(40)]
    specs += [dataclasses.replace(s, alpha=rng.uniform(0.5, 2.0, s.n_players))
              for s in specs[-10:]]
    for spec in specs:
        space = enumerate_states(spec)
        assert condition_report(spec, space).rho_hhat == rho_blockdiag(space)


def test_contraction_condition_values():
    ratio1, ok1 = contraction_condition(bundled.spec("example1"))
    assert (ratio1, ok1) == (pytest.approx(2.0 / 3.0), True)
    ratio2, ok2 = contraction_condition(bundled.spec("example2"))
    assert (ratio2, ok2) == (pytest.approx(4.0 / 3.0), False)
    boundary = GameSpec(2, [1.0], [1.0], pbar=1.0)
    ratio_b, ok_b = contraction_condition(boundary)
    assert ratio_b == pytest.approx(1.0) and not ok_b
    assert contraction_condition(GameSpec(1, [1.0], [1.0], pbar=1.0)) \
        == (0.0, True)


def test_contraction_equivalence_on_random_specs():
    rng = np.random.default_rng(6)
    for _ in range(50):
        spec = random_spec(rng, state_limit=800, uniform_probs=True)
        rho = spectral_radius(enumerate_states(spec).smax)
        ratio, ok = contraction_condition(spec)
        assert (rho < 1.0) == (ratio < 1.0) == ok
        if spec.n_players > 1:
            assert rho == pytest.approx(ratio, abs=1e-9)


def test_ratio_bound_honours_alpha():
    # alpha scales the effective direct gain, so the row-sum bound must too
    for alpha in ([0.5, 0.5, 0.5], [0.5, 1.0, 2.0], [3.0, 1.0, 1.0]):
        spec = dataclasses.replace(bundled.spec("example1"), alpha=alpha)
        space = enumerate_states(spec)
        report = condition_report(spec, space)
        assert report.ratio_bound >= report.rho_smax - 1e-12
        row_sums = space.smax.sum(axis=1)
        assert report.ratio_bound == pytest.approx(row_sums.max(), rel=1e-12)
    half = dataclasses.replace(bundled.spec("example1"), alpha=0.5)
    report = condition_report(half, enumerate_states(half))
    assert report.ratio_bound == pytest.approx(4.0 / 3.0)
    assert report.rho_smax == pytest.approx(4.0 / 3.0)


def test_definiteness_single_player():
    spec = GameSpec(1, [1.0], [1.0], pbar=1.0)
    psd, pd, min_eig = definiteness(enumerate_states(spec))
    assert psd and pd
    assert min_eig == pytest.approx(1.0)


def test_definiteness_closed_form_block():
    # singleton alphabets: one state, every off-diagonal ratio 0.2/0.3 = 2/3;
    # I + (2/3)(J - I) has eigenvalues {7/3, 1/3, 1/3}
    spec = GameSpec(3, [0.3], [0.2], pbar=1.0)
    psd, pd, min_eig = definiteness(enumerate_states(spec))
    assert psd and pd
    assert min_eig == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_pd_without_contraction_instance():
    spec = bundled.spec("pd_not_contractive")
    report = condition_report(spec, enumerate_states(spec))
    assert report.rho_hhat > 1.0
    assert report.rho_hhat == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert report.htilde_pd and report.min_sym_eig > 0.0
    assert not report.contraction_ok


def test_small_radius_implies_positive_definite():
    rng = np.random.default_rng(8)
    seen = 0
    while seen < 25:
        spec = random_spec(rng, state_limit=800)
        space = enumerate_states(spec)
        if spectral_radius(space.smax) >= 1.0:
            continue
        seen += 1
        psd, pd, _ = definiteness(space)
        assert psd and pd


def test_condition_report_consistency():
    for spec in (bundled.spec("example1"), bundled.spec("example2")):
        op = enumerate_states(spec)
        rep = condition_report(spec, op)
        assert rep.contraction_ok == (rep.rho_smax < 1.0)
        assert rep.rho_hhat == pytest.approx(rep.rho_smax, abs=1e-9)
        assert rep.htilde_pd == (rep.min_sym_eig > _band(op))


def test_representatives_stand_for_every_block_up_to_relabelling():
    """The step search reads one block per relabelling class: each
    representative is a distinct block index, S and G are formed from those
    blocks, and every block is a simultaneous row and column permutation of
    some representative, found by trying all N! orders of its players."""
    rng = np.random.default_rng(31)
    ops = [bundled_space(name) for name in bundled.NAMES]
    for k in range(20):
        spec = random_spec(rng, n_max=3, state_limit=800, min_players=2,
                           uniform_probs=k % 2 == 0)
        ops.append(enumerate_states(spec))
    for op in ops:
        reps = representatives(op)
        assert np.unique(reps).size == reps.size
        assert 0 <= reps.min() and reps.max() < op.n_states
        h = op.blocks[reps]
        S, G = op.sym_gram
        assert np.array_equal(S, h + h.transpose(0, 2, 1))
        assert np.array_equal(G, np.einsum('kji,kjl->kil', h, h))
        known = {block.tobytes() for block in h}
        orders = list(itertools.permutations(range(op.n_players)))
        for block in op.blocks:
            assert any(block[np.ix_(p, p)].tobytes() in known for p in orders)


def test_fewer_representatives_than_distinct_blocks():
    """Exchangeable players leave fewer classes than distinct blocks."""
    n4 = bundled.n4_spec()
    for op in (bundled_space("example1"), enumerate_states(n4)):
        distinct = np.unique(op.blocks.reshape(op.n_states, -1), axis=0)
        assert representatives(op).size < len(distinct)


def all_blocks_definiteness(op):
    """(psd, pd, min_sym_eig) from eigvalsh on every block of I + S/2."""
    b = op.blocks
    sym = 0.5 * (b + b.transpose(0, 2, 1))
    n = op.n_players
    sym[:, np.arange(n), np.arange(n)] += 1.0
    m = float(np.linalg.eigvalsh(sym)[:, 0].min())
    band = _band(op)
    return m >= -band, m > band, m


def test_definiteness_matches_every_block_bit_for_bit():
    """Solving only the sampled and the uncertified blocks leaves the
    certificate exactly that of eigvalsh on every block: on the bundled
    games, the 65 536-state game, 300 seeded random games (uniform and
    not, random alpha, many not PSD), games whose blocks tie at the
    minimum, one player, and one state."""
    specs = [bundled.spec(name) for name in bundled.NAMES] + [bundled.n4_spec()]
    rng = np.random.default_rng(23)
    for k in range(300):
        spec = random_spec(rng, state_limit=3000, uniform_probs=k % 2 == 0,
                           min_states=65 if k % 3 else 1)
        if k % 4 == 0:
            spec = dataclasses.replace(spec, alpha=rng.uniform(0.5, 2.0, spec.n_players))
        specs.append(spec)
    # every block the same, then many blocks equal to the minimizing one
    specs.append(GameSpec(3, [1.0], [0.4, 0.4, 0.4], pbar=1.0))
    specs.append(GameSpec(3, [1.0, 1.0], [0.6, 0.6, 0.2], pbar=1.0))
    specs.append(GameSpec(1, [1.0, 2.0, 3.0], [1.0], pbar=1.0))
    specs.append(GameSpec(3, [0.3], [0.2], pbar=1.0))
    specs.append(GameSpec(2, [1.0], [1.5], pbar=1.0))
    flags = set()
    for spec in specs:
        op = enumerate_states(spec)
        got, want = definiteness(op), all_blocks_definiteness(op)
        assert got == want
        assert all(type(flag) is bool for flag in got[:2]) and type(got[2]) is float
        flags.add(got[:2])
    assert flags == {(True, True), (True, False), (False, False)}


def test_ldl_certificate_never_clears_a_block_at_or_below_t():
    """``_clears`` passes no block whose eigvalsh minimum is at most t, with
    t placed within 4 bands of each block's minimum (a quarter of them
    exactly on it), and passes every block whose minimum is 2 bands or
    more above t."""
    rng = np.random.default_rng(19)
    count = 4000
    for n in range(1, 6):
        h = rng.uniform(0.0, 1.5, size=(n, n, count))
        h[np.arange(n), np.arange(n)] = 0.0
        op = StateSpace(hhat=np.ones((count, n)), blocks=h.transpose(2, 0, 1),
                        probs=np.full(count, 1.0 / count))
        band = _band(op)
        a = _sym(h)
        low = np.linalg.eigvalsh(a.transpose(2, 0, 1))[:, 0]
        offset = np.where(rng.random(count) < 0.25, 0.0, rng.uniform(-4.0, 4.0, count))
        t = low + offset * band
        before = a.copy()
        clear = _clears(a, t, band)
        assert np.array_equal(a, before)
        assert not (clear & (low <= t)).any()
        assert clear[offset <= -2.0].all() and clear.sum() > count // 4


def test_flags_allow_only_the_rounding_band():
    """min_sym_eig -5e-11 is not PSD, and +5e-11 is PD: the band is a few
    ulp wide, not 1e-10; the bundled boundary game stays PSD."""
    for cross, flags in ((1.0 + 5e-11, (False, False)), (1.0 - 5e-11, (True, True))):
        spec = GameSpec(2, [1.0], [cross], pbar=1.0)
        report = condition_report(spec, enumerate_states(spec))
        assert (report.htilde_psd, report.htilde_pd) == flags
        assert abs(report.min_sym_eig) == pytest.approx(5e-11, rel=1e-6)
    op = bundled_space("psd_boundary")
    assert op.definite[:2] == (True, False) and 0 < _band(op) < 1e-13


def test_fallback_step_needs_a_positive_modulus(monkeypatch):
    """With no step certified, the sigma / L^2 fallback is guaranteed only
    when sigma = eps + min_sym_eig - delta > 0; otherwise the step is
    eps / L^2 and not guaranteed."""
    spec = GameSpec(2, [1.0, 2.0], [1.0 + 5e-11], pbar=1.0)
    op = enumerate_states(spec)
    m = op.definite[2]
    assert op.step(1e-11) == (1e-11 / (op.lipschitz + 1e-11) ** 2, False)
    monkeypatch.setattr(spectral, "_best_tau", lambda steps, eps: None)
    op = enumerate_states(spec)
    sigma = 1e-9 + m - _band(op)
    assert op.step(1e-9) == (sigma / (op.lipschitz + 1e-9) ** 2, True)
