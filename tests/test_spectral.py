"""Interference operator, spectral radii, and the solver-guarantee checks."""

import dataclasses

import numpy as np
import pytest

from ifgame import (GameSpec, build_operator, condition_report,
                    contraction_condition, definiteness, enumerate_states,
                    rho_blockdiag, spectral_radius)
import bundled
from util_random import random_spec


def bundled_operator(name):
    spec = bundled.spec(name)
    return build_operator(spec, enumerate_states(spec))


def dense_rho(matrix):
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def test_single_player_operator_is_trivial():
    spec = GameSpec.symmetric(1, [2.0, 0.5], [1.0], pbar=1.0)
    space = enumerate_states(spec)
    op = build_operator(spec, space)
    assert np.all(op.blocks == 0.0)
    assert op.smax.shape == (1, 1) and op.smax[0, 0] == 0.0
    assert rho_blockdiag(op) == 0.0
    assert np.allclose(op.hhat[:, 0], 1.0 / space.gains[:, 0, 0])


def test_operator_is_player_major_in_memory():
    # the VI iteration reads blocks.transpose(1, 2, 0) and hhat.T in
    # place, so no VI run copies the operator
    for name in bundled.NAMES:
        op = bundled_operator(name)
        assert op.blocks.transpose(1, 2, 0).flags.c_contiguous
        assert op.hhat.T.flags.c_contiguous


def test_operator_entry_ranges():
    op1 = bundled_operator("example1")
    assert op1.smax.max() == pytest.approx(0.5 / 1.5)
    opc = bundled_operator("pd_not_contractive")
    assert opc.smax.max() == pytest.approx(0.2 / 0.3)
    for op in (op1, opc):
        n = op.n_players
        assert np.all(np.einsum('kii->ki', op.blocks) == 0.0)
        assert np.all(op.blocks >= 0.0)
        assert np.all(op.hhat > 0.0)
        assert np.array_equal(op.smax, op.blocks.max(axis=0))


def test_alpha_folds_into_effective_gain():
    base = GameSpec.symmetric(2, [2.0], [0.5], pbar=1.0)
    scaled = GameSpec.symmetric(2, [2.0], [0.5], pbar=1.0, alpha=[2.0, 4.0])
    op_b = build_operator(base, enumerate_states(base))
    op_s = build_operator(scaled, enumerate_states(scaled))
    assert np.allclose(op_s.hhat, op_b.hhat / np.array([2.0, 4.0]))
    assert np.allclose(op_s.blocks[:, 0, :], op_b.blocks[:, 0, :] / 2.0)
    assert np.allclose(op_s.blocks[:, 1, :], op_b.blocks[:, 1, :] / 4.0)


def test_spectral_radius_zero_and_shape_guard():
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))


def test_spectral_radius_example_values():
    op1 = bundled_operator("example1")
    assert spectral_radius(op1.smax) == pytest.approx(2.0 / 3.0, abs=1e-9)
    op2 = bundled_operator("example2")
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
        space = enumerate_states(spec)
        op = build_operator(spec, space)
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
        op = build_operator(spec, space)
        assert condition_report(spec, space, op).rho_hhat == rho_blockdiag(op)


def test_contraction_condition_values():
    ratio1, ok1 = contraction_condition(bundled.spec("example1"))
    assert (ratio1, ok1) == (pytest.approx(2.0 / 3.0), True)
    ratio2, ok2 = contraction_condition(bundled.spec("example2"))
    assert (ratio2, ok2) == (pytest.approx(4.0 / 3.0), False)
    boundary = GameSpec.symmetric(2, [1.0], [1.0], pbar=1.0)
    ratio_b, ok_b = contraction_condition(boundary)
    assert ratio_b == pytest.approx(1.0) and not ok_b
    assert contraction_condition(GameSpec.symmetric(1, [1.0], [1.0], pbar=1.0)) \
        == (0.0, True)


def test_contraction_equivalence_on_random_specs():
    rng = np.random.default_rng(6)
    for _ in range(50):
        spec = random_spec(rng, state_limit=800, uniform_probs=True)
        space = enumerate_states(spec)
        op = build_operator(spec, space)
        rho = spectral_radius(op.smax)
        ratio, ok = contraction_condition(spec)
        assert (rho < 1.0) == (ratio < 1.0) == ok
        if spec.n_players > 1:
            assert rho == pytest.approx(ratio, abs=1e-9)


def test_ratio_bound_honours_alpha():
    # alpha scales the effective direct gain, so the row-sum bound must too
    for alpha in ([0.5, 0.5, 0.5], [0.5, 1.0, 2.0], [3.0, 1.0, 1.0]):
        spec = dataclasses.replace(bundled.spec("example1"), alpha=alpha)
        report = condition_report(spec, enumerate_states(spec))
        assert report.ratio_bound >= report.rho_smax - 1e-12
        row_sums = build_operator(spec, enumerate_states(spec)).smax.sum(axis=1)
        assert report.ratio_bound == pytest.approx(row_sums.max(), rel=1e-12)
    half = dataclasses.replace(bundled.spec("example1"), alpha=0.5)
    report = condition_report(half, enumerate_states(half))
    assert report.ratio_bound == pytest.approx(4.0 / 3.0)
    assert report.rho_smax == pytest.approx(4.0 / 3.0)


def test_definiteness_single_player():
    spec = GameSpec.symmetric(1, [1.0], [1.0], pbar=1.0)
    psd, pd, min_eig = definiteness(build_operator(spec, enumerate_states(spec)))
    assert psd and pd
    assert min_eig == pytest.approx(1.0)


def test_definiteness_closed_form_block():
    # singleton alphabets: one state, every off-diagonal ratio 0.2/0.3 = 2/3;
    # I + (2/3)(J - I) has eigenvalues {7/3, 1/3, 1/3}
    spec = GameSpec.symmetric(3, [0.3], [0.2], pbar=1.0)
    op = build_operator(spec, enumerate_states(spec))
    psd, pd, min_eig = definiteness(op)
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
        op = build_operator(spec, space)
        if spectral_radius(op.smax) >= 1.0:
            continue
        seen += 1
        psd, pd, _ = definiteness(op)
        assert psd and pd


def test_condition_report_consistency():
    for spec in (bundled.spec("example1"), bundled.spec("example2")):
        rep = condition_report(spec, enumerate_states(spec))
        assert rep.contraction_ok == (rep.rho_smax < 1.0)
        assert rep.rho_hhat == pytest.approx(rep.rho_smax, abs=1e-9)
        assert rep.htilde_pd == (rep.min_sym_eig > 1e-10)
