"""Combined-state construction, the rotation operator, and the estimators."""
import math

import numpy as np
import pytest

from qsph.quantum_state import StateVector, basis_state, inner_product, normalize
from qsph.swap_test import (
    EstimationResult,
    build_rotation_operator,
    build_swap_state,
    estimate_exact,
    estimate_phase,
    estimate_sampled,
    rotation_eigenpairs,
)


def random_pair(rng, d=6):
    x, _ = normalize(rng.normal(size=d) + 1j * rng.normal(size=d))
    y, _ = normalize(rng.normal(size=d) + 1j * rng.normal(size=d))
    return x, y


def test_identical_states():
    z0 = basis_state(2, 0)
    s = build_swap_state(z0, z0)
    np.testing.assert_array_equal(s.phi.amplitudes, [1, 0, 0, 0])
    assert s.theta == pytest.approx(math.pi / 2, rel=1e-15)
    assert s.u_defined and not s.v_defined
    with pytest.raises(ValueError):
        s.state_v()


def test_orthogonal_states():
    s = build_swap_state(basis_state(2, 0), basis_state(2, 1))
    np.testing.assert_array_equal(s.phi.amplitudes, [0.5, 0.5, 0.5, -0.5])
    assert s.theta == pytest.approx(math.pi / 4, rel=1e-15)
    assert s.u_defined and s.v_defined


def test_opposite_states():
    z0 = basis_state(2, 0)
    minus = StateVector(-z0.amplitudes)
    s = build_swap_state(z0, minus)
    assert s.theta == pytest.approx(0.0, abs=1e-15)
    assert s.v_defined and not s.u_defined
    with pytest.raises(ValueError):
        s.state_u()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        build_swap_state(basis_state(2, 0), basis_state(4, 0))


def test_angle_identity_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = random_pair(rng)
        s = build_swap_state(x, y)
        rho = inner_product(x, y).real
        assert math.sin(s.theta) ** 2 == pytest.approx((1.0 + rho) / 2.0, abs=1e-12)
        norm = np.vdot(s.phi.amplitudes, s.phi.amplitudes).real
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_block_probabilities_readout_identity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        x, y = random_pair(rng, d=5)
        s = build_swap_state(x, y)
        p0, p1 = s.block_probabilities()
        rho = inner_product(x, y).real
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
        assert p0 - p1 == pytest.approx(rho, abs=1e-12)


def test_rotation_operator_unitary():
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = build_swap_state(*random_pair(rng, d=4))
        g = build_rotation_operator(s)
        assert g.dtype == complex and g.shape == (8, 8)
        np.testing.assert_allclose(g.conj().T @ g, np.eye(8), rtol=0, atol=1e-10)


def test_rotation_eigenvalues_quarter_turn():
    # theta = pi/4 gives rotation eigenvalues e^{+-i pi/2} = +-i
    s = build_swap_state(basis_state(2, 0), basis_state(2, 1))
    eigvals = np.linalg.eigvals(build_rotation_operator(s))
    assert np.min(np.abs(eigvals - 1j)) < 1e-10
    assert np.min(np.abs(eigvals + 1j)) < 1e-10


def test_rotation_spectrum_random_pairs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        s = build_swap_state(*random_pair(rng, d=3))
        g = build_rotation_operator(s)
        eigvals = np.linalg.eigvals(g)
        np.testing.assert_allclose(np.abs(eigvals), np.ones(6), atol=1e-10)
        for lam in (np.exp(2j * s.theta), np.exp(-2j * s.theta)):
            assert np.min(np.abs(eigvals - lam)) < 1e-8


def test_eigenpairs_verify_and_are_orthogonal():
    rng = np.random.default_rng(10)
    s = build_swap_state(*random_pair(rng, d=4))
    (lp, lm), (wp, wm) = rotation_eigenpairs(s)
    assert lp == pytest.approx(np.exp(2j * s.theta), rel=1e-12)
    assert lm == pytest.approx(np.exp(-2j * s.theta), rel=1e-12)
    assert abs(inner_product(wp, wm)) < 1e-12


def test_eigenpairs_reject_degenerate():
    z0 = basis_state(2, 0)
    with pytest.raises(ValueError):
        rotation_eigenpairs(build_swap_state(z0, z0))


def test_combined_state_decomposes_over_eigenvectors():
    rng = np.random.default_rng(12)
    for _ in range(10):
        s = build_swap_state(*random_pair(rng, d=3))
        _, (wp, wm) = rotation_eigenpairs(s)
        recombined = (-1j / math.sqrt(2.0)) * (
            np.exp(1j * s.theta) * wp.amplitudes
            - np.exp(-1j * s.theta) * wm.amplitudes)
        np.testing.assert_allclose(recombined, s.phi.amplitudes, atol=1e-10)


def test_repeated_rotation_closed_form():
    rng = np.random.default_rng(13)
    s = build_swap_state(*random_pair(rng, d=3))
    g = build_rotation_operator(s)
    _, (wp, wm) = rotation_eigenpairs(s)
    state = s.phi
    for n in range(1, 101):
        state = StateVector(g @ state.amplitudes)
        expected = (-1j / math.sqrt(2.0)) * (
            np.exp(1j * (2 * n + 1) * s.theta) * wp.amplitudes
            - np.exp(-1j * (2 * n + 1) * s.theta) * wm.amplitudes)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-8)


def test_estimate_exact_basis_cases():
    z0 = basis_state(2, 0)
    z1 = basis_state(2, 1)
    assert estimate_exact(z0, z0) == EstimationResult("exact", 1.0)
    assert estimate_exact(z0, z1) == EstimationResult("exact", 0.0)


def test_estimate_exact_matches_inner_product():
    rng = np.random.default_rng(14)
    for _ in range(20):
        x, y = random_pair(rng)
        r = estimate_exact(x, y)
        assert r.estimate == inner_product(x, y).real
        assert -1.0 <= r.estimate <= 1.0


def test_estimate_sampled_certain_outcome():
    z0 = basis_state(2, 0)
    r = estimate_sampled(z0, z0, shots=77, seed=3)
    assert r.estimate == 1.0
    assert r.method == "sampled" and r.shots == 77 and r.seed == 3


def test_estimate_sampled_concentrates():
    r = estimate_sampled(basis_state(2, 0), basis_state(2, 1), shots=1_000_000, seed=1)
    assert abs(r.estimate) < 5e-3


def test_estimate_sampled_deterministic():
    rng = np.random.default_rng(15)
    x, y = random_pair(rng)
    a = estimate_sampled(x, y, shots=5000, seed=123)
    b = estimate_sampled(x, y, shots=5000, seed=123)
    c = estimate_sampled(x, y, shots=5000, seed=124)
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate  # different stream, almost surely


def test_estimate_sampled_is_one_binomial_draw():
    rng = np.random.default_rng(18)
    x, y = random_pair(rng)
    p0, _ = build_swap_state(x, y).block_probabilities()
    for shots, seed in ((1, 0), (30, 5), (10_000, 123)):
        count0 = np.random.Generator(np.random.Philox(key=seed)).binomial(shots, p0)
        r = estimate_sampled(x, y, shots=shots, seed=seed)
        assert r.estimate == 2.0 * count0 / shots - 1.0


def test_estimate_sampled_clamps_p0_rounded_above_one():
    # (1, 2, 2) / 3 rounded up in the last bit: the |0> block sums to 1 + 1 ulp
    x = StateVector(np.array([0.33333333333333337, 0.6666666666666667, 0.6666666666666667]))
    assert build_swap_state(x, x).block_probabilities()[0] > 1.0
    assert estimate_sampled(x, x, shots=50, seed=0).estimate == 1.0


def test_estimate_sampled_rejects_bad_shots():
    z0 = basis_state(2, 0)
    with pytest.raises(ValueError):
        estimate_sampled(z0, z0, shots=0)


def test_estimate_phase_on_grid_is_exact():
    # orthogonal pair: theta = pi/4 sits exactly on the n_pe = 2 grid
    r = estimate_phase(basis_state(2, 0), basis_state(2, 1), n_pe=2)
    assert r.theta_estimate == pytest.approx(math.pi / 4, rel=0, abs=0)
    assert abs(r.estimate) < 1e-15
    assert r.method == "phase" and r.n_pe == 2
    assert r.error_bound == pytest.approx(math.pi / 8, rel=1e-15)


def test_estimate_phase_respects_bound():
    rng = np.random.default_rng(16)
    for _ in range(20):
        x, y = random_pair(rng, d=4)
        s = build_swap_state(x, y)
        for n_pe in (1, 3, 6, 10):
            r = estimate_phase(x, y, n_pe)
            assert abs(r.theta_estimate - s.theta) <= math.pi / 2 ** (n_pe + 1)


def test_estimate_phase_error_shrinks_with_register():
    rng = np.random.default_rng(17)
    x, y = random_pair(rng, d=4)
    exact = estimate_exact(x, y).estimate
    errors = [abs(estimate_phase(x, y, n).estimate - exact) for n in range(2, 13)]
    bounds = [math.pi / 2 ** (n + 1) for n in range(2, 13)]
    # each quantization error respects its bound, and refining the register
    # pays off by a large factor across the sweep
    for err, bound in zip(errors, bounds):
        assert err <= 2.0 * bound  # estimate error <= 2 |sin| angle error
    assert errors[-1] < errors[0] / 50.0


def test_estimate_phase_rejects_bad_register():
    z0 = basis_state(2, 0)
    with pytest.raises(ValueError):
        estimate_phase(z0, z0, n_pe=0)
