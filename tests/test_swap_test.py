"""Combined-state construction, the rotation operator, and the run's two
readout rules, ``shot_counts`` and ``phase_index``, against the dense state."""
import math

import numpy as np
import pytest

from qsph.harness import phase_index, shot_counts
from qsph.quantum_state import StateVector, basis_state, inner_product, normalize
from qsph.swap_test import build_rotation_operator, build_swap_state, rotation_eigenpairs


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


def _phase_readout(rho, n_pe):
    """2 sin^2(theta_k) - 1 at the grid angle theta_k of ``phase_index``."""
    theta = phase_index(np.asarray(rho, dtype=float), n_pe) * math.pi / 2 ** n_pe
    return 2.0 * np.sin(theta) ** 2 - 1.0


def test_shot_counts_certain_outcomes():
    assert shot_counts(np.array([1.0, 0.0]), 77, 3).tolist() == [77, 0]


def test_phase_index_on_grid_is_exact():
    # orthogonal pair: theta = pi/4 sits exactly on the n_pe = 2 grid
    assert phase_index(np.array([0.0]), 2).tolist() == [1]
    assert abs(_phase_readout([0.0], 2)[0]) < 1e-15


def test_phase_index_respects_bound():
    rng = np.random.default_rng(16)
    for _ in range(20):
        x, y = random_pair(rng, d=4)
        theta = build_swap_state(x, y).theta
        for n_pe in (1, 3, 6, 10):
            k = phase_index(np.array([inner_product(x, y).real]), n_pe)[0]
            assert abs(k * math.pi / 2 ** n_pe - theta) <= math.pi / 2 ** (n_pe + 1)


def test_phase_index_error_shrinks_with_register():
    rng = np.random.default_rng(17)
    x, y = random_pair(rng, d=4)
    exact = inner_product(x, y).real
    errors = [abs(_phase_readout([exact], n)[0] - exact) for n in range(2, 13)]
    bounds = [math.pi / 2 ** (n + 1) for n in range(2, 13)]
    # each quantization error respects its bound, and refining the register
    # pays off by a large factor across the sweep
    for err, bound in zip(errors, bounds):
        assert err <= 2.0 * bound  # estimate error <= 2 |sin| angle error
    assert errors[-1] < errors[0] / 50.0
