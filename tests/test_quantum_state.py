"""State-vector reference: normalization, norm enforcement, inner products, basis states."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qsph.quantum_state import NORM_ATOL, StateVector, basis_state, inner_product, normalize


def test_normalize_already_unit():
    s, n = normalize([1.0, 0.0, 0.0, 0.0])
    assert n == 1.0
    np.testing.assert_array_equal(s.amplitudes, [1, 0, 0, 0])


def test_normalize_three_four_five():
    s, n = normalize([3.0, 4.0])
    assert n == 5.0
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8], rtol=1e-15)


def test_normalize_uniform_imaginary():
    s, n = normalize([1j, 1j])
    assert n == pytest.approx(math.sqrt(2.0), rel=1e-15)
    np.testing.assert_allclose(s.amplitudes, [1j / math.sqrt(2), 1j / math.sqrt(2)],
                               rtol=1e-15)


def test_normalize_subnormal_input():
    # the squared modulus underflows to 0, forcing the rescale branch
    raw = [3.54e-309 + 3.54e-309j]
    s, n = normalize(raw)
    assert n == pytest.approx(math.sqrt(2.0) * 3.54e-309, rel=1e-12)
    np.testing.assert_allclose(s.amplitudes, [(1 + 1j) / math.sqrt(2)], rtol=1e-15)


@pytest.mark.parametrize("raw", [[1.7e308 + 1.7e308j], [1e308] * 4])
def test_normalize_rejects_a_norm_beyond_the_largest_double(raw):
    with pytest.raises(ValueError, match="largest double"):
        normalize(raw)


def test_normalize_rescales_an_overflowing_sum_of_squares():
    # 1e200 squared overflows, but the norm 2e200 is a finite double
    s, n = normalize([1e200] * 4)
    assert n == pytest.approx(2e200, rel=1e-15)
    np.testing.assert_allclose(s.amplitudes, [0.5] * 4, rtol=1e-15)


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        normalize([0.0, 0.0, 0.0])


def test_state_norm_enforcement():
    StateVector(np.array([1.0, 0.0], dtype=complex))
    # tiny defect is kept, moderate defect is silently repaired
    drifted = StateVector(np.array([1.0 + 3e-9, 0.0], dtype=complex))
    assert abs(np.vdot(drifted.amplitudes, drifted.amplitudes) - 1.0) < NORM_ATOL
    with pytest.raises(ValueError):
        StateVector(np.array([0.5, 0.5], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(np.array([], dtype=complex))
    # a NaN norm defect passes both limit checks unless rejected explicitly
    with pytest.raises(ValueError, match="finite"):
        StateVector(np.array([math.nan], dtype=complex))


def test_state_is_read_only():
    s = basis_state(4, 1)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 1.0


def test_inner_product_basis_cases():
    z0 = basis_state(2, 0)
    z1 = basis_state(2, 1)
    assert inner_product(z0, z0) == 1.0
    assert inner_product(z0, z1) == 0.0


def test_inner_product_hand_expansion():
    # conj((1+i)/2)/sqrt2 + conj((1-i)/2)/sqrt2 = (1 - i + 1 + i)/(2 sqrt2)
    x = StateVector(np.array([(1 + 1j) / 2, (1 - 1j) / 2]))
    y = StateVector(np.full(2, 1 / math.sqrt(2), dtype=complex))
    got = inner_product(x, y)
    assert got == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert got.imag == pytest.approx(0.0, abs=1e-16)


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, _ = normalize(rng.normal(size=6) + 1j * rng.normal(size=6))
        y, _ = normalize(rng.normal(size=6) + 1j * rng.normal(size=6))
        assert inner_product(x, y) == pytest.approx(np.conj(inner_product(y, x)),
                                                    rel=1e-14)
        assert abs(inner_product(x, y)) <= 1.0 + 1e-12
        assert inner_product(x, x) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(basis_state(2, 0), basis_state(4, 0))


def test_basis_state_bounds():
    with pytest.raises(ValueError):
        basis_state(4, 4)
    with pytest.raises(ValueError):
        basis_state(4, -1)


@given(st.lists(st.tuples(st.floats(-10, 10, allow_nan=False),
                          st.floats(-10, 10, allow_nan=False)),
                min_size=1, max_size=16))
# subnormal inputs that once came back as [nan+nanj] with norm inf, and a
# tiny one whose subnormal sum of squares once gave a 5% norm error
@example(pairs=[(2.2250738585e-313, 2.2250738585e-313)])
@example(pairs=[(3.54e-309, 3.54e-309)])
@example(pairs=[(0.0, 6.023488571844329e-162)])
def test_normalize_factorization(pairs):
    raw = np.array([re + 1j * im for re, im in pairs])
    if not np.any(raw):
        with pytest.raises(ValueError):
            normalize(raw)
        return
    s, n = normalize(raw)
    assert n > 0
    np.testing.assert_allclose(n * s.amplitudes, raw, rtol=1e-12, atol=1e-12)
