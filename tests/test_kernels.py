"""Kernel values, analytic derivatives and the hard-coded peak constants."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsph.kernels import KernelFamily, KernelSpec, evaluate, scaling_constant
from qsph.sph_encoding import KERNEL_BOUND_ULPS

GAUSSIAN = KernelFamily.GAUSSIAN
WENDLAND = KernelFamily.WENDLAND


def test_spec_validation():
    KernelSpec(GAUSSIAN, 0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec(GAUSSIAN, 3, 1.0)
    with pytest.raises(ValueError):
        KernelSpec(WENDLAND, 0, 0.0)
    with pytest.raises(ValueError):
        KernelSpec(WENDLAND, 0, -2.0)
    with pytest.raises(ValueError, match="splurge"):
        KernelSpec("splurge", 0, 1.0)


@pytest.mark.parametrize("family", list(KernelFamily))
def test_spec_takes_a_family_name(family):
    spec = KernelSpec(family.value, 0, 1.0)
    assert spec.family is family
    assert spec == KernelSpec(family, 0, 1.0)
    assert evaluate(spec, 0.5) == evaluate(KernelSpec(family, 0, 1.0), 0.5)
    assert scaling_constant(spec) == scaling_constant(KernelSpec(family, 0, 1.0))


def test_gaussian_peak_value():
    assert evaluate(KernelSpec(GAUSSIAN, 0, 1.0), 0.0) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-15)


def test_wendland_peak_value():
    assert evaluate(KernelSpec(WENDLAND, 0, 1.0), 0.0) == 0.75


def test_wendland_compact_support():
    # q = |r|/h = 3 is outside the support for every derivative order
    for order in (0, 1, 2):
        assert evaluate(KernelSpec(WENDLAND, order, 0.5), 1.5) == 0.0
        assert evaluate(KernelSpec(WENDLAND, order, 0.5), -1.5) == 0.0


def test_gaussian_derivative_extremum():
    # max of |W'| sits at r = h/sqrt(2); the value there is the peak constant
    spec = KernelSpec(GAUSSIAN, 1, 1.0)
    v = evaluate(spec, 1.0 / math.sqrt(2.0))
    assert v == pytest.approx(-math.sqrt(2.0) * math.exp(-0.5) / math.sqrt(math.pi),
                              rel=1e-14)
    assert abs(v) == pytest.approx(scaling_constant(spec), rel=1e-14)


def test_peak_constants_exact_values():
    assert scaling_constant(KernelSpec(GAUSSIAN, 0, 1.0)) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-15)
    assert scaling_constant(KernelSpec(WENDLAND, 1, 2.0)) == 0.19775390625
    assert scaling_constant(KernelSpec(WENDLAND, 2, 1.0)) == 3.75
    # h scaling: 1/h, 1/h^2, 1/h^3 per derivative order
    for fam in (GAUSSIAN, WENDLAND):
        for order in (0, 1, 2):
            c1 = scaling_constant(KernelSpec(fam, order, 1.0))
            c2 = scaling_constant(KernelSpec(fam, order, 2.0))
            assert c1 / c2 == pytest.approx(2.0 ** (order + 1), rel=1e-14)


# near its maximiser r = h/sqrt(2), the Gaussian of order 1 at this h rounds
# 3 ulps above c, the most measured for any kernel
GAUSSIAN_1_PAST_C_H = 1.5027955186689237


@pytest.mark.parametrize("family", [GAUSSIAN, WENDLAND])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_grid_maximum_matches_constant(family, order):
    spec = KernelSpec(family, order, 0.7)
    grids = [(spec, np.linspace(-spec.support_radius, spec.support_radius, 200_001))]
    if (family, order) == (GAUSSIAN, 1):
        h = GAUSSIAN_1_PAST_C_H
        near = h / math.sqrt(2.0) + h * np.linspace(-1e-3, 1e-3, 20_001)
        grids.append((KernelSpec(family, order, h), np.concatenate([near, -near])))
    for spec, r in grids:
        grid_max = np.max(np.abs(evaluate(spec, r)))
        c = scaling_constant(spec)
        assert grid_max <= c + KERNEL_BOUND_ULPS * math.ulp(c)
        assert grid_max == pytest.approx(c, rel=1e-7)


@pytest.mark.parametrize("family", [GAUSSIAN, WENDLAND])
def test_derivatives_match_finite_differences(family):
    h = 0.9
    delta = 1e-6
    # keep clear of r = 0 and of the Wendland support edge at 2h
    for r in (-1.3, -0.4, 0.27, 0.61, 1.1):
        w0 = KernelSpec(family, 0, h)
        w1 = KernelSpec(family, 1, h)
        w2 = KernelSpec(family, 2, h)
        fd1 = (evaluate(w0, r + delta) - evaluate(w0, r - delta)) / (2.0 * delta)
        fd2 = (evaluate(w1, r + delta) - evaluate(w1, r - delta)) / (2.0 * delta)
        assert evaluate(w1, r) == pytest.approx(fd1, rel=1e-7, abs=1e-9)
        assert evaluate(w2, r) == pytest.approx(fd2, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("family", [GAUSSIAN, WENDLAND])
def test_parity(family):
    r = np.array([0.05, 0.3, 0.77, 1.2, 1.9])
    for order, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
        spec = KernelSpec(family, order, 1.1)
        np.testing.assert_allclose(evaluate(spec, -r), sign * evaluate(spec, r),
                                   rtol=0, atol=0)


def test_odd_orders_vanish_at_zero():
    for fam in (GAUSSIAN, WENDLAND):
        assert evaluate(KernelSpec(fam, 1, 0.8), 0.0) == 0.0


def test_order_zero_integrates_to_one():
    for fam, h in ((GAUSSIAN, 0.5), (GAUSSIAN, 1.5), (WENDLAND, 0.5), (WENDLAND, 1.5)):
        spec = KernelSpec(fam, 0, h)
        r = np.linspace(-10.0 * h, 10.0 * h, 400_001)
        integral = np.trapezoid(evaluate(spec, r), r)
        assert integral == pytest.approx(1.0, abs=1e-6)


def test_wendland_derivatives_continuous_at_support_edge():
    h = 1.0
    eps = 1e-9
    for order in (1, 2):
        spec = KernelSpec(WENDLAND, order, h)
        inside = evaluate(spec, 2.0 * h - eps)
        outside = evaluate(spec, 2.0 * h + eps)
        assert outside == 0.0
        assert abs(inside) < 1e-7


def test_vector_evaluation_matches_scalars():
    spec = KernelSpec(WENDLAND, 2, 0.6)
    r = np.array([-1.5, -0.2, 0.0, 0.4, 2.0])
    vec = evaluate(spec, r)
    assert vec.shape == r.shape
    for i, ri in enumerate(r):
        assert vec[i] == evaluate(spec, float(ri))


@given(st.sampled_from([GAUSSIAN, WENDLAND]),
       st.integers(min_value=0, max_value=2),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=-12.0, max_value=12.0))
def test_never_exceeds_peak_constant(family, order, h, r):
    spec = KernelSpec(family, order, h)
    assert abs(evaluate(spec, r)) <= scaling_constant(spec) * (1.0 + 1e-9)


@pytest.mark.parametrize("family", [GAUSSIAN, WENDLAND])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_evaluate_at_the_peak_the_support_edge_and_beyond(family, order):
    h = 0.3
    spec = KernelSpec(family, order, h)
    # the peak, the Wendland support edge, beyond either support, negative r,
    # and offsets whose q^2 (and Wendland's (1 - q/2)^4) overflow
    r = np.array([[0.0, 2.0 * h, -2.0 * h, 0.1, -0.45, 1e160 * h],
                  [2.5 * h, -2.5 * h, 9.0 * h, -9.0 * h, -100.0 * h, -1e160 * h]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = evaluate(spec, r)
    assert values.shape == r.shape and values.dtype == np.float64
    assert np.all(np.abs(values) <= scaling_constant(spec))
    assert np.all(values[:, -1] == 0.0)
    if family is WENDLAND:  # +0.0, not -0.0, outside the support
        assert values[1].tobytes() == np.zeros(6).tobytes()
