"""The direct sums, and the register encoding of them with the
reconstruction identity."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsph.registers
import qsph.sph_encoding
from qsph.discretization import Domain, from_edges, uniform_discretise
from qsph.harness import ExperimentConfig, run_experiment
from qsph.kernels import DERIVATIVE_ORDERS, KernelFamily, KernelSpec, evaluate, scaling_constant
from qsph.registers import EncodedPair, build_a, build_w, encode, reconstruct
from qsph.sph_encoding import (
    FunctionSamples,
    ZeroSamplesError,
    coefficient_norm,
    integral_norm_estimate,
    register_length,
    sph_sums,
    support_window,
)

GAUSSIAN = KernelFamily.GAUSSIAN
WENDLAND = KernelFamily.WENDLAND

# f(x) = 1/(1+25 x^2) on [-1,1] with 16 interior particles. The exact
# Euclidean norm of (f_k dx_k) is frozen from a direct summation; the
# integral estimate sqrt(2/16 * I) uses the closed form
# I = integral of f^2 over [-1,1] = 1/26 + atan(5)/5
RUNGE_N16_EXACT_NORM = 0.1977530161493457
RUNGE_N16_INTEGRAL_NORM = 0.19784517047761793


def runge(x):
    return 1.0 / (1.0 + 25.0 * np.asarray(x, dtype=float) ** 2)


def test_register_length():
    assert register_length(1) == 1
    assert register_length(2) == 2
    assert register_length(3) == 4
    assert register_length(256) == 256
    assert register_length(264) == 512
    with pytest.raises(ValueError):
        register_length(0)


def test_zero_boundary_samples_leave_the_array_f_returned_untouched():
    disc = uniform_discretise(Domain(-1.0, 1.0), 8, n_boundary_each_end=3)
    returned = np.ones(disc.total_count)
    samples = FunctionSamples.from_function(disc, lambda x: returned, boundary="zero")
    assert samples.values.tolist() == [0.0] * 3 + [1.0] * 8 + [0.0] * 3
    assert returned.tolist() == [1.0] * disc.total_count
    assert not np.shares_memory(samples.values, returned)
    analytic = FunctionSamples.from_function(disc, lambda x: returned)
    assert analytic.values.tolist() == returned.tolist()
    assert not np.shares_memory(analytic.values, returned)


def test_build_a_constant_function_unit_norm():
    disc = uniform_discretise(Domain(-1.0, 1.0), 4)
    samples = FunctionSamples.from_function(disc, lambda x: np.ones_like(x))
    state, norm = build_a(disc, samples)
    assert norm == 1.0
    np.testing.assert_array_equal(state.amplitudes, [0.5, 0.5, 0.5, 0.5])


def test_build_a_constant_on_unit_interval():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    samples = FunctionSamples.from_function(disc, lambda x: np.ones_like(x))
    _, norm = build_a(disc, samples)
    assert norm == 0.5


def test_build_a_pads_to_power_of_two():
    disc = uniform_discretise(Domain(0.0, 1.0), 4, n_boundary_each_end=1)
    samples = FunctionSamples.from_function(disc, lambda x: np.ones_like(x))
    state, _ = build_a(disc, samples)
    assert state.dim == 8
    np.testing.assert_array_equal(state.amplitudes[6:], [0.0, 0.0])


def test_build_a_rejects_zero_function():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    samples = FunctionSamples(np.zeros(4))
    with pytest.raises(ValueError):
        build_a(disc, samples)


def test_build_a_rejects_length_mismatch():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    with pytest.raises(ValueError):
        build_a(disc, FunctionSamples(np.ones(5)))


def test_build_a_subnormal_samples_have_a_finite_norm():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    state, norm = build_a(disc, FunctionSamples(np.full(4, 3.54e-309)))
    np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5], rtol=0.0, atol=1e-15)
    assert 0.0 < norm < math.inf
    assert norm == pytest.approx(2.0 * 3.54e-309 * 0.25, rel=1e-12)


def test_build_a_rejects_samples_whose_norm_overflows():
    disc = uniform_discretise(Domain(0.0, 4.0), 4)
    with pytest.raises(ValueError, match="largest double"):
        build_a(disc, FunctionSamples(np.full(4, 1.7e308)))


def test_build_a_approx_norm_passthrough():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    samples = FunctionSamples.from_function(disc, lambda x: np.ones_like(x))
    state, norm = build_a(disc, samples, approx_norm=0.47)
    assert norm == 0.47
    # the state itself stays exactly normalized regardless of the estimate
    assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(1.0,
                                                                             abs=1e-14)


def test_integral_norm_constant_functions():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    assert integral_norm_estimate(Domain(0.0, 1.0), one, 4) == pytest.approx(0.5,
                                                                             rel=1e-12)
    assert integral_norm_estimate(Domain(-1.0, 1.0), one, 4) == pytest.approx(1.0,
                                                                              rel=1e-12)


def test_integral_norm_linear_function_converges():
    disc = uniform_discretise(Domain(0.0, 1.0), 64)
    samples = FunctionSamples(disc.positions.copy())
    _, exact = build_a(disc, samples)
    est = integral_norm_estimate(Domain(0.0, 1.0), lambda x: x, 64)
    assert abs(est - exact) / exact < 1.0 / 64


def test_integral_norm_frozen_runge_values():
    disc = uniform_discretise(Domain(-1.0, 1.0), 16)
    samples = FunctionSamples.from_function(disc, runge)
    _, exact = build_a(disc, samples)
    est = integral_norm_estimate(Domain(-1.0, 1.0), runge, 16)
    fine = integral_norm_estimate(Domain(-1.0, 1.0), runge, 16,
                                  quadrature_points=100_001)
    assert exact == pytest.approx(RUNGE_N16_EXACT_NORM, rel=1e-13)
    # default quadrature carries trapezoid error ~ 1e-8; refining removes it
    assert est == pytest.approx(RUNGE_N16_INTEGRAL_NORM, rel=1e-7)
    assert fine == pytest.approx(RUNGE_N16_INTEGRAL_NORM, rel=1e-11)
    # the estimate is close but visibly off the exact norm
    assert 1e-4 < abs(est - exact) / exact < 1e-3


def test_build_w_outside_compact_support():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    state, _ = build_w(disc, KernelSpec(WENDLAND, 0, 0.1), 50.0, 4)
    np.testing.assert_array_equal(state.amplitudes, np.full(4, 0.5j))


def test_build_w_single_particle_peak():
    disc = uniform_discretise(Domain(0.0, 1.0), 1)
    state, c = build_w(disc, KernelSpec(GAUSSIAN, 0, 1.0), 0.5, 1)
    assert c == scaling_constant(KernelSpec(GAUSSIAN, 0, 1.0))
    # kernel at its peak: scaled value is exactly 1/N = 1, closure term 0
    np.testing.assert_array_equal(state.amplitudes, [1.0 + 0.0j])


def test_build_w_closure_at_centre():
    disc = uniform_discretise(Domain(-1.0, 1.0), 8)
    state, _ = build_w(disc, KernelSpec(GAUSSIAN, 0, 0.5), 0.0, 8)
    np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, np.full(8, 0.125),
                               rtol=0, atol=1e-12)


def test_build_w_padding_slots():
    disc = uniform_discretise(Domain(-1.0, 1.0), 4, n_boundary_each_end=1)
    state, _ = build_w(disc, KernelSpec(GAUSSIAN, 0, 0.5), 0.0, 8)
    np.testing.assert_array_equal(state.amplitudes[6:], np.full(2, 1j / math.sqrt(8)))


def test_build_w_validates_register_length():
    disc = uniform_discretise(Domain(0.0, 1.0), 5)
    spec = KernelSpec(GAUSSIAN, 0, 1.0)
    with pytest.raises(ValueError):
        build_w(disc, spec, 0.5, 4)   # shorter than the particle count
    with pytest.raises(ValueError):
        build_w(disc, spec, 0.5, 6)   # not a power of two


def test_build_w_nonnegative_imaginary_parts():
    disc = uniform_discretise(Domain(-1.0, 1.0), 32, n_boundary_each_end=4)
    for fam in (GAUSSIAN, WENDLAND):
        for order in (0, 1, 2):
            state, _ = build_w(disc, KernelSpec(fam, order, 0.25), 0.3, 64)
            assert np.all(state.amplitudes.imag >= 0.0)


def test_build_w_real_parts_reproduce_kernel_values():
    disc = uniform_discretise(Domain(-1.0, 1.0), 16, n_boundary_each_end=2)
    spec = KernelSpec(WENDLAND, 1, 0.3)
    x = 0.17
    state, c = build_w(disc, spec, x, 32)
    recovered = state.amplitudes.real[:disc.total_count] * (c * 32)
    np.testing.assert_allclose(recovered, evaluate(spec, x - disc.positions),
                               rtol=1e-12, atol=1e-15)


def test_closure_violation_raises_in_build_w_and_the_fast_path(monkeypatch):
    # a c far below max |W| pushes |W/(cN)|^2 past the 1/N slot budget
    for module in (qsph.registers, qsph.sph_encoding):
        monkeypatch.setattr(module, "scaling_constant", lambda spec: 1e-9)
    disc = uniform_discretise(Domain(-1.0, 1.0), 16, n_boundary_each_end=2)
    samples = FunctionSamples.from_function(disc, runge)
    spec = KernelSpec(GAUSSIAN, 0, 0.25)
    with pytest.raises(ValueError, match="closure"):
        build_w(disc, spec, 0.1, 32)
    with pytest.raises(ValueError, match="closure"):
        sph_sums(disc, samples, spec, [0.1])
    with pytest.raises(ValueError, match="closure"):
        run_experiment(ExperimentConfig(qubits=4, eval_points=5))
    monkeypatch.undo()
    # with the true c: the check takes max |W|, so values far below -c fail
    # it next to a harmless 0, and so does a NaN
    for bad in (-1e6, math.nan):
        def evaluate_bad(spec, r, out):
            out.fill(bad)
            out.flat[0] = 0.0
            return out
        monkeypatch.setattr(qsph.sph_encoding, "evaluate", evaluate_bad)
        with pytest.raises(ValueError, match="closure"):
            sph_sums(disc, samples, spec, [0.1])


def test_support_window_counts_particles_in_the_support():
    for m in (6, 10):
        disc = uniform_discretise(Domain(-1.0, 1.0), 2 ** m, n_boundary_each_end=4)
        h = 4.0 / 2 ** m
        assert support_window(disc, KernelSpec(WENDLAND, 0, h)) == 9
        assert support_window(disc, KernelSpec(GAUSSIAN, 2, h)) == 33
    # a support wider than the layout takes every particle
    disc = uniform_discretise(Domain(-1.0, 1.0), 8)
    assert support_window(disc, KernelSpec(GAUSSIAN, 0, 1.0)) == 8


def test_all_zero_samples_raise_a_named_value_error():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    zeros = FunctionSamples(np.zeros(4))
    assert issubclass(ZeroSamplesError, ValueError)
    for norm_of in (coefficient_norm, build_a):
        with pytest.raises(ZeroSamplesError, match="0 at all 4 particles"):
            norm_of(disc, zeros)


def _window_by_search(disc, spec):
    """The definition: over all i, the most particles k >= i with
    pos[k] <= pos[i] + 2 support_radius, one binary search per particle."""
    pos = disc.positions
    reach = np.searchsorted(pos, pos + 2.0 * spec.support_radius, side="right")
    return int(np.max(reach - np.arange(pos.size)))


# 2 support_radius in units of h
SUPPORT_SPAN = {GAUSSIAN: 16.0, WENDLAND: 4.0}


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 16), family=st.sampled_from(list(KernelFamily)),
       order=st.sampled_from(DERIVATIVE_ORDERS), ghosts=st.sampled_from([0, 4, None]),
       bounds=st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (0.1, 0.7), (-3.3, 5.1)]),
       h_rule=st.one_of(st.none(), st.integers(1, 80), st.floats(0.05, 40.0)))
def test_support_window_matches_the_search_on_uniform_layouts(m, family, order, ghosts,
                                                              bounds, h_rule):
    domain = Domain(*bounds)
    dx = domain.length / 2 ** m
    if h_rule is None:
        h = 2.0 * dx  # the default rule
    elif isinstance(h_rule, int):
        h = h_rule * dx / SUPPORT_SPAN[family]  # 2 support_radius = h_rule dx
    else:
        h = h_rule * dx
    spec = KernelSpec(family, order, h)
    nb = math.ceil(spec.support_radius / dx) + 1 if ghosts is None else ghosts
    disc = uniform_discretise(domain, 2 ** m, n_boundary_each_end=nb)
    assert support_window(disc, spec) == _window_by_search(disc, spec)


def _clustered_edges(left, cluster, eps, right):
    """Unit cells, then a cluster of cells of width eps, then unit cells."""
    return np.concatenate([[0.0], np.cumsum([1.0] * left + [eps] * cluster + [1.0] * right)])


@settings(max_examples=100, deadline=None)
@example(left=2, cluster=1000, eps=1e-3, right=1, nb=0, family=GAUSSIAN, h=0.05)
@given(left=st.integers(1, 5), cluster=st.integers(1, 3000), eps=st.floats(1e-6, 0.5),
       right=st.integers(0, 5), nb=st.integers(0, 4),
       family=st.sampled_from(list(KernelFamily)), h=st.floats(1e-4, 2.0))
def test_support_window_matches_the_search_on_clustered_layouts(left, cluster, eps, right,
                                                                 nb, family, h):
    disc = from_edges(_clustered_edges(left, cluster, eps, right), n_boundary_each_end=nb)
    spec = KernelSpec(family, 0, h)
    assert support_window(disc, spec) == _window_by_search(disc, spec)


def test_support_window_finds_a_cluster_far_from_the_first_particle():
    # 2 support_radius = 0.8 < 1: the first particle's support holds only itself,
    # while 0.8 of the 1e-3-wide cluster cells fit in one support
    disc = from_edges(_clustered_edges(2, 1000, 1e-3, 1))
    spec = KernelSpec(GAUSSIAN, 0, 0.05)
    pos = disc.positions
    assert np.searchsorted(pos, pos[0] + 2.0 * spec.support_radius, side="right") == 1
    assert support_window(disc, spec) == _window_by_search(disc, spec) == 801


def test_sph_sums_match_the_full_direct_sum():
    disc = from_edges(np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, 40)), 3)
    samples = FunctionSamples.from_function(disc, runge)
    xs = np.linspace(-1.3, 1.3, 57)
    for fam in (GAUSSIAN, WENDLAND):
        for order in (0, 1, 2):
            spec = KernelSpec(fam, order, 0.07)
            full = [np.sum(samples.values * disc.widths * evaluate(spec, x - disc.positions))
                    for x in xs]
            scale = scaling_constant(spec) * np.sum(np.abs(samples.values * disc.widths))
            np.testing.assert_allclose(sph_sums(disc, samples, spec, xs), full,
                                       rtol=0.0, atol=1e-14 * scale)


def test_sph_sums_do_not_depend_on_the_block_size(monkeypatch):
    disc = uniform_discretise(Domain(-1.0, 1.0), 256, n_boundary_each_end=4)
    samples = FunctionSamples.from_function(disc, runge)
    xs = np.linspace(-1.0, 1.0, 301)
    for fam in (GAUSSIAN, WENDLAND):
        for order in DERIVATIVE_ORDERS:
            spec = KernelSpec(fam, order, 4.0 / 256)
            whole = sph_sums(disc, samples, spec, xs)
            # blocks of three rows: the last block holds the 301st point alone
            monkeypatch.setattr(qsph.sph_encoding, "BLOCK_VALUES",
                                3 * support_window(disc, spec) + 2)
            blocked = sph_sums(disc, samples, spec, xs)
            monkeypatch.undo()
            np.testing.assert_array_equal(blocked, whole)
            singles = [sph_sums(disc, samples, spec, [x])[0] for x in xs]
            np.testing.assert_array_equal(whole, singles)


def test_sph_sums_validate_their_inputs():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    spec = KernelSpec(GAUSSIAN, 0, 0.2)
    with pytest.raises(ValueError):
        sph_sums(disc, FunctionSamples(np.ones(5)), spec, [0.5])
    with pytest.raises(ValueError):
        sph_sums(disc, FunctionSamples(np.ones(4)), spec, [[0.5]])
    assert sph_sums(disc, FunctionSamples(np.ones(4)), spec, []).shape == (0,)


def test_encode_assembles_pair():
    disc = uniform_discretise(Domain(-1.0, 1.0), 16, n_boundary_each_end=4)
    samples = FunctionSamples.from_function(disc, runge)
    pair = encode(disc, samples, KernelSpec(GAUSSIAN, 0, 0.25), 0.1)
    assert isinstance(pair, EncodedPair)
    assert pair.n_register == 32
    assert pair.state_a.dim - disc.total_count == 32 - 24
    assert pair.state_a.dim == pair.state_w.dim == 32


def test_reconstruct_matches_direct_sum():
    disc = uniform_discretise(Domain(-1.0, 1.0), 64, n_boundary_each_end=4)
    samples = FunctionSamples.from_function(disc, runge)
    for fam in (GAUSSIAN, WENDLAND):
        for order in (0, 1, 2):
            spec = KernelSpec(fam, order, 4.0 / 64)
            for x in (-0.83, -0.2, 0.0, 0.41, 0.99):
                oracle = sph_sums(disc, samples, spec, [x])[0]
                got = reconstruct(encode(disc, samples, spec, x))
                assert abs(got - oracle) / (1.0 + abs(oracle)) < 1e-10


def test_reconstruct_imaginary_part_is_contaminated():
    # only the real part of <a|W> carries the sum; the imaginary part is
    # an artifact of the closure terms and must be discarded
    disc = uniform_discretise(Domain(-1.0, 1.0), 32)
    samples = FunctionSamples.from_function(disc, runge)
    spec = KernelSpec(GAUSSIAN, 0, 0.125)
    pair = encode(disc, samples, spec, 0.3)
    ip = np.vdot(pair.state_a.amplitudes, pair.state_w.amplitudes)
    assert abs(ip.imag) > 1e-3
    scale = pair.c * pair.n_register * pair.norm_a
    assert scale * ip.real == pytest.approx(
        sph_sums(disc, samples, spec, [0.3])[0], rel=1e-10)


def test_reconstruct_with_external_overlap():
    disc = uniform_discretise(Domain(0.0, 1.0), 8)
    samples = FunctionSamples.from_function(disc, lambda x: 1.0 + x)
    pair = encode(disc, samples, KernelSpec(WENDLAND, 0, 0.2), 0.5)
    assert reconstruct(pair, overlap_real=0.25) == pytest.approx(
        pair.c * pair.n_register * pair.norm_a * 0.25, rel=1e-15)


def test_zero_function_sums_to_zero():
    disc = uniform_discretise(Domain(-1.0, 1.0), 16)
    zero = FunctionSamples(np.zeros(16))
    assert sph_sums(disc, zero, KernelSpec(GAUSSIAN, 0, 0.2), [0.1])[0] == 0.0


def test_padding_contributes_nothing():
    disc = uniform_discretise(Domain(-1.0, 1.0), 16, n_boundary_each_end=4)
    samples = FunctionSamples.from_function(disc, runge)
    pair = encode(disc, samples, KernelSpec(GAUSSIAN, 0, 0.25), 0.0)
    n = disc.total_count
    a = pair.state_a.amplitudes
    np.testing.assert_array_equal(a[n:], np.zeros(pair.n_register - n))
    tail = np.vdot(a[n:], pair.state_w.amplitudes[n:])
    assert tail.real == 0.0


def test_partition_of_unity_fine_grid():
    disc = uniform_discretise(Domain(-1.0, 1.0), 256, n_boundary_each_end=4)
    ones = FunctionSamples(np.ones(disc.total_count))
    val = sph_sums(disc, ones, KernelSpec(GAUSSIAN, 0, 4.0 / 256), [0.0])[0]
    assert val == pytest.approx(1.0, abs=1e-6)


def test_odd_kernel_kills_constant():
    disc = uniform_discretise(Domain(-1.0, 1.0), 64, n_boundary_each_end=4)
    ones = FunctionSamples(np.ones(disc.total_count))
    for fam in (GAUSSIAN, WENDLAND):
        val = sph_sums(disc, ones, KernelSpec(fam, 1, 4.0 / 64), [0.0])[0]
        assert abs(val) < 1e-12


def test_oracle_equivalence_non_uniform_widths():
    rng = np.random.default_rng(20)
    for trial in range(25):
        edges = np.sort(rng.uniform(-1.5, 1.5, size=rng.integers(4, 40)))
        edges = np.unique(edges)
        if len(edges) < 3:
            continue
        disc = from_edges(edges, n_boundary_each_end=int(rng.integers(0, 4)))
        samples = FunctionSamples(rng.uniform(-3.0, 3.0, disc.total_count))
        fam = GAUSSIAN if trial % 2 else WENDLAND
        spec = KernelSpec(fam, int(rng.integers(0, 3)), float(rng.uniform(0.05, 1.5)))
        x = float(rng.uniform(-2.0, 2.0))
        oracle = sph_sums(disc, samples, spec, [x])[0]
        got = reconstruct(encode(disc, samples, spec, x))
        assert abs(got - oracle) / (1.0 + abs(oracle)) < 1e-10


@given(st.floats(min_value=-50.0, max_value=50.0).filter(lambda v: abs(v) > 1e-6))
def test_reconstruct_scales_linearly(lam):
    disc = uniform_discretise(Domain(-1.0, 1.0), 16, n_boundary_each_end=2)
    base = FunctionSamples.from_function(disc, runge)
    scaled = FunctionSamples(lam * base.values)
    spec = KernelSpec(WENDLAND, 0, 0.25)
    v1 = reconstruct(encode(disc, base, spec, 0.2))
    v2 = reconstruct(encode(disc, scaled, spec, 0.2))
    assert v2 == pytest.approx(lam * v1, rel=1e-11)
