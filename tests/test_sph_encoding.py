"""The direct sums, and the register encoding of them with the
reconstruction identity."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsph
import qsph.registers
import qsph.sph_encoding
from qsph.harness import ExperimentConfig, particles, run_experiment, uniform_positions
from qsph.kernels import DERIVATIVE_ORDERS, KernelFamily, KernelSpec, evaluate, scaling_constant
from qsph.registers import EncodedPair, build_a, build_w, encode, reconstruct
from qsph.sph_encoding import (
    ZeroSamplesError,
    coefficient_norm,
    integral_norm_estimate,
    kernel_sums,
    register_length,
    support_window,
)
from test_discretization import edge_layout

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


def test_build_a_constant_function_unit_norm():
    # f = 1 on 4 cells of [-1, 1]: a_k = dx = 0.5
    state, norm = build_a(np.full(4, 0.5))
    assert norm == 1.0
    np.testing.assert_array_equal(state.amplitudes, [0.5, 0.5, 0.5, 0.5])


def test_build_a_constant_on_unit_interval():
    # f = 1 on 4 cells of [0, 1]
    _, norm = build_a(np.full(4, 0.25))
    assert norm == 0.5


def test_build_a_pads_to_power_of_two():
    # 4 cells of [0, 1] and one ghost per end
    state, _ = build_a(np.full(6, 0.25))
    assert state.dim == 8
    np.testing.assert_array_equal(state.amplitudes[6:], [0.0, 0.0])


def test_build_a_rejects_zero_function():
    with pytest.raises(ValueError):
        build_a(np.zeros(4))


def test_encode_rejects_arrays_of_different_lengths():
    positions = uniform_positions((0.0, 1.0), 4)
    with pytest.raises(ValueError):
        encode(positions, np.ones(5), KernelSpec(GAUSSIAN, 0, 0.2), 0.5)


def test_build_a_subnormal_samples_have_a_finite_norm():
    state, norm = build_a(np.full(4, 3.54e-309) * 0.25)
    np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5], rtol=0.0, atol=1e-15)
    assert 0.0 < norm < math.inf
    assert norm == pytest.approx(2.0 * 3.54e-309 * 0.25, rel=1e-12)


def test_build_a_rejects_samples_whose_norm_overflows():
    # 4 cells of [0, 4]: dx = 1
    with pytest.raises(ValueError, match="largest double"):
        build_a(np.full(4, 1.7e308) * 1.0)


def test_build_a_approx_norm_passthrough():
    state, norm = build_a(np.full(4, 0.25), approx_norm=0.47)
    assert norm == 0.47
    # the state itself stays exactly normalized regardless of the estimate
    assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(1.0,
                                                                             abs=1e-14)


def test_integral_norm_constant_functions():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    assert integral_norm_estimate((0.0, 1.0), one, 4) == pytest.approx(0.5,
                                                                             rel=1e-12)
    assert integral_norm_estimate((-1.0, 1.0), one, 4) == pytest.approx(1.0,
                                                                              rel=1e-12)


def test_integral_norm_linear_function_converges():
    positions = uniform_positions((0.0, 1.0), 64)
    _, exact = build_a(positions * (1.0 / 64))
    est = integral_norm_estimate((0.0, 1.0), lambda x: x, 64)
    assert abs(est - exact) / exact < 1.0 / 64


def test_integral_norm_frozen_runge_values():
    positions = uniform_positions((-1.0, 1.0), 16)
    _, exact = build_a(runge(positions) * (2.0 / 16))
    est = integral_norm_estimate((-1.0, 1.0), runge, 16)
    assert exact == pytest.approx(RUNGE_N16_EXACT_NORM, rel=1e-13)
    assert RUNGE_N16_INTEGRAL_NORM == pytest.approx(
        math.sqrt(2 / 16 * (1 / 26 + math.atan(5) / 5)), rel=1e-15)
    # the quadrature carries trapezoid error ~ 1e-8
    assert est == pytest.approx(RUNGE_N16_INTEGRAL_NORM, rel=1e-7)
    # the estimate is close but visibly off the exact norm
    assert 1e-4 < abs(est - exact) / exact < 1e-3


def test_build_w_outside_compact_support():
    positions = uniform_positions((0.0, 1.0), 4)
    state, _ = build_w(positions, KernelSpec(WENDLAND, 0, 0.1), 50.0, 4)
    np.testing.assert_array_equal(state.amplitudes, np.full(4, 0.5j))


def test_build_w_single_particle_peak():
    positions = uniform_positions((0.0, 1.0), 1)
    state, c = build_w(positions, KernelSpec(GAUSSIAN, 0, 1.0), 0.5, 1)
    assert c == scaling_constant(KernelSpec(GAUSSIAN, 0, 1.0))
    # kernel at its peak: scaled value is exactly 1/N = 1, closure term 0
    np.testing.assert_array_equal(state.amplitudes, [1.0 + 0.0j])
    # a value 3 ulps above c, within check_kernel_bound's slack: closure term 0
    spec = KernelSpec(GAUSSIAN, 1, 1.5027955186689237)
    x = 1.0626369019875508
    state, c = build_w(np.zeros(1), spec, x, 1)
    assert evaluate(spec, x) == -(c + 3 * math.ulp(c))
    np.testing.assert_array_equal(state.amplitudes, [evaluate(spec, x) / c + 0.0j])


def test_build_w_closure_at_centre():
    positions = uniform_positions((-1.0, 1.0), 8)
    state, _ = build_w(positions, KernelSpec(GAUSSIAN, 0, 0.5), 0.0, 8)
    np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, np.full(8, 0.125),
                               rtol=0, atol=1e-12)


def test_build_w_padding_slots():
    positions = uniform_positions((-1.0, 1.0), 4, n_boundary_each_end=1)
    state, _ = build_w(positions, KernelSpec(GAUSSIAN, 0, 0.5), 0.0, 8)
    np.testing.assert_array_equal(state.amplitudes[6:], np.full(2, 1j / math.sqrt(8)))


def test_build_w_validates_register_length():
    positions = uniform_positions((0.0, 1.0), 5)
    spec = KernelSpec(GAUSSIAN, 0, 1.0)
    with pytest.raises(ValueError):
        build_w(positions, spec, 0.5, 4)   # shorter than the particle count
    with pytest.raises(ValueError):
        build_w(positions, spec, 0.5, 6)   # not a power of two


def test_build_w_nonnegative_imaginary_parts():
    positions = uniform_positions((-1.0, 1.0), 32, n_boundary_each_end=4)
    for fam in (GAUSSIAN, WENDLAND):
        for order in (0, 1, 2):
            state, _ = build_w(positions, KernelSpec(fam, order, 0.25), 0.3, 64)
            assert np.all(state.amplitudes.imag >= 0.0)


def test_build_w_real_parts_reproduce_kernel_values():
    positions = uniform_positions((-1.0, 1.0), 16, n_boundary_each_end=2)
    spec = KernelSpec(WENDLAND, 1, 0.3)
    x = 0.17
    state, c = build_w(positions, spec, x, 32)
    recovered = state.amplitudes.real[:positions.size] * (c * 32)
    np.testing.assert_allclose(recovered, evaluate(spec, x - positions),
                               rtol=1e-12, atol=1e-15)


def test_closure_violation_raises_in_build_w_and_the_fast_path(monkeypatch):
    # a c below max |W| fails the bound |W| <= c, whatever the register
    # length: 1e-9 is far below, and 0.5 c and 0.9 c are inside the
    # |W| <= c sqrt(N) that the closure radicand alone would allow
    positions = uniform_positions((-1.0, 1.0), 16, n_boundary_each_end=2)
    coeff = runge(positions) * (2.0 / 16)
    spec = KernelSpec(GAUSSIAN, 0, 0.25)
    for wrong_c in (lambda spec: 1e-9, lambda spec: 0.5 * scaling_constant(spec),
                    lambda spec: 0.9 * scaling_constant(spec)):
        for module in (qsph.registers, qsph.sph_encoding):
            monkeypatch.setattr(module, "scaling_constant", wrong_c)
        with pytest.raises(ValueError, match="kernel bound"):
            build_w(positions, spec, 0.1, 32)
        with pytest.raises(ValueError, match="kernel bound"):
            kernel_sums(positions, coeff, spec, np.array([0.1]))
        with pytest.raises(ValueError, match="kernel bound"):
            run_experiment(ExperimentConfig(qubits=4, eval_points=5))
        monkeypatch.undo()
    # with the true c: the check takes max |W|, so values far below -c fail
    # it next to a harmless 0, and so does a NaN
    for bad in (-1e6, math.nan):
        def evaluate_bad(spec, r):
            values = np.full(np.shape(r), bad)
            values.flat[0] = 0.0
            return values
        monkeypatch.setattr(qsph.sph_encoding, "evaluate", evaluate_bad)
        with pytest.raises(ValueError, match="kernel bound"):
            kernel_sums(positions, coeff, spec, np.array([0.1]))


def test_support_window_counts_particles_in_the_support():
    for m in (6, 10):
        positions = uniform_positions((-1.0, 1.0), 2 ** m, n_boundary_each_end=4)
        h = 4.0 / 2 ** m
        assert support_window(positions, KernelSpec(WENDLAND, 0, h)) == 9
        assert support_window(positions, KernelSpec(GAUSSIAN, 2, h)) == 33
    # a support wider than the layout takes every particle
    positions = uniform_positions((-1.0, 1.0), 8)
    assert support_window(positions, KernelSpec(GAUSSIAN, 0, 1.0)) == 8


def test_all_zero_samples_raise_a_named_value_error():
    zeros = np.zeros(4)
    assert issubclass(ZeroSamplesError, ValueError)
    with pytest.raises(ZeroSamplesError, match="0 at all 4 particles"):
        coefficient_norm(zeros)
    with pytest.raises(ZeroSamplesError, match="0 at all 4 particles"):
        build_a(zeros)


def _window_by_search(pos, spec):
    """The definition: over all i, the most particles k >= i with
    pos[k] <= pos[i] + 2 support_radius, one binary search per particle."""
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
    a, b = bounds
    dx = (b - a) / 2 ** m
    if h_rule is None:
        h = 2.0 * dx  # the default rule
    elif isinstance(h_rule, int):
        h = h_rule * dx / SUPPORT_SPAN[family]  # 2 support_radius = h_rule dx
    else:
        h = h_rule * dx
    spec = KernelSpec(family, order, h)
    nb = math.ceil(spec.support_radius / dx) + 1 if ghosts is None else ghosts
    positions = uniform_positions(bounds, 2 ** m, n_boundary_each_end=nb)
    assert support_window(positions, spec) == _window_by_search(positions, spec)


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
    positions, _ = edge_layout(_clustered_edges(left, cluster, eps, right), nb)
    spec = KernelSpec(family, 0, h)
    assert support_window(positions, spec) == _window_by_search(positions, spec)


def test_support_window_finds_a_cluster_far_from_the_first_particle():
    # 2 support_radius = 0.8 < 1: the first particle's support holds only itself,
    # while 0.8 of the 1e-3-wide cluster cells fit in one support
    pos, _ = edge_layout(_clustered_edges(2, 1000, 1e-3, 1))
    spec = KernelSpec(GAUSSIAN, 0, 0.05)
    assert np.searchsorted(pos, pos[0] + 2.0 * spec.support_radius, side="right") == 1
    assert support_window(pos, spec) == _window_by_search(pos, spec) == 801


def test_sph_sums_match_the_full_direct_sum():
    positions, widths = edge_layout(np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, 40)),
                                    3)
    coeff = runge(positions) * widths
    xs = np.linspace(-1.3, 1.3, 57)
    for fam in (GAUSSIAN, WENDLAND):
        for order in (0, 1, 2):
            spec = KernelSpec(fam, order, 0.07)
            full = [np.sum(coeff * evaluate(spec, x - positions)) for x in xs]
            scale = scaling_constant(spec) * np.sum(np.abs(coeff))
            np.testing.assert_allclose(kernel_sums(positions, coeff, spec, xs), full,
                                       rtol=0.0, atol=1e-14 * scale)


def test_sph_sums_do_not_depend_on_the_block_size(monkeypatch):
    positions, coeff = particles(ExperimentConfig(qubits=8, boundary_particles=4))
    xs = np.linspace(-1.0, 1.0, 301)
    for fam in (GAUSSIAN, WENDLAND):
        for order in DERIVATIVE_ORDERS:
            spec = KernelSpec(fam, order, 4.0 / 256)
            whole = kernel_sums(positions, coeff, spec, xs)
            # blocks of three rows: the last block holds the 301st point alone
            monkeypatch.setattr(qsph.sph_encoding, "BLOCK_VALUES",
                                3 * support_window(positions, spec) + 2)
            blocked = kernel_sums(positions, coeff, spec, xs)
            monkeypatch.undo()
            np.testing.assert_array_equal(blocked, whole)
            singles = [kernel_sums(positions, coeff, spec, xs[j:j + 1])[0]
                       for j in range(xs.size)]
            np.testing.assert_array_equal(whole, singles)


def test_encode_assembles_pair():
    positions, coeff = particles(ExperimentConfig(qubits=4, boundary_particles=4))
    pair = encode(positions, coeff, KernelSpec(GAUSSIAN, 0, 0.25), 0.1)
    assert isinstance(pair, EncodedPair)
    assert pair.n_register == 32
    assert pair.state_a.dim - positions.size == 32 - 24
    assert pair.state_a.dim == pair.state_w.dim == 32


def test_reconstruct_matches_direct_sum():
    positions, coeff = particles(ExperimentConfig(qubits=6, boundary_particles=4))
    for fam in (GAUSSIAN, WENDLAND):
        for order in (0, 1, 2):
            spec = KernelSpec(fam, order, 4.0 / 64)
            for x in (-0.83, -0.2, 0.0, 0.41, 0.99):
                oracle = kernel_sums(positions, coeff, spec, np.array([x]))[0]
                got = reconstruct(encode(positions, coeff, spec, x))
                assert abs(got - oracle) / (1.0 + abs(oracle)) < 1e-10


def test_reconstruct_imaginary_part_is_contaminated():
    # only the real part of <a|W> carries the sum; the imaginary part is
    # an artifact of the closure terms and must be discarded
    positions = uniform_positions((-1.0, 1.0), 32)
    coeff = runge(positions) * (2.0 / 32)
    spec = KernelSpec(GAUSSIAN, 0, 0.125)
    pair = encode(positions, coeff, spec, 0.3)
    ip = np.vdot(pair.state_a.amplitudes, pair.state_w.amplitudes)
    assert abs(ip.imag) > 1e-3
    scale = pair.c * pair.n_register * pair.norm_a
    assert scale * ip.real == pytest.approx(
        kernel_sums(positions, coeff, spec, np.array([0.3]))[0], rel=1e-10)


def test_reconstruct_with_external_overlap():
    positions = uniform_positions((0.0, 1.0), 8)
    pair = encode(positions, (1.0 + positions) * 0.125, KernelSpec(WENDLAND, 0, 0.2), 0.5)
    assert reconstruct(pair, overlap_real=0.25) == pytest.approx(
        pair.c * pair.n_register * pair.norm_a * 0.25, rel=1e-15)


def test_zero_function_sums_to_zero():
    positions = uniform_positions((-1.0, 1.0), 16)
    assert kernel_sums(positions, np.zeros(16), KernelSpec(GAUSSIAN, 0, 0.2),
                       np.array([0.1]))[0] == 0.0


def test_padding_contributes_nothing():
    positions, coeff = particles(ExperimentConfig(qubits=4, boundary_particles=4))
    pair = encode(positions, coeff, KernelSpec(GAUSSIAN, 0, 0.25), 0.0)
    n = positions.size
    a = pair.state_a.amplitudes
    np.testing.assert_array_equal(a[n:], np.zeros(pair.n_register - n))
    tail = np.vdot(a[n:], pair.state_w.amplitudes[n:])
    assert tail.real == 0.0


def test_partition_of_unity_fine_grid():
    positions = uniform_positions((-1.0, 1.0), 256, n_boundary_each_end=4)
    ones = np.full(positions.size, 2.0 / 256)  # f = 1
    val = kernel_sums(positions, ones, KernelSpec(GAUSSIAN, 0, 4.0 / 256), np.array([0.0]))[0]
    assert val == pytest.approx(1.0, abs=1e-6)


def test_odd_kernel_kills_constant():
    positions = uniform_positions((-1.0, 1.0), 64, n_boundary_each_end=4)
    ones = np.full(positions.size, 2.0 / 64)  # f = 1
    for fam in (GAUSSIAN, WENDLAND):
        val = kernel_sums(positions, ones, KernelSpec(fam, 1, 4.0 / 64), np.array([0.0]))[0]
        assert abs(val) < 1e-12


def test_oracle_equivalence_non_uniform_widths():
    rng = np.random.default_rng(20)
    for trial in range(25):
        edges = np.sort(rng.uniform(-1.5, 1.5, size=rng.integers(4, 40)))
        edges = np.unique(edges)
        if len(edges) < 3:
            continue
        positions, widths = edge_layout(edges, int(rng.integers(0, 4)))
        coeff = rng.uniform(-3.0, 3.0, positions.size) * widths
        fam = GAUSSIAN if trial % 2 else WENDLAND
        spec = KernelSpec(fam, int(rng.integers(0, 3)), float(rng.uniform(0.05, 1.5)))
        x = float(rng.uniform(-2.0, 2.0))
        oracle = kernel_sums(positions, coeff, spec, np.array([x]))[0]
        got = reconstruct(encode(positions, coeff, spec, x))
        assert abs(got - oracle) / (1.0 + abs(oracle)) < 1e-10


@given(st.floats(min_value=-50.0, max_value=50.0).filter(lambda v: abs(v) > 1e-6))
def test_reconstruct_scales_linearly(lam):
    positions, coeff = particles(ExperimentConfig(qubits=4, boundary_particles=2))
    spec = KernelSpec(WENDLAND, 0, 0.25)
    v1 = reconstruct(encode(positions, coeff, spec, 0.2))
    v2 = reconstruct(encode(positions, lam * coeff, spec, 0.2))
    assert v2 == pytest.approx(lam * v1, rel=1e-11)


NORMS_AS_HEX = """
import numpy as np
from qsph.harness import target_function, uniform_positions
from qsph.sph_encoding import coefficient_norm
for ghosts in (17, 5):  # the default Gaussian and Wendland layouts
    for m in (14, 16):
        coeff = target_function(uniform_positions((-1.0, 1.0), 2 ** m, ghosts))
        print(coefficient_norm(coeff * (2.0 / 2 ** m)).hex())
"""


def test_coefficient_norm_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot product splits its sum across threads from about 10^4 values
    # on, and each split rounds differently; these layouts have 2^14 and more
    package_parent = Path(qsph.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(package_parent), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", NORMS_AS_HEX], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]
