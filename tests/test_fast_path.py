"""The batched run path against the dense register oracle.

``run_experiment`` reads every overlap from the direct sums of
``kernel_sums`` and never builds a register. These tests check that the
closed forms it uses agree with the dense states of ``registers.encode``
and the swap-test state of ``swap_test``, and that its exact readout is the
direct sum. The run's ``shot_counts`` and ``phase_index`` are checked against
counts and grid indices derived here from the dense state, never against
themselves.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsph.harness import (
    ExperimentConfig,
    particles,
    phase_index,
    run_experiment,
    shot_counts,
    target_function,
    uniform_positions,
)
from qsph.kernels import KernelFamily, KernelSpec, scaling_constant
from qsph.quantum_state import inner_product
from qsph.registers import build_a, encode, reconstruct
from qsph.sph_encoding import (
    coefficient_norm,
    integral_norm_estimate,
    kernel_sums,
    register_length,
)
from qsph.swap_test import build_swap_state
from test_discretization import edge_layout

DOMAIN = (-1.0, 1.0)
TIE_TOL = 1e-12  # angles this close to a grid midpoint may snap either way


def _nearest_grid_index(theta: float, grid: int) -> int:
    """The k of the grid angle k pi / grid nearest theta, ties toward the
    smaller k, for k in {0, ..., grid - 1}."""
    return min(max(math.ceil(theta * grid / math.pi - 0.5), 0), grid - 1)


def _uniform_layout(cells, ghosts):
    """Positions, widths and ghosts per end of a uniform layout on DOMAIN."""
    positions = uniform_positions(DOMAIN, cells, ghosts)
    return positions, np.full(positions.size, (DOMAIN[1] - DOMAIN[0]) / cells), ghosts


@st.composite
def layouts(draw):
    """A uniform or non-uniform layout on [-1, 1] with 2 to 2^10 cells, as
    its positions, widths and ghosts per end."""
    m = draw(st.integers(min_value=1, max_value=10))
    ghosts = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        return _uniform_layout(2 ** m, ghosts)
    cells = draw(st.integers(min_value=2, max_value=2 ** m))
    gaps = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(0.2, 1.8, cells)
    edges = -1.0 + 2.0 * np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    edges[-1] = 1.0
    return (*edge_layout(edges, ghosts), ghosts)


@settings(deadline=None)
@given(layouts(),
       st.sampled_from(list(KernelFamily)),
       st.integers(min_value=0, max_value=2),
       st.floats(min_value=0.01, max_value=1.0),
       st.sampled_from(["analytic", "zero"]),
       st.sampled_from(["exact", "integral"]),
       st.lists(st.floats(min_value=-1.2, max_value=1.2), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=3000),
       st.integers(min_value=1, max_value=20))
# fast p0 is 0.5 and dense p0 0.5000000000000002: the two draw different counts
@example(_uniform_layout(2, 0), KernelFamily.GAUSSIAN, 0, 0.01, "analytic",
         "exact", [0.0], 0, 1, 1)
def test_closed_forms_match_the_dense_registers(layout, family, order, h, boundary, norm_mode,
                                                xs, seed, shots, pe_qubits):
    positions, widths, ghosts = layout
    values = target_function(positions)
    if boundary == "zero":
        values[:ghosts] = values[values.size - ghosts:] = 0.0
    coeff = values * widths
    if not np.any(coeff):
        return
    spec = KernelSpec(family, order, h)
    approx_norm = None
    if norm_mode == "integral":
        approx_norm = integral_norm_estimate(DOMAIN, target_function,
                                             positions.size - 2 * ghosts)
    n = register_length(positions.size)
    c = scaling_constant(spec)
    xs = np.asarray(xs)

    # the same stages as run_experiment
    exact_norm = coefficient_norm(coeff)
    norm_a = exact_norm if approx_norm is None else approx_norm
    sums = kernel_sums(positions, coeff, spec, xs)
    rho = np.clip(sums / (c * n * exact_norm), -1.0, 1.0)
    p0 = (1.0 + rho) / 2.0
    counts = shot_counts(p0, shots, seed)
    k = phase_index(rho, pe_qubits)

    # one shared stream, drawn at the fast path's own p0: for p > 0.5 numpy
    # samples n - Binom(n, 1 - p), so a 1-ulp move across 0.5 redraws a count
    g = np.random.Generator(np.random.Philox(key=seed))
    assert counts.tolist() == [g.binomial(shots, p) for p in p0]

    grid = 2 ** pe_qubits
    for j, x in enumerate(xs):
        pair = encode(positions, coeff, spec, float(x), approx_norm)
        scale = c * n * norm_a
        assert sums[j] * (norm_a / exact_norm) == pytest.approx(
            reconstruct(pair), rel=0.0, abs=1e-12 * scale)
        assert rho[j] == pytest.approx(
            inner_product(pair.state_a, pair.state_w).real, rel=0.0, abs=1e-12)
        swap = build_swap_state(pair.state_a, pair.state_w)
        assert p0[j] == pytest.approx(swap.block_probabilities()[0], rel=0.0, abs=1e-12)

        # criterion 8 on these angles; near a grid midpoint k may snap either way
        assert abs(k[j] * math.pi / grid - swap.theta) <= math.pi / (2 * grid) + TIE_TOL
        offset = swap.theta * grid / math.pi - 0.5
        if abs(offset - round(offset)) * math.pi / grid > TIE_TOL:
            assert k[j] == _nearest_grid_index(swap.theta, grid)


def test_coefficient_norm_matches_build_a_without_the_register():
    """Within 2 ulp of the correctly rounded norm, and within 16 ulp of the
    norm ``build_a`` takes of the padded complex register."""
    for family in KernelFamily:
        for m in range(2, 17):
            for ghosts in (None, 4):
                for boundary in ("analytic", "zero"):
                    cfg = ExperimentConfig(kernel=family, qubits=m, boundary_particles=ghosts,
                                           boundary_values=boundary)
                    _, coeff = particles(cfg)
                    got = coefficient_norm(coeff)
                    want = math.sqrt(math.fsum(v * v for v in coeff.tolist()))
                    assert abs(got - want) <= 2 * math.ulp(want), (family, m, ghosts, boundary)
                    _, dense = build_a(coeff)
                    assert abs(got - dense) <= 16 * math.ulp(dense), (family, m, ghosts, boundary)


def test_coefficient_norm_scales_tiny_coefficients():
    """Squaring 1e-200 underflows; the power-of-two scaling keeps every bit."""
    coeff = np.ones(4) * (1e-200 / 4)  # f = 1 on 4 cells of [0, 1e-200]
    assert coefficient_norm(coeff) == 0.5e-200
    assert coefficient_norm(coeff) == build_a(coeff)[1]
    with pytest.raises(ValueError, match="all-zero"):
        coefficient_norm(np.zeros(4))


@pytest.mark.parametrize("family", list(KernelFamily))
def test_exact_run_is_the_direct_sum_bit_for_bit_at_m12(family):
    """One window width for every point: no point's sum depends on its batch."""
    for order in (0, 1, 2):
        cfg = ExperimentConfig(kernel=family, derivative_order=order, qubits=12,
                               eval_points=300)
        positions, coeff = particles(cfg)
        spec = KernelSpec(family, order, cfg.h)
        got = run_experiment(cfg).f_approx.tolist()
        xs = np.linspace(*cfg.domain, 300)
        want = [kernel_sums(positions, coeff, spec, xs[j:j + 1])[0] for j in range(xs.size)]
        assert got == want


def _dense_run(cfg: ExperimentConfig) -> list[float]:
    """The per-point register pipeline: encode, estimate, reconstruct.

    It multiplies back the ||a|| the run uses: the integral estimate, or the
    exact norm of ``coefficient_norm``, which
    ``test_coefficient_norm_matches_build_a_without_the_register`` pins to
    the one ``build_a`` computes from |a>.
    """
    positions, coeff = particles(cfg)
    spec = KernelSpec(cfg.kernel, cfg.derivative_order, cfg.h)
    approx_norm = coefficient_norm(coeff)
    if cfg.norm_mode == "integral":
        approx_norm = integral_norm_estimate(cfg.domain, target_function, cfg.num_particles)
    g = np.random.Generator(np.random.Philox(key=cfg.seed))
    out = []
    for x in np.linspace(*cfg.domain, cfg.eval_points):
        pair = encode(positions, coeff, spec, float(x), approx_norm)
        if cfg.estimator == "exact":
            out.append(reconstruct(pair))
            continue
        if cfg.estimator == "sampled":
            # the points draw in order from one stream, as shot_counts does
            p0, _ = build_swap_state(pair.state_a, pair.state_w).block_probabilities()
            count0 = g.binomial(cfg.shots, min(1.0, max(0.0, p0)))
            estimate = min(1.0, max(-1.0, 2.0 * count0 / cfg.shots - 1.0))
        else:
            # the nearest grid angle to the dense theta, as phase_index snaps it
            grid = 2 ** cfg.pe_qubits
            theta = build_swap_state(pair.state_a, pair.state_w).theta
            theta_k = _nearest_grid_index(theta, grid) * np.pi / grid
            estimate = min(1.0, max(-1.0, 2.0 * np.sin(theta_k) ** 2 - 1.0))
        out.append(reconstruct(pair, overlap_real=estimate))
    return out


@pytest.mark.parametrize("estimator", ["exact", "sampled", "phase"])
@pytest.mark.parametrize("norm_mode", ["exact", "integral"])
def test_run_experiment_matches_the_dense_pipeline(estimator, norm_mode):
    for family, order, boundary in ((KernelFamily.GAUSSIAN, 2, "analytic"),
                                    (KernelFamily.WENDLAND, 1, "zero")):
        cfg = ExperimentConfig(kernel=family, derivative_order=order, qubits=7,
                               eval_points=41, norm_mode=norm_mode, estimator=estimator,
                               shots=500, seed=9, pe_qubits=9, boundary_values=boundary)
        curve = run_experiment(cfg)
        dense = _dense_run(cfg)
        assert curve.f_exact.tolist() == [target_function(x, order) for x in curve.x.tolist()]
        got = curve.f_approx.tolist()
        if estimator == "exact":
            scale = max(abs(v) for v in dense)
            np.testing.assert_allclose(got, dense, rtol=0.0, atol=1e-13 * scale)
        else:
            # the same binomial draws and the same angle grid: the same values
            assert got == dense
