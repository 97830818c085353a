"""Acceptance gate: nine numbered criteria covering the whole pipeline.

Each test prints one `[PASS] criterion N: ...` / `[FAIL] criterion N: ...`
line with the measured quantities (bypassing pytest's capture, so the lines
appear in a plain `pytest` run) and then asserts. Tolerances are pinned
here and are not to be loosened; a red criterion means the implementation
or the underlying claim needs attention, not the threshold.
"""
import functools
import math
from itertools import product

import numpy as np

from qsph.harness import (
    ExperimentConfig,
    particles,
    phase_index,
    rms_error,
    run_experiment,
    shot_counts,
    uniform_positions,
)
from qsph.kernels import KernelFamily, KernelSpec, evaluate, scaling_constant
from qsph.quantum_state import inner_product, normalize
from qsph.registers import encode, reconstruct
from qsph.sph_encoding import kernel_sums
from qsph.swap_test import (
    build_rotation_operator,
    build_swap_state,
    rotation_eigenpairs,
)
from test_discretization import edge_layout

SUITE_SEED = 20260823
FAMILIES = (KernelFamily.GAUSSIAN, KernelFamily.WENDLAND)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_discretisation(rng):
    """Positions and widths of a random uniform or non-uniform layout."""
    n = int(rng.integers(4, 513))
    nb = int(rng.integers(0, 5))
    a = float(rng.uniform(-3.0, 0.0))
    length = float(rng.uniform(0.5, 4.0))
    if rng.random() < 0.5:
        b = a + length
        positions = uniform_positions((a, b), n, nb)
        return positions, np.full(positions.size, (b - a) / n)
    gaps = rng.uniform(0.2, 1.8, n)
    edges = a + length * np.concatenate([[0.0], np.cumsum(gaps)]) / np.sum(gaps)
    return edge_layout(edges, nb)


@functools.lru_cache(maxsize=1)
def _randomized_suite():
    """1000 random cases shared by criteria 1 and 3.

    Covers both kernel families, all three derivative orders, uniform and
    non-uniform grids, ghost counts 0..4, h in [0.05, 2] and query points
    inside and slightly outside the domain, with bounded random samples.
    """
    rng = np.random.default_rng(SUITE_SEED)
    max_identity_defect = 0.0
    max_closure_defect = 0.0
    for i in range(1000):
        family = FAMILIES[i % 2]
        order = (i // 2) % 3
        positions, widths = _random_discretisation(rng)
        spec = KernelSpec(family, order, float(rng.uniform(0.05, 2.0)))
        coeff = rng.uniform(-1.0, 1.0, positions.size) * widths
        lo, hi = positions[0], positions[-1]
        x = float(rng.uniform(lo - 0.5, hi + 0.5))

        pair = encode(positions, coeff, spec, x)
        rec = reconstruct(pair)
        direct = float(kernel_sums(positions, coeff, spec, np.array([x]))[0])
        max_identity_defect = max(max_identity_defect,
                                  abs(rec - direct) / (1.0 + abs(direct)))
        norm_sq = float(np.sum(np.abs(pair.state_w.amplitudes) ** 2))
        max_closure_defect = max(max_closure_defect, abs(norm_sq - 1.0))
    return max_identity_defect, max_closure_defect


def test_criterion_1_reconstruction_matches_direct_summation(capsys):
    defect, _ = _randomized_suite()
    _report(capsys, 1, defect < 1e-10,
            f"encode/reconstruct vs direct sum over 1000 random cases, "
            f"max defect {defect:.3e} (tol 1e-10)")


def test_criterion_2_tabulated_kernel_maxima(capsys):
    worst = 0.0
    for family, order in product(FAMILIES, (0, 1, 2)):
        for h in (0.1, 0.5, 1.0, 2.0):
            spec = KernelSpec(family, order, h)
            # |W| is even in r for every order, so [0, R] sees every value;
            # this also lands a grid point exactly on the r=0 peaks, which a
            # symmetric even-count grid would straddle
            grid = np.linspace(0.0, spec.support_radius, 10 ** 6)
            observed = float(np.max(np.abs(evaluate(spec, grid))))
            c = scaling_constant(spec)
            worst = max(worst, abs(observed - c) / c)
    _report(capsys, 2, worst <= 1e-6,
            f"grid-searched max|W| vs tabulated constants, six family/order "
            f"pairs x four h, max rel defect {worst:.3e} (tol 1e-6)")


def test_criterion_3_register_closure(capsys):
    _, defect = _randomized_suite()
    _report(capsys, 3, defect <= 1e-12,
            f"kernel-register norm over 1000 random cases, "
            f"max |sum of squared moduli - 1| = {defect:.3e} (tol 1e-12)")


def test_criterion_4_order0_rms_decays_with_register_size(capsys):
    ms = np.arange(4, 9)
    slopes = {}
    monotone = True
    for family in FAMILIES:
        rms = []
        for m in ms:
            rows = run_experiment(ExperimentConfig(
                kernel=family, qubits=int(m), eval_points=300))
            rms.append(rms_error(rows))
        monotone &= all(b < a for a, b in zip(rms, rms[1:]))
        slopes[family.value] = float(np.polyfit(ms, np.log2(rms), 1)[0])
    ok = monotone and all(s <= -0.5 for s in slopes.values())
    _report(capsys, 4, ok,
            f"order-0 RMS strictly decreasing over m=4..8, log2 slopes "
            f"gaussian {slopes['gaussian']:.3f}, wendland "
            f"{slopes['wendland']:.3f} (need <= -0.5)")


def test_criterion_5_derivative_accuracy_ordering(capsys):
    summary = []
    ok = True
    for family in FAMILIES:
        rms = [rms_error(run_experiment(ExperimentConfig(
            kernel=family, derivative_order=order, qubits=8, eval_points=300)))
            for order in (0, 1, 2)]
        ok &= rms[2] > rms[1] > rms[0]
        summary.append(f"{family.value} {rms[0]:.2e} < {rms[1]:.2e} < {rms[2]:.2e}")
    _report(capsys, 5, ok,
            "RMS(order 2) > RMS(order 1) > RMS(order 0) at m=8: "
            + "; ".join(summary))


def _random_unit(rng, d):
    state, _ = normalize(rng.normal(size=d) + 1j * rng.normal(size=d))
    return state


def test_criterion_6_swap_test_identities(capsys):
    rng = np.random.default_rng(SUITE_SEED + 6)
    worst_p0 = worst_unitary = worst_spectrum = worst_decomp = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        x = _random_unit(rng, d)
        y = _random_unit(rng, d)
        s = build_swap_state(x, y)
        rho = inner_product(x, y).real

        p0, _ = s.block_probabilities()
        worst_p0 = max(worst_p0, abs(p0 - (1.0 + rho) / 2.0))

        g = build_rotation_operator(s)
        gram_defect = np.max(np.abs(g.conj().T @ g - np.eye(2 * d)))
        worst_unitary = max(worst_unitary, float(gram_defect))

        basis = np.zeros((2 * d, 2), dtype=complex)
        basis[:d, 0] = s.state_u().amplitudes
        basis[d:, 1] = s.state_v().amplitudes
        restricted = basis.conj().T @ g @ basis
        eigs = np.linalg.eigvals(restricted)
        (lam_plus, lam_minus), (w_plus, w_minus) = rotation_eigenpairs(s)
        straight = max(abs(eigs[0] - lam_plus), abs(eigs[1] - lam_minus))
        crossed = max(abs(eigs[0] - lam_minus), abs(eigs[1] - lam_plus))
        worst_spectrum = max(worst_spectrum, min(straight, crossed))

        recon = -1j / np.sqrt(2.0) * (
            np.exp(1j * s.theta) * w_plus.amplitudes
            - np.exp(-1j * s.theta) * w_minus.amplitudes)
        worst_decomp = max(worst_decomp,
                           float(np.linalg.norm(s.phi.amplitudes - recon)))
    ok = (worst_p0 <= 1e-12 and worst_unitary <= 1e-10
          and worst_spectrum <= 1e-8 and worst_decomp <= 1e-8)
    _report(capsys, 6, ok,
            f"100 random pairs: p0 defect {worst_p0:.1e} (tol 1e-12), "
            f"unitarity {worst_unitary:.1e} (tol 1e-10), spectrum "
            f"{worst_spectrum:.1e} (tol 1e-8), decomposition "
            f"{worst_decomp:.1e} (tol 1e-8)")


def test_criterion_7_sampled_estimator_statistics(capsys):
    rng = np.random.default_rng(SUITE_SEED + 7)
    x = _random_unit(rng, 4)
    y = _random_unit(rng, 4)
    rho = inner_product(x, y).real
    shots = 10_000
    # the p0 = (1 + rho) / 2 that _approximate forms, one run's stream per seed
    p0 = np.array([(1.0 + rho) / 2.0])
    estimates = np.array([2.0 * shot_counts(p0, shots, s)[0] / shots - 1.0
                          for s in range(200)])
    sigma = math.sqrt((1.0 - rho ** 2) / shots)
    std_ratio = float(np.std(estimates, ddof=1)) / sigma
    mean_offset = abs(float(np.mean(estimates)) - rho) / (sigma / math.sqrt(200))
    ok = 0.8 <= std_ratio <= 1.2 and mean_offset <= 3.0
    _report(capsys, 7, ok,
            f"200 seeds at {shots} shots: std/binomial prediction "
            f"{std_ratio:.3f} (need within 20%), mean offset "
            f"{mean_offset:.2f} standard errors (need <= 3)")


def test_criterion_8_phase_quantizer_bound(capsys):
    rng = np.random.default_rng(SUITE_SEED + 8)
    pairs = [( _random_unit(rng, 4), _random_unit(rng, 4)) for _ in range(100)]
    worst_ratio = 0.0
    for n_pe in range(2, 13):
        bound = math.pi / 2 ** (n_pe + 1)
        for x, y in pairs:
            theta = build_swap_state(x, y).theta
            rho = np.array([inner_product(x, y).real])
            theta_est = phase_index(rho, n_pe)[0] * math.pi / 2 ** n_pe
            worst_ratio = max(worst_ratio, abs(theta_est - theta) / bound)
    ok = worst_ratio <= 1.0 + 1e-12 and worst_ratio >= 0.9
    _report(capsys, 8, ok,
            f"n_pe=2..12 x 100 pairs: max |theta_est - theta| / bound = "
            f"{worst_ratio:.6f} (must stay <= 1 and reach >= 0.9)")


def test_criterion_9_odd_kernel_cancellation_at_origin(capsys):
    worst = 0.0
    for family in FAMILIES:
        for m in range(4, 9):
            positions, coeff = particles(ExperimentConfig(qubits=m, boundary_particles=4))
            spec = KernelSpec(family, 1, 4.0 / 2 ** m)
            value = reconstruct(encode(positions, coeff, spec, 0.0))
            worst = max(worst, abs(value))
    _report(capsys, 9, worst < 1e-10,
            f"order-1 value of the even target at x=0, both kernels, m=4..8: "
            f"max |value| = {worst:.3e} (tol 1e-10)")
