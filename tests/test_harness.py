"""Harness tests: target function, config validation, experiment runs,
convergence sweeps and the additive error decomposition."""
import csv
import io
import math
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsph import _g17, harness, sph_encoding
from qsph.harness import (
    CSV_HEADER,
    ConfigError,
    Curve,
    ErrorDecomposition,
    ExperimentConfig,
    all_finite,
    decompose_error,
    particles,
    rms_error,
    run_convergence_sweep,
    run_experiment,
    target_function,
    uniform_positions,
    write_rows,
    write_sweep,
)
from qsph.kernels import KernelFamily, KernelSpec, scaling_constant
from qsph.sph_encoding import (
    coefficient_norm,
    integral_norm_estimate,
    kernel_sums,
    register_length,
)

# Frozen by direct summation with explicit kernel formulas (no package code
# paths): 2^8 interior particles on [-1, 1], 4 ghosts each end, h = 4 / 2^8.
ORACLE_M8_GAUSSIAN_X0 = 0.9969757644043343
ORACLE_M8_GAUSSIAN_X025 = 0.39091206622722563
ORACLE_M8_WENDLAND_X025 = 0.3899590506001094


def _columns(curve):
    return [col.tolist() for col in (curve.x, curve.f_exact, curve.f_approx,
                                     curve.abs_error)]


def test_target_function_hand_values():
    assert target_function(0.0) == 1.0
    assert target_function(0.0, order=1) == 0.0
    assert target_function(0.0, order=2) == -50.0
    assert target_function(0.2) == pytest.approx(0.5, rel=1e-15)


def test_target_function_scalar_and_array_forms():
    """The array form is bit-identical to the scalar form at every point."""
    xs = np.linspace(-1.0, 1.0, 2001)
    for order in (0, 1, 2):
        out = target_function(xs, order=order)
        assert isinstance(out, np.ndarray)
        assert isinstance(target_function(0.3, order=order), float)
        assert out.tolist() == [target_function(x, order=order) for x in xs.tolist()]


def test_target_function_derivatives_match_finite_differences():
    step = 1e-6
    for x in (-0.3, 0.1, 0.5):
        fd1 = (target_function(x + step) - target_function(x - step)) / (2 * step)
        assert target_function(x, order=1) == pytest.approx(fd1, rel=1e-7)
        fd2 = (target_function(x + step) - 2 * target_function(x)
               + target_function(x - step)) / step ** 2
        assert target_function(x, order=2) == pytest.approx(fd2, rel=1e-3)


def _exact_derivative(x: float, order: int) -> float:
    """f' or f'' at x in exact rational arithmetic, rounded once."""
    x = Fraction(x)
    den = 1 + 25 * x * x
    if order == 1:
        return float(-50 * x / den ** 2)
    return float(50 * (75 * x * x - 1) / den ** 3)


def test_target_function_derivatives_stay_accurate_far_out():
    """Within 4 ulps of the exact value wherever |x| >= 1, up to the largest
    double: no power of 1 + 25 x^2 overflows into an early 0, and no
    RuntimeWarning is raised (pytest makes one an error)."""
    assert target_function(1e60, order=2) == pytest.approx(2.4e-241, rel=1e-15)
    assert target_function(1e80, order=1) == _exact_derivative(1e80, 1) == -8e-242
    xs = [s * m * 10.0 ** e for e in range(309) for m in (1.0, 2.7, 7.3, 1.5)
          for s in (1.0, -1.0) if m * 10.0 ** e < 1.7e308]
    xs += [1.7976931348623157e308, -1.7976931348623157e308]
    for order in (1, 2):
        got = target_function(np.array(xs), order=order).tolist()
        for x, g in zip(xs, got):
            want = _exact_derivative(x, order)
            assert abs(g - want) <= 4 * math.ulp(want), (order, x, g, want)
    assert target_function(math.inf, order=1) == -target_function(-math.inf, order=1) == 0.0


def test_target_function_rejects_higher_orders():
    with pytest.raises(ValueError):
        target_function(0.1, order=3)


def test_config_default_smoothing_length_rule():
    cfg = ExperimentConfig(qubits=8)
    assert cfg.num_particles == 256
    assert cfg.h == 4.0 / 256
    assert ExperimentConfig(qubits=8, smoothing_length=0.5).h == 0.5
    # h = 2 dx: on the default domain [-1, 1] that is 4 / 2^m bit for bit
    for m in range(2, 17):
        assert ExperimentConfig(qubits=m).h == 4.0 / 2 ** m
    assert ExperimentConfig(qubits=8, domain=(0.0, 3.0)).h == 2.0 * 3.0 / 256


@pytest.mark.parametrize("bounds", [(-1.0, 1.0), (0.0, 1e-5), (0.0, 1e-300), (1e6, 1e6 + 7.0)])
def test_default_ghost_count_does_not_depend_on_the_domain(bounds):
    # the default h scales with the domain, so the support spans 16 dx (Gaussian)
    # or 4 dx (Wendland) whatever its length
    assert ExperimentConfig(qubits=8, domain=bounds).ghosts_per_end == 17
    assert ExperimentConfig(kernel="wendland", qubits=8, domain=bounds).ghosts_per_end == 5


def test_config_derives_ghosts_from_the_kernel_support():
    """ceil(support_radius / dx) + 1 per end unless set explicitly."""
    assert ExperimentConfig(qubits=8).ghosts_per_end == 17  # 8h = 16 dx
    assert ExperimentConfig(kernel="wendland", qubits=8).ghosts_per_end == 5  # 2h = 4 dx
    assert ExperimentConfig(qubits=8, boundary_particles=4).ghosts_per_end == 4
    pinned_h = ExperimentConfig(qubits=4, smoothing_length=0.3)
    assert pinned_h.ghosts_per_end == math.ceil(8 * 0.3 / (2 / 16)) + 1


DERIVED = ("num_particles", "dx", "h", "kernel_spec", "ghosts_per_end")


def _layout(config):
    return tuple(getattr(config, name) for name in DERIVED)


@pytest.mark.parametrize("changes, layout", [
    ({"qubits": 10},
     (1024, 2 / 1024, 4 / 1024, KernelSpec(KernelFamily.GAUSSIAN, 1, 4 / 1024), 17)),
    ({"domain": (0.0, 3.0)},
     (64, 3 / 64, 6 / 64, KernelSpec(KernelFamily.GAUSSIAN, 1, 6 / 64), 17)),
    ({"smoothing_length": 0.3},
     (64, 2 / 64, 0.3, KernelSpec(KernelFamily.GAUSSIAN, 1, 0.3), 78)),
    ({"boundary_particles": 3},
     (64, 2 / 64, 4 / 64, KernelSpec(KernelFamily.GAUSSIAN, 1, 4 / 64), 3)),
    ({"kernel": "wendland", "qubits": 4},
     (16, 2 / 16, 4 / 16, KernelSpec(KernelFamily.WENDLAND, 1, 4 / 16), 5)),
])
def test_derived_layout_follows_replace(changes, layout):
    base = ExperimentConfig(qubits=6, derivative_order=1)
    changed = replace(base, **changes)
    assert _layout(changed) == layout
    assert _layout(changed) == _layout(ExperimentConfig(derivative_order=1, **{
        "qubits": 6, **changes}))
    assert _layout(replace(changed, **{k: getattr(base, k) for k in changes})) == _layout(base)


def test_derived_layout_is_not_part_of_repr_eq_or_hash():
    cfg = ExperimentConfig()
    assert repr(cfg) == (
        "ExperimentConfig(kernel=<KernelFamily.GAUSSIAN: 'gaussian'>, derivative_order=0, "
        "qubits=8, domain=(-1.0, 1.0), eval_points=300, boundary_particles=None, "
        "smoothing_length=None, norm_mode='exact', estimator='exact', shots=10000, seed=0, "
        "pe_qubits=8, boundary_values='analytic')")
    given_fields = [f.name for f in fields(cfg) if f.init]
    assert [f.name for f in fields(cfg) if f.compare or f.repr] == given_fields
    assert hash(cfg) == hash(tuple(getattr(cfg, name) for name in given_fields))
    # the same layout from other settings is another config
    pinned = ExperimentConfig(smoothing_length=cfg.h, boundary_particles=cfg.ghosts_per_end)
    assert _layout(pinned) == _layout(cfg) and pinned != cfg
    assert replace(pinned, smoothing_length=None, boundary_particles=None) == cfg
    assert hash(replace(pinned, smoothing_length=None, boundary_particles=None)) == hash(cfg)


def test_derived_layout_is_neither_an_argument_nor_settable():
    with pytest.raises(TypeError):
        ExperimentConfig(dx=0.5)
    with pytest.raises(ValueError):
        replace(ExperimentConfig(), ghosts_per_end=3)
    with pytest.raises(FrozenInstanceError):
        ExperimentConfig().h = 0.5


def test_config_accepts_kernel_name_string():
    cfg = ExperimentConfig(kernel="wendland")
    assert cfg.kernel is KernelFamily.WENDLAND


def test_config_accepts_a_domain_pair():
    cfg = ExperimentConfig(domain=[0, 2], qubits=np.int64(4))
    assert cfg.domain == (0.0, 2.0)
    assert [type(end) for end in cfg.domain] == [float, float]
    assert type(cfg.qubits) is int


@pytest.mark.parametrize("kwargs, field", [
    ({"kernel": "splurge"}, "kernel"),
    ({"derivative_order": 3}, "derivative_order"),
    ({"qubits": 1}, "qubits"),
    ({"qubits": 17}, "qubits"),
    ({"eval_points": 1}, "eval_points"),
    ({"boundary_particles": 0}, "boundary_particles"),
    ({"smoothing_length": 0.0}, "smoothing_length"),
    ({"norm_mode": "guess"}, "norm_mode"),
    ({"estimator": "oracle"}, "estimator"),
    ({"shots": 0}, "shots"),
    ({"seed": -1}, "seed"),
    ({"pe_qubits": 0}, "pe_qubits"),
    ({"boundary_values": "mirror"}, "boundary_values"),
    ({"qubits": 8.0}, "qubits"),
    ({"qubits": "8"}, "qubits"),
    ({"shots": True}, "shots"),
    ({"shots": 2 ** 63}, "shots"),
    ({"seed": 2 ** 128}, "seed"),
    ({"pe_qubits": 1024}, "pe_qubits"),
    ({"boundary_particles": 4.0}, "boundary_particles"),
    ({"smoothing_length": float("inf")}, "smoothing_length"),
    ({"smoothing_length": "0.5"}, "smoothing_length"),
    ({"smoothing_length": 1e308}, "smoothing_length"),
    ({"domain": (0.0, 1e-320), "smoothing_length": 0.5}, "smoothing_length"),
    ({"domain": (0.0,)}, "domain"),
    ({"domain": (0.0, "1")}, "domain"),
    # 256 cells of 1e-320 / 256 round to 8 subnormal ulps each and overshoot b
    ({"domain": (0.0, 1e-320)}, "domain"),
    ({"domain": (0.0, 5e-324)}, "domain"),
    ({"domain": (-1e308, 1e308)}, "domain"),
    ({"pe_qubits": 41}, "pe_qubits"),
    # a power of h that the kernel or c divides by is 0, subnormal or overflows
    ({"derivative_order": 2, "smoothing_length": 1e-110}, "smoothing_length"),
    ({"derivative_order": 1, "smoothing_length": 1e-110}, "smoothing_length"),
    ({"kernel": "wendland", "derivative_order": 1, "smoothing_length": 1e-160},
     "smoothing_length"),
    ({"smoothing_length": 1e-310}, "smoothing_length"),
    ({"derivative_order": 2, "smoothing_length": 1e103}, "smoothing_length"),
    # the default h = 2 dx of this domain is subnormal
    ({"qubits": 2, "domain": (0.0, 1e-320)}, "domain"),
    # ghosts that push the layout past twice the largest register, 2^17
    ({"smoothing_length": 1e6}, "smoothing_length"),
    ({"smoothing_length": 1e20}, "smoothing_length"),
    ({"boundary_particles": 10 ** 10}, "boundary_particles"),
    ({"qubits": 16, "boundary_particles": 2 ** 15 + 1}, "boundary_particles"),
    ({"qubits": 16, "smoothing_length": 0.125}, "smoothing_length"),
    ({"eval_points": 2 ** 53 + 1}, "eval_points"),
    ({"domain": (1.0, 0.0)}, "domain"),
    ({"domain": (1.0, 1.0)}, "domain"),
    ({"domain": (0.0, float("inf"))}, "domain"),
    ({"domain": (float("nan"), 1.0)}, "domain"),
    # the derived h = 8.5e307 spans an infinite number of particle spacings
    ({"qubits": 2, "domain": (1e300, 1.7e308)}, "domain"),
    # two keys, or two characters, are no endpoints
    ({"domain": {0.0: 1, 1.0: 2}}, "domain"),
    ({"domain": "01"}, "domain"),
    ({"domain": b"01"}, "domain"),
    ({"domain": bytearray(b"01")}, "domain"),
    # dx = 1 ulp of 1.0: the four centres round together
    ({"qubits": 2, "domain": (1.0, 1.0 + 2.0 ** -50)}, "domain"),
    # dx below 1 ulp of 1.0: the 2^16 centres collapse onto a few doubles
    ({"qubits": 16, "domain": (1.0, 1.0 + 1e-14)}, "domain"),
])
def test_config_rejections_name_the_field(kwargs, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("h, count", [(1e300, "about 6.4e+301"), (1e20, "about 6.4e+21"),
                                      (1e6, "64000001")])
def test_a_derived_ghost_count_past_2_53_is_named_to_three_digits(h, count):
    # its full digits, 302 of them at h = 1e300, are those of a rounded double
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(qubits=4, smoothing_length=h)
    message = str(info.value)
    assert message.startswith(f"smoothing_length: 2^4 particles and {count} ghosts per end")
    assert len(message) < 130


@pytest.mark.parametrize("kwargs, field", [
    ({"domain": (1e308, 1.7e308)}, "domain"),
    ({"domain": (-1.7e308, -1e308)}, "domain"),
    ({"domain": (1e308, 1.7e308), "boundary_particles": 10}, "boundary_particles"),
])
def test_ghosts_past_the_largest_double_are_named_as_overflow(kwargs, field):
    # dx = 4.4e306: 17 derived or 10 given ghosts per end overflow, 1 does not
    with pytest.raises(ConfigError, match=f"^{field}: .* overflow past the largest double"):
        ExperimentConfig(qubits=4, **kwargs)
    assert ExperimentConfig(qubits=4, **{**kwargs, "boundary_particles": 1}).ghosts_per_end == 1


def test_layout_may_fill_twice_the_largest_register():
    # 2^16 particles and 2^15 ghosts per end: exactly 2^17 slots
    assert ExperimentConfig(qubits=16, boundary_particles=2 ** 15).ghosts_per_end == 2 ** 15


def _assert_finite_and_increasing(config):
    p = uniform_positions(config.domain, config.num_particles, config.ghosts_per_end)
    assert np.isfinite(p).all()
    assert (p[1:] > p[:-1]).all()


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-1e300, 1e300), ulps_per_cell=st.floats(0.25, 64.0),
       m=st.integers(2, 16), kernel=st.sampled_from(list(KernelFamily)))
def test_accepted_domains_keep_the_particles_distinct(a, ulps_per_cell, m, kernel):
    # cells a few ulps of a wide, where rounding can merge neighbours; the
    # config is the one check of the layout, so what it accepts must be sound
    b = a + ulps_per_cell * 2 ** m * math.ulp(a)
    try:
        config = ExperimentConfig(kernel=kernel, qubits=m, domain=(a, b))
    except ConfigError as exc:
        assert str(exc).startswith("domain:")
        return
    _assert_finite_and_increasing(config)


@pytest.mark.parametrize("kernel", list(KernelFamily))
def test_cells_of_32_ulps_are_accepted(kernel):
    for m in range(2, 17):
        config = ExperimentConfig(kernel=kernel, qubits=m,
                                  domain=(1.0, 1.0 + 2 ** m * 32 * math.ulp(1.0)))
        _assert_finite_and_increasing(config)


def test_sweep_rejects_an_unrepresentable_grid_before_running(monkeypatch):
    # [1, 1 + 1e-12] has distinct particles up to m = 9 or so; m = 16 has none
    def must_not_run(config):
        raise AssertionError(f"ran m = {config.qubits}")
    monkeypatch.setattr(harness, "particles", must_not_run)
    base = ExperimentConfig(domain=(1.0, 1.000000000001))
    with pytest.raises(ConfigError, match="domain: .* too short for 2"):
        run_convergence_sweep(replace(base, qubits=4), m_max=16)


def test_curve_derives_abs_error_and_freezes_its_columns():
    x = np.array([0.0, 0.5])
    curve = Curve(x, [1.0, 1.0], [0.75, math.nan])
    assert len(curve) == 2
    assert curve.abs_error[0] == 0.25 and math.isnan(curve.abs_error[1])
    for col in (curve.x, curve.f_exact, curve.f_approx, curve.abs_error):
        assert col.dtype == np.float64 and not col.flags.writeable
    # the caller's array is copied, not frozen
    assert curve.x is not x and x.flags.writeable
    x[0] = 7.0
    assert curve.x[0] == 0.0
    with pytest.raises(ValueError, match="f_approx"):
        Curve([0.0, 0.5], [1.0, 1.0], [0.75])


def test_rms_error_hand_value():
    curve = Curve([0.0, 1.0], [3.0, 4.0], [0.0, 0.0])
    assert rms_error(curve) == math.sqrt(12.5)


def test_rms_error_is_inf_where_the_sum_of_finite_squares_overflows():
    # each square, 1.69e308, is finite; their sum is not, and fsum raises
    curve = Curve([0.0, 1.0], [1.3e154, 1.3e154], [0.0, 0.0])
    assert math.isfinite(float(curve.abs_error[0] ** 2))
    assert rms_error(curve) == math.inf


def test_rms_error_rejects_empty_input():
    with pytest.raises(ValueError):
        rms_error(Curve([], [], []))


@settings(deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30))
def test_rms_error_matches_quadratic_mean(errors):
    curve = Curve(np.arange(len(errors)), errors, np.zeros(len(errors)))
    expected = float(np.sqrt(np.mean(np.asarray(errors) ** 2)))
    assert rms_error(curve) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_rms_error_squares_by_product_bit_for_bit():
    """The RMS squares each error as v * v, which IEEE arithmetic rounds
    correctly on every host, not with Python ** (libm pow(v, 2)), which need
    not be correctly rounded."""
    drawn = np.random.default_rng(0).uniform(0.0, 1.0, 200_000).tolist()
    # the values whose pow(v, 2) on this host is not the rounded exact square
    by_pow = [v for v in drawn if v ** 2 != v * v]
    e = by_pow or drawn[:2000]

    def rms(values, square):
        return math.sqrt(math.fsum(square(v) for v in values) / len(values))

    def exact_square(v):
        return float(Fraction(v) ** 2)

    pairs = [e[k:k + 2] for k in range(0, len(e) - 1, 2)]
    for values in pairs + [e]:
        curve = Curve(np.zeros(len(values)), values, np.zeros(len(values)))
        assert rms_error(curve) == rms(values, exact_square)
    # where this host's pow rounds otherwise, the check has teeth: squaring
    # with pow would change some results
    if by_pow:
        assert any(rms(p, lambda v: v ** 2) != rms(p, exact_square) for p in pairs)


def test_exact_run_matches_direct_summation_bitwise():
    """The exact/exact path must be the direct kernel sum, not merely close."""
    cfg = ExperimentConfig(kernel="wendland", qubits=6, eval_points=9,
                           boundary_particles=4)
    rows = run_experiment(cfg)
    positions, coeff = particles(cfg)
    spec = KernelSpec(cfg.kernel, 0, cfg.h)
    assert len(rows) == 9
    for x, f_exact, f_approx, abs_error in zip(*_columns(rows)):
        assert f_exact == target_function(x)
        assert f_approx == kernel_sums(positions, coeff, spec, np.array([x]))[0]
        assert abs_error == abs(f_exact - f_approx)


def test_zero_boundary_values_zero_the_ghost_coefficients_only():
    for kernel in KernelFamily:
        cfg = ExperimentConfig(kernel=kernel, qubits=5, boundary_values="zero")
        nb = cfg.ghosts_per_end
        positions, coeff = particles(cfg)
        assert positions.size == coeff.size == cfg.num_particles + 2 * nb
        assert coeff[:nb].tolist() == coeff[coeff.size - nb:].tolist() == [0.0] * nb
        interior = slice(nb, coeff.size - nb)
        assert coeff[interior].tolist() == (target_function(positions[interior])
                                            * cfg.dx).tolist()


def test_exact_run_hits_frozen_oracle_values():
    # the oracle values were frozen with 4 ghosts per end
    rows = run_experiment(ExperimentConfig(qubits=8, eval_points=9, boundary_particles=4))
    assert rows.x[4] == 0.0
    assert rows.f_approx[4] == pytest.approx(ORACLE_M8_GAUSSIAN_X0, rel=1e-13)
    assert rows.x[5] == 0.25
    assert rows.f_approx[5] == pytest.approx(ORACLE_M8_GAUSSIAN_X025, rel=1e-13)
    wrows = run_experiment(ExperimentConfig(kernel="wendland", qubits=8, eval_points=9,
                                            boundary_particles=4))
    assert wrows.f_approx[5] == pytest.approx(ORACLE_M8_WENDLAND_X025, rel=1e-13)


def test_integral_norm_is_a_pure_rescaling():
    """Approximating ||a|| multiplies every reconstructed value by one ratio."""
    base = ExperimentConfig(qubits=5, eval_points=11, boundary_particles=2)
    exact_rows = run_experiment(base)
    integral_rows = run_experiment(
        ExperimentConfig(qubits=5, eval_points=11, boundary_particles=2,
                         norm_mode="integral"))
    _, coeff = particles(base)
    exact_norm = float(np.linalg.norm(coeff))
    from qsph.sph_encoding import integral_norm_estimate
    ratio = integral_norm_estimate(base.domain, target_function,
                                   base.num_particles) / exact_norm
    for er, ir in zip(exact_rows.f_approx.tolist(), integral_rows.f_approx.tolist()):
        assert ir == pytest.approx(er * ratio, rel=1e-12)


def test_all_finite_flags_nan_rows():
    assert all_finite(Curve([0.0], [1.0], [0.5]))
    assert not all_finite(Curve([0.0, 0.1], [1.0, 1.0], [0.5, math.nan]))
    assert not all_finite(Curve([0.0, 0.1], [1.0, math.inf], [0.5, 0.5]))


def test_sampled_run_is_deterministic_per_seed():
    cfg = ExperimentConfig(qubits=5, eval_points=7, estimator="sampled",
                           shots=400, seed=3)
    first = _columns(run_experiment(cfg))
    assert first == _columns(run_experiment(cfg))
    other_seed = _columns(run_experiment(
        ExperimentConfig(qubits=5, eval_points=7, estimator="sampled",
                         shots=400, seed=4)))
    assert first != other_seed


def test_sweep_rms_strictly_decreases_for_smooth_target():
    base = ExperimentConfig(eval_points=33)
    entries = run_convergence_sweep(replace(base, qubits=4), m_max=8)
    assert [m for m, _ in entries] == [4, 5, 6, 7, 8]
    rms = [r for _, r in entries]
    assert all(b < a for a, b in zip(rms, rms[1:]))


def test_gaussian_sweep_falls_3x_per_qubit_with_derived_ghosts():
    """With the support-derived ghost count the Gaussian error keeps falling
    exponentially in the qubit count up to m = 16, for orders 0 to 2."""
    for order in (0, 1, 2):
        rms = [r for _, r in run_convergence_sweep(
            replace(ExperimentConfig(derivative_order=order), qubits=8), m_max=16)]
        assert (rms[0] / rms[-1]) ** (1.0 / (len(rms) - 1)) >= 3.0, (order, rms)


def _target_derivative(x: np.ndarray, n: int) -> np.ndarray:
    """f^(n)(x) in closed form: f = Re[1 / (1 + 5ix)], so
    f^(n) = Re[n! (-5i)^n / (1 + 5ix)^(n+1)]."""
    return (math.factorial(n) * (-5j) ** n / (1.0 + 5j * x) ** (n + 1)).real


def _rms(values: np.ndarray) -> float:
    return math.sqrt(np.mean(values * values))


def test_gaussian_error_follows_the_kernel_moment_law():
    """The signed error of an exact run is the kernel's moment expansion,
    (h^2/4) f^(p+2) + (h^4/32) f^(p+4) at derivative order p; the grid
    (aliasing) term exp(-pi^2 h^2 / dx^2) is about 7e-18 at h = 2 dx. From
    m = 16 at order 2 the float floor shows (RMS / law = 1.0018)."""
    for order in (0, 1, 2):
        for m in range(8, 16):
            config = ExperimentConfig(derivative_order=order, qubits=m)
            curve = run_experiment(config)
            h, x = config.h, curve.x
            law = (h ** 2 / 4 * _target_derivative(x, order + 2)
                   + h ** 4 / 32 * _target_derivative(x, order + 4))
            ratio = _rms(curve.f_approx - curve.f_exact) / _rms(law)
            assert ratio == pytest.approx(1.0, abs=1e-3), (order, m, ratio)


def test_wendland_error_follows_the_moment_law_and_the_cusp_image():
    """The Wendland error adds to its moment terms (h^2/7) f^(p+2) +
    (h^4/105) f^(p+4) the grid term -(15/16) (dx/h)^4 d^p/dx^p [B4(s) f] of
    the |r|^3 cusp at r = 0, with B4 the Bernoulli polynomial and s the grid
    phase of x. At a fixed h/dx that term does not shrink with dx, so the
    error stalls. What the law leaves falls as dx, 3e-3 of the error at
    m = 10."""
    # B4(s) = s^4 - 2 s^3 + s^2 - 1/30 and its first two derivatives in s
    b4 = (lambda s: s ** 4 - 2 * s ** 3 + s ** 2 - 1 / 30,
          lambda s: 4 * s ** 3 - 6 * s ** 2 + 2 * s,
          lambda s: 12 * s ** 2 - 12 * s + 2)
    for h_per_dx in (2, 8):
        for order in (0, 1, 2):
            for m in range(10, 17):
                a, b = ExperimentConfig().domain
                dx = (b - a) / 2 ** m
                config = ExperimentConfig(kernel="wendland", derivative_order=order,
                                          qubits=m, smoothing_length=h_per_dx * dx)
                curve = run_experiment(config)
                h, x = config.h, curve.x
                s = np.mod((x - a - dx / 2) / dx, 1.0)
                # d^p/dx^p [B4(s(x)) f(x)] by Leibniz, with ds/dx = 1/dx
                image = sum(math.comb(order, j) * b4[j](s) / dx ** j
                            * _target_derivative(x, order - j) for j in range(order + 1))
                law = (h ** 2 / 7 * _target_derivative(x, order + 2)
                       + h ** 4 / 105 * _target_derivative(x, order + 4)
                       - 15 / 16 * (dx / h) ** 4 * image)
                err = curve.f_approx - curve.f_exact
                assert _rms(err - law) < 1e-2 * _rms(err), (h_per_dx, order, m)


@pytest.mark.parametrize("kernel", list(KernelFamily))
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("estimator", harness.ESTIMATORS)
def test_sweep_equals_the_rms_of_each_run_bit_for_bit(kernel, order, estimator):
    """The sweep's own per-m loop gives what rms_error(run_experiment) gives."""
    ms = range(2, 9)
    for norm_mode in harness.NORM_MODES:
        for boundary in ("analytic", "zero"):
            base = ExperimentConfig(kernel=kernel, derivative_order=order, eval_points=33,
                                    norm_mode=norm_mode, estimator=estimator,
                                    boundary_values=boundary, shots=1000, seed=5)
            want = [(m, rms_error(run_experiment(replace(base, qubits=m)))) for m in ms]
            assert run_convergence_sweep(replace(base, qubits=2), m_max=8) == want


def test_exact_readout_with_the_exact_norm_never_computes_the_norm(monkeypatch):
    """||a|| / ||a|| = 1, so the run, the sweep and the decomposition skip
    coefficient_norm; the all-zero check still runs
    (test_all_zero_target_exits_3)."""
    def must_not_run(coeff):
        raise AssertionError("coefficient_norm called")
    monkeypatch.setattr(harness, "coefficient_norm", must_not_run)
    for kernel in KernelFamily:
        base = ExperimentConfig(kernel=kernel, qubits=6, eval_points=9)
        run_experiment(base)
        run_convergence_sweep(replace(base, qubits=4), m_max=5)
        decompose_error(base)
    with pytest.raises(AssertionError, match="coefficient_norm called"):
        run_experiment(replace(base, norm_mode="integral"))


def test_runs_and_sweeps_evaluate_kernels_where_the_benchmark_tracer_wraps_them(monkeypatch):
    """bench/tracing.py counts kernel values by wrapping ``evaluate`` in
    qsph.sph_encoding and tags each call with the family of its first
    argument, a KernelSpec."""

    calls = []
    evaluate = sph_encoding.evaluate

    def traced(*args, **kwargs):
        calls.append(args[0] if args else kwargs["spec"])
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(sph_encoding, "evaluate", traced)
    for kernel in KernelFamily:
        base = ExperimentConfig(kernel=kernel, qubits=5, eval_points=9)
        for run in (lambda: run_experiment(base),
                    lambda: run_convergence_sweep(replace(base, qubits=4), m_max=5)):
            calls.clear()
            run()
            assert calls and all(type(spec) is KernelSpec and spec.family is kernel
                                 for spec in calls)


def test_the_benchmark_tracer_counts_a_run_and_puts_every_function_back(monkeypatch, tmp_path):
    """What ``bench/run.py --trace 1`` does, on one small run: install the
    tracer, which imports the names it wraps, run ``cli.main`` inside a span,
    uninstall."""
    from qsph import cli
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    evaluate = sph_encoding.evaluate
    tracer = Tracer()
    tracer.install()
    try:
        argv = ["run", "--qubits", "4", "--points", "5", "--out", str(tmp_path / "o.csv")]
        assert tracer.call("cli.main", cli.main, (argv,)) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["kernels.evaluate.values"] > 0
    assert metrics["harness.query_points"] == 5
    assert sph_encoding.evaluate is evaluate


def test_sweep_rejects_bad_m_sequences():
    with pytest.raises(ConfigError, match=r"^m_max: must be in \[5, 16\], got 4$"):
        run_convergence_sweep(replace(ExperimentConfig(eval_points=5), qubits=5), m_max=4)


def test_sweep_checks_every_m_before_running_any(monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "particles", runs.append)
    with pytest.raises(ConfigError, match="^m_max: "):
        run_convergence_sweep(ExperimentConfig(eval_points=5), m_max=17)
    assert runs == []


def test_sweep_keeps_an_explicit_smoothing_length_fixed():
    default_h = run_convergence_sweep(replace(ExperimentConfig(eval_points=9), qubits=4),
                                      m_max=5)
    pinned_h = run_convergence_sweep(
        replace(ExperimentConfig(eval_points=9, smoothing_length=0.5), qubits=4), m_max=5)
    assert all(abs(a[1] - b[1]) > 1e-6 for a, b in zip(default_h, pinned_h))


def test_curve_csv_round_trip_is_exact(tmp_path):
    rows = run_experiment(ExperimentConfig(qubits=4, eval_points=5))
    path = tmp_path / "curve.csv"
    with open(path, "w", newline="") as fh:
        write_rows(fh, rows)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    # 17 significant digits: float() of each field gives back the double
    parsed = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [list(col) for col in zip(*parsed)] == _columns(rows)


def _csv_module_writer(stream, curve) -> None:
    """Reference curve writer: csv.writer, one format(v, ".17g") per value."""
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for row in zip(*_columns(curve)):
        w.writerow([format(v, ".17g") for v in row])


def _assert_same_bytes_as_the_csv_module(curve) -> None:
    ours, theirs = io.StringIO(), io.StringIO()
    write_rows(ours, curve)
    _csv_module_writer(theirs, curve)
    assert ours.getvalue() == theirs.getvalue()


def test_write_rows_matches_the_csv_module_on_special_values():
    special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
               math.nan, math.inf, -math.inf, 0.1, -1.0 / 3.0, 1e16, 123456789.0]
    _assert_same_bytes_as_the_csv_module(Curve(special, special[::-1], special[3:] + special[:3]))
    _assert_same_bytes_as_the_csv_module(Curve([], [], []))


@settings(deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=40))
def test_write_rows_matches_the_csv_module(rows):
    x, f_exact, f_approx = (list(col) for col in zip(*rows)) if rows else ([], [], [])
    _assert_same_bytes_as_the_csv_module(Curve(x, f_exact, f_approx))


def _doubles(bit_patterns) -> list[float]:
    return np.array(bit_patterns, dtype=np.uint64).view(np.float64).tolist()


@settings(deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 2 ** 64 - 1)] * 3), max_size=300))
def test_write_rows_matches_the_csv_module_on_raw_bit_patterns(rows):
    columns = [_doubles(col) for col in zip(*rows)] if rows else [[], [], []]
    _assert_same_bytes_as_the_csv_module(Curve(*columns))


def test_write_rows_matches_the_csv_module_across_formatting_blocks():
    bits = np.random.default_rng(0).integers(0, 2 ** 64, (2 * _g17._BLOCK_ROWS + 3, 3),
                                             dtype=np.uint64)
    _assert_same_bytes_as_the_csv_module(Curve(*bits.view(np.float64).T))


def _neighbours(value: float, count: int = 64) -> list[float]:
    below = above = value
    out = [value]
    for _ in range(count):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _assert_same_bytes_for_each_sign(values) -> None:
    values = list(values) + [-v for v in values]
    _assert_same_bytes_as_the_csv_module(Curve(values, values[::-1], values[1:] + values[:1]))


def test_write_rows_matches_the_csv_module_where_g_switches_notation():
    # %.17g writes 1e-5 and 1e17 in exponent notation, 1e-4 and 1e16 in fixed;
    # at each decade threshold the exponent written moves up by one
    thresholds = _g17._tables().threshold[::23].tolist()
    _assert_same_bytes_for_each_sign(
        v for bound in (1e-5, 1e-4, 1e16, 1e17, *thresholds) for v in _neighbours(bound))


def test_decade_thresholds_are_the_first_doubles_written_with_their_exponent():
    threshold = _g17._tables().threshold
    for k in range(-250, 251):
        t = threshold[k - _g17._K_MIN]
        assert int(("%.16e" % t).split("e")[1]) == k
        assert int(("%.16e" % math.nextafter(t, 0.0)).split("e")[1]) == k - 1


@settings(deadline=None)
@given(st.lists(st.integers(1, 2 ** 52 - 1), min_size=1, max_size=300))
def test_write_rows_matches_the_csv_module_on_subnormals(mantissas):
    _assert_same_bytes_for_each_sign(_doubles(mantissas))


def test_write_rows_matches_the_csv_module_on_rounding_ties():
    # 2**-25 = 2.98023223876953125e-08 is halfway between two 17-digit values
    assert format(2.0 ** -25, ".18g") == "2.98023223876953125e-08"
    odd_multiples = [j * 2.0 ** -25 for j in range(1, 400, 2)]
    # every odd * 2**-e whose exact decimal has 18 digits is a tie at 17 digits
    ties = []
    for e in range(1, 26):
        smallest, largest = -(-10 ** 17 // 5 ** e) | 1, (10 ** 18 - 1) // 5 ** e
        for odd in (smallest, largest - 1 + largest % 2):
            assert len(str(odd * 5 ** e)) == 18  # the digits of odd * 2**-e
            ties.append(odd * 2.0 ** -e)
    _assert_same_bytes_for_each_sign(odd_multiples + ties + [math.nextafter(v, 1.0)
                                                             for v in ties])


def _carries_into_the_next_decade() -> list[float]:
    """Doubles below a power of ten whose 17-digit rounding is that power."""
    found = []
    for q in range(-323, 309):
        nearest = float(f"1e{q}")
        for v in (math.nextafter(nearest, 0.0), nearest):
            num, den = v.as_integer_ratio()
            below = num < den * 10 ** q if q >= 0 else num * 10 ** -q < den
            if v > 0.0 and below and format(v, ".16e").startswith("1.0000000000000000e"):
                found.append(v)
    return found


def test_write_rows_matches_the_csv_module_where_the_rounding_carries():
    carries = _carries_into_the_next_decade()
    assert len(carries) >= 10  # 1e-14 and 1e+98 among them
    _assert_same_bytes_for_each_sign(carries)


@pytest.mark.parametrize("column", range(3))
def test_write_rows_matches_the_csv_module_with_special_values_in_a_column(column):
    specials = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf]
    columns = [[0.5] * len(specials) for _ in range(3)]
    columns[column] = specials
    _assert_same_bytes_as_the_csv_module(Curve(*columns))


def test_sweep_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    with open(path, "w", newline="") as fh:
        write_sweep(fh, [(4, 0.125), (5, 0.0625)], KernelFamily.GAUSSIAN, 0)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,kernel,order,rms"
    assert lines[1] == "4,gaussian,0,0.125"
    assert lines[2] == "5,gaussian,0,0.0625"


def test_decompose_error_exact_configuration_is_pure_discretisation():
    cfg = ExperimentConfig(qubits=5, eval_points=9)
    d = decompose_error(cfg)
    assert np.all(d.norm_approximation == 0.0)
    assert np.all(d.shot_noise == 0.0)
    assert np.all(d.quantization == 0.0)
    assert np.any(d.discretisation != 0.0)
    np.testing.assert_array_equal(d.total, d.discretisation)
    rms = d.component_rms()
    assert set(rms) == {"discretisation", "norm_approximation", "shot_noise",
                        "quantization", "total"}
    assert rms["total"] == rms["discretisation"]
    # the same squares and sum as rms_error, bit for bit, on every default
    # config of both kernels, orders 0-2 and m = 4..14
    for kernel in KernelFamily:
        for order in (0, 1, 2):
            for m in range(4, 15):
                c = ExperimentConfig(kernel=kernel, derivative_order=order, qubits=m)
                assert (decompose_error(c).component_rms()["discretisation"]
                        == rms_error(run_experiment(c)))


def test_component_rms_of_overflowing_squares_is_inf():
    # errors near 1e180 at h = 1e-60: their squares overflow, as in rms_error
    c = ExperimentConfig(derivative_order=2, qubits=2, eval_points=9,
                         boundary_particles=1, smoothing_length=1e-60)
    rms = decompose_error(c).component_rms()
    assert rms["discretisation"] == rms["total"] == rms_error(run_experiment(c)) == math.inf


def test_decompose_error_telescopes_to_the_configured_run():
    cfg = ExperimentConfig(qubits=5, eval_points=9, estimator="sampled",
                           shots=100, seed=11, norm_mode="integral")
    d = decompose_error(cfg)
    assert np.any(d.norm_approximation != 0.0)
    assert np.any(d.shot_noise != 0.0)
    assert np.all(d.quantization == 0.0)
    rows = run_experiment(cfg)
    final = rows.f_approx
    truth = target_function(d.x, cfg.derivative_order)
    assert truth.tolist() == rows.f_exact.tolist()
    np.testing.assert_allclose(truth + d.total, final, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("estimator, norm_mode", [
    ("sampled", "integral"), ("phase", "exact"), ("phase", "integral"), ("exact", "integral"),
])
def test_decompose_error_equals_separate_runs_bit_for_bit(estimator, norm_mode):
    """Each component is the difference of two separate runs' values."""
    cfg = ExperimentConfig(kernel="wendland", derivative_order=1, qubits=6, eval_points=17,
                           estimator=estimator, norm_mode=norm_mode, shots=300, seed=5,
                           pe_qubits=5)
    d = decompose_error(cfg)
    truth = run_experiment(cfg).f_exact
    base = run_experiment(replace(cfg, estimator="exact", norm_mode="exact")).f_approx
    norm_vals = run_experiment(replace(cfg, estimator="exact")).f_approx
    final = run_experiment(cfg).f_approx
    assert d.discretisation.tolist() == (base - truth).tolist()
    assert d.norm_approximation.tolist() == (norm_vals - base).tolist()
    stage = d.shot_noise if estimator == "sampled" else d.quantization
    assert stage.tolist() == (final - norm_vals).tolist()


def test_phase_readout_keeps_its_bound_at_the_pe_qubits_cap():
    """|phase - exact| <= c N ||a|| 2 sin(pi / 2^(n+1)) up to 1e-3 of the
    bound at the largest accepted n, over both kernels and norms, orders
    0-2 and m = 4..16; the rounding of theta grows relative to it as 2^n."""
    n = harness._INTEGER_RANGES["pe_qubits"][1]
    worst = 0.0
    for kernel in KernelFamily:
        for order in (0, 1, 2):
            for m in range(4, 17):
                for norm_mode in harness.NORM_MODES:
                    cfg = ExperimentConfig(kernel=kernel, derivative_order=order, qubits=m,
                                           norm_mode=norm_mode, estimator="phase",
                                           pe_qubits=n)
                    exact = run_experiment(replace(cfg, estimator="exact")).f_approx
                    phase = run_experiment(cfg).f_approx
                    coeff = harness.particles(cfg)[1]
                    norm_a = coefficient_norm(coeff)
                    if norm_mode == "integral":
                        norm_a = integral_norm_estimate(cfg.domain, target_function,
                                                        cfg.num_particles)
                    cn = scaling_constant(cfg.kernel_spec) * register_length(coeff.size)
                    bound = cn * norm_a * 2.0 * math.sin(math.pi / 2 ** (n + 1))
                    worst = max(worst, float(np.max(np.abs(phase - exact))) / bound)
    assert worst <= 1.0 + 1e-3


def test_decompose_error_routes_phase_quantization_separately():
    cfg = ExperimentConfig(qubits=4, eval_points=5, estimator="phase", pe_qubits=4)
    d = decompose_error(cfg)
    assert np.all(d.shot_noise == 0.0)
    assert np.any(d.quantization != 0.0)


def test_error_decomposition_validates_shapes_and_freezes_arrays():
    xs = np.linspace(0.0, 1.0, 4)
    zeros = np.zeros(4)
    d = ErrorDecomposition(xs, zeros, zeros, zeros, zeros)
    assert not d.x.flags.writeable
    assert xs.flags.writeable and zeros.flags.writeable
    with pytest.raises(ValueError):
        d.discretisation[0] = 1.0
    with pytest.raises(ValueError):
        ErrorDecomposition(xs, np.zeros(3), zeros, zeros, zeros)
