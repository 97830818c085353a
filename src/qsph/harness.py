"""End-to-end experiment harness for the register-encoded SPH pipeline.

Approximates the scaled Witch-of-Agnesi bell f(x) = 1/(1 + 25 x^2) (or its
first or second derivative) over a 1-D domain: discretise into 2^m
subintervals with ghost particles at each end, sample f at the particles,
read the overlap Re <a|W> off the direct sums, reconstruct, and compare
against the analytic value at a set of query points. Emits per-point CSV
curves and RMS convergence sweeps over the register size m. A run's result
is columnar: one ``Curve`` of float arrays, written as CSV by array
passes over blocks of rows.

Derivatives come from swapping in the derivative kernel; the particle
samples are always plain function values. The smoothing length follows
h = 2 dx, with dx = (b - a) / 2^m, unless set explicitly (4 / 2^m on the
default domain [-1, 1]), and the ghost count per end is
ceil(support_radius / dx) + 1 unless set explicitly.
"""
from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._g17 import csv_lines
from .kernels import (
    DERIVATIVE_ORDERS,
    KernelFamily,
    KernelSpec,
    divides_by_normal_powers,
    scaling_constant,
)
from .sph_encoding import (
    coefficient_norm,
    coefficient_peak,
    integral_norm_estimate,
    kernel_sums,
    register_length,
)

CSV_HEADER = ("x", "f_exact", "f_approx", "abs_error")
SWEEP_HEADER = ("m", "kernel", "order", "rms")

NORM_MODES = ("exact", "integral")
ESTIMATORS = ("exact", "sampled", "phase")
BOUNDARY_MODES = ("analytic", "zero")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


class ReadoutScaleError(ValueError):
    """The readout scale c N ||a|| of a sampled or phase run is not a
    positive normal double, so rho = S / (c N ||a||) cannot be formed."""


# far out, x^2 and den overflow to inf and 1 / den falls to 0
@np.errstate(over="ignore")
def target_function(x, order: int = 0):
    """f(x) = 1/(1 + 25 x^2) and its first two derivatives.

    order 0: 1 / (1 + 25 x^2)
    order 1: -50 x / (1 + 25 x^2)^2
    order 2: 50 (75 x^2 - 1) / (1 + 25 x^2)^3

    Scalar in, float out; ndarray in, ndarray out.
    """
    if order not in DERIVATIVE_ORDERS:
        raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
    xa = np.asarray(x, dtype=float)
    if order:
        # both derivatives are below the smallest subnormal, a signed 0, past
        # |x| = 1e150 already; clamping there keeps 75 x^2 and den finite
        xa = np.clip(xa, -1e150, 1e150)
    # products, not pow: array and scalar pow round differently in the last
    # bit. den is built in place in one new array: on the run path x is every
    # particle, and a temporary of that size costs more than the arithmetic
    den = np.multiply(xa, xa, out=np.empty(xa.shape))
    if order == 2:
        num = 50.0 * (75.0 * den - 1.0)  # den holds x^2 until the next line
    den *= 25.0
    den += 1.0
    # the derivatives divide by den once per power: a power of den would
    # overflow, and the quotient fall to 0, where the true value is normal
    if order == 0:
        out = np.divide(1.0, den, out=den)
    elif order == 1:
        out = -50.0 * xa / den / den
    else:
        out = num / den / den / den
    return float(out) if np.isscalar(x) else out


# inclusive range of each integer field of ExperimentConfig
_INTEGER_RANGES = {
    "derivative_order": (DERIVATIVE_ORDERS[0], DERIVATIVE_ORDERS[-1]),
    "qubits": (2, 16),
    # np.linspace counts the query points in doubles, exact only up to 2^53
    "eval_points": (2, 2 ** 53),
    "boundary_particles": (1, math.inf),
    "shots": (1, 2 ** 63 - 1),  # numpy's binomial takes an int64 count
    "seed": (0, 2 ** 128 - 1),  # the Philox key is 128 bits
    # the largest n at which rounding theta and the readout in doubles stays
    # under 1e-3 of the phase bound 2 sin(pi / 2^(n+1)); it grows as 2^n
    "pe_qubits": (1, 40),
}


# a sweep's defaults: the qubits it starts at (the CLI's --m-min) and m_max
SWEEP_M_RANGE = (4, 8)


def _integer(name: str, value, lo: int, hi: int | float) -> int:
    # an exact int skips the numbers.Integral check, a slow ABC lookup; bool
    # is a subclass of int, not an int, so it still fails below
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ConfigError(f"{name}: must be in [{lo}, {hi}], got {value}")
    return int(value)


def _finite_real(name: str, value, above: float = -math.inf) -> float:
    try:
        if not isinstance(value, bool) and above < value < math.inf:
            return float(value)
    except (TypeError, OverflowError):  # not a real number, or an int beyond the doubles
        pass
    bound = f" above {above}" if above > -math.inf else ""
    raise ConfigError(f"{name}: expected a finite number{bound}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; the one place that decides what a valid run is.

    A bad value raises ConfigError naming the field. kernel: a KernelFamily
    or its name. derivative_order: int in DERIVATIVE_ORDERS. qubits: int in
    [2, 16]; a run never builds the 2^m registers, but the dense states the
    tests check it against are O(2^m). domain: an (a, b) pair of finite
    reals, a < b, kept as a tuple of two floats. eval_points: int in
    [2, 2^53]. norm_mode, estimator, boundary_values: one of NORM_MODES,
    ESTIMATORS, BOUNDARY_MODES. shots: int in [1, 2^63 - 1]; seed: in
    [0, 2^128 - 1]; pe_qubits: in [1, 40], beyond which double rounding of
    the angle outgrows the phase readout's bound; only their estimator reads
    them. smoothing_length: finite float > 0, or None for the rule h = 2 dx,
    with dx = (b - a) / 2^qubits (that is 4 / 2^qubits on [-1, 1]).
    boundary_particles: int >= 1, or None for ceil(support_radius / dx) + 1
    per end (17 Gaussian, 5 Wendland at the default h, on any domain), so no
    query point's support leaves the particles; a sweep keeps either one if
    set. support_radius / dx must be finite and every power of h that the
    kernel or c divides by must be a normal double
    (``divides_by_normal_powers``); both errors name domain when h is the
    derived 2 dx. The particles and ghosts together must fit twice the
    largest register, 2^17, and dx must exceed the rounding of the particle
    coordinates (about 8 ulps of the farthest one, which must not overflow),
    so the positions are finite and strictly increasing; nothing after the
    config checks them again.

    The checks derive the layout, and the config keeps it as attributes
    that are not arguments and not part of its repr, == or hash:
    num_particles = 2^qubits, dx = (b - a) / num_particles, h,
    kernel_spec (the kernel at h) and ghosts_per_end.
    """

    kernel: KernelFamily = KernelFamily.GAUSSIAN
    derivative_order: int = 0
    qubits: int = 8
    domain: tuple[float, float] = (-1.0, 1.0)
    eval_points: int = 300
    boundary_particles: int | None = None
    smoothing_length: float | None = None
    norm_mode: str = "exact"
    estimator: str = "exact"
    shots: int = 10_000
    seed: int = 0
    pe_qubits: int = 8
    boundary_values: str = "analytic"
    # derived by __post_init__, which replace() reruns
    num_particles: int = field(init=False, repr=False, compare=False)
    dx: float = field(init=False, repr=False, compare=False)
    h: float = field(init=False, repr=False, compare=False)
    kernel_spec: KernelSpec = field(init=False, repr=False, compare=False)
    ghosts_per_end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        setfield = partial(object.__setattr__, self)
        try:
            setfield("kernel", KernelFamily(self.kernel))
        except ValueError:
            raise ConfigError(f"kernel: unknown family {self.kernel!r}") from None
        for name, (lo, hi) in _INTEGER_RANGES.items():
            value = getattr(self, name)
            if value is not None or name != "boundary_particles":
                setfield(name, _integer(name, value, lo, hi))
        try:
            # a string's characters or a mapping's keys would unpack as well
            if isinstance(self.domain, (str, bytes, bytearray, Mapping)):
                raise TypeError
            a, b = self.domain
        except (TypeError, ValueError):
            raise ConfigError(f"domain: expected two endpoints, got {self.domain!r}") from None
        a, b = _finite_real("domain", a), _finite_real("domain", b)
        if not a < b:
            raise ConfigError(f"domain: requires a < b, got [{a!r}, {b!r}]")
        setfield("domain", (a, b))
        if self.smoothing_length is not None:
            setfield("smoothing_length",
                     _finite_real("smoothing_length", self.smoothing_length, 0.0))
        for name, allowed in (("norm_mode", NORM_MODES), ("estimator", ESTIMATORS),
                              ("boundary_values", BOUNDARY_MODES)):
            if getattr(self, name) not in allowed:
                raise ConfigError(
                    f"{name}: must be one of {allowed}, got {getattr(self, name)!r}")
        n = 2 ** self.qubits
        dx = (b - a) / n
        if not 0.0 < dx < math.inf:
            raise ConfigError(f"domain: [{a!r}, {b!r}] gives 2^{self.qubits} particles "
                              f"the spacing dx = {dx!r}")
        h = 2.0 * dx if self.smoothing_length is None else self.smoothing_length
        spec = KernelSpec(self.kernel, self.derivative_order, h)
        # a derived h is the domain's, so the domain is the field to change
        name = "smoothing_length" if self.smoothing_length is not None else "domain"
        if not math.isfinite(spec.support_radius / dx):
            raise ConfigError(f"{name}: h = {h!r} must span a finite number of "
                              f"particle spacings, got dx = {dx!r}")
        if not divides_by_normal_powers(spec):
            raise ConfigError(f"{name}: h = {h!r} does not suit the {self.kernel.value} "
                              f"kernel of order {self.derivative_order}: a power of h that it "
                              f"divides by is 0, subnormal or beyond the doubles")
        nb = self.boundary_particles
        if nb is None:
            nb = math.ceil(spec.support_radius / dx) + 1
        # twice the largest register: any more particles and the layout, not
        # the 2^m grid, sets the run's size (h = 1e6 on [-1, 1] asks for 2e9)
        top = 2 ** (_INTEGER_RANGES["qubits"][1] + 1)
        if n + 2 * nb > top:
            name = "smoothing_length" if self.boundary_particles is None else "boundary_particles"
            # past 2^53 the digits of a derived count are those of a rounded double
            count = nb if name == "boundary_particles" or nb < 2 ** 53 else f"about {nb:.3g}"
            raise ConfigError(f"{name}: 2^{self.qubits} particles and {count} ghosts per end "
                              f"fill more than {top} slots, twice the largest register")
        # uniform_positions computes each coordinate a + (j + 1/2) dx to within
        # (2^m + 2 ghosts) ulp(dx) / 2, from the rounded dx, plus a few
        # ulp(reach), from the length, product and sum. Neighbours are dx apart,
        # so a dx above twice that keeps every position increasing.
        reach = max(abs(a), abs(b)) + (nb + 1) * dx
        if reach == math.inf:
            name = "domain" if self.boundary_particles is None else "boundary_particles"
            raise ConfigError(f"{name}: {nb} ghosts per end overflow past the largest double")
        if not dx > (n + 2 * nb) * math.ulp(dx) + 8 * math.ulp(reach):
            raise ConfigError(f"domain: [{a!r}, {b!r}] is too short for 2^{self.qubits} "
                              f"distinct particle positions, dx = {dx!r}")
        for name, value in (("num_particles", n), ("dx", dx), ("h", h),
                            ("kernel_spec", spec), ("ghosts_per_end", nb)):
            setfield(name, value)


def _freeze_columns(obj, names) -> None:
    """Store each named field as a read-only 1-D float array of one length,
    a private copy, so the caller's array stays writeable."""
    n = len(getattr(obj, names[0]))
    for name in names:
        arr = np.array(getattr(obj, name), dtype=float)
        if arr.ndim != 1 or len(arr) != n:
            raise ValueError(f"{name}: expected a length-{n} 1-D array")
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


# non-finite values give nan or inf errors, as Python floats do, silently
@np.errstate(over="ignore", invalid="ignore")
def _abs_error(f_exact: np.ndarray, f_approx: np.ndarray) -> np.ndarray:
    """|f_exact - f_approx|, elementwise, in one new array."""
    err = np.subtract(f_exact, f_approx)
    return np.abs(err, out=err)


@dataclass(frozen=True, eq=False)
class Curve:
    """A run's result as columns: query points in ascending order, the exact
    value, the approximation and abs_error = |f_exact - f_approx| there.

    abs_error is computed from the other two, so it is never inconsistent.
    len() is the number of query points.
    """

    x: np.ndarray
    f_exact: np.ndarray
    f_approx: np.ndarray
    abs_error: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        _freeze_columns(self, ("x", "f_exact", "f_approx"))
        abs_error = _abs_error(self.f_exact, self.f_approx)
        abs_error.flags.writeable = False
        object.__setattr__(self, "abs_error", abs_error)

    def __len__(self) -> int:
        return len(self.x)


def shot_counts(p0: np.ndarray, shots: int, base_seed: int) -> np.ndarray:
    """Ancilla |0> counts per query point: one Binomial(shots, p0[j]) draw each.

    Every shot at point j is a Bernoulli trial with the same p0[j], so the
    count is exactly binomial. All points draw, in index order, from one
    Philox stream keyed by base_seed. A seed gives bit-identical counts under
    a given numpy version; numpy does not promise its binomial stream across
    versions.
    """
    return np.random.Generator(np.random.Philox(key=base_seed)).binomial(shots, p0)


def phase_index(rho: np.ndarray, pe_qubits: int) -> np.ndarray:
    """Grid index k of the quantized angle per point: an idealized
    phase-estimation readout with an angle register of n = pe_qubits qubits.

    theta in [0, pi/2] with sin^2 theta = (1 + rho) / 2 snaps to the nearest
    k pi / 2^n, k in {0, ..., 2^n - 1}, ties toward the smaller k, so the
    quantized angle is within pi / 2^{n+1} of theta. The overlap read out of
    it in doubles, 2 sin^2(k pi / 2^n) - 1, can exceed the matching bound
    2 sin(pi / 2^{n+1}) by rounding, up to 1e-3 of that bound at 40 angle
    qubits, the cap of ``ExperimentConfig.pe_qubits``. Phase estimation is a
    black box with exactly this accuracy: no circuit is simulated, and the
    success probability of a real phase-estimation run is not modelled.
    """
    theta = np.arctan2(np.sqrt(1.0 + rho), np.sqrt(1.0 - rho))
    grid = 2 ** pe_qubits
    return np.clip(np.ceil(theta * grid / np.pi - 0.5), 0, grid - 1)


def uniform_positions(domain: tuple[float, float], num_particles: int,
                      n_boundary_each_end: int = 0) -> np.ndarray:
    """Centres of a uniform partition of the domain (a, b) and its ghosts.

    With dx = (b - a) / num_particles, particle k (counting from -nb, the
    first ghost below a) sits at a + (k + 1/2) dx, and the j-th ghost above
    b at b + (j + 1/2) dx: the ghosts continue the spacing beyond each end,
    which mitigates kernel-support truncation near a or b. The (k + 1/2) dx
    offsets keep the layout of a dyadic domain bit-exactly mirror-symmetric,
    which the odd-kernel cancellation tests rely on; a ghost below a comes
    out as a + (-(j + 1/2) dx), which is a - (j + 1/2) dx exactly. The array
    is built in place, with no temporary of its size. For the domain,
    particle count and ghosts of a validated ``ExperimentConfig`` the
    positions are finite and strictly increasing (its distinctness bound
    reasons about this rounding), so nothing checks them again.
    """
    n, nb = num_particles, n_boundary_each_end
    a, b = domain
    dx = (b - a) / n
    positions = np.arange(-nb, n + nb, dtype=float)
    positions += 0.5
    positions *= dx
    positions += a
    positions[nb + n:] = b + (np.arange(nb) + 0.5) * dx
    return positions


def particles(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The configured layout: the particle positions r_k, ghosts included
    (``uniform_positions``), and the coefficients a_k = f(r_k) dx, with the
    ghosts' a_k set to 0 under boundary_values "zero".

    These are a run's only arrays of the particle count, and both are built
    in place. The sums and the dense registers both take them.
    """
    positions = uniform_positions(config.domain, config.num_particles,
                                  config.ghosts_per_end)
    coeff = target_function(positions)
    if config.boundary_values == "zero":
        nb = config.ghosts_per_end
        coeff[:nb] = 0.0
        coeff[coeff.size - nb:] = 0.0
    coeff *= config.dx
    return positions, coeff


def _approximate(config: ExperimentConfig, xs: np.ndarray) -> np.ndarray:
    """The configured approximation at each query point of xs: the direct
    sum S = sum_k a_k W_k over the layout of ``particles``, for all points
    in one ``kernel_sums`` pass, read out by config.estimator.

    rho = Re <a|W> = S / (c N ||a||), and norm_a is the ||a|| the readout
    multiplies back: the exact ``coefficient_norm`` of the a_k or, with
    norm_mode "integral", its quadrature estimate.

    * exact:   S norm_a / ||a||. With the exact norm the ratio is 1.0, so
               the output is S itself, and ||a|| is not computed; only its
               all-zero check runs.
    * sampled: c N norm_a (2 k / shots - 1), with k ~ Binomial(shots, p0)
               the counts of ``shot_counts`` at p0 = (1 + rho) / 2, drawn
               for all points from one Philox stream keyed by seed.
    * phase:   c N norm_a (2 sin^2(theta_k) - 1), with theta_k the
               quantized angle of ``phase_index``.
    """
    positions, coeff = particles(config)
    sums = kernel_sums(positions, coeff, config.kernel_spec, xs)
    estimator = config.estimator
    if estimator == "exact" and config.norm_mode == "exact":
        coefficient_peak(coeff)  # raises where ||a|| is 0, as coefficient_norm does
        return sums
    exact_norm = norm_a = coefficient_norm(coeff)
    if config.norm_mode == "integral":
        norm_a = integral_norm_estimate(config.domain, target_function,
                                        config.num_particles)
    if estimator == "exact":
        return sums * (norm_a / exact_norm)
    cn = scaling_constant(config.kernel_spec) * register_length(coeff.size)
    scale = cn * exact_norm
    if not sys.float_info.min <= scale < math.inf:
        raise ReadoutScaleError(f"the readout scale c N ||a|| = {scale!r} of the "
                                f"{estimator} estimator is not a positive normal double")
    rho = np.clip(sums / scale, -1.0, 1.0)
    if estimator == "sampled":
        counts = shot_counts((1.0 + rho) / 2.0, config.shots, config.seed)
        estimate = 2.0 * counts / config.shots - 1.0
    else:
        grid = 2 ** config.pe_qubits
        theta = phase_index(rho, config.pe_qubits) * np.pi / grid
        estimate = 2.0 * np.sin(theta) ** 2 - 1.0
    return cn * norm_a * np.clip(estimate, -1.0, 1.0)


def run_experiment(config: ExperimentConfig) -> Curve:
    """Approximate the target at every query point, as one ``Curve``.

    Every readout is a closed form (see ``_approximate``) in the direct sum
    S = sum_k a_k W_k at each point, computed for all points at once by
    ``kernel_sums``, and in rho = Re <a|W> = S / (c N ||a||). ``|a>`` does
    not depend on x, so its norm is computed once, and only for a readout
    that uses it. The exact values come from one array call of
    ``target_function``; no per-point object is built. The results equal
    what the dense registers of ``registers.encode`` and the swap-test state
    of ``swap_test`` give, up to rounding; the tests check that they do.
    Neither module is imported here.
    """
    xs = np.linspace(*config.domain, config.eval_points)
    return Curve(xs, target_function(xs, config.derivative_order), _approximate(config, xs))


def all_finite(curve: Curve) -> bool:
    """False if any exact or approximated value is NaN or infinite."""
    return bool(np.isfinite(curve.f_exact).all() and np.isfinite(curve.f_approx).all())


@np.errstate(over="ignore")  # a square beyond the doubles is inf
def _rms(values: np.ndarray) -> float:
    """sqrt(mean of squares) of a nonempty 1-D float array.

    Squares by the product v * v in one array pass, which IEEE arithmetic
    rounds the same on every host, and sums the squares exactly rounded with
    ``math.fsum``. A square or a sum of squares beyond the largest double
    makes the RMS inf, as a non-finite value does.
    """
    try:
        return math.sqrt(math.fsum((values * values).tolist()) / values.size)
    except OverflowError:  # fsum's partial sums overflowed
        return math.inf


def rms_error(curve: Curve) -> float:
    """sqrt(mean of squared errors) over the query points, each error
    squared as v * v and the squares summed exactly rounded (``_rms``)."""
    if not len(curve):
        raise ValueError("rms_error needs at least one point")
    return _rms(curve.abs_error)


def run_convergence_sweep(base: ExperimentConfig,
                          m_max: int = SWEEP_M_RANGE[1]) -> list[tuple[int, float]]:
    """RMS error per register size m = base.qubits..m_max: the config at its
    qubits, then each larger m up to m_max, re-deriving h for each m.

    m_max must be a valid qubits no smaller than base.qubits; a ConfigError
    names m_max if it is not. An explicit smoothing_length in the base
    config is kept fixed across the sweep instead. Every m's config is
    checked before any m runs. Each entry is what
    ``rms_error(run_experiment(...))`` gives for that m, bit for bit,
    without the ``Curve``: the query points and the exact values do not
    depend on m, so they are computed once, and each m computes only its
    ``_approximate`` values and the RMS.
    """
    m_max = _integer("m_max", m_max, base.qubits, _INTEGER_RANGES["qubits"][1])
    configs = [base] + [replace(base, qubits=m) for m in range(base.qubits + 1, m_max + 1)]
    xs = np.linspace(*base.domain, base.eval_points)
    exact = target_function(xs, base.derivative_order)
    return [(c.qubits, _rms(_abs_error(exact, _approximate(c, xs)))) for c in configs]


def write_rows(stream, curve: Curve) -> None:
    """CSV with header x,f_exact,f_approx,abs_error and LF line endings.

    Every value is written as format(v, ".17g") writes it; no field ever
    needs quoting, so the bytes are those of ``csv.writer`` with that format.
    ``csv_lines`` formats the table in array passes, a block of rows at a
    time. The values it writes one at a time by ``"%.17g" % v`` are the
    non-finite ones, zeros (-0.0 too), those with |v| outside
    [1e-250, 1e250] and those within 1e-6 of a unit of the 17th digit of a
    rounding tie.
    """
    table = np.column_stack((curve.x, curve.f_exact, curve.f_approx, curve.abs_error))
    stream.write(",".join(CSV_HEADER) + "\n")
    for lines in csv_lines(table):
        stream.write(lines)


def write_sweep(stream, entries: list[tuple[int, float]],
                kernel: KernelFamily, order: int) -> None:
    """CSV with header m,kernel,order,rms, LF line endings and rms as %.17g."""
    stream.write(",".join(SWEEP_HEADER) + "\n")
    for m, rms in entries:
        stream.write(f"{m},{kernel.value},{order},{rms:.17g}\n")


@dataclass(frozen=True)
class ErrorDecomposition:
    """Signed per-point error deltas, chained against the exact baseline.

    discretisation:     exact-pipeline value minus analytic truth
    norm_approximation: switching norm_mode to integral, minus the baseline
    shot_noise:         sampled estimate minus the exact-estimator value
    quantization:       phase-quantized estimate minus the exact-estimator
                        value
    The four streams telescope: truth + their sum reproduces the configured
    run's values (up to float re-rounding of the differences). Components
    that the configuration does not exercise are identically zero.
    """

    x: np.ndarray
    discretisation: np.ndarray
    norm_approximation: np.ndarray
    shot_noise: np.ndarray
    quantization: np.ndarray

    def __post_init__(self) -> None:
        _freeze_columns(self, ("x", "discretisation", "norm_approximation",
                               "shot_noise", "quantization"))

    @property
    def total(self) -> np.ndarray:
        return (self.discretisation + self.norm_approximation
                + self.shot_noise + self.quantization)

    def component_rms(self) -> dict[str, float]:
        """RMS of each component and of their total, by the rule of ``rms_error``."""
        names = ("discretisation", "norm_approximation", "shot_noise", "quantization")
        out = {name: _rms(getattr(self, name)) for name in names}
        out["total"] = _rms(self.total)
        return out


def decompose_error(config: ExperimentConfig) -> ErrorDecomposition:
    """Attribute the configured run's error additively to its sources.

    Reads each stage at the same query points from its own
    ``_approximate`` pass: the exact baseline (exact estimator, exact
    norm), the configured norm with the exact estimator and, for a sampled
    or phase estimator, the configured run; then differences each stage
    against the previous one.
    """
    xs = np.linspace(*config.domain, config.eval_points)
    truth = target_function(xs, config.derivative_order)
    base = _approximate(replace(config, estimator="exact", norm_mode="exact"), xs)
    norm_vals = _approximate(replace(config, estimator="exact"), xs)
    zeros = np.zeros_like(base)
    shot_delta = zeros
    quant_delta = zeros
    if config.estimator != "exact":
        final = _approximate(config, xs)
        if config.estimator == "sampled":
            shot_delta = final - norm_vals
        else:
            quant_delta = final - norm_vals
    return ErrorDecomposition(xs, base - truth, norm_vals - base,
                              shot_delta, quant_delta)
