"""Encoding of the SPH summation as an inner product of register states.

The classical approximation at a query point r is

    f(r) ~= sum_k f_k dx_k W(r - r_k, h)

over particles k with values f_k, widths dx_k and positions r_k. It is
split into two vectors: a = [f_k dx_k] and the kernel samples
W_k = W(r - r_k, h). Both are packed into unit-norm register states:

* |a> is a / ||a|| (real amplitudes), zero-padded to the register length.
* |W> scales each kernel sample by 1 / (c N) -- c = max |W| and N the
  register length -- so its magnitude fits inside the uniform amplitude
  budget 1/N, then adds a nonnegative imaginary closure term
  sqrt(1/N - (W_k / cN)^2) that makes every slot carry squared modulus
  exactly 1/N. Padding slots hold the pure-imaginary value i/sqrt(N).

The sum is then recovered from the overlap alone:

    sum_k f_k dx_k W_k = c N ||a|| Re <a|W>

which holds for ANY register length N >= particle count because the c N
factor cancels the 1 / (c N) scaling inside |W>. The imaginary closure
never leaks into the real part since |a> is real.

``sph_sums`` performs the direct summation for a batch of query points,
each over the particles inside the kernel support; ``classical_sph_sum``
is its one-point form and the ground truth every encoded reconstruction
is tested against. Since Re <a|W> is that sum over c N ||a||, the
experiment harness reads every overlap from ``sph_sums`` and never builds
the registers; ``encode`` and ``reconstruct`` remain the dense reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretization import Domain, ParticleDiscretisation
from .kernels import KernelSpec, evaluate, scaling_constant
from .quantum_state import StateVector, inner_product, normalize

# most kernel values sph_sums gathers at once: 512 KB of doubles per array
BLOCK_VALUES = 1 << 16
BOUNDARY_MODES = ("analytic", "zero")


@dataclass(frozen=True)
class FunctionSamples:
    """Function values at the particle positions of a discretisation."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("samples must be a nonempty 1-D vector")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, disc: ParticleDiscretisation, f: Callable[[np.ndarray], np.ndarray],
                      boundary: str = "analytic") -> "FunctionSamples":
        """Sample f at all particle positions.

        boundary="analytic" evaluates f at the ghost positions as well
        (f extends beyond the domain); boundary="zero" forces ghost values
        to 0.
        """
        if boundary not in BOUNDARY_MODES:
            raise ValueError(f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}")
        values = np.asarray(f(disc.positions), dtype=float).copy()
        if boundary == "zero" and disc.n_boundary_each_end > 0:
            nb = disc.n_boundary_each_end
            values[:nb] = 0.0
            values[disc.total_count - nb:] = 0.0
        return cls(values)


@dataclass(frozen=True)
class EncodedPair:
    """The two register states plus the classical scalars that undo them.

    ``norm_a`` may be the exact Euclidean norm of a or an approximation of
    it; ``state_a`` itself is always exactly normalized, so an approximate
    norm shows up purely as a multiplicative reconstruction error.
    ``padding`` counts the register slots beyond the particle count.
    """

    state_a: StateVector
    state_w: StateVector
    norm_a: float
    c: float
    n_register: int
    padding: int

    def __post_init__(self):
        if self.state_a.dim != self.state_w.dim:
            raise ValueError("encoded states must share the register length")
        if self.state_a.dim != self.n_register:
            raise ValueError("register length must match the state dimension")
        if not self.norm_a > 0.0 or not self.c > 0.0:
            raise ValueError("norm_a and c must be positive")


def register_length(count: int) -> int:
    """Smallest power of two >= count (the register holds 2^m amplitudes)."""
    if count < 1:
        raise ValueError("register must hold at least one value")
    return 1 << (count - 1).bit_length()


def build_a(disc: ParticleDiscretisation, samples: FunctionSamples,
            approx_norm: float | None = None) -> tuple[StateVector, float]:
    """Register state |a> = a / ||a|| for a = [f_k dx_k], zero-padded.

    With ``approx_norm`` set, the returned norm is that approximation (the
    state is still exactly normalized); otherwise the exact Euclidean norm.
    """
    values = samples.values
    if values.size != disc.total_count:
        raise ValueError(f"got {values.size} samples for {disc.total_count} particles")
    raw = values * disc.widths
    if not np.any(raw):
        raise ValueError("all-zero samples cannot be encoded as a state")
    padded = np.zeros(register_length(disc.total_count), dtype=complex)
    padded[:raw.size] = raw
    state, exact_norm = normalize(padded)
    if approx_norm is not None:
        if not approx_norm > 0.0:
            raise ValueError("approximate norm must be positive")
        return state, float(approx_norm)
    return state, exact_norm


def coefficient_norm(disc: ParticleDiscretisation, samples: FunctionSamples) -> float:
    """Exact ||a|| for a = [f_k dx_k], as ``build_a`` gives it, without |a>: the
    real norm of the coefficients scaled by an exact power of two near the
    largest, so tiny ones neither underflow nor lose bits when squared."""
    coeff = samples.values * disc.widths
    scale = float(np.max(np.abs(coeff)))
    if scale == 0.0:
        raise ValueError("all-zero samples cannot be encoded as a state")
    exponent = math.frexp(scale)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(coeff, -exponent))), exponent)


def integral_norm_estimate(domain: Domain, f: Callable[[np.ndarray], np.ndarray],
                           n_subintervals: int, quadrature_points: int = 1001) -> float:
    """Integral approximation of ||a|| for a uniform N-subinterval grid:

        ||a||^2 = sum f_k^2 dx^2 ~= ((b - a) / N) * integral_a^b |f|^2 dx

    evaluated with composite trapezoid quadrature. Cheap relative to
    touching all N particle values, and increasingly accurate as N grows.
    """
    if quadrature_points < 2:
        raise ValueError("need at least 2 quadrature points")
    if n_subintervals < 1:
        raise ValueError("need at least 1 subinterval")
    xs = np.linspace(domain.a, domain.b, quadrature_points)
    fsq = np.asarray(f(xs), dtype=float) ** 2
    integral = float(np.trapezoid(fsq, xs))
    return float(np.sqrt(domain.length / n_subintervals * integral))


def check_closure(peak: float, c: float, register_len: int) -> None:
    """Raise ValueError unless a kernel value of modulus ``peak`` fits a slot.

    Slot k of |W> needs the closure radicand 1/N - (W_k / (c N))^2 to be
    nonnegative. |W| <= c guarantees it; a wrong c or kernel breaks it. The
    radicand falls as |W_k| grows, so checking the largest |W_k| checks all.
    """
    n = register_len
    if not 1.0 / n - (peak / (c * n)) ** 2 >= 0.0:
        raise ValueError(f"closure: kernel value {float(peak)!r} breaks |W/(cN)|^2 <= 1/N "
                         f"for c = {c!r}, N = {n}")


def build_w(disc: ParticleDiscretisation, spec: KernelSpec, eval_point: float,
            register_len: int) -> tuple[StateVector, float]:
    """Register state |W> holding the scaled kernel samples for one query point.

    Slot k carries W(eval_point - r_k, h) / (c N) plus the imaginary closure
    term that tops its squared modulus up to exactly 1/N; padding slots are
    purely imaginary i/sqrt(N). The state is unit-norm by construction.
    """
    count = disc.total_count
    if register_len < count:
        raise ValueError(f"register length {register_len} below particle count {count}")
    if register_len & (register_len - 1):
        raise ValueError(f"register length must be a power of two, got {register_len}")

    c = scaling_constant(spec)
    n = register_len
    kernel = evaluate(spec, eval_point - disc.positions)
    check_closure(np.max(np.abs(kernel)), c, n)
    scaled = kernel / (c * n)
    radicand = 1.0 / n - scaled ** 2
    amps = np.full(n, 1j / np.sqrt(n), dtype=complex)
    amps[:count] = scaled + 1j * np.sqrt(radicand)
    return StateVector(amps), c


def encode(disc: ParticleDiscretisation, samples: FunctionSamples, spec: KernelSpec,
           eval_point: float, approx_norm: float | None = None) -> EncodedPair:
    """Build the full (|a>, |W>) pair for one query point."""
    state_a, norm_a = build_a(disc, samples, approx_norm)
    state_w, c = build_w(disc, spec, eval_point, state_a.dim)
    return EncodedPair(state_a, state_w, norm_a, c, state_a.dim,
                       padding=state_a.dim - disc.total_count)


def reconstruct(pair: EncodedPair, overlap_real: float | None = None) -> float:
    """Recover the SPH sum: c N ||a|| Re <a|W>.

    ``overlap_real`` substitutes an externally estimated Re <a|W> (from a
    sampled or phase-estimated readout); by default the overlap is computed
    exactly from the amplitudes.
    """
    if overlap_real is None:
        overlap_real = inner_product(pair.state_a, pair.state_w).real
    return pair.c * pair.n_register * pair.norm_a * float(overlap_real)


def support_window(disc: ParticleDiscretisation, spec: KernelSpec) -> int:
    """Most particles inside any closed interval of length 2 support_radius.

    Depends only on the layout and the kernel, so every query point sums
    over the same number of particles whatever batch it comes in.
    """
    pos = disc.positions
    reach = np.searchsorted(pos, pos + 2.0 * spec.support_radius, side="right")
    return int(np.max(reach - np.arange(pos.size)))


def sph_sums(disc: ParticleDiscretisation, samples: FunctionSamples, spec: KernelSpec,
             eval_points) -> np.ndarray:
    """Direct sums sum_k f_k dx_k W(x - r_k, h) for a 1-D array of query points.

    Each point sums over a contiguous window of ``support_window`` particles
    starting at the first one no further than support_radius below it
    (shifted left where the layout ends). The window holds every particle
    within support_radius; the rest carry exact zeros (Wendland) or less
    than exp(-64) of the peak (Gaussian). Points go in blocks of at most
    ``BLOCK_VALUES`` kernel values. The kernel values must pass build_w's
    closure check (``check_closure``) for the smallest register that holds
    the particles, N = register_length(total_count), the strictest N.
    """
    values = samples.values
    if values.size != disc.total_count:
        raise ValueError(f"got {values.size} samples for {disc.total_count} particles")
    xs = np.asarray(eval_points, dtype=float)
    if xs.ndim != 1:
        raise ValueError("query points must form a 1-D array")
    pos = disc.positions
    coeff = values * disc.widths
    width = support_window(disc, spec)
    starts = np.searchsorted(pos, xs - spec.support_radius, side="left")
    starts = np.minimum(starts, pos.size - width)
    window = np.arange(width)
    c = scaling_constant(spec)
    n = register_length(disc.total_count)
    sums = np.empty(xs.size)
    step = max(1, BLOCK_VALUES // width)
    for lo in range(0, xs.size, step):
        idx = starts[lo:lo + step, None] + window
        kernel = evaluate(spec, xs[lo:lo + step, None] - pos[idx])
        check_closure(np.max(np.abs(kernel)), c, n)
        sums[lo:lo + step] = np.sum(coeff[idx] * kernel, axis=1)
    return sums


def classical_sph_sum(disc: ParticleDiscretisation, samples: FunctionSamples,
                      spec: KernelSpec, eval_point: float) -> float:
    """Direct summation sum_k f_k dx_k W(eval_point - r_k, h).

    The one-point call of ``sph_sums``, so a batched sum reproduces it bit
    for bit. This is the oracle the register encoding must reproduce.
    """
    return float(sph_sums(disc, samples, spec, [eval_point])[0])
