"""Direct SPH sums and the scalars that turn them into a register overlap.

The classical approximation at a query point r is

    f(r) ~= sum_k f_k dx_k W(r - r_k, h)

over particles k with values f_k, widths dx_k and positions r_k.
``kernel_sums``, the one summation loop, computes it for a batch of query
points, each over the particles inside the kernel support, from the
positions and the coefficients a_k = f_k dx_k (``harness.particles`` builds
both for a run).

The register encoding packs a = [f_k dx_k] and the kernel samples W_k into
unit states |a> and |W> (built densely in ``qsph.registers``), with

    sum_k f_k dx_k W_k = c N ||a|| Re <a|W>

for c = max |W| and N = ``register_length`` of the particle count. The run
path therefore reads Re <a|W> off the sums and the scalars here --
``coefficient_norm`` (||a||) or its estimate ``integral_norm_estimate``,
and c N -- without building a register. ``check_kernel_bound`` holds the
kernel values to c, all that |W> needs of them; the sums check it as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import KernelSpec, evaluate, scaling_constant

# most kernel values kernel_sums evaluates at once: 64 KB per float64
# temporary, under glibc's default 128 KB mmap threshold. On the benchmark
# workloads the sums took fewer minor page faults at 2^13 than at 2^14, and
# no more time than at 2^12 or 2^14.
BLOCK_VALUES = 1 << 13
# trapezoid nodes of integral_norm_estimate; on the target 1/(1 + 25 x^2)
# over [-1, 1] they leave a relative quadrature error of about 6e-9
QUADRATURE_POINTS = 1001
# rounding slack of check_kernel_bound: over 1000 h in (1e-80, 1e80), evaluate
# came at most 3 ulps above c (order 1); orders 0 and 2 reach c exactly
KERNEL_BOUND_ULPS = 16


class ZeroSamplesError(ValueError):
    """f is zero wherever it is sampled, so ||a|| (or its integral estimate)
    is 0 and |a> does not exist."""


# imported only by bench/tracing.py, which wraps a from_function where it finds one
@dataclass(frozen=True)
class FunctionSamples:
    """Function values at the particle positions."""

    values: np.ndarray


def register_length(count: int) -> int:
    """Smallest power of two >= count (the register holds 2^m amplitudes)."""
    if count < 1:
        raise ValueError("register must hold at least one value")
    return 1 << (count - 1).bit_length()


def coefficient_peak(coeff: np.ndarray) -> float:
    """max |a_k| of the coefficients a = [f_k dx_k]; raises ZeroSamplesError
    when it is 0, since |a> = a / ||a|| does not exist then. Two reductions,
    so no |a| array is formed."""
    peak = float(max(coeff.max(), -coeff.min()))
    if peak == 0.0:
        raise ZeroSamplesError(f"all-zero samples cannot be encoded as a state: "
                               f"f_k dx_k is 0 at all {coeff.size} particles")
    return peak


def coefficient_norm(coeff: np.ndarray) -> float:
    """Exact ||a|| of the coefficients a = [f_k dx_k], without building |a>.

    The coefficients are scaled by an exact power of two near the largest,
    so tiny ones neither underflow nor lose bits when squared. The squares
    are summed by numpy's pairwise reduction, in an order fixed by the
    count alone; BLAS (``np.linalg.norm``) splits the sum across its
    threads, so its last bits would depend on the number of cores.
    """
    exponent = math.frexp(coefficient_peak(coeff))[1]
    scaled = np.ldexp(coeff, -exponent)
    return math.ldexp(math.sqrt(np.multiply(scaled, scaled, out=scaled).sum()), exponent)


def integral_norm_estimate(domain: tuple[float, float], f: Callable[[np.ndarray], np.ndarray],
                           n_subintervals: int) -> float:
    """Integral approximation of ||a|| for a uniform N-subinterval grid:

        ||a||^2 = sum f_k^2 dx^2 ~= ((b - a) / N) * integral_a^b |f|^2 dx

    evaluated with composite trapezoid quadrature on QUADRATURE_POINTS
    nodes. Cheap relative to touching all N particle values, and
    increasingly accurate as N grows.
    """
    a, b = domain
    xs = np.linspace(a, b, QUADRATURE_POINTS)
    fx = np.asarray(f(xs), dtype=float)
    peak = float(np.max(np.abs(fx)))
    if peak == 0.0:
        raise ZeroSamplesError(f"the integral norm estimate is 0: "
                               f"f is 0 at all {xs.size} quadrature nodes")
    # f and the nodes scaled by exact powers of two near their sizes, so that
    # neither f^2 nor the length times the integral underflows
    ef, ex = math.frexp(peak)[1], math.frexp(b - a)[1]
    integral = float(np.trapezoid(np.ldexp(fx, -ef) ** 2, np.ldexp(xs, -ex)))
    scaled = math.ldexp(b - a, -ex) / n_subintervals * integral
    return math.ldexp(float(np.sqrt(scaled)), ef + ex)


def check_kernel_bound(peak: float, c: float) -> None:
    """Raise ValueError unless a kernel modulus ``peak`` is at most c = max |W|,
    up to KERNEL_BOUND_ULPS ulps of c for the rounding of ``evaluate``; NaN
    fails. Every closure radicand 1/N - (W_k / (c N))^2 of a |W> of length
    N >= 2 is then nonnegative, so the check does not depend on N.
    """
    if not peak <= c + KERNEL_BOUND_ULPS * math.ulp(c):
        raise ValueError(f"kernel bound: kernel value {float(peak)!r} exceeds "
                         f"c = {c!r}, the kernel's closed-form maximum")


def support_window(positions: np.ndarray, spec: KernelSpec) -> int:
    """Most particles inside any closed interval of length 2 support_radius.

    Depends only on the layout's (ascending) positions and the kernel, so
    every query point sums over the same number of particles whatever batch
    it comes in.

    With top = positions + 2 support_radius, the width W is the largest w
    for which some run of w particles fits, (pos[w-1:] <= top[:n-w+1]).any().
    That predicate is monotone in w, so W is found by galloping up from the
    first particle's count, a lower bound, then bisecting: O(n log W) on any
    sorted layout, and the same integer as max_i(#{pos <= top[i]} - i).
    """
    pos = positions
    n = pos.size
    with np.errstate(over="ignore"):  # an infinite top fits every later particle
        top = pos + 2.0 * spec.support_radius

    def fits(w: int) -> bool:
        return w <= n and bool((pos[w - 1:] <= top[:n - w + 1]).any())

    lo = int(np.searchsorted(pos, top[0], side="right"))
    step = 1
    while fits(lo + step):
        lo += step
        step *= 2
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def kernel_sums(positions: np.ndarray, coeff: np.ndarray, spec: KernelSpec,
                xs: np.ndarray) -> np.ndarray:
    """Direct sums sum_k a_k W(x - r_k, h) at each query point x of xs.

    ``positions`` are the particle positions r_k, finite and strictly
    increasing (a valid ``ExperimentConfig`` guarantees both for a run's
    layout), and ``coeff`` the coefficients a_k = f_k dx_k, one per
    particle; xs is a 1-D float array. Each point sums over a contiguous
    window of ``support_window`` particles starting at the first one no
    further than support_radius below it (shifted left where the layout
    ends). The window holds every particle within support_radius; the rest
    carry exact zeros (Wendland) or less than exp(-64) of the peak
    (Gaussian). Points go in blocks of at most ``BLOCK_VALUES`` kernel
    values, each block a few array expressions whose temporaries are freed
    before the next block. Each block's largest kernel modulus must be
    within c (``check_kernel_bound``).
    """
    width = support_window(positions, spec)
    with np.errstate(over="ignore"):  # -inf starts at the first particle
        starts = np.searchsorted(positions, xs - spec.support_radius, side="left")
    starts = np.minimum(starts, positions.size - width)
    window = np.arange(width)
    c = scaling_constant(spec)
    sums = np.empty(xs.size)
    step = max(1, BLOCK_VALUES // width)
    for lo in range(0, xs.size, step):
        idx = starts[lo:lo + step, None] + window
        kernel = evaluate(spec, xs[lo:lo + step, None] - positions[idx])
        check_kernel_bound(np.max(np.abs(kernel)), c)
        sums[lo:lo + step] = np.sum(coeff[idx] * kernel, axis=1)
    return sums

