"""Direct SPH sums and the scalars that turn them into a register overlap.

The classical approximation at a query point r is

    f(r) ~= sum_k f_k dx_k W(r - r_k, h)

over particles k with values f_k, widths dx_k and positions r_k.
``sph_sums`` computes it for a batch of query points, each over the
particles inside the kernel support.

The register encoding packs a = [f_k dx_k] and the kernel samples W_k into
unit states |a> and |W> (built densely in ``qsph.registers``), with

    sum_k f_k dx_k W_k = c N ||a|| Re <a|W>

for c = max |W| and N = ``register_length`` of the particle count. The run
path therefore reads Re <a|W> off the sums and the scalars here --
``coefficient_norm`` (||a||) or its estimate ``integral_norm_estimate``,
and c N -- without building a register. ``check_closure`` is the one
condition |W> puts on the kernel values; the sums check it as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretization import Domain, ParticleDiscretisation
from .kernels import KernelSpec, evaluate, scaling_constant

# most kernel values sph_sums evaluates at once: 128 KB of doubles per block
# buffer, so the buffers of a block stay in L2 cache
BLOCK_VALUES = 1 << 14
BOUNDARY_MODES = ("analytic", "zero")


class ZeroSamplesError(ValueError):
    """f is zero wherever it is sampled, so ||a|| (or its integral estimate)
    is 0 and |a> does not exist."""


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
        values = np.asarray(f(disc.positions), dtype=float)
        nb = disc.n_boundary_each_end
        if boundary == "zero" and nb > 0:
            # a new array: f may have returned one the caller still holds
            ghosts = np.zeros(nb)
            values = np.concatenate((ghosts, values[nb:disc.total_count - nb], ghosts))
        return cls(values)  # __post_init__ makes the one private copy


def register_length(count: int) -> int:
    """Smallest power of two >= count (the register holds 2^m amplitudes)."""
    if count < 1:
        raise ValueError("register must hold at least one value")
    return 1 << (count - 1).bit_length()


def coefficient_norm(disc: ParticleDiscretisation, samples: FunctionSamples) -> float:
    """Exact ||a|| for a = [f_k dx_k], without building |a>: the real norm of
    the coefficients scaled by an exact power of two near the largest, so
    tiny ones neither underflow nor lose bits when squared."""
    coeff = samples.values * disc.widths
    scale = float(np.max(np.abs(coeff)))
    if scale == 0.0:
        raise ZeroSamplesError(f"all-zero samples cannot be encoded as a state: "
                               f"f_k dx_k is 0 at all {coeff.size} particles")
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
    fx = np.asarray(f(xs), dtype=float)
    peak = float(np.max(np.abs(fx)))
    if peak == 0.0:
        raise ZeroSamplesError(f"the integral norm estimate is 0: "
                               f"f is 0 at all {xs.size} quadrature nodes")
    # f and the nodes scaled by exact powers of two near their sizes, so that
    # neither f^2 nor the length times the integral underflows
    ef, ex = math.frexp(peak)[1], math.frexp(domain.length)[1]
    integral = float(np.trapezoid(np.ldexp(fx, -ef) ** 2, np.ldexp(xs, -ex)))
    scaled = math.ldexp(domain.length, -ex) / n_subintervals * integral
    return math.ldexp(float(np.sqrt(scaled)), ef + ex)


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


def support_window(disc: ParticleDiscretisation, spec: KernelSpec) -> int:
    """Most particles inside any closed interval of length 2 support_radius.

    Depends only on the layout and the kernel, so every query point sums
    over the same number of particles whatever batch it comes in.

    With top = positions + 2 support_radius, the width W is the largest w
    for which some run of w particles fits, (pos[w-1:] <= top[:n-w+1]).any().
    That predicate is monotone in w, so W is found by galloping up from the
    first particle's count, a lower bound, then bisecting: O(n log W) on any
    sorted layout, and the same integer as max_i(#{pos <= top[i]} - i).
    """
    pos = disc.positions
    n = pos.size
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


def sph_sums(disc: ParticleDiscretisation, samples: FunctionSamples, spec: KernelSpec,
             eval_points) -> np.ndarray:
    """Direct sums sum_k f_k dx_k W(x - r_k, h) for a 1-D array of query points.

    Each point sums over a contiguous window of ``support_window`` particles
    starting at the first one no further than support_radius below it
    (shifted left where the layout ends). The window holds every particle
    within support_radius; the rest carry exact zeros (Wendland) or less
    than exp(-64) of the peak (Gaussian). Points go in blocks of at most
    ``BLOCK_VALUES`` kernel values, through index, gather and kernel
    buffers allocated once per call; ``evaluate`` writes into the kernel
    buffer (``out=``). The kernel values must pass the closure
    check of |W> (``check_closure``) for the smallest register that holds
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
    rows = min(step, xs.size)
    # buffers reused by every block (a last, shorter block takes their
    # leading rows): the window indices, the kernel values, and one array
    # that holds the gathered positions, then the offsets, then the
    # gathered coefficients
    index = np.empty((rows, width), dtype=np.intp)
    gathered = np.empty((rows, width))
    kernel = np.empty((rows, width))
    for lo in range(0, xs.size, step):
        hi = min(lo + step, xs.size)
        idx, g, w = index[:hi - lo], gathered[:hi - lo], kernel[:hi - lo]
        np.add(starts[lo:hi, None], window, out=idx)
        # every index is in range; mode "raise" would buffer the output
        np.subtract(xs[lo:hi, None], np.take(pos, idx, out=g, mode="clip"), out=g)
        evaluate(spec, g, out=w)
        # max |W| with no abs temporary; a NaN makes both NaN and fails the check
        check_closure(max(w.max(), -w.min()), c, n)
        np.multiply(np.take(coeff, idx, out=g, mode="clip"), w, out=w)
        np.sum(w, axis=1, out=sums[lo:hi])
    return sums
