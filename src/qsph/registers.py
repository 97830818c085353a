"""The dense register states |a> and |W>: the reference the sums are checked
against.

The classical approximation at a query point r,

    f(r) ~= sum_k f_k dx_k W(r - r_k, h),

is split into two vectors, a = [f_k dx_k] and the kernel samples
W_k = W(r - r_k, h), each packed into a unit-norm register state:

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

No run builds these states: ``harness`` reads Re <a|W> off the direct sums
of ``sph_encoding.kernel_sums``. They stay so that the tests can check the
run path against the register construction it stands for. They take a
layout as a run holds it (``harness.particles``): the ascending positions
r_k and the coefficients a_k = f_k dx_k, one per particle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, evaluate, scaling_constant
from .quantum_state import StateVector, inner_product, normalize
from .sph_encoding import check_kernel_bound, coefficient_peak, register_length


@dataclass(frozen=True)
class EncodedPair:
    """The two register states plus the classical scalars that undo them.

    ``norm_a`` may be the exact Euclidean norm of a or an approximation of
    it; ``state_a`` itself is always exactly normalized, so an approximate
    norm shows up purely as a multiplicative reconstruction error.
    """

    state_a: StateVector
    state_w: StateVector
    norm_a: float
    c: float

    def __post_init__(self):
        if self.state_a.dim != self.state_w.dim:
            raise ValueError("encoded states must share the register length")
        if not self.norm_a > 0.0 or not self.c > 0.0:
            raise ValueError("norm_a and c must be positive")

    @property
    def n_register(self) -> int:
        return self.state_a.dim


def build_a(coeff: np.ndarray,
            approx_norm: float | None = None) -> tuple[StateVector, float]:
    """Register state |a> = a / ||a|| for the coefficients a = [f_k dx_k],
    zero-padded; raises ZeroSamplesError (``coefficient_peak``) when all
    are 0.

    With ``approx_norm`` set, the returned norm is that approximation (the
    state is still exactly normalized); otherwise the exact Euclidean norm.
    """
    coefficient_peak(coeff)
    padded = np.zeros(register_length(coeff.size), dtype=complex)
    padded[:coeff.size] = coeff
    state, exact_norm = normalize(padded)
    if approx_norm is not None:
        if not approx_norm > 0.0:
            raise ValueError("approximate norm must be positive")
        return state, float(approx_norm)
    return state, exact_norm


def build_w(positions: np.ndarray, spec: KernelSpec, eval_point: float,
            n: int) -> tuple[StateVector, float]:
    """Register state |W> holding the scaled kernel samples for one query point.

    Slot k carries W(eval_point - r_k, h) / (c n) plus the imaginary closure
    term that tops its squared modulus up to exactly 1/n; padding slots are
    purely imaginary i/sqrt(n). The state is unit-norm by construction. The
    kernel values must be within c (``check_kernel_bound``).
    """
    count = positions.size
    if n < count:
        raise ValueError(f"register length {n} below particle count {count}")
    if n & (n - 1):
        raise ValueError(f"register length must be a power of two, got {n}")

    c = scaling_constant(spec)
    kernel = evaluate(spec, eval_point - positions)
    check_kernel_bound(np.max(np.abs(kernel)), c)
    scaled = kernel / (c * n)
    # below 0 only at n = 1, for a value within check_kernel_bound's slack above c
    radicand = np.maximum(1.0 / n - scaled ** 2, 0.0)
    amps = np.full(n, 1j / np.sqrt(n), dtype=complex)
    amps[:count] = scaled + 1j * np.sqrt(radicand)
    return StateVector(amps), c


def encode(positions: np.ndarray, coeff: np.ndarray, spec: KernelSpec,
           eval_point: float, approx_norm: float | None = None) -> EncodedPair:
    """Build the full (|a>, |W>) pair for one query point."""
    if coeff.size != positions.size:
        raise ValueError(f"got {coeff.size} coefficients for {positions.size} particles")
    state_a, norm_a = build_a(coeff, approx_norm)
    state_w, c = build_w(positions, spec, eval_point, state_a.dim)
    return EncodedPair(state_a, state_w, norm_a, c)


def reconstruct(pair: EncodedPair, overlap_real: float | None = None) -> float:
    """Recover the SPH sum: c N ||a|| Re <a|W>.

    ``overlap_real`` substitutes an externally estimated Re <a|W> (from a
    sampled or phase-estimated readout); by default the overlap is computed
    exactly from the amplitudes.
    """
    if overlap_real is None:
        overlap_real = inner_product(pair.state_a, pair.state_w).real
    return pair.c * pair.n_register * pair.norm_a * float(overlap_real)
