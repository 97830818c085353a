"""Dense complex state vectors for small registers.

States are unit vectors in C^d (d = 2^m for an m-qubit register, but any
d >= 1 is allowed). Basis ordering is big-endian: index k is the base-10
value of the qubit string read left to right. Operators on these states
are plain numpy matrices; everything is dense, since the simulations here
stay at d <= 2^16.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-12      # accepted norm defect at construction
RENORM_LIMIT = 1e-8    # silently renormalize below this, reject above
# below this norm the sum of squares is subnormal and has lost precision
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector.

    Construction enforces sum |amplitude|^2 = 1: defects up to
    ``RENORM_LIMIT`` (floating-point drift) are renormalized silently,
    anything larger is rejected as a logic error.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-D vector")
        defect = abs(np.vdot(amps, amps).real - 1.0)
        # a NaN defect compares False against both limits below
        if not math.isfinite(defect):
            raise ValueError("amplitudes must be finite")
        if defect > NORM_ATOL:
            if defect > RENORM_LIMIT:
                raise ValueError(f"state norm defect {defect:.3e} exceeds renormalization limit")
            amps = amps / np.linalg.norm(amps)
        else:
            amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def basis_state(dim: int, k: int) -> StateVector:
    """Computational basis state |k> in dimension dim."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[k] = 1.0
    return StateVector(amps)


def normalize(raw) -> tuple[StateVector, float]:
    """Unit state and Euclidean norm of a raw amplitude vector.

    The input factors as norm * state. All-zero input has no normalizable
    state, and input whose norm exceeds the largest double has no finite
    norm; both raise ValueError.
    """
    raw = np.asarray(raw, dtype=complex)
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        norm = float(np.linalg.norm(raw))
    if norm < _SQRT_TINY or not math.isfinite(norm):
        # the sum of squares went subnormal or overflowed; rescale by a power
        # of two near the largest component and retry (entries near 1e-246
        # or 1e+200 are legitimate). Dividing a complex array by a subnormal
        # scale overflows, so the exact ldexp scaling acts on each part.
        scale = float(np.max(np.abs(np.concatenate((raw.real, raw.imag)))))
        if scale == 0.0:
            raise ValueError("cannot normalize an all-zero vector")
        if not math.isfinite(scale):
            raise ValueError("cannot normalize a vector with non-finite entries")
        exponent = math.frexp(scale)[1]
        scaled = np.ldexp(raw.real, -exponent) + 1j * np.ldexp(raw.imag, -exponent)
        unit_norm = float(np.linalg.norm(scaled))
        try:
            norm = math.ldexp(unit_norm, exponent)
        except OverflowError:
            raise ValueError("cannot normalize: the norm exceeds the largest double") from None
        return StateVector(scaled / unit_norm), norm
    return StateVector(raw / norm), norm


def inner_product(x: StateVector, y: StateVector) -> complex:
    """<x|y> = sum_k conj(x_k) y_k."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return complex(np.vdot(x.amplitudes, y.amplitudes))
