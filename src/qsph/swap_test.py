"""Swap-test machinery for reading out Re <x|y> from two register states.

For unit states |x>, |y> of dimension d the combined state

    |phi> = (1/2) ( |0>(|x> + |y>) + |1>(|x> - |y>) )

factors as sin(theta)|0>|u> + cos(theta)|1>|v> with
sin^2(theta) = (1 + Re <x|y>) / 2. Measuring the ancilla gives |0> with
probability (1 + Re <x|y>) / 2, so the overlap is a one-bit readout
statistic. The rotation operator

    R = (I - 2|phi><phi|)(Z (x) I)

acts on span{|0>|u>, |1>|v>} as a planar rotation by 2 theta, with
eigenvalues e^{+-2i theta}; phase estimation on R therefore recovers theta
directly. (The overall sign matters: the oppositely signed product
(2|phi><phi| - I)(Z (x) I) is -R and carries eigenvalues -e^{+-2i theta},
which would shift every eigenphase by pi and offset the angle readout.)
Three estimators are provided:

* exact     -- computes Re <x|y> from the amplitudes (baseline / oracle),
* sampled   -- draws the ancilla |0> count of all shots as one
               Binomial(shots, p0) variate from a Philox stream keyed by
               the seed, reproducible for a fixed seed and numpy version,
* phase     -- an idealized phase-estimation quantizer: snaps theta to the
               nearest grid point k pi / 2^n, so the quantized angle is
               within pi / 2^{n+1} of theta. The overlap read out of it
               in doubles can exceed the matching bound 2 sin(pi / 2^{n+1})
               by rounding, up to 1e-3 of that bound at 40 angle qubits.

The quantizer models phase estimation as a black box with exactly its
accuracy contract; no gate-level circuit is simulated, and the success
probability delta of a real phase-estimation run is not modelled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum_state import StateVector, inner_product

DEGENERATE_TOL = 1e-12  # 1 -+ Re<x|y> below this means |u> or |v> is undefined


@dataclass(frozen=True)
class SwapTestState:
    """Combined state |phi> with its derived rotation angle.

    The first d amplitudes of phi are (x_k + y_k)/2 (the ancilla-|0> block),
    the last d are (x_k - y_k)/2. ``u_defined`` / ``v_defined`` flag whether
    the normalized sum / difference states exist; they degenerate when
    y = -x (u undefined) or y = x (v undefined) with real overlap -+1.
    """

    phi: StateVector
    theta: float
    d: int
    u_defined: bool = True
    v_defined: bool = True

    def block_probabilities(self) -> tuple[float, float]:
        """(p0, p1): ancilla measurement probabilities from the two blocks."""
        amps = self.phi.amplitudes
        p0 = float(np.sum(np.abs(amps[:self.d]) ** 2))
        p1 = float(np.sum(np.abs(amps[self.d:]) ** 2))
        return p0, p1

    def state_u(self) -> StateVector:
        """Normalized |x> + |y> direction (the ancilla-|0> component)."""
        if not self.u_defined:
            raise ValueError("|u> is undefined: the states cancel (y = -x)")
        return StateVector(self.phi.amplitudes[:self.d] / np.sin(self.theta))

    def state_v(self) -> StateVector:
        """Normalized |x> - |y> direction (the ancilla-|1> component)."""
        if not self.v_defined:
            raise ValueError("|v> is undefined: the states coincide (y = x)")
        return StateVector(self.phi.amplitudes[self.d:] / np.cos(self.theta))


@dataclass(frozen=True)
class EstimationResult:
    """An estimate of Re <x|y> with its method and error metadata.

    method is one of "exact", "sampled", "phase". Sampled results carry
    (shots, seed); phase-estimated results carry the register size n_pe,
    the quantized angle and the worst-case angle error pi / 2^{n_pe + 1}.
    """

    method: str
    estimate: float
    shots: int | None = None
    seed: int | None = None
    n_pe: int | None = None
    theta_estimate: float | None = None
    error_bound: float | None = None


def build_swap_state(x: StateVector, y: StateVector) -> SwapTestState:
    """Assemble |phi> from two unit states and derive theta in [0, pi/2]."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    rho = inner_product(x, y).real
    rho = min(1.0, max(-1.0, rho))  # guard sqrt against fp overshoot
    amps = np.concatenate([(x.amplitudes + y.amplitudes) / 2.0,
                           (x.amplitudes - y.amplitudes) / 2.0])
    # atan2 of the two block norms stays accurate at both degenerate ends
    theta = float(np.arctan2(np.sqrt(1.0 + rho), np.sqrt(1.0 - rho)))
    return SwapTestState(StateVector(amps), theta, x.dim,
                         u_defined=(1.0 + rho) > DEGENERATE_TOL,
                         v_defined=(1.0 - rho) > DEGENERATE_TOL)


def build_rotation_operator(s: SwapTestState) -> np.ndarray:
    """(I - 2|phi><phi|)(Z (x) I): ancilla flip, then reflection across |phi>.

    A complex unitary (2d, 2d) matrix, ancilla qubit first; it rotates
    span{|0>|u>, |1>|v>} by 2 theta, so its restricted eigenvalues are
    e^{+-2i theta}. The reflection must carry this sign: negating it yields
    -R, whose eigenphases sit at pi +- 2 theta and would corrupt any angle
    read off the spectrum.
    """
    phi = s.phi.amplitudes
    reflection = np.eye(2 * s.d) - 2.0 * np.outer(phi, phi.conj())
    ancilla_flip = np.kron(np.diag([1.0, -1.0]), np.eye(s.d))
    return reflection @ ancilla_flip


def rotation_eigenpairs(s: SwapTestState) -> tuple[tuple[complex, complex],
                                                   tuple[StateVector, StateVector]]:
    """Analytic eigenpairs e^{+-2i theta}, (1/sqrt 2)(|0>|u> +- i|1>|v>).

    Requires a nondegenerate pair (theta strictly inside (0, pi/2)).
    Verifies the eigen-relation against the dense operator before returning.
    """
    if not (s.u_defined and s.v_defined):
        raise ValueError("eigenpairs are undefined for degenerate theta (0 or pi/2)")
    u = s.state_u().amplitudes
    v = s.state_v().amplitudes
    w_plus = StateVector(np.concatenate([u, 1j * v]) / np.sqrt(2.0))
    w_minus = StateVector(np.concatenate([u, -1j * v]) / np.sqrt(2.0))
    lam_plus = complex(np.exp(2j * s.theta))
    lam_minus = complex(np.exp(-2j * s.theta))

    rot = build_rotation_operator(s)
    for lam, w in ((lam_plus, w_plus), (lam_minus, w_minus)):
        residual = np.linalg.norm(rot @ w.amplitudes - lam * w.amplitudes)
        if residual > 1e-10:
            raise AssertionError(f"eigenpair residual {residual:.3e} exceeds 1e-10")
    return (lam_plus, lam_minus), (w_plus, w_minus)


def estimate_exact(x: StateVector, y: StateVector) -> EstimationResult:
    """Direct Re <x|y>, bypassing any measurement model."""
    estimate = inner_product(x, y).real
    return EstimationResult("exact", min(1.0, max(-1.0, estimate)))


def estimate_sampled(x: StateVector, y: StateVector, shots: int,
                     seed: int = 0) -> EstimationResult:
    """Shot-sampled ancilla readout: estimate = 2 (count of |0>) / shots - 1.

    The shots are independent trials with the same p0, so the count of |0>
    is one Binomial(shots, p0) draw from a Philox stream keyed by the seed:
    bit-identical for a given seed and numpy version.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    s = build_swap_state(x, y)
    p0, _ = s.block_probabilities()
    p0 = min(1.0, max(0.0, p0))  # the block sum can exceed 1 by an ulp
    rng = np.random.Generator(np.random.Philox(key=seed))
    count0 = int(rng.binomial(shots, p0))
    estimate = 2.0 * count0 / shots - 1.0
    return EstimationResult("sampled", min(1.0, max(-1.0, estimate)),
                            shots=shots, seed=seed)


def estimate_phase(x: StateVector, y: StateVector, n_pe: int) -> EstimationResult:
    """Idealized phase-estimation readout with an n_pe-qubit angle register.

    The true theta is snapped to the nearest point of the grid k pi / 2^n,
    k in {0, ..., 2^n - 1}, ties toward the smaller k, so the quantized
    angle is within half the grid spacing, pi / 2^{n+1}, of theta. The
    overlap estimate is 2 sin^2(theta_quantized) - 1; computed in doubles,
    its error can exceed the matching bound 2 sin(pi / 2^{n+1}) by rounding
    (a few ulp of 1, growing as 2^n relative to the bound), up to 1e-3 of
    that bound at n_pe = 40, the cap of ExperimentConfig.pe_qubits.
    """
    if n_pe < 1:
        raise ValueError("phase register needs at least one qubit")
    s = build_swap_state(x, y)
    grid = 2 ** n_pe
    k = int(np.ceil(s.theta * grid / np.pi - 0.5))  # ties round down
    k = min(max(k, 0), grid - 1)
    theta_est = k * np.pi / grid
    estimate = 2.0 * np.sin(theta_est) ** 2 - 1.0
    return EstimationResult("phase", min(1.0, max(-1.0, float(estimate))),
                            n_pe=n_pe, theta_estimate=float(theta_est),
                            error_bound=float(np.pi / 2 ** (n_pe + 1)))
