"""The dense swap-test state and its rotation operator, for two register states.

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

This is the reference the tests check the run path against; no run imports
it. Each readout rule exists once, in ``harness``: ``shot_counts`` draws the
ancilla |0> counts and ``phase_index`` quantizes theta.
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
