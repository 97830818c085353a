"""1-D particle discretisation of a finite interval.

The interval [a, b] is split into N equal subintervals of width dx; one
particle sits at the centre of each. Optional boundary (ghost) particles
continue the spacing beyond the interval ends, which mitigates
kernel-support truncation when summing near a or b. A layout is its
particle positions alone: every particle carries the width dx. A validated
``harness.ExperimentConfig`` guarantees that the positions of its layout
are finite and strictly increasing, so nothing here checks them again.
"""
from __future__ import annotations

import numpy as np


def uniform_positions(domain: tuple[float, float], num_particles: int,
                      n_boundary_each_end: int = 0) -> np.ndarray:
    """Centres of a uniform partition of the domain (a, b) and its ghosts.

    With dx = (b - a) / num_particles, particle k (counting from -nb, the
    first ghost below a) sits at a + (k + 1/2) dx, and the j-th ghost above
    b at b + (j + 1/2) dx. The (k + 1/2) dx offsets keep the layout of a
    dyadic domain bit-exactly mirror-symmetric, which the odd-kernel
    cancellation tests rely on; a ghost below a comes out as
    a + (-(j + 1/2) dx), which is a - (j + 1/2) dx exactly. The array is
    built in place, with no temporary of its size. For the domain, particle
    count and ghosts of a validated ``ExperimentConfig`` the positions are
    finite and strictly increasing; the config guarantees it.
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
