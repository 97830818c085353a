"""1-D particle discretisation of a finite interval.

The interval [a, b] is split into N equal subintervals of width dx; one
particle sits at the centre of each. Optional boundary (ghost) particles
continue the spacing beyond the interval ends, which mitigates
kernel-support truncation when summing near a or b. A layout is its
particle positions alone: every particle carries the width dx.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DiscretisationError(ValueError):
    """Invalid domain or particle layout."""


@dataclass(frozen=True)
class Domain:
    """Finite interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DiscretisationError(f"domain endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise DiscretisationError(f"domain requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


def check_positions(positions: np.ndarray) -> None:
    """Raise DiscretisationError unless every position is finite and they
    strictly increase (finiteness first, so no comparison meets a NaN)."""
    if not np.isfinite(positions).all():
        raise DiscretisationError("positions must be finite")
    if not np.all(positions[1:] > positions[:-1]):
        raise DiscretisationError("positions must be strictly increasing")


def uniform_positions(domain: Domain, num_particles: int,
                      n_boundary_each_end: int = 0) -> np.ndarray:
    """Centres of a uniform partition of the domain and of its ghosts, checked.

    With dx = (b - a) / num_particles, particle k (counting from -nb, the
    first ghost below a) sits at a + (k + 1/2) dx, and the j-th ghost above
    b at b + (j + 1/2) dx. The (k + 1/2) dx offsets keep the layout of a
    dyadic domain bit-exactly mirror-symmetric, which the odd-kernel
    cancellation tests rely on; a ghost below a comes out as
    a + (-(j + 1/2) dx), which is a - (j + 1/2) dx exactly. The array is
    built in place, with no temporary of its size.
    """
    if num_particles < 1:
        raise DiscretisationError("num_particles must be at least 1")
    n, nb = num_particles, n_boundary_each_end
    if nb < 0:
        raise DiscretisationError("n_boundary_each_end must be nonnegative")
    dx = domain.length / n
    positions = np.arange(-nb, n + nb, dtype=float)
    positions += 0.5
    positions *= dx
    positions += domain.a
    positions[nb + n:] = domain.b + (np.arange(nb) + 0.5) * dx
    check_positions(positions)
    return positions


def sample_points(domain: Domain, n: int) -> np.ndarray:
    """n evaluation points uniformly spaced over [a, b], endpoints included.

    These are query points for the approximation, not particle positions.
    """
    if n < 2:
        raise DiscretisationError("need at least 2 sample points")
    return np.linspace(domain.a, domain.b, n)
