"""1-D particle discretisation of a finite interval.

The interval [a, b] is split into N subintervals; one particle sits at the
centre of each and carries its width. Optional boundary (ghost) particles
continue the outermost spacing beyond the interval ends, which mitigates
kernel-support truncation when summing near a or b. A layout is the particle
positions and widths alone; the subinterval edges are not kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ParticleDiscretisation:
    """Particle positions and widths, the only layout data the sums read.

    ``positions`` and ``widths`` cover all particles in ascending order:
    ``n_boundary_each_end`` ghosts below the domain, the interior particles,
    then the same number of ghosts above it. Every entry is finite, the
    positions strictly increase and the widths are positive.
    """

    positions: np.ndarray
    widths: np.ndarray
    n_boundary_each_end: int
    total_count: int = field(init=False)

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        nb = self.n_boundary_each_end

        if nb < 0:
            raise DiscretisationError("n_boundary_each_end must be nonnegative")
        if positions.ndim != 1 or positions.shape != widths.shape or positions.size <= 2 * nb:
            raise DiscretisationError("positions/widths must cover interior plus boundary particles")
        # first, so that no comparison below meets a NaN or an infinity
        if not (np.isfinite(positions).all() and np.isfinite(widths).all()):
            raise DiscretisationError("positions and widths must be finite")
        if not np.all(positions[1:] > positions[:-1]):
            raise DiscretisationError("positions must be strictly increasing")
        if not np.all(widths > 0.0):
            raise DiscretisationError("widths must be positive")

        for arr in (positions, widths):
            arr.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "total_count", positions.size)

    @property
    def num_interior(self) -> int:
        return self.total_count - 2 * self.n_boundary_each_end

    @property
    def interior_positions(self) -> np.ndarray:
        nb = self.n_boundary_each_end
        return self.positions[nb:self.total_count - nb]

    @property
    def interior_widths(self) -> np.ndarray:
        nb = self.n_boundary_each_end
        return self.widths[nb:self.total_count - nb]


def uniform_discretise(domain: Domain, num_particles: int,
                       n_boundary_each_end: int = 0) -> ParticleDiscretisation:
    """Uniform partition of the domain with particles at subinterval centres.

    Boundary particles continue the uniform grid outward: the j-th ghost
    below a sits at a - (j + 1/2) dx, and symmetrically above b, each with
    width dx = (b - a) / num_particles.
    """
    if num_particles < 1:
        raise DiscretisationError("num_particles must be at least 1")

    n, nb = num_particles, n_boundary_each_end
    dx = domain.length / n
    # Positions built from (k + 1/2) dx offsets: for dyadic domains this keeps
    # the layout bit-exactly mirror-symmetric, which the odd-kernel
    # cancellation tests rely on.
    interior = domain.a + (np.arange(n) + 0.5) * dx
    left = domain.a - (np.arange(nb)[::-1] + 0.5) * dx
    right = domain.b + (np.arange(nb) + 0.5) * dx
    positions = np.concatenate([left, interior, right])
    widths = np.full(positions.size, dx)
    return ParticleDiscretisation(positions, widths, nb)


def from_edges(edges, n_boundary_each_end: int = 0) -> ParticleDiscretisation:
    """Discretisation from explicit (possibly non-uniform) subinterval edges.

    Each particle sits at the centre of its subinterval and carries its
    width; ghost particles continue the outermost width beyond each end. A
    non-increasing edge shows up as a non-positive width, and an infinite
    edge or an overflowing centre as a non-finite entry, both of which
    ``ParticleDiscretisation`` rejects.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DiscretisationError("need at least two subinterval edges")
    nb = n_boundary_each_end
    if nb < 0:  # named here: np.full would reject the negative length first
        raise DiscretisationError("n_boundary_each_end must be nonnegative")
    widths_int = np.diff(edges)
    interior = 0.5 * (edges[:-1] + edges[1:])
    dxl, dxr = widths_int[0], widths_int[-1]
    left = edges[0] - (np.arange(nb)[::-1] + 0.5) * dxl
    right = edges[-1] + (np.arange(nb) + 0.5) * dxr
    positions = np.concatenate([left, interior, right])
    widths = np.concatenate([np.full(nb, dxl), widths_int, np.full(nb, dxr)])
    return ParticleDiscretisation(positions, widths, nb)


def sample_points(domain: Domain, n: int) -> np.ndarray:
    """n evaluation points uniformly spaced over [a, b], endpoints included.

    These are query points for the approximation, not particle positions.
    """
    if n < 2:
        raise DiscretisationError("need at least 2 sample points")
    return np.linspace(domain.a, domain.b, n)
