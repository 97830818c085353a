"""1-D particle discretisation of a finite interval.

The interval [a, b] is split into N subintervals; one particle sits at the
centre of each. Optional boundary (ghost) particles continue the outermost
spacing beyond the interval ends, which mitigates kernel-support truncation
when summing near a or b.
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
    """Subinterval edges plus particle positions and widths.

    ``edges`` holds the N+1 interior subinterval edges (edges[0] = a,
    edges[-1] = b). ``positions`` and ``widths`` cover all particles in
    ascending order: ``n_boundary_each_end`` ghosts below a, the N interior
    particles, then the same number of ghosts above b. Ghost particles carry
    the width of the adjacent interior subinterval.
    """

    edges: np.ndarray
    positions: np.ndarray
    widths: np.ndarray
    n_boundary_each_end: int
    total_count: int = field(init=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        nb = self.n_boundary_each_end

        if edges.ndim != 1 or edges.size < 2:
            raise DiscretisationError("need at least two subinterval edges")
        if np.any(np.diff(edges) <= 0.0):
            raise DiscretisationError("edges must be strictly increasing")
        if nb < 0:
            raise DiscretisationError("n_boundary_each_end must be nonnegative")
        n_interior = edges.size - 1
        if positions.shape != widths.shape or positions.size != n_interior + 2 * nb:
            raise DiscretisationError("positions/widths must cover interior plus boundary particles")
        if np.any(np.diff(positions) <= 0.0):
            raise DiscretisationError("positions must be strictly increasing")
        if np.any(widths <= 0.0):
            raise DiscretisationError("widths must be positive")

        interior = positions[nb:positions.size - nb]
        mid = 0.5 * (edges[:-1] + edges[1:])
        atol = 1e-12 * max(1.0, abs(edges[-1]))
        # np.isclose(interior, mid, rtol=0, atol): equal infinities match, NaN
        # matches nothing, and an infinite centre only its equal (atol may be inf)
        centred = (np.abs(interior - mid) <= atol) & np.isfinite(mid) | (interior == mid)
        if not centred.all():
            raise DiscretisationError("interior particles must sit at subinterval centres")

        for arr in (edges, positions, widths):
            arr.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "total_count", positions.size)

    @property
    def num_interior(self) -> int:
        return self.edges.size - 1

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
    if n_boundary_each_end < 0:
        raise DiscretisationError("n_boundary_each_end must be nonnegative")

    n, nb = num_particles, n_boundary_each_end
    dx = domain.length / n
    edges = domain.a + np.arange(n + 1) * dx
    edges[-1] = domain.b  # guard the right endpoint against accumulation error
    # Positions built from (k + 1/2) dx offsets: for dyadic domains this keeps
    # the layout bit-exactly mirror-symmetric, which the odd-kernel
    # cancellation tests rely on.
    interior = domain.a + (np.arange(n) + 0.5) * dx
    left = domain.a - (np.arange(nb)[::-1] + 0.5) * dx
    right = domain.b + (np.arange(nb) + 0.5) * dx
    positions = np.concatenate([left, interior, right])
    widths = np.full(positions.size, dx)
    return ParticleDiscretisation(edges, positions, widths, nb)


def from_edges(edges, n_boundary_each_end: int = 0) -> ParticleDiscretisation:
    """Discretisation from explicit (possibly non-uniform) subinterval edges.

    Ghost particles continue the outermost subinterval width beyond each end.
    ``ParticleDiscretisation`` checks that the edges increase.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DiscretisationError("need at least two subinterval edges")
    nb = n_boundary_each_end
    widths_int = np.diff(edges)
    interior = 0.5 * (edges[:-1] + edges[1:])
    dxl, dxr = widths_int[0], widths_int[-1]
    left = edges[0] - (np.arange(nb)[::-1] + 0.5) * dxl
    right = edges[-1] + (np.arange(nb) + 0.5) * dxr
    positions = np.concatenate([left, interior, right])
    widths = np.concatenate([np.full(nb, dxl), widths_int, np.full(nb, dxr)])
    return ParticleDiscretisation(edges, positions, widths, nb)


def sample_points(domain: Domain, n: int) -> np.ndarray:
    """n evaluation points uniformly spaced over [a, b], endpoints included.

    These are query points for the approximation, not particle positions.
    """
    if n < 2:
        raise DiscretisationError("need at least 2 sample points")
    return np.linspace(domain.a, domain.b, n)
