"""Particle layout construction: edges, centres, widths, ghost particles."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsph.discretization import (
    DiscretisationError,
    Domain,
    ParticleDiscretisation,
    from_edges,
    sample_points,
    uniform_discretise,
)


def test_domain_validation():
    d = Domain(-1.0, 1.0)
    assert d.length == 2.0
    with pytest.raises(DiscretisationError):
        Domain(1.0, 1.0)
    with pytest.raises(DiscretisationError):
        Domain(2.0, -2.0)
    with pytest.raises(DiscretisationError):
        Domain(0.0, float("inf"))


def test_uniform_four_cells_unit_interval():
    disc = uniform_discretise(Domain(0.0, 1.0), 4)
    np.testing.assert_array_equal(disc.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(disc.positions, [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_array_equal(disc.widths, [0.25, 0.25, 0.25, 0.25])
    assert disc.total_count == 4
    assert disc.num_interior == 4


def test_uniform_with_ghosts_extends_the_grid():
    disc = uniform_discretise(Domain(-1.0, 1.0), 4, n_boundary_each_end=2)
    assert disc.total_count == 8
    np.testing.assert_allclose(
        disc.positions,
        [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75])
    np.testing.assert_array_equal(disc.widths, np.full(8, 0.5))
    np.testing.assert_allclose(disc.interior_positions,
                               [-0.75, -0.25, 0.25, 0.75])


def test_ghost_positions_mirror_exactly():
    # dyadic domains and power-of-two counts make the layout mirror-symmetric
    # about the domain centre bit for bit; odd-kernel cancellation tests
    # depend on this
    for m in (4, 5, 6, 7, 8):
        disc = uniform_discretise(Domain(-1.0, 1.0), 2 ** m, n_boundary_each_end=4)
        p = disc.positions
        np.testing.assert_array_equal(p, -p[::-1])


def test_zero_particles_rejected():
    with pytest.raises(DiscretisationError):
        uniform_discretise(Domain(0.0, 1.0), 0)
    with pytest.raises(DiscretisationError):
        uniform_discretise(Domain(0.0, 1.0), 4, n_boundary_each_end=-1)


def test_from_edges_non_uniform():
    disc = from_edges([0.0, 0.1, 0.4, 1.0])
    np.testing.assert_allclose(disc.positions, [0.05, 0.25, 0.7])
    np.testing.assert_allclose(disc.widths, [0.1, 0.3, 0.6])
    # ghosts continue the outermost widths
    g = from_edges([0.0, 0.1, 0.4, 1.0], n_boundary_each_end=1)
    np.testing.assert_allclose(g.positions[0], -0.05)
    np.testing.assert_allclose(g.positions[-1], 1.3)
    np.testing.assert_allclose(g.widths, [0.1, 0.1, 0.3, 0.6, 0.6])


def test_from_edges_rejects_non_increasing():
    with pytest.raises(DiscretisationError):
        from_edges([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(DiscretisationError):
        from_edges([1.0])


def test_positions_inside_their_cells():
    disc = from_edges([0.0, 0.3, 0.45, 0.9, 2.0], n_boundary_each_end=2)
    interior = disc.interior_positions
    for k in range(disc.num_interior):
        assert disc.edges[k] < interior[k] < disc.edges[k + 1]


def test_edges_recoverable_from_positions_and_widths():
    disc = uniform_discretise(Domain(-3.0, 5.0), 32, n_boundary_each_end=3)
    left = disc.interior_positions - disc.interior_widths / 2.0
    np.testing.assert_allclose(left, disc.edges[:-1], rtol=0, atol=1e-15)


def test_arrays_are_read_only():
    disc = uniform_discretise(Domain(0.0, 1.0), 8)
    with pytest.raises(ValueError):
        disc.positions[0] = 99.0
    with pytest.raises(ValueError):
        disc.edges[0] = 99.0


def test_sample_points_span_the_domain():
    pts = sample_points(Domain(0.0, 2.0), 5)
    np.testing.assert_array_equal(pts, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(DiscretisationError):
        sample_points(Domain(0.0, 2.0), 1)


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=8))
def test_counts_and_ordering(n, nb):
    disc = uniform_discretise(Domain(-2.0, 3.0), n, n_boundary_each_end=nb)
    assert disc.total_count == n + 2 * nb
    assert np.all(np.diff(disc.positions) > 0)
    assert np.all(disc.widths > 0)
    # interior widths add up to the domain length
    assert np.isclose(disc.interior_widths.sum(), 5.0, rtol=0, atol=1e-12)


NAN, INF = float("nan"), float("inf")


def _layout(edges, positions, widths, nb=0):
    return ParticleDiscretisation(np.array(edges, dtype=float),
                                  np.array(positions, dtype=float),
                                  np.array(widths, dtype=float), nb)


@pytest.mark.parametrize("edges", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]])
def test_layout_rejects_non_increasing_edges(edges):
    with pytest.raises(DiscretisationError, match="edges must be strictly increasing"):
        _layout(edges, [0.5, 1.5, 2.5], [1.0, 1.0, 1.0])


def test_layout_rejects_non_increasing_positions():
    for ghosts in ([0.5, -0.5], [-0.5, -0.5], [-0.4, -0.5]):
        with pytest.raises(DiscretisationError, match="positions must be strictly increasing"):
            _layout([0.0, 1.0, 2.0], ghosts + [0.5, 1.5], [1.0] * 4, nb=1)
    # dx = 1 ulp of 1.0: the edges still increase, the centres round together
    with pytest.raises(DiscretisationError, match="positions must be strictly increasing"):
        uniform_discretise(Domain(1.0, 1.0 + 2.0 ** -50), 4)
    # dx below 1 ulp of 1.0: the edges collapse first, so their check fires
    with pytest.raises(DiscretisationError, match="edges must be strictly increasing"):
        uniform_discretise(Domain(1.0, 1.0 + 1e-14), 2 ** 16)


@pytest.mark.parametrize("widths", [[0.0, 1.0], [1.0, -0.0], [1.0, -2.0]])
def test_layout_rejects_a_zero_or_negative_width(widths):
    with pytest.raises(DiscretisationError, match="widths must be positive"):
        _layout([0.0, 1.0, 2.0], [0.5, 1.5], widths)


def test_layout_interior_particles_sit_within_atol_of_the_centres():
    for b in (2.0, 1e6):  # atol = 1e-12 max(1, |b|)
        atol = 1e-12 * max(1.0, b)
        centres = np.array([0.25, 0.75]) * b
        _layout([0.0, b / 2, b], centres + [0.5 * atol, -0.5 * atol], [b / 2] * 2)
        with pytest.raises(DiscretisationError, match="subinterval centres"):
            _layout([0.0, b / 2, b], centres + [0.0, 2.0 * atol], [b / 2] * 2)


@pytest.mark.parametrize("edges, positions, widths, nb, rejected", [
    ([0.0, NAN, 2.0], [0.5, 1.5], [1.0, 1.0], 0, "subinterval centres"),
    ([0.0, 1.0, 2.0], [0.5, NAN], [1.0, 1.0], 0, "subinterval centres"),
    ([0.0, 1.0, 2.0], [NAN, 0.5, 1.5, 2.5], [1.0] * 4, 1, None),
    ([0.0, 1.0, 2.0], [-INF, 0.5, 1.5, 2.5], [1.0] * 4, 1, None),
    ([0.0, 1.0, 2.0], [-0.5, 0.5, 1.5, INF], [1.0] * 4, 1, None),
    ([0.0, 1.0, 2.0], [-1.5, -0.5, 0.5, 1.5, INF, INF], [1.0] * 6, 2, None),
    ([0.0, 1.0, 2.0], [0.5, 1.5], [NAN, 1.0], 0, None),
    ([0.0, 1.0, 2.0], [0.5, 1.5], [INF, 1.0], 0, None),
    ([0.0, 1.0, 2.0], [0.5, 1.5], [-INF, 1.0], 0, "widths must be positive"),
    # an infinite last edge makes atol infinite; an infinite centre still
    # matches only itself
    ([0.0, 1.0, INF], [0.5, 2.0], [1.0, 1.0], 0, "subinterval centres"),
    ([0.0, 1.0, INF], [0.5, INF], [1.0, 1.0], 0, None),
    ([-INF, 0.0, 1.0], [-1.0, 0.5], [1.0, 1.0], 0, "subinterval centres"),
    ([-INF, 0.0, 1.0], [-INF, 0.5], [1.0, 1.0], 0, None),
    ([-INF, -INF], [-INF], [1.0], 0, None),
    ([-INF, -INF], [0.0], [1.0], 0, "subinterval centres"),
    ([INF, INF], [INF], [1.0], 0, None),
    ([-INF, INF], [0.0], [1.0], 0, "subinterval centres"),
    ([-INF, INF], [NAN], [1.0], 0, "subinterval centres"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_layout_checks_on_nan_and_inf_entries(edges, positions, widths, nb, rejected):
    """Pinned: a NaN difference is not <= 0, and the centre check is np.isclose's."""
    if rejected is None:
        assert _layout(edges, positions, widths, nb).total_count == len(positions)
    else:
        with pytest.raises(DiscretisationError, match=rejected):
            _layout(edges, positions, widths, nb)
