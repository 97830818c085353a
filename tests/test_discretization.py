"""Particle layout construction: centres, widths, ghost particles, layout checks."""
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
    uniform_positions,
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
    edges = [0.0, 0.3, 0.45, 0.9, 2.0]
    disc = from_edges(edges, n_boundary_each_end=2)
    interior = disc.interior_positions
    assert disc.num_interior == len(edges) - 1
    for k in range(disc.num_interior):
        assert edges[k] < interior[k] < edges[k + 1]


def test_edges_recoverable_from_positions_and_widths():
    disc = uniform_discretise(Domain(-3.0, 5.0), 32, n_boundary_each_end=3)
    left = disc.interior_positions - disc.interior_widths / 2.0
    np.testing.assert_allclose(left, -3.0 + np.arange(32) * 0.25, rtol=0, atol=1e-15)


def test_arrays_are_read_only():
    disc = uniform_discretise(Domain(0.0, 1.0), 8)
    with pytest.raises(ValueError):
        disc.positions[0] = 99.0
    with pytest.raises(ValueError):
        disc.widths[0] = 99.0


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


def _layout(positions, widths, nb=0):
    return ParticleDiscretisation(np.array(positions, dtype=float),
                                  np.array(widths, dtype=float), nb)


@pytest.mark.parametrize("edges", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]])
def test_layout_rejects_non_increasing_edges(edges):
    # a repeated or backward edge is a subinterval of non-positive width
    with pytest.raises(DiscretisationError, match="widths must be positive"):
        from_edges(edges)


def test_layout_rejects_non_increasing_positions():
    for ghosts in ([0.5, -0.5], [-0.5, -0.5], [-0.4, -0.5]):
        with pytest.raises(DiscretisationError, match="positions must be strictly increasing"):
            _layout(ghosts + [0.5, 1.5], [1.0] * 4, nb=1)
    # dx = 1 ulp of 1.0: the centres round together
    with pytest.raises(DiscretisationError, match="positions must be strictly increasing"):
        uniform_discretise(Domain(1.0, 1.0 + 2.0 ** -50), 4)
    # dx below 1 ulp of 1.0: the centres collapse onto a few doubles
    with pytest.raises(DiscretisationError, match="positions must be strictly increasing"):
        uniform_discretise(Domain(1.0, 1.0 + 1e-14), 2 ** 16)


@pytest.mark.parametrize("widths", [[0.0, 1.0], [1.0, -0.0], [1.0, -2.0]])
def test_layout_rejects_a_zero_or_negative_width(widths):
    with pytest.raises(DiscretisationError, match="widths must be positive"):
        _layout([0.5, 1.5], widths)


@pytest.mark.parametrize("positions, widths, nb", [
    ([0.5], [1.0], -1),
    ([0.5, 1.5], [1.0], 0),
    ([[0.5, 1.5]], [[1.0, 1.0]], 0),
    ([], [], 0),
    ([0.5, 1.5], [1.0, 1.0], 1),
])
def test_layout_rejects_a_bad_shape_or_ghost_count(positions, widths, nb):
    with pytest.raises(DiscretisationError, match="nonnegative|must cover"):
        _layout(positions, widths, nb)


@pytest.mark.parametrize("edges, positions, widths, nb, case", [
    ([0.0, NAN, 2.0], [0.5, 1.5], [1.0, 1.0], 0, "subinterval edge NaN"),
    ([0.0, 1.0, 2.0], [0.5, NAN], [1.0, 1.0], 0, "subinterval centre NaN"),
    ([0.0, 1.0, 2.0], [NAN, 0.5, 1.5, 2.5], [1.0] * 4, 1, "Non-finite ghost: NaN"),
    ([0.0, 1.0, 2.0], [-INF, 0.5, 1.5, 2.5], [1.0] * 4, 1, "Non-finite ghost: -inf"),
    ([0.0, 1.0, 2.0], [-0.5, 0.5, 1.5, INF], [1.0] * 4, 1, "Non-finite ghost: +inf"),
    ([0.0, 1.0, 2.0], [-1.5, -0.5, 0.5, 1.5, INF, INF], [1.0] * 6, 2,
     "Non-finite ghosts: two at +inf"),
    ([0.0, 1.0, 2.0], [0.5, 1.5], [NAN, 1.0], 0, "Non-finite width: NaN"),
    ([0.0, 1.0, 2.0], [0.5, 1.5], [INF, 1.0], 0, "Non-finite width: +inf"),
    ([0.0, 1.0, 2.0], [0.5, 1.5], [-INF, 1.0], 0, "width -inf"),
    ([0.0, 1.0, INF], [0.5, 2.0], [1.0, 1.0], 0, "subinterval edge +inf"),
    ([0.0, 1.0, INF], [0.5, INF], [1.0, 1.0], 0, "last edge and centre +inf"),
    ([-INF, 0.0, 1.0], [-1.0, 0.5], [1.0, 1.0], 0, "first edge -inf"),
    ([-INF, 0.0, 1.0], [-INF, 0.5], [1.0, 1.0], 0, "first edge and centre -inf"),
    ([-INF, -INF], [-INF], [1.0], 0, "both edges and the centre -inf"),
    ([-INF, -INF], [0.0], [1.0], 0, "both edges -inf"),
    ([INF, INF], [INF], [1.0], 0, "both edges and the centre +inf"),
    ([-INF, INF], [0.0], [1.0], 0, "edges -inf and +inf"),
    ([-INF, INF], [NAN], [1.0], 0, "edges -inf and +inf, centre NaN"),
])
def test_layout_checks_on_nan_and_inf_entries(edges, positions, widths, nb, case):
    """A layout, or edges for ``from_edges``, with a NaN or an infinity
    anywhere is rejected, before any comparison could warn or let a NaN
    difference through; the finite ones are accepted. ``case`` names the row."""
    for build, values in ((lambda: _layout(positions, widths, nb), positions + widths),
                          (lambda: from_edges(edges, nb), edges)):
        if np.isfinite(values).all():
            assert build().total_count == len(positions)
            continue
        # inf - inf in from_edges gives a NaN width or centre, which is rejected
        with np.errstate(invalid="ignore"), \
                pytest.raises(DiscretisationError, match="must be finite"):
            build()


def test_from_edges_rejects_an_infinite_edge():
    # its centre and ghosts would sit at +inf, twice
    with pytest.raises(DiscretisationError, match="must be finite"):
        from_edges([0.0, 1.0, INF], 1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_from_edges_rejects_an_overflowing_centre():
    # finite edges whose midpoint sums overflow to inf
    with pytest.raises(DiscretisationError, match="must be finite"):
        from_edges([0.0, 1e308, 1.7e308, 1.79e308])


def test_negative_ghost_count_is_named_by_both_builders():
    # from_edges checks it before np.full would reject the negative length
    for build in (lambda: from_edges([0.0, 1.0, 2.0], -1),
                  lambda: uniform_discretise(Domain(0.0, 2.0), 2, -1)):
        with pytest.raises(DiscretisationError,
                           match="n_boundary_each_end must be nonnegative"):
            build()


@pytest.mark.parametrize("a, m", [(-1e16, 4), (-1e13, 12)])
def test_uniform_layout_on_a_domain_far_left_of_zero(a, m):
    # |a| >> |b|: the particles are distinct and centred to within ulps of a
    disc = uniform_discretise(Domain(a, 1.0), 2 ** m, n_boundary_each_end=3)
    assert disc.num_interior == 2 ** m
    assert np.all(np.diff(disc.positions) > 0)


def test_uniform_positions_equal_the_concatenated_build():
    """The in-place build gives the bits of the three-part expression:
    a - (j + 1/2) dx below a, a + (k + 1/2) dx inside, b + (j + 1/2) dx above b."""
    for a, b in ((-1.0, 1.0), (0.0, 3.0), (-1e5, 1e-3)):
        domain = Domain(a, b)
        for m in range(2, 17):
            n = 2 ** m
            dx = domain.length / n
            for nb in range(21):
                left = a - (np.arange(nb)[::-1] + 0.5) * dx
                interior = a + (np.arange(n) + 0.5) * dx
                right = b + (np.arange(nb) + 0.5) * dx
                want = np.concatenate([left, interior, right])
                got = uniform_positions(domain, n, nb)
                assert got.tobytes() == want.tobytes(), (a, b, m, nb)
