"""Particle layout construction: centres, ghost particles, layout checks."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsph.discretization import (
    DiscretisationError,
    Domain,
    check_positions,
    sample_points,
    uniform_positions,
)
from qsph.registers import build_a


def edge_layout(edges, nb=0):
    """Positions and widths of a non-uniform layout for the oracle tests: the
    centres and widths of the cells between ascending edges, plus nb ghost
    cells per end that continue the outermost widths."""
    edges = np.asarray(edges, dtype=float)
    first, last = edges[1] - edges[0], edges[-1] - edges[-2]
    edges = np.concatenate([edges[0] - first * np.arange(nb, 0, -1), edges,
                            edges[-1] + last * np.arange(1, nb + 1)])
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


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
    positions = uniform_positions(Domain(0.0, 1.0), 4)
    np.testing.assert_array_equal(positions, [0.125, 0.375, 0.625, 0.875])


def test_uniform_with_ghosts_extends_the_grid():
    positions = uniform_positions(Domain(-1.0, 1.0), 4, n_boundary_each_end=2)
    np.testing.assert_allclose(
        positions,
        [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75])
    np.testing.assert_allclose(positions[2:-2], [-0.75, -0.25, 0.25, 0.75])


def test_ghost_positions_mirror_exactly():
    # dyadic domains and power-of-two counts make the layout mirror-symmetric
    # about the domain centre bit for bit; odd-kernel cancellation tests
    # depend on this
    for m in (4, 5, 6, 7, 8):
        p = uniform_positions(Domain(-1.0, 1.0), 2 ** m, n_boundary_each_end=4)
        np.testing.assert_array_equal(p, -p[::-1])


def test_zero_particles_rejected():
    with pytest.raises(DiscretisationError):
        uniform_positions(Domain(0.0, 1.0), 0)
    with pytest.raises(DiscretisationError):
        uniform_positions(Domain(0.0, 1.0), 4, n_boundary_each_end=-1)


def test_edges_recoverable_from_positions_and_widths():
    positions = uniform_positions(Domain(-3.0, 5.0), 32, n_boundary_each_end=3)
    left = positions[3:-3] - 0.25 / 2.0
    np.testing.assert_allclose(left, -3.0 + np.arange(32) * 0.25, rtol=0, atol=1e-15)


def test_sample_points_span_the_domain():
    pts = sample_points(Domain(0.0, 2.0), 5)
    np.testing.assert_array_equal(pts, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(DiscretisationError):
        sample_points(Domain(0.0, 2.0), 1)


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=8))
def test_counts_and_ordering(n, nb):
    positions = uniform_positions(Domain(-2.0, 3.0), n, n_boundary_each_end=nb)
    assert positions.size == n + 2 * nb
    assert np.all(np.diff(positions) > 0)


NAN, INF = float("nan"), float("inf")


def test_layout_rejects_non_increasing_positions():
    for ghosts in ([0.5, -0.5], [-0.5, -0.5], [-0.4, -0.5]):
        with pytest.raises(DiscretisationError, match="positions must be strictly increasing"):
            check_positions(np.array(ghosts + [0.5, 1.5]))
    # dx = 1 ulp of 1.0: the centres round together
    with pytest.raises(DiscretisationError, match="positions must be strictly increasing"):
        uniform_positions(Domain(1.0, 1.0 + 2.0 ** -50), 4)
    # dx below 1 ulp of 1.0: the centres collapse onto a few doubles
    with pytest.raises(DiscretisationError, match="positions must be strictly increasing"):
        uniform_positions(Domain(1.0, 1.0 + 1e-14), 2 ** 16)


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
    """Positions, or the centres of edges with nb ghosts per end
    (``edge_layout``), with a NaN or an infinity anywhere are rejected by
    ``check_positions`` before any comparison could warn or let a NaN
    difference through, and so are coefficients (here the widths) by the
    oracle's ``build_a``; the finite ones are accepted. ``case`` names the row."""
    # inf - inf in edge_layout gives a NaN width or centre, which is rejected
    with np.errstate(invalid="ignore", over="ignore"):
        centres, _ = edge_layout(edges, nb)
    for check, values in ((check_positions, np.array(positions)),
                          (check_positions, centres),
                          (build_a, np.array(widths))):
        if np.isfinite(values).all():
            check(values)
            continue
        with pytest.raises(ValueError, match="finite"):
            check(values)


def test_negative_ghost_count_is_named():
    with pytest.raises(DiscretisationError, match="n_boundary_each_end must be nonnegative"):
        uniform_positions(Domain(0.0, 2.0), 2, -1)


@pytest.mark.parametrize("a, m", [(-1e16, 4), (-1e13, 12)])
def test_uniform_layout_on_a_domain_far_left_of_zero(a, m):
    # |a| >> |b|: the particles are distinct and centred to within ulps of a
    positions = uniform_positions(Domain(a, 1.0), 2 ** m, n_boundary_each_end=3)
    assert positions.size == 2 ** m + 6
    assert np.all(np.diff(positions) > 0)


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
