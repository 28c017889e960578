"""Lagrange weight vectors and scalar grid interpolation."""

from __future__ import annotations

import numpy as np
import pytest

from lrtdrom import (
    DomainError,
    InterpolationScheme,
    lagrange_weights,
    uniform_grid,
    weight_vectors,
)
from oracles import grid_indices, grid_point, interpolate


def test_exact_node_gives_indicator():
    nodes = np.array([0.0, 0.5, 1.0])
    w = lagrange_weights(0.5, nodes, p=2)
    np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])


def test_midpoint_weights():
    nodes = np.array([0.0, 0.5, 1.0])
    w = lagrange_weights(0.25, nodes, p=2)
    np.testing.assert_allclose(w, [0.5, 0.5, 0.0], rtol=0, atol=1e-15)


def test_linear_weights_between_nodes():
    nodes = np.array([0.0, 0.5, 1.0])
    w = lagrange_weights(0.2, nodes, p=2)
    np.testing.assert_allclose(w, [0.6, 0.4, 0.0], rtol=0, atol=1e-15)


def test_equidistant_tie_prefers_smaller_index():
    w = lagrange_weights(0.5, np.array([0.0, 1.0]), p=1)
    np.testing.assert_array_equal(w, [1.0, 0.0])


def test_outside_span_rejected():
    nodes = np.array([0.0, 0.5, 1.0])
    with pytest.raises(DomainError):
        lagrange_weights(-0.01, nodes, p=2)
    with pytest.raises(DomainError):
        lagrange_weights(1.01, nodes, p=2)


def test_support_size_at_most_p(rng):
    nodes = np.linspace(0.0, 1.0, 7)
    for p in (1, 2, 3):
        for value in rng.uniform(0.0, 1.0, size=50):
            w = lagrange_weights(float(value), nodes, p)
            assert isinstance(w, np.ndarray) and w.shape == nodes.shape
            support = np.flatnonzero(w)
            assert 1 <= support.size <= p
            # Stencil nodes are contiguous on a uniform grid.
            assert support[-1] - support[0] == support.size - 1


def test_scheme_validation():
    grid = uniform_grid([(0.0, 1.0), (0.0, 1.0)], [3, 2])
    InterpolationScheme(grid, p=2)
    with pytest.raises(ValueError):
        InterpolationScheme(grid, p=3)  # second axis has only 2 nodes
    with pytest.raises(ValueError):
        InterpolationScheme(grid, p=0)


def test_grid_point_gives_indicators():
    grid = uniform_grid([(0.0, 1.0), (2.0, 4.0)], [3, 5])
    scheme = InterpolationScheme(grid, p=2)
    chi = weight_vectors((0.5, 3.0), scheme)
    assert len(chi) == 2
    np.testing.assert_array_equal(chi[0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(chi[1], [0.0, 0.0, 1.0, 0.0, 0.0])


def test_p2_weights_are_convex(rng):
    # Partition of unity with nonnegative entries on uniform grids, so
    # the l1 norm is exactly 1.
    grid = uniform_grid([(0.0, 1.0), (-1.0, 1.0)], [5, 9])
    scheme = InterpolationScheme(grid, p=2)
    for _ in range(1000):
        alpha = (rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
        for w in weight_vectors(alpha, scheme):
            assert w.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.abs(w).sum() == pytest.approx(1.0, abs=1e-14)
            assert np.all(w >= -1e-15)


def test_p3_stability_constant(rng):
    # Quadratic stencils overshoot; measured l1 bound on uniform grids.
    grid = uniform_grid([(0.0, 1.0)], [9])
    scheme = InterpolationScheme(grid, p=3)
    worst = 0.0
    for _ in range(1000):
        (w,) = weight_vectors((rng.uniform(0.0, 1.0),), scheme)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        worst = max(worst, np.abs(w).sum())
    assert worst <= 1.25


def test_constant_reproduced_exactly(rng):
    grid = uniform_grid([(0.0, 2.0), (0.0, 1.0)], [4, 5])
    scheme = InterpolationScheme(grid, p=2)
    samples = np.full(grid.counts, 7.5)
    for _ in range(20):
        alpha = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))
        assert interpolate(samples, alpha, scheme) == pytest.approx(7.5, rel=1e-15)


def test_samples_reproduced_at_nodes(rng):
    grid = uniform_grid([(0.0, 1.0), (0.0, 1.0)], [3, 4])
    scheme = InterpolationScheme(grid, p=2)
    samples = rng.normal(size=grid.counts)
    for idx in grid_indices(grid):
        alpha = grid_point(grid, idx)
        assert interpolate(samples, alpha, scheme) == pytest.approx(
            samples[idx], rel=1e-14
        )


def sample_function(grid, fn):
    pts = grid.points()
    vals = fn(pts)
    return vals.reshape(grid.counts, order="F")


def test_polynomial_exactness(rng):
    box = [(0.0, 1.0), (0.0, 1.0)]
    grid = uniform_grid(box, [5, 5])

    def linear(pts):
        return 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1]

    def quadratic(pts):
        return 1.0 - pts[:, 0] ** 2 + 0.5 * pts[:, 1] ** 2 + pts[:, 0] * pts[:, 1]

    lin = sample_function(grid, linear)
    quad = sample_function(grid, quadratic)
    s2 = InterpolationScheme(grid, p=2)
    s3 = InterpolationScheme(grid, p=3)
    for _ in range(50):
        alpha = rng.uniform(0.0, 1.0, size=2)
        pt = alpha.reshape(1, 2)
        assert interpolate(lin, alpha, s2) == pytest.approx(
            float(linear(pt)[0]), abs=1e-13
        )
        assert interpolate(quad, alpha, s3) == pytest.approx(
            float(quadratic(pt)[0]), abs=1e-12
        )


def test_refinement_order_p2(rng):
    # Interpolating sin(a1)cos(a2): the worst error over random points
    # must decay as the square of the grid spacing.
    box = [(0.0, 1.0), (0.0, 1.0)]
    alphas = rng.uniform(0.0, 1.0, size=(1000, 2))

    def fn(pts):
        return np.sin(pts[:, 0]) * np.cos(pts[:, 1])

    errors = []
    for k in (5, 9, 17):  # spacing halves each time
        grid = uniform_grid(box, [k, k])
        scheme = InterpolationScheme(grid, p=2)
        samples = sample_function(grid, fn)
        exact = fn(alphas)
        worst = max(
            abs(interpolate(samples, a, scheme) - e)
            for a, e in zip(alphas, exact)
        )
        errors.append(worst)
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def loop_lagrange_weights(value, nodes, p):
    """Per-node Lagrange weights: one product over the other stencil nodes
    for each node, the plain loop the vectorised weights must reproduce."""
    nodes = np.asarray(nodes, dtype=float)
    dist = np.abs(nodes - value)
    chosen = np.sort(np.argsort(dist, kind="stable")[:p])
    values = np.zeros(nodes.size)
    exact = np.flatnonzero(dist == 0.0)
    if exact.size:
        values[exact[0]] = 1.0
        return values
    x = nodes[chosen]
    for k in range(p):
        others = np.delete(x, k)
        values[chosen[k]] = np.prod((value - others) / (x[k] - others))
    return values


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_weights_bitwise_equal_to_loop_oracle(rng, p):
    uniform = np.linspace(0.01, 0.501, 9)
    uneven = np.sort(rng.uniform(-0.1, 0.1, size=9))
    for nodes in (uniform, uneven):
        between = rng.uniform(nodes[0], nodes[-1], size=500)
        for value in (*nodes, *between, *(0.5 * (nodes[1:] + nodes[:-1]))):
            w = lagrange_weights(float(value), nodes, p)
            np.testing.assert_array_equal(w, loop_lagrange_weights(float(value), nodes, p))
