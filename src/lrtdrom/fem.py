"""Full-order model: P1 finite elements on structured triangulations.

The spatial domains are axis-aligned rectangles with optional axis-aligned
rectangular holes. Meshes are structured: the outer rectangle is divided
into square cells of a common size, cells covered by a hole are removed,
and every remaining cell is split into two right triangles. All boundary
conditions are natural (Robin or zero Neumann), so the FE space carries
every mesh node.

Two parametric problems are configured here. ``heat`` is a pure diffusion
equation on a 10 x 4 plate with three square holes, with a Robin exchange
condition on part of the outer boundary (coefficient alpha_1, exterior
value 1) and on the hole boundaries (coefficient 1/2, exterior value
alpha_2). ``advdiff`` is an advection-diffusion equation on the unit
square with a fixed Gaussian source and a five-parameter divergence-free
velocity field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs

from .errors import (
    AssemblyError,
    DomainError,
    GeometryError,
    SolverError,
    check_budget,
    resolve_memory_budget,
)

Rect = tuple[float, float, float, float]


class BoundaryTag:
    """Integer tags carried by boundary edges.

    ``NEUMANN`` marks zero-flux edges, ``OUTER_ROBIN`` the Robin part of
    the outer boundary, and ``HOLE`` the boundary of every hole.
    """

    NEUMANN = 0
    OUTER_ROBIN = 1
    HOLE = 2


# The advection-diffusion source density: a unit-mass Gaussian with this
# centre and width (see :func:`source_values`).
_SOURCE_CENTER = (0.25, 0.25)
_SOURCE_WIDTH = 0.05

# Peak float64 values per grid node of :func:`build_mesh` and the mesh's
# assembly, with a margin: 611-618 bytes were measured on heat at
# h = 0.2 to 0.025.
_MESH_DOUBLES_PER_NODE = 80


@dataclass(frozen=True)
class ProblemSpec:
    """Geometry, coefficients, and parameter box of one parametric problem.

    ``box`` lists one (min, max) pair per parameter. ``robin_side`` names
    the outer-rectangle side carrying the Robin condition ("left", "right",
    "bottom", "top") or is None when the whole outer boundary is zero-flux.
    """

    kind: str
    outer: Rect
    holes: tuple[Rect, ...]
    box: tuple[tuple[float, float], ...]
    final_time: float
    nu: float = 1.0
    robin_side: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("heat", "advdiff"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError("parameter box sides must have positive length")
        if self.kind == "advdiff" and not self.nu > 0:
            raise ValueError("diffusion coefficient must be positive")

    @property
    def n_params(self) -> int:
        return len(self.box)


def heat_problem() -> ProblemSpec:
    """Heat exchange on [0,10]x[0,4] minus three unit-square holes."""
    holes = tuple((cx - 0.5, 1.5, cx + 0.5, 2.5) for cx in (2.5, 5.0, 7.5))
    return ProblemSpec(
        kind="heat",
        outer=(0.0, 0.0, 10.0, 4.0),
        holes=holes,
        box=((0.01, 0.501), (0.0, 0.9)),
        final_time=20.0,
        robin_side="left",
    )


def advdiff_problem() -> ProblemSpec:
    """Advection-diffusion with a Gaussian source on the unit square."""
    return ProblemSpec(
        kind="advdiff",
        outer=(0.0, 0.0, 1.0, 1.0),
        holes=(),
        box=((-0.1, 0.1),) * 5,
        final_time=1.0,
        nu=1.0 / 30.0,
    )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with ``steps`` intervals of size ``final_time/steps``."""

    final_time: float
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("need at least one time step")
        if not self.final_time > 0:
            raise ValueError("final time must be positive")

    @property
    def dt(self) -> float:
        return self.final_time / self.steps

    def times(self) -> np.ndarray:
        """Time levels t_1 .. t_N (the initial time 0 is not included)."""
        return np.arange(1, self.steps + 1) * self.dt


@dataclass(frozen=True)
class Mesh2D:
    """Structured triangulation.

    ``cell`` is the square cell size the construction snapped to; each cell
    contributes two congruent right triangles, so the largest element
    diameter is cell * sqrt(2).
    The arrays are read-only: a mesh holds the affine operator terms of
    the last problem assembled on it (see :func:`affine_operator`), and
    they must not go stale.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: np.ndarray
    cell: float
    _terms: AffineOperator | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        for a in (self.nodes, self.triangles, self.boundary_edges, self.edge_tags):
            a.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def _snap_cell_size(problem: ProblemSpec, h: float) -> tuple[float, int, int]:
    """Largest cell size <= h that tiles the outer rectangle and hole edges."""
    x0, y0, x1, y1 = problem.outer
    width, height = x1 - x0, y1 - y0

    def divides(value: float, c: float) -> bool:
        q = value / c
        return abs(q - round(q)) <= 1e-9 * max(1.0, abs(q))

    # The height and every hole edge's offset must be whole cells.
    lengths = [height]
    for hx0, hy0, hx1, hy1 in problem.holes:
        lengths += [hx0 - x0, hx1 - x0, hy0 - y0, hy1 - y0]
    nx_min = int(np.ceil(width / h - 1e-9))
    for nx in range(max(nx_min, 1), max(nx_min, 1) + 100_000):
        c = width / nx
        if all(divides(v, c) for v in lengths):
            return c, nx, round(height / c)
    raise GeometryError(
        f"no cell size <= {h} tiles the domain and hole boundaries evenly"
    )


def build_mesh(problem: ProblemSpec, h: float) -> Mesh2D:
    """Triangulate the problem domain with target cell size ``h``.

    The realized cell size is ``h`` snapped down to the nearest value that
    divides the outer rectangle and aligns every hole edge with a grid
    line. Cells inside holes are removed; boundary edges are tagged with
    the problem's Robin segments. The (nx + 1)(ny + 1) grid nodes must
    fit the memory budget of :func:`resolve_memory_budget` before any
    array of that size is allocated.
    """
    if not h > 0:
        raise GeometryError("mesh size must be positive")
    x0, y0, x1, y1 = problem.outer
    if not (x0 < x1 and y0 < y1):
        raise GeometryError("outer rectangle is degenerate")
    for hx0, hy0, hx1, hy1 in problem.holes:
        if not (hx0 < hx1 and hy0 < hy1):
            raise GeometryError("hole rectangle is degenerate")
        if hx0 <= x0 or hx1 >= x1 or hy0 <= y0 or hy1 >= y1:
            raise GeometryError("hole rectangle must be strictly inside the domain")
    for i, a in enumerate(problem.holes):
        for b in problem.holes[i + 1 :]:
            if a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]:
                raise GeometryError("hole rectangles must be pairwise disjoint")

    # Snapping only shrinks the cell, so the nodes at size h are a lower
    # bound; it reads inf where width / h overflows, before any snapping.
    nodes_at_h = ((x1 - x0) / float(h) + 1) * ((y1 - y0) / float(h) + 1)
    check_budget(_MESH_DOUBLES_PER_NODE * nodes_at_h, resolve_memory_budget(), "mesh")
    c, nx, ny = _snap_cell_size(problem, h)
    check_budget(
        _MESH_DOUBLES_PER_NODE * (nx + 1) * (ny + 1), resolve_memory_budget(), "mesh"
    )

    # Hole footprints in cell-index space (exact integers by construction).
    hole_cells = []
    for hx0, hy0, hx1, hy1 in problem.holes:
        hole_cells.append(
            (
                round((hx0 - x0) / c),
                round((hy0 - y0) / c),
                round((hx1 - x0) / c),
                round((hy1 - y0) / c),
            )
        )

    keep = np.ones((nx, ny), dtype=bool)
    for ilo, jlo, ihi, jhi in hole_cells:
        keep[ilo:ihi, jlo:jhi] = False
    if not keep.any():
        raise GeometryError("holes cover the whole domain")

    # A node survives when at least one adjacent cell survives.
    node_keep = np.zeros((nx + 1, ny + 1), dtype=bool)
    node_keep[:-1, :-1] |= keep
    node_keep[1:, :-1] |= keep
    node_keep[:-1, 1:] |= keep
    node_keep[1:, 1:] |= keep

    new_id = -np.ones((nx + 1, ny + 1), dtype=np.int64)
    order = np.argwhere(node_keep)  # sorted by (ix, iy)
    new_id[order[:, 0], order[:, 1]] = np.arange(order.shape[0])

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    nodes = np.column_stack([xs[order[:, 0]], ys[order[:, 1]]])

    ci, cj = np.nonzero(keep)
    ll = new_id[ci, cj]
    lr = new_id[ci + 1, cj]
    ur = new_id[ci + 1, cj + 1]
    ul = new_id[ci, cj + 1]
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.vstack([lower, upper]).astype(np.int64)

    # Boundary edges appear in exactly one triangle.
    edges = np.vstack(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    edges_sorted = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges_sorted, axis=0, return_counts=True)
    boundary_edges = uniq[counts == 1]

    # Grid indices (i, j) of both end nodes of every boundary edge, (E, 2)
    # each; an edge is on a side or a hole rim when both its ends are.
    gi, gj = order[boundary_edges, 0], order[boundary_edges, 1]
    tags = np.zeros(boundary_edges.shape[0], dtype=np.int64)
    sides = {"left": gi == 0, "right": gi == nx, "bottom": gj == 0, "top": gj == ny}
    if problem.robin_side in sides:
        tags[sides[problem.robin_side].all(axis=1)] = BoundaryTag.OUTER_ROBIN
    for ilo, jlo, ihi, jhi in hole_cells:
        inside = (ilo <= gi) & (gi <= ihi) & (jlo <= gj) & (gj <= jhi)
        rim = (gi == ilo) | (gi == ihi) | (gj == jlo) | (gj == jhi)
        tags[(inside & rim).all(axis=1)] = BoundaryTag.HOLE

    mesh = Mesh2D(
        nodes=nodes,
        triangles=triangles,
        boundary_edges=boundary_edges,
        edge_tags=tags,
        cell=c,
    )
    _, area = _triangle_geometry(mesh)
    if np.any(area <= 0):
        raise GeometryError("triangulation produced non-positive areas")
    return mesh


def _triangle_geometry(mesh: Mesh2D) -> tuple[np.ndarray, np.ndarray]:
    """Vertex coordinates (T,3,2) and signed areas (T,) of all triangles."""
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return p, area


def _gradient_coefficients(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients b, c with grad(phi_k) = (b_k, c_k) / (2 area)."""
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return b, c


def _triangle_entries(mesh: Mesh2D) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the 3x3 block of every triangle, row-major."""
    tri = mesh.triangles
    return np.repeat(tri, 3, axis=1).reshape(-1), np.tile(tri, (1, 3)).reshape(-1)


def _scatter(mesh: Mesh2D, local: np.ndarray) -> sp.csr_matrix:
    """Scatter per-triangle 3x3 blocks into a CSR matrix."""
    rows, cols = _triangle_entries(mesh)
    mat = sp.coo_matrix(
        (local.reshape(-1), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return mat.tocsr()


def assemble_mass(mesh: Mesh2D) -> sp.csr_matrix:
    """Exact P1 mass matrix (element rule (area/12)*[[2,1,1],[1,2,1],[1,1,2]])."""
    _, area = _triangle_geometry(mesh)
    if np.any(area <= 0):
        raise AssemblyError("degenerate triangle encountered in mass assembly")
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = area[:, None, None] * base
    return _scatter(mesh, local)


def assemble_stiffness(mesh: Mesh2D) -> sp.csr_matrix:
    """Exact P1 stiffness matrix (integral of grad phi_i . grad phi_j)."""
    p, area = _triangle_geometry(mesh)
    if np.any(area <= 0):
        raise AssemblyError("degenerate triangle encountered in stiffness assembly")
    b, c = _gradient_coefficients(p)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area
    )[:, None, None]
    return _scatter(mesh, local)


def assemble_h1_gram(mesh: Mesh2D) -> sp.csr_matrix:
    """H1 Gram matrix: stiffness plus mass."""
    return (assemble_stiffness(mesh) + assemble_mass(mesh)).tocsr()


def _selected_edges(mesh: Mesh2D, tags: set[int]) -> np.ndarray:
    mask = np.isin(mesh.edge_tags, list(tags))
    return mesh.boundary_edges[mask]


def _edge_mass_entries(
    mesh: Mesh2D, tags: set[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the edge mass blocks over boundary edges
    carrying one of ``tags``: (length/6) * [[2,1],[1,2]] per edge."""
    edges = _selected_edges(mesh, tags)
    length = np.linalg.norm(
        mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1
    )
    base = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    local = length[:, None, None] * base
    rows = np.repeat(edges, 2, axis=1).reshape(-1)
    cols = np.tile(edges, (1, 2)).reshape(-1)
    return rows, cols, local.reshape(-1)


def boundary_load(mesh: Mesh2D, tags: set[int]) -> np.ndarray:
    """Load vector of a unit boundary source on edges carrying ``tags``.

    Exact for P1: each endpoint of an edge receives length/2.
    """
    edges = _selected_edges(mesh, tags)
    g = np.zeros(mesh.n_nodes)
    length = np.linalg.norm(
        mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1
    )
    np.add.at(g, edges[:, 0], 0.5 * length)
    np.add.at(g, edges[:, 1], 0.5 * length)
    return g


def _advection_modes(x: np.ndarray) -> np.ndarray:
    """The six fields that make up the advection-diffusion velocity at
    points ``x`` (shape (..., 2)), shape (6, ..., 2).

    The velocity is a constant unit drift at 45 degrees (the first field)
    plus the curl of a five-mode cosine stream function, alpha_i times
    the (i+1)-th field: linear in (1, alpha) and divergence-free by
    construction.
    """
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    s1, s2 = np.sin(np.pi * x1), np.sin(np.pi * x2)
    zero = np.zeros_like(s1)
    drift = np.full_like(s1, np.cos(np.pi / 4.0))
    components = (
        (drift, drift),
        (zero, s1),
        (-s2, zero),
        (-np.cos(np.pi * x1) * s2, s1 * np.cos(np.pi * x2)),
        (zero, 2.0 * np.sin(2.0 * np.pi * x1)),
        (-2.0 * np.sin(2.0 * np.pi * x2), zero),
    )
    return np.stack([np.stack(pair, axis=-1) for pair in components])


def check_alpha(problem: ProblemSpec, alpha: Sequence[float]) -> np.ndarray:
    """Validate the shape and finiteness of a parameter vector.

    Box membership is deliberately not enforced here: the operator is a
    well-posed PDE for any coefficient values, and the parameter box only
    constrains where snapshots are sampled and interpolated.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (problem.n_params,):
        raise DomainError(
            f"expected {problem.n_params} parameters, got shape {alpha.shape}"
        )
    if not np.all(np.isfinite(alpha)):
        raise DomainError("parameter vector must be finite")
    return alpha


def source_values(x: np.ndarray) -> np.ndarray:
    """Gaussian source density of the advection-diffusion problem at
    points ``x`` (shape (..., 2))."""
    sx, sy = _SOURCE_CENTER
    s2 = _SOURCE_WIDTH**2
    x = np.asarray(x, dtype=float)
    r2 = (x[..., 0] - sx) ** 2 + (x[..., 1] - sy) ** 2
    return np.exp(-r2 / (2.0 * s2)) / (2.0 * np.pi * s2)


def _advection_blocks(p: np.ndarray, area: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Per-triangle advection blocks for velocities ``eta`` (T, 2) at the
    centroids, one-point (centroid) quadrature."""
    b, c = _gradient_coefficients(p)
    # (eta . grad phi_j) is constant per triangle; phi_i(centroid) = 1/3.
    conv = (eta[:, 0:1] * b + eta[:, 1:2] * c) / (2.0 * area)[:, None]
    local = (area[:, None, None] / 3.0) * conv[:, None, :]
    return np.broadcast_to(local, (len(area), 3, 3))


def assemble_load(mesh: Mesh2D, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Load vector of a volumetric source, one-point centroid quadrature.

    ``fn`` maps an array of points (..., 2) to source densities (...).
    """
    p, area = _triangle_geometry(mesh)
    centroids = p.mean(axis=1)
    f = np.asarray(fn(centroids), dtype=float)
    g = np.zeros(mesh.n_nodes)
    contrib = np.broadcast_to((area * f / 3.0)[:, None], mesh.triangles.shape)
    np.add.at(g, mesh.triangles, contrib)
    return g


def _csr_entries(matrix: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every stored entry of a CSR matrix, in order."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return rows, matrix.indices.astype(np.int64)


def _weighted_sum(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_q weights[q] * terms[q], added term by term in order.

    Each product is rounded before it is added (no fused multiply-add),
    so a sum reproduces the same sum written out with sparse matrices.
    """
    total = weights[0] * terms[0]
    for w, term in zip(weights[1:], terms[1:]):
        total += w * term
    return total


@dataclass(frozen=True)
class AffineOperator:
    """The parameter-independent terms of one problem's operator and load
    on one mesh.

    A(alpha) = sum_q theta_q A_q and g(alpha) = sum_p phi_p g_p, with
    coefficient vectors affine in alpha: theta = op_coeffs @ (1, alpha)
    and phi = load_coeffs @ (1, alpha). Every A_q is stored as the data
    array of one shared CSR pattern (``indptr``, ``indices``), so an
    evaluation is a weighted sum of arrays. The arrays are read-only.
    Built by :func:`affine_operator`.
    """

    problem: ProblemSpec
    mesh: Mesh2D
    indptr: np.ndarray
    indices: np.ndarray
    op_terms: np.ndarray
    op_coeffs: np.ndarray
    load_terms: np.ndarray
    load_coeffs: np.ndarray

    def __post_init__(self) -> None:
        # The mesh holds the terms and every caller shares them.
        for a in (self.indptr, self.indices, self.op_terms, self.op_coeffs,
                  self.load_terms, self.load_coeffs):
            a.flags.writeable = False

    def _affine(self, alpha: Sequence[float]) -> np.ndarray:
        return np.concatenate(([1.0], check_alpha(self.problem, alpha)))

    def theta(self, alpha: Sequence[float]) -> np.ndarray:
        """Operator coefficients at ``alpha``; equal coefficients mean
        equal operators."""
        return self.op_coeffs @ self._affine(alpha)

    def operator(self, theta: np.ndarray) -> sp.csr_matrix:
        """The operator sum_q theta_q A_q."""
        n = self.mesh.n_nodes
        data = _weighted_sum(theta, self.op_terms)
        return sp.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=(n, n)
        )

    def phi(self, alpha: Sequence[float]) -> np.ndarray:
        """Load coefficients at ``alpha``."""
        return self.load_coeffs @ self._affine(alpha)

    def load(self, alpha: Sequence[float]) -> np.ndarray:
        """The load vector at ``alpha``."""
        return _weighted_sum(self.phi(alpha), self.load_terms)

    def __call__(self, alpha: Sequence[float]) -> tuple[sp.csr_matrix, np.ndarray]:
        return self.operator(self.theta(alpha)), self.load(alpha)


def affine_operator(mesh: Mesh2D, problem: ProblemSpec) -> AffineOperator:
    """The affine terms of ``problem`` on ``mesh``, assembled once.

    The mesh holds the terms of the last problem they were assembled
    for, so a repeated call with an equal problem returns them without
    assembly; another problem replaces them.

    heat:    A = stiffness + alpha_1 * outer Robin edge mass
                 + 1/2 * hole edge mass;
             g = alpha_1 * outer Robin edge load
                 + 1/2 * alpha_2 * hole edge load.
    advdiff: A = nu * stiffness + C_0 + sum_i alpha_i * C_i, where C_i is
             the centroid-rule advection matrix of the i-th velocity
             field of :func:`_advection_modes` (C_0 the drift);
             g = Gaussian source load (centroid rule).
    """
    held = mesh._terms
    if held is not None and held.problem == problem:
        return held
    stiffness = assemble_stiffness(mesh)
    n = mesh.n_nodes
    # The stiffness matrix keeps an entry (explicit zeros too) for every
    # pair of nodes that share a triangle, so every term fits its pattern.
    rows, cols = _csr_entries(stiffness)
    keys = rows * n + cols

    def on_pattern(rows: np.ndarray, cols: np.ndarray, values) -> np.ndarray:
        entries = rows * n + cols
        at = np.minimum(np.searchsorted(keys, entries), keys.size - 1)
        if not np.array_equal(keys[at], entries):
            raise AssemblyError("boundary edge is not an edge of any triangle")
        return np.bincount(at, weights=values, minlength=keys.size)

    if problem.kind == "heat":
        holes = {BoundaryTag.HOLE}
        robin = {BoundaryTag.OUTER_ROBIN}
        op_terms = [
            stiffness.data,
            on_pattern(*_edge_mass_entries(mesh, robin)),
            on_pattern(*_edge_mass_entries(mesh, holes)),
        ]
        op_coeffs = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.0]]
        load_terms = [boundary_load(mesh, robin), boundary_load(mesh, holes)]
        load_coeffs = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]
    else:
        p, area = _triangle_geometry(mesh)
        rows, cols = _triangle_entries(mesh)
        advection = [
            on_pattern(rows, cols, _advection_blocks(p, area, eta).reshape(-1))
            for eta in _advection_modes(p.mean(axis=1))
        ]
        op_terms = [stiffness.data, *advection]
        op_coeffs = np.vstack([problem.nu * np.eye(1, 6), np.eye(6)])
        load_terms = [assemble_load(mesh, source_values)]
        load_coeffs = np.eye(1, 6)
    terms = AffineOperator(
        problem=problem,
        mesh=mesh,
        indptr=stiffness.indptr,
        indices=stiffness.indices,
        op_terms=np.array(op_terms),
        op_coeffs=np.array(op_coeffs),
        load_terms=np.array(load_terms),
        load_coeffs=np.array(load_coeffs),
    )
    object.__setattr__(mesh, "_terms", terms)
    return terms


def assemble_operator(
    mesh: Mesh2D, problem: ProblemSpec, alpha: Sequence[float]
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Spatial operator A(alpha) and load vector g(alpha): the terms of
    :func:`affine_operator`, evaluated at ``alpha``."""
    return affine_operator(mesh, problem)(alpha)


@dataclass(frozen=True)
class FomTrajectory:
    """Columns u^1 .. u^N of nodal coefficients (the initial state
    excluded), shape (M, N)."""

    states: np.ndarray


def check_pivots(pivots: np.ndarray, what: str) -> None:
    """Raise SolverError unless the smallest pivot magnitude exceeds 1e-14
    times the largest; a NaN pivot fails too."""
    small, large = pivots.min(), pivots.max()
    if not small > 1e-14 * large:
        with np.errstate(invalid="ignore"):  # 0/0 reads nan
            ratio = small / large
        raise SolverError(f"{what} numerically singular: pivot ratio {ratio:.3e}")


def backward_euler_solve(
    mass: sp.spmatrix,
    op: sp.spmatrix,
    load: np.ndarray,
    u0: np.ndarray,
    tg: TimeGrid,
    out: np.ndarray,
) -> None:
    """March (M + dt A) u^n = M u^{n-1} + dt g for n = 1..N into ``out``.

    ``u0`` is a block of k start states (M, k) that share the operator and
    ``load`` a fixed (M, k) block, one load per column; the time-step
    matrix is factored once and every step solves for the whole block.
    u^n goes to ``out[:, n - 1]``, shape (M, N, k); a view into a larger
    array works.

    The march runs in node order on a banded LAPACK factor of half-bandwidth
    bw = max |i - j| over the stored entries. :func:`build_mesh` numbers
    the nodes column by column, so bw is the nodes per grid column plus
    one; a matrix in any other order is solved the same way, on a wider
    band. The factor is Cholesky (``dpbtrf``/``dpbtrs``, (bw + 1) M
    doubles) when the assembled matrix is exactly symmetric, as for heat,
    and LU with partial pivoting (``dgbtrf``/``dgbtrs``, (3 bw + 1) M
    doubles) otherwise. Per step this is O(M bw) work: faster than a
    sparse LU on every mesh the package's studies and tests use (heat
    h = 0.05, bw = 82, included), and slower only for nonsymmetric systems
    on finer meshes (advdiff h = 0.0125, bw = 82). A failed factorization
    (a symmetric matrix that is not positive definite, an exactly zero
    pivot) or pivots that fail :func:`check_pivots` raise
    :class:`SolverError`.
    """
    dt = tg.dt
    mass, op = mass.tocsr(), op.tocsr()
    m = mass.shape[0]
    k = out.shape[-1]
    want, shapes = ((m, k), (m, k), (m, tg.steps, k)), (u0.shape, load.shape, out.shape)
    if shapes != want:
        raise SolverError(
            f"march needs start, load, states of shapes {want}, got {shapes}"
        )
    mass_rows, mass_cols = _csr_entries(mass)
    op_rows, op_cols = _csr_entries(op)
    rows = np.concatenate([mass_rows, op_rows])
    cols = np.concatenate([mass_cols, op_cols])
    bw = int(np.abs(rows - cols).max()) if rows.size else 0
    # Entry (i, j) sits in row 2 bw + i - j, column j of the (3 bw + 1, M)
    # Fortran array that dgbtrf factors (kl = ku = bw).
    ldab = 3 * bw + 1
    slots = (2 * bw + rows - cols) + ldab * cols
    band = np.zeros(ldab * m)
    np.add.at(band, slots, np.concatenate([mass.data, dt * op.data]))
    full = band.reshape(ldab, m, order="F")
    symmetric = np.array_equal(band[slots], band[(2 * bw + cols - rows) + ldab * rows])
    if symmetric:
        # Upper storage: rows bw..2 bw of the general layout hold i <= j.
        factor, info = dpbtrf(full[bw : 2 * bw + 1])
        pivots = factor[bw] ** 2
    else:
        factor, ipiv, info = dgbtrf(full, bw, bw, overwrite_ab=1)
        pivots = np.abs(factor[2 * bw])
    if info != 0:
        raise SolverError(f"time-step system factorization failed (LAPACK info {info})")
    check_pivots(pivots, "time-step system")
    scaled = dt * load
    u = u0
    for n in range(tg.steps):
        rhs = mass @ u
        rhs += scaled
        if symmetric:
            u, _ = dpbtrs(factor, rhs, overwrite_b=1)
        else:
            u, _ = dgbtrs(factor, bw, bw, rhs, ipiv, overwrite_b=1)
        out[:, n] = u


def initial_state(problem: ProblemSpec, mesh: Mesh2D) -> np.ndarray:
    """Nodal coefficients of the initial condition: every problem starts
    from rest, which :func:`solve_fom_batch` relies on."""
    return np.zeros(mesh.n_nodes)


def solve_fom_batch(
    terms: AffineOperator,
    mass: sp.spmatrix,
    tg: TimeGrid,
    alphas: Sequence[Sequence[float]],
    out: np.ndarray,
) -> None:
    """Full-order trajectories at every row of ``alphas``, into ``out[:, :, j]``.

    ``out`` has shape (M, N, len(alphas)). Points with equal operator
    coefficients form a group that shares one factorization. A group of
    one marches its own load straight into ``out``. A larger group
    marches the P load terms g_p of ``terms`` instead, as one (M, N, P)
    block from a zero start, and writes each point's trajectory as the
    combination sum_p phi_p(alpha) U_p. The march is linear in the load,
    so this is exact (up to round-off) because every supported problem
    starts from a zero :func:`initial_state`. On a heat grid, where
    alpha_2 enters only the load, each alpha_1 node costs a 2-column
    march however many alpha_2 nodes share it.

    Every trajectory is checked as it is written; a non-finite value
    raises :class:`SolverError`.
    """
    m = terms.mesh.n_nodes
    if out.shape != (m, tg.steps, len(alphas)):
        raise ValueError(
            f"output has shape {out.shape}, expected {(m, tg.steps, len(alphas))}"
        )
    thetas = [terms.theta(alpha) for alpha in alphas]
    groups: dict[bytes, list[int]] = {}
    for j, theta in enumerate(thetas):
        groups.setdefault(theta.tobytes(), []).append(j)
    u0 = initial_state(terms.problem, terms.mesh)
    for cols in groups.values():
        op = terms.operator(thetas[cols[0]])
        if len(cols) == 1:
            j = cols[0]
            load = terms.load(alphas[j])[:, None]
            backward_euler_solve(mass, op, load, u0[:, None], tg, out[:, :, j : j + 1])
            _check_finite(out[:, :, j], alphas[j])
            continue
        loads = terms.load_terms.T  # (M, P)
        modes = np.empty((m, tg.steps, loads.shape[1]), order="F")
        backward_euler_solve(mass, op, loads, np.zeros(loads.shape), tg, modes)
        for j in cols:
            phi = terms.phi(alphas[j])
            col = out[:, :, j]
            np.multiply(modes[:, :, 0], phi[0], out=col)
            for p in range(1, phi.size):
                col += phi[p] * modes[:, :, p]
            _check_finite(col, alphas[j])


def _check_finite(states: np.ndarray, alpha: Sequence[float]) -> None:
    if not np.isfinite(states).all():
        raise SolverError(
            f"full-order solve at alpha = {np.asarray(alpha).tolist()} "
            "produced non-finite values"
        )


def solve_fom(
    problem: ProblemSpec,
    mesh: Mesh2D,
    tg: TimeGrid,
    alpha: Sequence[float],
    mass: sp.spmatrix | None = None,
) -> FomTrajectory:
    """Assemble and time-step the full-order model at one parameter value
    (a batch of one)."""
    if mass is None:
        mass = assemble_mass(mesh)
    states = np.empty((mesh.n_nodes, tg.steps, 1), order="F")
    solve_fom_batch(affine_operator(mesh, problem), mass, tg, [alpha], states)
    return FomTrajectory(states=states[:, :, 0])
