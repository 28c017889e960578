"""Plain reference implementations that the tests compare the package against.

None of these runs in the package's pipeline. Each is the direct,
unoptimized form of a quantity the package computes another way: the
full tensor of a train, a mode product, the coefficient contraction of a
train by ``tensordot``, a scalar interpolant, a POD basis
from the snapshot Gram matrix, an assembled edge mass matrix, the
advection velocity as a field, the multi-indices, nodes and box of a
parameter grid, the time levels of a time grid, and a backward-Euler
march on a sparse LU factor.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from lrtdrom import (
    InterpolationScheme,
    Mesh2D,
    ParameterGrid,
    TimeGrid,
    TTTensor,
    interpolate_coefficients,
    weight_vectors,
)
from lrtdrom.errors import check_budget
from lrtdrom.fem import _advection_modes, _edge_mass_entries
from lrtdrom.rom import _RANK_CUTOFF


def mode_product(tensor: np.ndarray, factor: np.ndarray, mode: int) -> np.ndarray:
    """Contract ``factor`` with ``tensor`` along ``mode``.

    A vector factor of length dim_mode removes that mode. A matrix factor
    of shape (J, dim_mode) replaces the mode's dimension with J.
    """
    f = np.asarray(factor, dtype=float)
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for order-{tensor.ndim} tensor")
    if f.ndim == 1:
        return np.tensordot(tensor, f, axes=([mode], [0]))
    if f.ndim == 2:
        out = np.tensordot(f, tensor, axes=([1], [mode]))
        return np.moveaxis(out, 0, mode)
    raise ValueError("factor must be a vector or a matrix")


def tt_to_full(tt: TTTensor) -> np.ndarray:
    """Contract all cores back into the full tensor (Fortran layout), after
    checking it and its last partial product against the memory budget."""
    n_entries = int(np.prod(tt.dims))
    check_budget(2 * n_entries, "tensor-train expansion")
    w = np.ones((1, 1))
    for core in tt.cores:
        r_prev, n, r = core.shape
        w = w @ core.reshape(r_prev, n * r, order="F")
        w = w.reshape(-1, r, order="F")
    return w.reshape(tt.dims, order="F")


def tensordot_coefficients(tt: TTTensor, weights: Sequence[np.ndarray]) -> np.ndarray:
    """Local coefficient matrix (r_1, dim_1) by ``tensordot``, which copies
    each core into C order: collapse each parameter mode, last core first,
    absorb everything to the right, then contract core 1 with the result."""
    v = np.ones(1)
    for k in range(tt.order - 1, 1, -1):
        v = np.tensordot(tt.cores[k], weights[k - 2], axes=([1], [0])) @ v
    return np.tensordot(tt.cores[1], v, axes=([2], [0]))


def interpolate_snapshots(tt: TTTensor, weights: Sequence[np.ndarray]) -> np.ndarray:
    """Interpolated trajectory at one parameter value, shape (dim_0, dim_1)."""
    return tt.cores[0][0] @ interpolate_coefficients(tt, weights)


def interpolate(
    values: np.ndarray, alpha: Sequence[float], scheme: InterpolationScheme
) -> float:
    """Interpolate a scalar field sampled on the scheme's grid.

    ``values`` has shape ``scheme.grid.counts``. Used as the plain-function
    reference for the in-tensor interpolation routines.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != scheme.grid.counts:
        raise ValueError("values shape does not match the grid")
    out = values
    for w in weight_vectors(alpha, scheme):
        out = np.tensordot(out, w, axes=([0], [0]))
    return float(out)


def pod_basis(states: np.ndarray, mass: sp.spmatrix, ell: int) -> np.ndarray:
    """Mass-orthonormal basis of the ``ell`` dominant snapshot directions.

    Built from the snapshot Gram matrix, so only dense eigenvalue work of
    size N is needed. Raises ValueError when ``ell`` exceeds the
    numerical rank of the snapshot set.
    """
    u = np.asarray(states, dtype=float)
    gram = u.T @ (mass @ u)
    vals, vecs = sla.eigh(gram, check_finite=False)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vals = np.maximum(vals, 0.0)
    rank = int(np.count_nonzero(vals > _RANK_CUTOFF * vals[0])) if vals.size else 0
    if not 1 <= ell <= rank:
        raise ValueError(f"basis size {ell} exceeds numerical rank {rank}")
    return (u @ vecs[:, :ell]) / np.sqrt(vals[:ell])


def boundary_mass(mesh: Mesh2D, tag: int) -> sp.csr_matrix:
    """Edge mass matrix over boundary edges carrying ``tag``.

    Exact P1 edge rule: (length/6) * [[2,1],[1,2]] per edge.
    """
    rows, cols, values = _edge_mass_entries(mesh, tag)
    n = mesh.n_nodes
    return sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()


def advection_field(x: np.ndarray, alpha: Sequence[float]) -> np.ndarray:
    """Velocity field of the advection-diffusion problem at points ``x``.

    A constant unit drift at 45 degrees plus the curl of a five-mode cosine
    stream function; divergence-free by construction. ``x`` has shape
    (..., 2); the result matches. The combination of the fields that the
    package assembles its advection terms from.
    """
    coeffs = np.concatenate(([1.0], np.asarray(alpha, dtype=float).reshape(-1)))
    if coeffs.size != 6:
        raise ValueError(
            f"the advection field takes 5 parameters, got {coeffs.size - 1}"
        )
    return np.tensordot(coeffs, _advection_modes(x), axes=1)


def grid_indices(grid: ParameterGrid) -> Iterator[tuple[int, ...]]:
    """Multi-indices of the grid nodes in first-axis-fastest order."""
    for flat in range(grid.n_points):
        yield tuple(int(i) for i in np.unravel_index(flat, grid.counts, order="F"))


def grid_point(grid: ParameterGrid, idx: Sequence[int]) -> np.ndarray:
    """The grid node at multi-index ``idx``."""
    return np.array([grid.axes[d][i] for d, i in enumerate(idx)])


def grid_box(grid: ParameterGrid) -> tuple[tuple[float, float], ...]:
    """The (first, last) node of every axis."""
    return tuple((float(a[0]), float(a[-1])) for a in grid.axes)


def grid_spacings(grid: ParameterGrid) -> tuple[float, ...]:
    """Mean node spacing per axis (exact spacing for uniform axes)."""
    return tuple(
        float(a[-1] - a[0]) / (a.size - 1) if a.size > 1 else 0.0 for a in grid.axes
    )


def time_levels(tg: TimeGrid) -> np.ndarray:
    """Time levels t_1 .. t_N (the initial time 0 is not included)."""
    return np.arange(1, tg.steps + 1) * tg.dt


def superlu_march(
    mass: sp.spmatrix, op: sp.spmatrix, load: np.ndarray, u0: np.ndarray, tg
) -> np.ndarray:
    """Backward Euler on a SuperLU factor of (mass + dt op) in node order:
    the states (M, N, k) of a start block ``u0`` and a fixed load block
    ``load``, both (M, k)."""
    lu = splu((mass + tg.dt * op).tocsc())
    (m, k), u = u0.shape, u0
    states = np.empty((m, tg.steps, k), order="F")
    for n in range(tg.steps):
        u = lu.solve(mass @ u + tg.dt * load)
        states[:, n] = u
    return states
