"""Snapshot tensors over parameter grids, and tensor primitives.

The snapshot tensor of a problem with D parameters has order D + 2 and
shape (M, N, K_1, ..., K_D): M spatial degrees of freedom, N time steps,
and K_d grid nodes along the d-th parameter axis. All tensors in this
package are stored in Fortran (first-index-fastest) layout so that the
first-mode unfolding is a zero-copy view.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, FormatError, check_budget
from .fem import (
    Mesh2D,
    ProblemSpec,
    TimeGrid,
    affine_operator,
    assemble_mass,
    solve_fom_batch,
)

TENSOR_MAGIC = b"LRT1"
_MAX_ORDER = 64


@dataclass(frozen=True)
class ParameterGrid:
    """Cartesian grid in parameter space, one sorted node array per axis."""

    axes: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for a in self.axes:
            if a.ndim != 1 or a.size < 1:
                raise ValueError("each grid axis needs at least one node")
            if not np.all(np.diff(a) > 0):
                raise ValueError("grid axis nodes must be strictly increasing")

    @property
    def n_params(self) -> int:
        return len(self.axes)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.counts))

    def points(self) -> np.ndarray:
        """All grid points, shape (n_points, D), first axis fastest."""
        mats = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([m.ravel(order="F") for m in mats])


def uniform_grid(
    box: Sequence[tuple[float, float]], counts: Sequence[int]
) -> ParameterGrid:
    """Uniform grid with ``counts[d]`` equispaced nodes spanning ``box[d]``."""
    if len(box) != len(counts):
        raise ValueError("box and counts must have the same length")
    axes = []
    for (lo, hi), k in zip(box, counts):
        if not lo < hi:
            raise ValueError(f"box side [{lo}, {hi}] has non-positive length")
        if int(k) < 1:
            raise ValueError("each axis needs at least one node")
        axes.append(np.linspace(lo, hi, int(k)))
    return ParameterGrid(axes=tuple(axes))


def generate_snapshots(
    problem: ProblemSpec,
    mesh: Mesh2D,
    tg: TimeGrid,
    grid: ParameterGrid,
) -> np.ndarray:
    """Solve the full-order model at every grid node and stack the results.

    Returns the order-(D+2) snapshot tensor in Fortran layout, one
    trajectory per grid node, filled in first-axis-fastest order. The
    operator terms are assembled once, and the nodes that share an
    operator cost one march of the problem's load terms
    (:func:`solve_fom_batch`), which writes every trajectory straight
    into the tensor and checks it there: a non-finite value raises
    :class:`SolverError`. Beyond the tensor itself the peak memory is
    a few trajectories and one stack's 1 MiB band (a single block's, if
    larger), however large the grid. The tensor must fit the
    memory budget of :func:`resolve_memory_budget`.
    """
    if grid.n_params != problem.n_params:
        raise DomainError(
            f"grid has {grid.n_params} axes, problem has {problem.n_params} parameters"
        )
    m, n = mesh.n_nodes, tg.steps
    check_budget(m * n * grid.n_points, "snapshot tensor")

    tensor = np.empty((m, n, *grid.counts), order="F")
    solve_fom_batch(
        affine_operator(mesh, problem),
        assemble_mass(mesh),
        tg,
        grid.points(),
        tensor.reshape(m, n, -1, order="F"),
    )
    return tensor


def frobenius_norm(tensor: np.ndarray) -> float:
    """Frobenius norm of a tensor of any order."""
    return float(np.linalg.norm(np.ravel(tensor, order="K")))


def unfold_first_mode(tensor: np.ndarray) -> np.ndarray:
    """First-mode unfolding, shape (dim_0, prod of the rest).

    For Fortran-contiguous input this is a zero-copy view; column j holds
    the fiber at the j-th multi-index of the trailing modes, trailing
    modes enumerated first-index-fastest.
    """
    return tensor.reshape(tensor.shape[0], -1, order="F")


def max_trajectory_norm(
    tensor: np.ndarray, mass: sp.spmatrix, dt: float
) -> float:
    """Largest discrete space-time norm over the tensor's trajectory slices.

    Each trailing multi-index k fixes a trajectory X_k of shape (M, N);
    the norm is sqrt(dt * max_k sum_n x_n' mass x_n).
    """
    m, n = tensor.shape[0], tensor.shape[1]
    flat = tensor.reshape(m, n, -1, order="F")
    best = 0.0
    for k in range(flat.shape[2]):
        x = flat[:, :, k]
        energy = float(np.sum(x * (mass @ x)))
        best = max(best, energy)
    return float(np.sqrt(dt * best))


def spectral_norm(matrix: sp.spmatrix | np.ndarray) -> float:
    """Upper bound on the largest singular value: sqrt(|A|_1 * |A|_inf).

    The bound holds for every matrix (|A|_2^2 <= |A|_1 |A|_inf), so a
    tolerance converted with it is never too loose. For a symmetric
    matrix such as the P1 mass it is the largest absolute row sum: 1.01x
    the true norm on the heat mesh at h = 0.2, 1.03x on advdiff at
    h = 0.1, more on coarse meshes where boundary nodes weigh more.
    """
    a = abs(matrix)
    return float(np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))


def save_tensor(path: str | os.PathLike, tensor: np.ndarray) -> None:
    """Write a tensor in the package's binary layout.

    Layout: magic "LRT1", uint32 order, uint32 dims, float64 payload in
    first-index-fastest order, all little-endian.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        np.asarray([tensor.ndim], dtype="<u4").tofile(f)
        np.asarray(tensor.shape, dtype="<u4").tofile(f)
        np.ravel(tensor, order="F").astype("<f8", copy=False).tofile(f)


def _read_exact(f, count: int, dtype: str, what: str) -> np.ndarray:
    # A crafted header can claim any size: check it against the bytes left
    # in the file before numpy allocates it.
    if count * np.dtype(dtype).itemsize > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"truncated file while reading {what}")
    data = np.fromfile(f, dtype=dtype, count=count)
    if data.size != count:
        raise FormatError(f"truncated file while reading {what}")
    return data


def _read_finite(f, count: int, what: str) -> np.ndarray:
    """Read ``count`` float64 values; a non-finite one is a FormatError."""
    data = _read_exact(f, count, "<f8", what).astype(np.float64, copy=False)
    if not np.isfinite(data).all():
        raise FormatError(f"non-finite value in {what}")
    return data


def _read_header(f, magic: bytes) -> np.ndarray:
    """Check a file's magic, then read its uint32 order and dims."""
    found = f.read(4)
    if found != magic:
        raise FormatError(f"bad magic {found!r}, expected {magic!r}")
    order = int(_read_exact(f, 1, "<u4", "order")[0])
    if not 1 <= order <= _MAX_ORDER:
        raise FormatError(f"implausible tensor order {order}")
    dims = _read_exact(f, order, "<u4", "dims").astype(np.int64)
    if np.any(dims < 1):
        raise FormatError(f"non-positive dimension in {tuple(dims)}")
    return dims


def load_tensor(path: str | os.PathLike) -> np.ndarray:
    """Read a tensor written by :func:`save_tensor`."""
    with open(path, "rb") as f:
        dims = _read_header(f, TENSOR_MAGIC)
        payload = _read_finite(f, math.prod(dims.tolist()), "payload")
        if f.read(1) != b"":
            raise FormatError("trailing bytes after tensor payload")
    return payload.reshape(tuple(dims), order="F")
