"""Tensor-train decomposition and in-tensor parameter interpolation.

A tensor train represents an order-d tensor by d cores; core k has shape
(r_{k-1}, dim_k, r_k) with r_0 = r_d = 1. The decomposition here keeps
the cores left-orthogonal, so the first core doubles as an orthonormal
basis for the span of all snapshots. Parameter queries never rebuild the
full tensor: weight vectors are contracted directly with the parameter
cores, which turns a compressed snapshot tensor into a cheap map from a
parameter value to a local coefficient matrix.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas

from .errors import DomainError, FormatError, check_budget
from .tensors import (
    _read_exact,
    _read_finite,
    _read_header,
    frobenius_norm,
    max_trajectory_norm,
    spectral_norm,
    unfold_first_mode,
)

TT_MAGIC = b"LRTT"

# Trailing singular values at roundoff level relative to the largest one
# carry no information; keeping them would inflate ranks of exactly
# low-rank inputs.
_ROUNDOFF_FLOOR = 64.0 * np.finfo(np.float64).eps

# Randomized range finder for the first unfolding: block i holds this many
# Gaussian columns drawn from the seed (_SKETCH_SEED, i), so every run
# draws the same sketch and a memo can extend it block by block. It runs
# only when the smaller side holds at least _SKETCH_MIN_BLOCKS blocks;
# below that a dense SVD costs little.
_SKETCH_BLOCK = 32
_SKETCH_MIN_BLOCKS = 4
_SKETCH_SEED = 20110217

# The finder stops once its measured residual is at most this fraction of
# the first unfolding's truncation budget (or the roundoff floor, if that
# is larger), so it spends at most 1/256 of the budget's energy.
_BUDGET_FRACTION = 1.0 / 16.0

# Float64 values per column chunk over which |W - QB|_F is measured.
_CHUNK_DOUBLES = 1 << 17

# Largest entry of |U^T U - I| for which the first core counts as
# orthonormal in :func:`universal_basis`.
_ORTHONORMAL_TOL = 1e-13


@dataclass(frozen=True)
class TTTensor:
    """Tensor train: cores[k] has shape (ranks[k-1], dims[k], ranks[k])."""

    cores: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError("tensor train needs at least one core")
        r_prev = 1
        for k, core in enumerate(self.cores):
            if core.ndim != 3:
                raise ValueError(f"core {k} must be a 3-way array")
            if core.shape[0] != r_prev:
                raise ValueError(
                    f"core {k} left rank {core.shape[0]} does not match {r_prev}"
                )
            r_prev = core.shape[2]
        if r_prev != 1:
            raise ValueError("last core must have right rank 1")

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(core.shape[1] for core in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Interior ranks r_1 .. r_{d-1}."""
        return tuple(core.shape[2] for core in self.cores[:-1])


@dataclass(frozen=True)
class CompressionReport:
    """What the decomposition kept and what it threw away.

    ``discarded_energy[k]`` is the sum of squared singular values dropped
    at the k-th unfolding; for the first unfolding it also holds the
    energy |W - QB|_F^2 that the randomized range finder left out,
    measured directly (at most 1/256 of that unfolding's budget squared,
    or the roundoff floor; zero when it took the dense SVD). The total
    reconstruction error is bounded by ``error_bound``.
    """

    eps_tilde: float
    tensor_norm: float
    ranks: tuple[int, ...]
    discarded_energy: tuple[float, ...]

    @property
    def error_bound(self) -> float:
        return float(np.sqrt(sum(self.discarded_energy)))


def _memoized(memo: dict | None, key: str, compute):
    """``compute()``, or the value a caller-owned memo holds for ``key``."""
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _bind_memo(memo: dict | None, tensor: np.ndarray) -> None:
    """Tie a memo to the first tensor it sees; another shape or dtype is an error."""
    if memo is None:
        return
    owner = (tensor.shape, tensor.dtype.str)
    if memo.setdefault("owner", owner) != owner:
        raise ValueError(f"memo belongs to a tensor {memo['owner']}, got {owner}")


def frobenius_tolerance(
    eps: float,
    tensor: np.ndarray,
    mass: sp.spmatrix,
    dt: float,
    memo: dict | None = None,
) -> float:
    """Convert a trajectory-norm tolerance into a relative Frobenius one.

    eps bounds the worst trajectory error in the discrete space-time norm;
    the returned value bounds the relative Frobenius error of the full
    tensor that guarantees it:

        eps_tilde = eps * norm0 / (sqrt(|mass| * dt) * |tensor|_F)

    with norm0 the largest trajectory norm and |mass| the spectral norm.

    None of the three norms depends on eps. A caller converting several
    tolerances for one tensor passes the same ``memo`` dict each time: the
    first call stores the norms in it and later calls read them, so every
    result is bit-identical to a call without a memo. A memo serves one
    tensor with one ``mass`` and ``dt`` (and may be shared with
    :func:`tt_svd` on that tensor); the caller drops it with the tensor.
    """
    if eps < 0:
        raise ValueError("tolerance must be non-negative")
    _bind_memo(memo, tensor)
    fro = _memoized(memo, "fro", lambda: frobenius_norm(tensor))
    if fro == 0.0:
        raise DomainError("tolerance conversion undefined for a zero tensor")
    if eps == 0.0:
        return 0.0
    norm0 = _memoized(memo, "norm0", lambda: max_trajectory_norm(tensor, mass, dt))
    mass_norm = _memoized(memo, "mass_norm", lambda: spectral_norm(mass))
    return eps * norm0 / (np.sqrt(mass_norm * dt) * fro)


def _select_rank(
    s: np.ndarray, budget: float, residual: float = 0.0
) -> tuple[int, float]:
    """Smallest kept rank whose discarded tail energy stays under budget^2.

    ``residual`` is energy the factorization already left out; it counts
    towards every tail. Ties at exactly zero tail always qualify, so a
    zero budget keeps all nonzero singular values; when no rank meets the
    budget, all are kept. Trailing values at roundoff level relative to
    s[0] are dropped regardless. Returns (rank, discarded energy).
    """
    q = s.size
    tails = np.zeros(q + 1)
    tails[:q] = np.cumsum((s**2)[::-1])[::-1]
    tails += residual
    mask = (tails < budget**2) | (tails == 0.0)
    r = int(np.argmax(mask)) if mask.any() else q
    significant = int(np.count_nonzero(s > _ROUNDOFF_FLOOR * s[0])) if q else 0
    r = max(1, min(r, max(significant, 1)))
    return r, float(tails[r])


def _thin_svd(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return sla.svd(w, full_matrices=False, lapack_driver="gesdd", check_finite=False)


def _orthonormal(y: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of range(y), orthogonalized twice against ``q``."""
    for _ in range(1 if q is None else 2):
        if q is not None:
            y = y - q @ (q.T @ y)
        y = np.linalg.qr(y)[0]
    return y


def _residual_norm(w: np.ndarray, q: np.ndarray, b: np.ndarray) -> float:
    """|W - QB|_F, measured one column chunk of W at a time.

    Each chunk's energy is numpy's own einsum loop, not BLAS ``ddot``
    (``np.linalg.norm``): with more than one BLAS thread, a threaded
    ``ddot`` after every threaded ``dgemm`` made the pass about 15 times
    slower, while one thread runs both at the same speed.
    """
    rows, cols = w.shape
    step = max(1, _CHUNK_DOUBLES // rows)
    energy = 0.0
    for j in range(0, cols, step):
        # dgemm subtracts from a copy of the chunk, so W is not touched.
        chunk = blas.dgemm(-1.0, q, b[:, j : j + step], beta=1.0, c=w[:, j : j + step])
        flat = chunk.ravel(order="F")  # a view of the Fortran-ordered chunk
        energy += float(np.einsum("i,i->", flat, flat))
        del chunk, flat  # one chunk alive at a time
    return float(np.sqrt(energy))


class _RangeFinder:
    """Blocked adaptive range finder for one first unfolding W.

    After n blocks, Q (orthonormal, rows x 32n) and B = Q^T W approximate
    W, and ``residuals[n - 1]`` is |W - QB|_F measured directly. Each block
    draws Gaussian columns, takes one orthonormalized power step on the
    residual and is orthogonalized against the earlier blocks; residual
    products are taken as W x - Q(B x) and W^T y - B^T(Q^T y), so W - QB
    is never formed. A memo keeps the finder, so that a tighter target
    extends its blocks and a looser one reuses a prefix of them.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        self.max_blocks = min(shape) // 2 // _SKETCH_BLOCK
        self.least = 0.0  # least residual that released blocks reached
        self._drop_blocks(shape)

    def _drop_blocks(self, shape: tuple[int, int]) -> None:
        self.q = np.empty((shape[0], 0), order="F")
        self.b = np.empty((0, shape[1]), order="F")
        self.residuals: list[float] = []

    def blocks_for(self, w: np.ndarray, target: float) -> int | None:
        """Fewest blocks whose measured residual is at most ``target``.

        Adds blocks as needed. Returns None, and releases the blocks,
        when Q would pass half the smaller side first; the least residual
        they reached is kept, so a later target under it fails at once
        and a looser one draws the same blocks again.
        """
        if target < self.least:
            return None
        for n, r in enumerate(self.residuals, 1):
            if r <= target:
                return n
        while len(self.residuals) < self.max_blocks:
            self._add_block(w)
            if self.residuals[-1] <= target:
                return len(self.residuals)
        self.least = min(self.residuals)
        self._drop_blocks(w.shape)
        return None

    def _apply(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return w @ x - self.q @ (self.b @ x)

    def _add_block(self, w: np.ndarray) -> None:
        rng = np.random.default_rng((_SKETCH_SEED, len(self.residuals)))
        omega = rng.standard_normal((w.shape[1], _SKETCH_BLOCK))
        y = _orthonormal(self._apply(w, omega))
        z = _orthonormal(w.T @ y - self.b.T @ (self.q.T @ y))
        q_new = _orthonormal(self._apply(w, z), self.q if self.q.shape[1] else None)
        self.q = np.concatenate([self.q, q_new], axis=1)
        self.b = np.concatenate([self.b, blas.dgemm(1.0, q_new, w, trans_a=True)])
        self.residuals.append(_residual_norm(w, self.q, self.b))


def _first_unfolding_svd(
    w: np.ndarray, norm: float, budget: float = 0.0, memo: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Thin SVD of the first unfolding up to a measured residual.

    Returns (U, s, V^T, r2) with W = U diag(s) V^T + E, E orthogonal to
    U's columns and |E|_F^2 = r2; U is Fortran-ordered. A wide enough
    unfolding goes through :class:`_RangeFinder` until sqrt(r2) <= target
    = max(``budget`` / 16, roundoff floor of ``norm`` = |W|_F), then a
    dense SVD of the small B. A short side or a finder that does not
    converge takes the dense SVD of W with r2 = 0.

    With a ``memo`` the finder's blocks and the dense factors are kept in
    it; the result depends on W and the target alone, memo or not.
    """
    target = max(_BUDGET_FRACTION * budget, _ROUNDOFF_FLOOR * norm)
    if min(w.shape) >= _SKETCH_MIN_BLOCKS * _SKETCH_BLOCK:
        finder = _memoized(memo, "finder", lambda: _RangeFinder(w.shape))
        n = finder.blocks_for(w, target)
        if n is not None:
            k = n * _SKETCH_BLOCK
            ub, s, vt = _thin_svd(finder.b[:k])
            r2 = finder.residuals[n - 1] ** 2
            return blas.dgemm(1.0, finder.q[:, :k], ub), s, vt, r2
    return _memoized(memo, "first_svd", lambda: (*_thin_svd(w), 0.0))


def check_compression_budget(rows: int, cols: int, budget_gb: float) -> None:
    """Raise BudgetError unless compressing a snapshot tensor whose first
    unfolding is rows x cols fits the budget: the peak memory model.

    It counts the tensor and the dense fallback's peak: gesdd's working
    copy of the unfolding, U (rows x k), V^T (k x cols) and its
    4k^2 + 7k workspace, with k = min(rows, cols). That also bounds the
    range finder, which copies no part of the unfolding beyond one column
    chunk: it holds Q (rows x k/2 at most), B (k/2 x cols), a block of 32
    columns on each side and the chunk, and releases Q and B before any
    fallback. A memo keeps the finder's blocks or the dense factors alive
    as long as the tensor.
    """
    k = min(rows, cols)
    svd = rows * cols + rows * k + k * cols + 4 * k * k + 7 * k
    check_budget(
        rows * cols + svd, budget_gb, "snapshot tensor and its first-unfolding SVD"
    )


def tt_svd(
    tensor: np.ndarray, eps_tilde: float, memo: dict | None = None
) -> tuple[TTTensor, CompressionReport]:
    """Tensor-train decomposition, with relative Frobenius tolerance, of a
    tensor of at least two modes (``ValueError`` otherwise).

    Sequential truncated SVDs of the unfoldings, each allowed a discarded
    energy of (eps_tilde * |tensor|_F)^2 / (d - 1), which guarantees
    |tensor - result|_F <= eps_tilde * |tensor|_F. All cores except the
    last are left-orthogonal. eps_tilde = 0 reproduces the tensor to
    roundoff with minimal exact ranks.

    The first unfolding W is factored by :func:`_first_unfolding_svd`: a
    seeded randomized range finder that never copies W and stops once its
    measured residual |W - QB|_F is at most 1/16 of this unfolding's
    budget (or the roundoff floor, if larger, as at eps_tilde = 0), or a
    dense SVD when W's smaller side is under 128 or its spectrum is flat.
    The finder's residual |W - QB|_F^2 is part of ``discarded_energy[0]``,
    so ``error_bound`` stays a certificate built from measured quantities
    on both paths.

    A caller compressing one tensor at several tolerances passes the same
    ``memo`` dict each time: the first call stores |tensor|_F and the
    finder's blocks (or the dense factors) of the first unfolding in it,
    and a later call reuses them, adding blocks when its tighter budget
    needs more. Every later SVD still runs per call, since its input
    depends on the kept rank. Results depend on the tensor and eps_tilde
    alone and are bit-identical to a call without a memo, in any order of
    tolerances. A memo serves one tensor only and may hold factors as
    large as the tensor, so the caller drops it with the tensor.
    """
    if eps_tilde < 0:
        raise ValueError("tolerance must be non-negative")
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim < 2:
        raise ValueError("a tensor train needs a tensor of at least two modes")
    _bind_memo(memo, tensor)
    d = tensor.ndim
    dims = tensor.shape
    norm = _memoized(memo, "fro", lambda: frobenius_norm(tensor))
    budget = eps_tilde * norm / np.sqrt(d - 1)

    cores: list[np.ndarray] = []
    discarded: list[float] = []
    w = unfold_first_mode(tensor)
    r_prev = 1
    for k in range(d - 1):
        w = w.reshape(r_prev * dims[k], -1, order="F")
        if k == 0:
            u, s, vt, r2 = _first_unfolding_svd(w, norm, budget, memo)
        else:
            (u, s, vt), r2 = _thin_svd(w), 0.0
        r, dropped = _select_rank(s, budget, r2)
        # A copy, so the train does not pin the whole factor (or a memo's).
        cores.append(u[:, :r].copy(order="F").reshape(r_prev, dims[k], r, order="F"))
        discarded.append(dropped)
        w = s[:r, None] * vt[:r]
        r_prev = r
    cores.append(w.reshape(r_prev, dims[-1], 1, order="F"))
    tt = TTTensor(cores=tuple(cores))
    report = CompressionReport(
        eps_tilde=eps_tilde,
        tensor_norm=norm,
        ranks=tt.ranks,
        discarded_energy=tuple(discarded),
    )
    return tt, report


def universal_basis(tt: TTTensor) -> np.ndarray:
    """First core as an orthonormal basis of the joint snapshot space.

    Shape (dim_0, r_1). Raises ValueError when the core's columns are not
    orthonormal to within _ORTHONORMAL_TOL (the train was not built
    left-orthogonal, or holds a NaN).
    """
    u = tt.cores[0][0]
    gram = u.T @ u
    defect = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    if not defect <= _ORTHONORMAL_TOL:
        raise ValueError(f"first core is not left-orthogonal (defect {defect:.3e})")
    return u


def interpolate_coefficients(
    tt: TTTensor, weights: Sequence[np.ndarray]
) -> np.ndarray:
    """Local coefficient matrix of one parameter value, shape (r_1, dim_1).

    Cores 2..d-1 are collapsed with one weight vector each, last core
    first; the result applied to core 1 gives the matrix. Columns are
    time steps; the interpolated trajectory is the first core applied to
    this matrix. The cost depends on the ranks and the stencil sizes
    only, never on the full grid size.
    """
    d = tt.order
    if d < 3:
        raise ValueError("tensor train has no parameter modes")
    if len(weights) != d - 2:
        raise ValueError(f"expected {d - 2} weight vectors, got {len(weights)}")
    v = np.ones(1)
    for k in range(d - 1, 1, -1):
        chi = np.asarray(weights[k - 2], dtype=float)
        core = tt.cores[k]
        if chi.shape != (core.shape[1],):
            raise ValueError(
                f"weight vector {k - 2} has shape {chi.shape}, "
                f"axis has {core.shape[1]} nodes"
            )
        # Collapse the mode, then absorb everything to the right.
        v = np.tensordot(core, chi, axes=([1], [0])) @ v
    return np.tensordot(tt.cores[1], v, axes=([2], [0]))


def save_tt(path: str | os.PathLike, tt: TTTensor) -> None:
    """Write a tensor train in the package's binary layout.

    Layout: magic "LRTT", uint32 order, uint32 dims, uint32 interior
    ranks, then each core as float64 in first-index-fastest order, all
    little-endian.
    """
    with open(path, "wb") as f:
        f.write(TT_MAGIC)
        np.asarray([tt.order], dtype="<u4").tofile(f)
        np.asarray(tt.dims, dtype="<u4").tofile(f)
        np.asarray(tt.ranks, dtype="<u4").tofile(f)
        for core in tt.cores:
            np.ravel(core, order="F").astype("<f8", copy=False).tofile(f)


def load_tt(path: str | os.PathLike) -> TTTensor:
    """Read a tensor train written by :func:`save_tt`."""
    with open(path, "rb") as f:
        dims = _read_header(f, TT_MAGIC)
        order = dims.size
        ranks = _read_exact(f, order - 1, "<u4", "ranks").astype(np.int64)
        if np.any(ranks < 1):
            raise FormatError(f"non-positive rank in {tuple(ranks)}")
        full_ranks = np.concatenate([[1], ranks, [1]])
        cores = []
        for k in range(order):
            shape = (int(full_ranks[k]), int(dims[k]), int(full_ranks[k + 1]))
            payload = _read_finite(f, math.prod(shape), f"core {k}")
            cores.append(payload.reshape(shape, order="F"))
        if f.read(1) != b"":
            raise FormatError("trailing bytes after tensor-train payload")
    return TTTensor(cores=tuple(cores))
