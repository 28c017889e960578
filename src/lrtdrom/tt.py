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
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, lapack

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
# low-rank inputs. A Gram matrix's eigenvectors blur W's tail energy to
# about this fraction of |W|_F^2, so a smaller budget^2 takes gesdd.
_ROUNDOFF_FLOOR = 64.0 * np.finfo(np.float64).eps

# Randomized range finder for the first unfolding: block i holds this many
# Gaussian columns drawn from the seed (_SKETCH_SEED, i), so every run
# draws the same sketch and a memo can extend it block by block. It runs
# only when the smaller side holds at least _SKETCH_MIN_BLOCKS blocks;
# below that splitting W itself costs little.
_SKETCH_BLOCK = 32
_SKETCH_MIN_BLOCKS = 4
_SKETCH_SEED = 20110217

# The finder stops once its measured residual is at most this fraction of
# the first unfolding's truncation budget (or the roundoff floor, if that
# is larger), so it spends at most 1/256 of the budget's energy.
_BUDGET_FRACTION = 1.0 / 16.0

# Float64 values (1 MiB) per column chunk of W over which the range finder
# forms B's new rows and measures |W - QB|_F.
_CHUNK_DOUBLES = 1 << 17

# Largest entry of |U^T U - I| for which the first core counts as
# orthonormal in :attr:`TTTensor.universal_basis`.
_ORTHONORMAL_TOL = 1e-13


@dataclass(frozen=True)
class TTTensor:
    """Tensor train: cores[k] has shape (ranks[k-1], dims[k], ranks[k]).

    The cores must not be edited after the train's first query:
    :attr:`universal_basis` checks the first core once and keeps the result.
    """

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

    @cached_property
    def universal_basis(self) -> np.ndarray:
        """First core as an orthonormal basis of the joint snapshot space.

        Shape (dim_0, r_1), a view of the first core. Raises ValueError
        when the core's columns are not orthonormal to within
        _ORTHONORMAL_TOL (the train was not built left-orthogonal, or
        holds a NaN). The O(dim_0 r_1^2) check runs once per train: the
        first read that passes keeps the view and later reads return it
        unchecked. A train that fails raises on every read.
        """
        u = self.cores[0][0]
        defect = _orthonormality_defect(u)
        if not defect <= _ORTHONORMAL_TOL:
            raise ValueError(f"first core is not left-orthogonal (defect {defect:.3e})")
        return u


@dataclass(frozen=True)
class CompressionReport:
    """What the decomposition kept and what it threw away.

    ``discarded_energy[k]`` is the energy dropped at the k-th unfolding:
    the squared norms of the dropped rows of X^T W or columns of W X,
    formed from W (the Gram split), or the dropped squared singular values
    (gesdd). For the first unfolding it also holds the energy |W - QB|_F^2
    that the randomized range finder left out, measured directly (at most
    1/256 of that unfolding's budget squared, or the roundoff floor; zero
    when W itself was split). The total reconstruction error is bounded
    by ``error_bound``.
    """

    eps_tilde: float
    tensor_norm: float
    ranks: tuple[int, ...]
    discarded_energy: tuple[float, ...]

    @property
    def error_bound(self) -> float:
        return float(np.sqrt(sum(self.discarded_energy)))


def _memoized(memo: dict, key: str, compute):
    """The value ``memo`` holds for ``key``, computed on first use."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def frobenius_tolerance(
    eps: float | Sequence[float],
    tensor: np.ndarray,
    mass: sp.spmatrix,
    dt: float,
) -> float | np.ndarray:
    """Convert trajectory-norm tolerances into relative Frobenius ones.

    eps bounds the worst trajectory error in the discrete space-time norm;
    the returned value bounds the relative Frobenius error of the full
    tensor that guarantees it:

        eps_tilde = eps * norm0 / (sqrt(|mass| * dt) * |tensor|_F)

    with norm0 the largest trajectory norm and |mass| the spectral norm.

    ``eps`` is a number (a ``float`` is returned) or a 1-D sequence (an
    array is returned): the three norms do not depend on eps, so one call
    measures them once for every tolerance of a sweep, and each entry is
    the same IEEE expression as a scalar call, bit for bit. norm0 is not
    measured when every eps is 0. A negative or non-finite eps, or a
    ``dt`` that is not finite and positive, raises ``ValueError``.
    """
    eps = np.array(eps, dtype=np.float64)
    if eps.ndim > 1:
        raise ValueError("tolerances must be a number or a 1-D sequence")
    if not np.all(np.isfinite(eps) & (eps >= 0)):
        raise ValueError("tolerance must be finite and non-negative")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("time step must be finite and positive")
    eps = np.abs(eps)  # -0.0 converts as 0.0 does
    fro = frobenius_norm(tensor)
    if fro == 0.0:
        raise DomainError("tolerance conversion undefined for a zero tensor")
    if np.any(eps):
        norm0 = max_trajectory_norm(tensor, mass, dt)
        eps = eps * norm0 / (np.sqrt(spectral_norm(mass) * dt) * fro)
    return float(eps) if eps.ndim == 0 else eps


def _select_rank(s: np.ndarray, budget: float, residual: float) -> tuple[int, float]:
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


def _orthonormality_defect(u: np.ndarray) -> float:
    """Largest entry of |U^T U - I| (nan when U holds a nan)."""
    gram = u.T @ u
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.max(np.abs(gram, out=gram)))


def _orthonormal_columns(x: np.ndarray) -> np.ndarray | None:
    """Orthonormal columns spanning range(x), by CholeskyQR2 in x's own
    Fortran-ordered storage; x must be nearly orthonormal already. None
    when a Cholesky factor fails or the result misses _ORTHONORMAL_TOL.
    """
    for _ in range(2):
        r, info = lapack.dpotrf(blas.dsyrk(1.0, x, trans=1), overwrite_a=True)
        if info != 0:
            return None
        x = blas.dtrsm(1.0, r, x, side=1, overwrite_b=True)  # x R^-1
    return x if _orthonormality_defect(x) <= _ORTHONORMAL_TOL else None


@dataclass(frozen=True)
class _Split:
    """W as rank-one terms, largest first, whose sizes s are measured.

    ``left`` has orthonormal columns (gesdd's U, or the eigenvectors X of
    W W^T with s[i] = |X[:, i]^T W|), unless ``tall``: then it is W X for
    the eigenvectors X of W^T W, and s holds its column norms. Keeping the
    first r terms costs at most sum_{i>r} s_i^2.
    """

    left: np.ndarray
    s: np.ndarray
    tall: bool = False

    def take(self, w: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(core, core^T W) at rank r, Fortran-ordered and owning their
        memory; None when the scaled columns of a tall W X do not
        orthonormalize."""
        if not self.tall:
            core = self.left[:, :r].copy(order="F")
        elif np.all(self.s[:r] > 0.0):
            core = _orthonormal_columns(self.left[:, :r] / self.s[:r])
            if core is None:
                return None
        else:
            return None
        return core, blas.dgemm(1.0, core, w, trans_a=True)


def _gram_split(w: np.ndarray) -> _Split | None:
    """Split through the eigenvectors X of the Gram matrix of W's short
    side, or None when X is not orthonormal to _ORTHONORMAL_TOL. No
    eigenvalue is read: each s is the norm of a row of X^T W or a column
    of W X. The ``evd`` driver, since ``evr``'s eigenvectors of flat
    spectra missed orthonormality by up to 2.8e-13.
    """
    tall = w.shape[0] > w.shape[1]
    gram = blas.dsyrk(1.0, w, trans=int(tall))  # upper triangle of W^T W or W W^T
    x = sla.eigh(gram, lower=False, driver="evd", overwrite_a=True, check_finite=False)[1]
    x = np.asfortranarray(x[:, ::-1])
    if not _orthonormality_defect(x) <= _ORTHONORMAL_TOL:
        return None
    if tall:
        left = blas.dgemm(1.0, w, x)
        return _Split(left, np.sqrt(np.einsum("ij,ij->j", left, left)), tall=True)
    product = blas.dgemm(1.0, x, w, trans_a=True)
    return _Split(x, np.sqrt(np.einsum("ij,ij->i", product, product)))


def _truncate(
    w: np.ndarray, budget: float, memo: dict, residual: float = 0.0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Truncate one unfolding W within ``budget``: (core, carry, discarded).

    core (orthonormal columns) and carry are Fortran-ordered and own their
    memory, with |W - core carry|_F^2 <= discarded - ``residual``, energy
    an earlier step left out that counts toward every tail. W takes the
    Gram split unless budget^2 < 64 eps_mach |W|_F^2 or the split fails,
    then gesdd (see :func:`tt_svd`). ``memo`` keeps |W|_F^2 and the
    splits, which depend on W alone.
    """
    if budget > 0.0:
        energy = _memoized(memo, "energy", lambda: float(np.einsum("ij,ij->", w, w)))
        if budget**2 >= _ROUNDOFF_FLOOR * energy:
            split = _memoized(memo, "gram", lambda: _gram_split(w))
            if split is not None:
                r, dropped = _select_rank(split.s, budget, residual)
                parts = split.take(w, r)
                if parts is not None:
                    return (*parts, dropped)
    split = _memoized(memo, "svd", lambda: _Split(*_thin_svd(w)[:2]))
    r, dropped = _select_rank(split.s, budget, residual)
    return (*split.take(w, r), dropped)


def _orthonormal(y: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of range(y), orthogonalized twice against ``q``."""
    for _ in range(1 if q is None else 2):
        if q is not None:
            y = y - q @ (q.T @ y)
        y = np.linalg.qr(y)[0]
    return y


class _RangeFinder:
    """Blocked adaptive range finder for one first unfolding W.

    After n blocks, Q (orthonormal, rows x 32n) and B = Q^T W approximate
    W, and ``residuals[n - 1]`` is |W - QB|_F measured directly. Each block
    draws Gaussian columns, takes one orthonormalized power step on the
    residual and is orthogonalized against the earlier blocks; residual
    products are taken as W x - Q(B x) and W^T y - B^T(Q^T y), so W - QB
    is never formed. One pass over W's column chunks then forms B's new
    rows and measures |W - QB|_F, so a block reads W four times. A memo
    keeps the finder, so that a tighter target extends its blocks and a
    looser one reuses a prefix of them.
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
        q = np.concatenate([self.q, q_new], axis=1)
        b = np.empty((q.shape[1], w.shape[1]), order="F")  # as BLAS takes it
        b[: self.b.shape[0]] = self.b
        step = max(1, _CHUNK_DOUBLES // w.shape[0])
        energy = 0.0
        for j in range(0, w.shape[1], step):
            cut = slice(j, j + step)
            b[self.b.shape[0] :, cut] = blas.dgemm(1.0, q_new, w[:, cut], trans_a=True)
            # dgemm subtracts from a copy of the chunk, so W is not touched.
            chunk = blas.dgemm(-1.0, q, b[:, cut], beta=1.0, c=w[:, cut])
            flat = chunk.ravel(order="F")  # a view of the Fortran-ordered chunk
            # numpy's own loop: a threaded BLAS ddot after each threaded
            # dgemm made the pass about 15 times slower.
            energy += float(np.einsum("i,i->", flat, flat))
            del chunk, flat  # one chunk alive at a time
        self.q, self.b = q, b
        self.residuals.append(float(np.sqrt(energy)))


def _first_unfolding(
    w: np.ndarray, norm: float, budget: float, memo: dict
) -> tuple[np.ndarray, np.ndarray, float]:
    """Truncation of the first unfolding, as :func:`_truncate` returns it.

    A wide enough unfolding goes through :class:`_RangeFinder` until its
    measured residual |W - QB|_F is at most max(``budget`` / 16, roundoff
    floor of ``norm`` = |W|_F); then B is truncated with |W - QB|_F^2
    counted toward every tail, and the core is Q times B's core. A short
    side, or a finder that does not converge, truncates W itself. The
    finder's blocks and W's splits are kept in ``memo``; the result
    depends on W and the target alone.
    """
    target = max(_BUDGET_FRACTION * budget, _ROUNDOFF_FLOOR * norm)
    if min(w.shape) >= _SKETCH_MIN_BLOCKS * _SKETCH_BLOCK:
        finder = _memoized(memo, "finder", lambda: _RangeFinder(w.shape))
        n = finder.blocks_for(w, target)
        if n is not None:
            k = n * _SKETCH_BLOCK
            r2 = finder.residuals[n - 1] ** 2
            core, carry, dropped = _truncate(finder.b[:k], budget, {}, r2)
            return blas.dgemm(1.0, finder.q[:, :k], core), carry, dropped
    return _truncate(w, budget, memo.setdefault("first_unfolding", {}))


def _split_doubles(rows: int, cols: int) -> int:
    """Float64 values that truncating one rows x cols unfolding allocates
    at most, beside its input: gesdd's working copy, U, V^T and its
    4k^2 + 7k workspace plus 8k integers, with k = min(rows, cols), and
    the length-k vectors of s and of the rank selection's tails (10k) and
    1024 for interpreter objects. That also bounds the Gram split: the
    Gram matrix, its eigenvectors and ``evd`` workspace (under 4k^2 + 11k
    together), the product X^T W or W X (rows x cols), the core (rows x k
    at most) and the carry."""
    k = min(rows, cols)
    return rows * cols + rows * k + k * cols + 4 * k * k + 21 * k + 1024


def check_compression_budget(dims: Sequence[int]) -> None:
    """Raise BudgetError unless :func:`tt_svd` of a tensor of shape
    ``dims`` fits the budget: the peak memory model.

    It counts float64 arrays at the ranks that cost most, r_k = min of
    the unfolding's sides, since truncation only shrinks every array
    below. Beside the tensor (rows x cols as its first unfolding, k the
    smaller side) it counts what a memo keeps of the first unfolding
    (a split's left factor, rows x k at most, and, when the range finder
    can run, its Q and B, rows x k/2 and k/2 x cols at most) and the
    largest of the steps: the first unfolding's split, or a later
    unfolding's, next to its input carry and the cores made before it
    (:func:`_split_doubles` each). The range finder copies no part of the
    unfolding beyond one column chunk and fits in the first step's count.
    """
    rows = dims[0]
    cols = math.prod(dims[1:])
    k = min(rows, cols)
    held = rows * k
    if k >= _SKETCH_MIN_BLOCKS * _SKETCH_BLOCK:
        held += (rows * k + k * cols) // 2
    peak = _split_doubles(rows, cols)
    cores = rows * k
    r = k
    for n in range(1, len(dims) - 1):
        a, b = r * dims[n], math.prod(dims[n + 1 :])
        peak = max(peak, cores + a * b + _split_doubles(a, b))
        r = min(a, b)
        cores += a * r
    check_budget(rows * cols + held + peak, "snapshot tensor and its TT-SVD")


def tt_svd(
    tensor: np.ndarray, eps_tilde: float, memo: dict | None = None
) -> tuple[TTTensor, CompressionReport]:
    """Tensor-train decomposition, with relative Frobenius tolerance, of a
    tensor of at least two modes (``ValueError`` otherwise, and for a
    negative or non-finite eps_tilde).

    Sequential truncations of the unfoldings, each allowed a discarded
    energy of (eps_tilde * |tensor|_F)^2 / (d - 1), which guarantees
    |tensor - result|_F <= eps_tilde * |tensor|_F. All cores except the
    last are left-orthogonal. eps_tilde = 0 reproduces the tensor to
    roundoff with minimal exact ranks.

    Every unfolding W is split through the Gram matrix of its short side
    (:func:`_truncate`): the eigenvectors X of W W^T give the core X_r and
    the carry X_r^T W, those of W^T W give W X, whose kept columns are
    orthonormalized (CholeskyQR2) into the core, with carry core^T W. The
    energy a rank drops is read off the rows of X^T W or the columns of
    W X, never off an eigenvalue. LAPACK gesdd takes over when budget^2
    is under 64 eps_mach |W|_F^2 (eps_tilde = 0 included), where squaring
    W's condition number would blur the tail, or when the eigenvectors or
    the core miss orthonormality by more than 1e-13.

    The first unfolding W goes through a seeded randomized range finder
    that never copies W and stops once its measured residual |W - QB|_F
    is at most 1/16 of this unfolding's budget (or the roundoff floor, if
    larger, as at eps_tilde = 0); then B is split. W itself is split when
    its smaller side is under 128 or its spectrum is flat. The finder's
    residual |W - QB|_F^2 is part of ``discarded_energy[0]``, so
    ``error_bound`` stays a certificate built from measured quantities on
    every path.

    A caller compressing one tensor at several tolerances passes the same
    ``memo`` dict each time (``memo=None`` is a fresh one): it keeps
    |tensor|_F and the first unfolding's finder blocks or its splits (X,
    W X or gesdd's U, with s), and a tighter budget adds blocks. Later
    unfoldings are split per call, since their input depends on the kept
    rank. Results depend on the tensor and eps_tilde alone, in any order
    of tolerances. A memo is bound to its tensor by identity (another
    raises ``ValueError``) and holds it and factors up to its size, so
    the caller drops both together.
    """
    if not (math.isfinite(eps_tilde) and eps_tilde >= 0):
        raise ValueError("tolerance must be finite and non-negative")
    memo = {} if memo is None else memo
    if memo.setdefault("tensor", tensor) is not tensor:
        raise ValueError("memo belongs to another tensor")
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim < 2:
        raise ValueError("a tensor train needs a tensor of at least two modes")
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
            core, w, dropped = _first_unfolding(w, norm, budget, memo)
        else:
            core, w, dropped = _truncate(w, budget, {})
        r = core.shape[1]
        cores.append(core.reshape(r_prev, dims[k], r, order="F"))
        discarded.append(dropped)
        r_prev = r
    # Fortran order like the other cores, so a query reads it without a copy.
    cores.append(w.reshape(r_prev, dims[-1], 1, order="F"))
    tt = TTTensor(cores=tuple(cores))
    report = CompressionReport(
        eps_tilde=eps_tilde,
        tensor_norm=norm,
        ranks=tt.ranks,
        discarded_energy=tuple(discarded),
    )
    return tt, report


def interpolate_coefficients(
    tt: TTTensor, weights: Sequence[np.ndarray]
) -> np.ndarray:
    """Local coefficient matrix of one parameter value, shape (r_1, dim_1).

    Cores 2..d-1 are collapsed with one weight vector each, last core
    first; the result applied to core 1 gives the matrix. Columns are
    time steps; the interpolated trajectory is the first core applied to
    this matrix.

    Each core is read as the Fortran-order matrix (r_{k-1} dim_k, r_k): a
    view of a Fortran-contiguous core, as :func:`tt_svd` and :func:`load_tt`
    build them, and a copy of any other. The weights are zero off the
    stencil, but every product runs over all dim_k nodes of its axis, so a
    call costs sum_k r_{k-1} dim_k r_k multiply-adds over the parameter
    cores plus r_1 dim_1 r_2 for core 1.
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
        r_prev, n, r_next = core.shape
        # Absorb everything to the right, then collapse the mode.
        v = (core.reshape(r_prev * n, r_next, order="F") @ v).reshape(
            r_prev, n, order="F"
        ) @ chi
    r1, n, r2 = tt.cores[1].shape
    coeff = tt.cores[1].reshape(r1 * n, r2, order="F") @ v
    return coeff.reshape(r1, n, order="F")


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
