"""Parameter-local reduced bases and the Galerkin reduced-order model.

The reduced space at a parameter value is built from the compressed
snapshot tensor alone: the interpolated coefficient matrix is small
(first tensor-train rank by time steps), its left singular vectors pick
the dominant directions, and lifting them through the first core gives
an orthonormal spatial basis. A train's operators are projected on its
first core once (:class:`ReducedTrain`), so a query works on matrices of
the first rank's size. The reduced systems are dense and tiny, so every
factorization here is a dense one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import SolverError
from .fem import AffineOperator, TimeGrid, check_pivots, initial_state
from .interp import InterpolationScheme, weight_vectors
from .tt import TTTensor, interpolate_coefficients

_RANK_CUTOFF = 1e-14


@dataclass(frozen=True)
class RomTrajectory:
    """Reduced coefficients c^1 .. c^N, one column per time step, in the
    (n, ell) orthonormal ``basis`` they were marched in. n is the size of
    the operators: M for full-order ones, r1 for a train's projected ones
    (whose :meth:`ReducedTrain.query` returns the basis lifted to M)."""

    coefficients: np.ndarray
    basis: np.ndarray

    def lift(self, out: np.ndarray | None = None) -> np.ndarray:
        """States in the full space, shape (M, N), written into ``out``
        when it is given."""
        return np.matmul(self.basis, self.coefficients, out=out)


def local_basis(
    tt: TTTensor,
    weights: Sequence[np.ndarray],
    ell: int,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """(M, ell) orthonormal reduced basis at the parameter value behind ``weights``.

    Left singular vectors of the interpolated coefficient matrix, lifted
    through the orthonormal first core (:attr:`TTTensor.universal_basis`,
    checked on the train's first query only). ``ell`` may not exceed the
    first rank or the number of time steps. ``alpha`` is accepted and not
    read. :meth:`ReducedTrain.query` calls this for every query, on the
    train in universal-basis coordinates.
    """
    coeff = interpolate_coefficients(tt, weights)
    r1, n = coeff.shape
    if not 1 <= ell <= min(r1, n):
        raise ValueError(
            f"basis size {ell} not in [1, {min(r1, n)}] "
            f"(first rank {r1}, {n} time steps)"
        )
    u, _, _ = sla.svd(coeff, full_matrices=False, check_finite=False)
    return tt.universal_basis @ u[:, :ell]


def rom_solve(
    basis: np.ndarray,
    mass: sp.spmatrix | np.ndarray,
    op: sp.spmatrix | np.ndarray,
    load: np.ndarray,
    u0: np.ndarray,
    tg: TimeGrid,
) -> RomTrajectory:
    """Galerkin projection of the implicit Euler march onto the (n, ell) basis.

    ``mass`` and ``op`` are (n, n): sparse full-order matrices (n = M), or
    dense ones projected on a train's universal basis (n = r1), as
    :class:`ReducedTrain` passes them. ``load`` is a fixed (n,) vector and
    ``u0`` an (n,) state. The march starts from the mass-weighted
    projection of ``u0``: the first step's right-hand side is
    ``basis.T @ mass @ u0`` plus the reduced load.
    The reduced time-step matrix S is factored once (dense LU), and a
    factor that fails the full-order march's :func:`check_pivots` raises
    :class:`SolverError`. One solve against [M_r | basis.T mass u0 |
    dt basis.T load] gives P = S^-1 M_r, z and q, so that c^1 = z + q and
    c^n = P c^(n-1) + q. The columns P^j (z + q) and P^j q, j < N, are
    built by doubling: ceil(log2 N) products of P^m with the columns so
    far, P^m squared between them. c^n is the first set plus the running
    sum of the second; this rounds differently from a solve per step.
    Coefficients that are not finite (a NaN or inf in ``load`` or ``u0``,
    an overflowing propagator) raise :class:`SolverError`.
    """
    ell, steps = basis.shape[1], tg.steps
    mass_r = basis.T @ (mass @ basis)
    system = mass_r + tg.dt * (basis.T @ (op @ basis))
    # LAPACK bound once: the lu_factor/lu_solve wrappers cost more than the
    # solves themselves at these sizes, and compute the same thing.
    getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (system,))
    lu, piv, _ = getrf(system, overwrite_a=1)
    check_pivots(np.abs(np.diag(lu)), "reduced time-step system")
    with np.errstate(all="ignore"):  # non-finite coefficients raise below
        rhs = np.empty((ell, ell + 2), order="F")
        rhs[:, :ell] = mass_r
        rhs[:, ell] = basis.T @ (mass @ np.asarray(u0, dtype=float))
        rhs[:, ell + 1] = tg.dt * (basis.T @ np.asarray(load, dtype=float))
        sol, info = getrs(lu, piv, rhs, overwrite_b=1)
        if info != 0:
            raise SolverError(f"reduced time-step solve failed (getrs info {info})")
        # Column 2j holds P^j (z + q) and column 2j + 1 holds P^j q.
        cols = np.empty((ell, 2 * steps), order="F")
        cols[:, 0] = sol[:, ell] + sol[:, ell + 1]
        cols[:, 1] = sol[:, ell + 1]
        power, m = sol[:, :ell], 1
        while m < steps:
            k = min(m, steps - m)
            cols[:, 2 * m : 2 * (m + k)] = power @ cols[:, : 2 * k]
            m += k
            if m < steps:
                power = power @ power
        coeffs = np.array(cols[:, ::2], order="F")
        coeffs[:, 1:] += np.cumsum(cols[:, 1 : 2 * steps - 2 : 2], axis=1)
    if not np.isfinite(coeffs).all():
        raise SolverError("reduced march produced non-finite coefficients")
    return RomTrajectory(coefficients=coeffs, basis=basis)


class ReducedTrain:
    """The online stage of one train ``tt`` compressed on ``scheme``'s grid.

    Built once per train: the problem ``terms`` and ``mass`` are projected
    on the universal basis U0 (:attr:`TTTensor.universal_basis`, whose
    check raises ValueError here): M0 = U0' mass U0, U0' A_q U0 for each
    operator term, U0' g_p for each load term, and the start z0 with
    M0 z0 = U0' mass u0. That is Q + 1 sparse products with U0. A
    :meth:`query` then does no M-sized work but the basis lift.
    """

    def __init__(
        self,
        tt: TTTensor,
        scheme: InterpolationScheme,
        terms: AffineOperator,
        mass: sp.spmatrix,
        tg: TimeGrid,
    ) -> None:
        basis = tt.universal_basis
        self.basis, self.scheme, self.terms, self.tg = basis, scheme, terms, tg
        # The train in U0 coordinates: local_basis on it returns u itself.
        self.local = TTTensor((np.eye(basis.shape[1])[None], *tt.cores[1:]))
        self.mass = basis.T @ (mass @ basis)
        self.ops = np.stack([
            basis.T @ (terms.operator(unit) @ basis) for unit in np.eye(len(terms.op_terms))
        ])
        self.loads = terms.load_terms @ basis
        u0 = initial_state(terms.problem, terms.mesh)
        self.start = sla.solve(self.mass, basis.T @ (mass @ u0), assume_a="pos")

    def query(self, alpha: Sequence[float], ell: int) -> RomTrajectory:
        """The reduced trajectory at ``alpha`` in a local basis of ``ell``
        vectors: the Lagrange weights of ``alpha`` give the local
        coordinates u (r1, ell) by :func:`local_basis`, and the Galerkin
        march of the projected operator and load at ``alpha`` in u is
        returned in the lifted basis U0 u."""
        u = local_basis(self.local, weight_vectors(alpha, self.scheme), ell)
        op = np.tensordot(self.terms.theta(alpha), self.ops, axes=1)
        load = self.terms.phi(alpha) @ self.loads
        traj = rom_solve(u, self.mass, op, load, self.start, self.tg)
        return RomTrajectory(coefficients=traj.coefficients, basis=self.basis @ u)


def correlation_spectrum(states: np.ndarray, mass: sp.spmatrix) -> np.ndarray:
    """Eigenvalues of the time-averaged correlation operator, descending.

    For states U of shape (M, N) this is the spectrum of U' mass U / N.
    Values below max(1e-14, N * eps_mach) times the largest, the accuracy
    of a symmetric eigensolver on the N x N Gram matrix, are round-off
    and clipped to zero; the result always has length N.

    Every eigenvalue has an absolute error of about N * eps_mach * lambda_0
    (lambda_0 the largest), so a value or tail sum s carries about
    log10(s / (N * eps_mach * lambda_0)) meaningful digits, and none once
    s is within a few multiples of that error.
    """
    u = np.asarray(states)
    n = u.shape[1]
    gram = u.T @ (mass @ u) / n
    vals = sla.eigh(gram, eigvals_only=True, check_finite=False)[::-1]
    vals = np.maximum(vals, 0.0)
    if vals.size and vals[0] > 0:
        cutoff = max(_RANK_CUTOFF, n * np.finfo(np.float64).eps)
        vals[vals < cutoff * vals[0]] = 0.0
    return np.ascontiguousarray(vals)


def tail_energy(spectra: Sequence[np.ndarray], ell: int) -> float:
    """Worst discarded correlation energy when keeping ``ell`` modes.

    The maximum over :func:`correlation_spectrum` results of the sum of
    eigenvalues past the first ``ell``. Zero when ``ell`` reaches the
    spectrum length.
    """
    if ell < 0:
        raise ValueError("mode count must be non-negative")
    return max((float(s[ell:].sum()) for s in spectra), default=0.0)


def trajectory_error_sq(
    fom_states: np.ndarray,
    rom_states: np.ndarray,
    gram: sp.spmatrix,
    dt: float,
    overwrite_rom: bool = False,
) -> float:
    """Squared discrete space-time error between two trajectories.

    dt times the sum over time steps of the gram-weighted squared error.
    With the H1 Gram matrix this is the squared space-time H1 norm used
    by all the accuracy studies. With ``overwrite_rom`` the difference is
    formed in ``rom_states``, a float64 array of the trajectories' shape,
    instead of a new one.
    """
    rom = np.asarray(rom_states)
    diff = np.subtract(np.asarray(fom_states), rom, out=rom if overwrite_rom else None)
    return float(dt * np.einsum("ij,ij->", diff, gram @ diff))
