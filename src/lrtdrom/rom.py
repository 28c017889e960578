"""Parameter-local reduced bases and the Galerkin reduced-order model.

The reduced space at a parameter value is built from the compressed
snapshot tensor alone: the interpolated coefficient matrix is small
(first tensor-train rank by time steps), its left singular vectors pick
the dominant directions, and lifting them through the first core gives
an orthonormal spatial basis. The reduced systems are dense and tiny, so
every factorization here is a dense one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import SolverError
from .fem import TimeGrid, check_pivots
from .tt import TTTensor, interpolate_coefficients, universal_basis

_RANK_CUTOFF = 1e-14


@dataclass(frozen=True)
class RomTrajectory:
    """Reduced coefficients c^1 .. c^N, one column per time step, in the
    (M, ell) orthonormal ``basis`` they were marched in."""

    coefficients: np.ndarray
    basis: np.ndarray

    def lift(self) -> np.ndarray:
        """States in the full space, shape (M, N)."""
        return self.basis @ self.coefficients


def local_basis(
    tt: TTTensor,
    weights: Sequence[np.ndarray],
    ell: int,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """(M, ell) orthonormal reduced basis at the parameter value behind ``weights``.

    Left singular vectors of the interpolated coefficient matrix, lifted
    through the (orthonormal) first core, which :func:`universal_basis`
    checks on the train's first query only. ``ell`` may not exceed the
    first rank or the number of time steps. ``alpha`` is accepted and not
    read.
    """
    coeff = interpolate_coefficients(tt, weights)
    r1, n = coeff.shape
    if not 1 <= ell <= min(r1, n):
        raise ValueError(
            f"basis size {ell} not in [1, {min(r1, n)}] "
            f"(first rank {r1}, {n} time steps)"
        )
    u, _, _ = sla.svd(coeff, full_matrices=False, check_finite=False)
    return universal_basis(tt) @ u[:, :ell]


def rom_solve(
    basis: np.ndarray,
    mass: sp.spmatrix,
    op: sp.spmatrix,
    load: np.ndarray,
    u0: np.ndarray,
    tg: TimeGrid,
) -> RomTrajectory:
    """Galerkin projection of the implicit Euler march onto the (M, ell) basis.

    ``load`` is a fixed (M,) vector. The initial coefficient vector is the
    mass-weighted projection of ``u0``. The reduced time-step and mass
    matrices are factored once (dense LU), and a factor that fails the
    full-order march's :func:`check_pivots` raises :class:`SolverError`.
    """
    mass_r = basis.T @ (mass @ basis)
    system = mass_r + tg.dt * (basis.T @ (op @ basis))
    # LAPACK bound once: the lu_factor/lu_solve wrappers cost more than the
    # solves themselves at these sizes, and compute the same thing.
    getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (system,))
    lu, piv, _ = getrf(system, overwrite_a=1)
    check_pivots(np.abs(np.diag(lu)), "reduced time-step system")
    mass_lu, mass_piv, _ = getrf(mass_r)
    check_pivots(np.abs(np.diag(mass_lu)), "reduced mass matrix")
    c, _ = getrs(mass_lu, mass_piv, basis.T @ (mass @ np.asarray(u0, dtype=float)))
    load_r = tg.dt * (basis.T @ np.asarray(load, dtype=float))
    coeffs = np.empty((basis.shape[1], tg.steps), order="F")
    for n in range(tg.steps):
        c, info = getrs(lu, piv, mass_r @ c + load_r)
        if info != 0:
            raise SolverError(f"reduced time-step solve failed (getrs info {info})")
        coeffs[:, n] = c
    return RomTrajectory(coefficients=coeffs, basis=basis)


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
) -> float:
    """Squared discrete space-time error between two trajectories.

    dt times the sum over time steps of the gram-weighted squared error.
    With the H1 Gram matrix this is the squared space-time H1 norm used
    by all the accuracy studies.
    """
    diff = np.asarray(fom_states) - np.asarray(rom_states)
    return float(dt * np.sum(diff * (gram @ diff)))
