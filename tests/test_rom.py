"""Local reduced bases, Galerkin time stepping, spectral diagnostics."""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import lrtdrom.rom as rom_module
from lrtdrom import (
    InterpolationScheme,
    SolverError,
    TimeGrid,
    assemble_mass,
    assemble_operator,
    correlation_spectrum,
    frobenius_tolerance,
    generate_snapshots,
    initial_state,
    local_basis,
    rom_solve,
    solve_fom,
    trajectory_error_sq,
    tt_svd,
    uniform_grid,
    weight_vectors,
)
from lrtdrom.fem import affine_operator
from lrtdrom.rom import ReducedTrain, tail_energy
from lrtdrom.tt import interpolate_coefficients
from oracles import grid_point, grid_spacings, interpolate_snapshots, pod_basis


def lu_solve_march(s, mass, op, load, u0, tg):
    """Reduced implicit Euler march through scipy's lu_solve, step by step."""
    mass_r = s.T @ (mass @ s)
    factor = sla.lu_factor(mass_r + tg.dt * (s.T @ (op @ s)), check_finite=False)
    rhs = s.T @ (mass @ u0)
    coeffs = np.empty((s.shape[1], tg.steps), order="F")
    for n in range(tg.steps):
        rhs += tg.dt * (s.T @ load)
        c = sla.lu_solve(factor, rhs, check_finite=False)
        coeffs[:, n] = c
        rhs = mass_r @ c
    return coeffs


def desk_fom(desk, alpha):
    """The full-order trajectory of the heat desk at ``alpha``."""
    return solve_fom(desk.problem, desk.mesh, desk.tg, alpha, desk.mass)


@pytest.fixture(scope="module")
def tt_exact(heat_desk):
    tt, _ = tt_svd(heat_desk.tensor, 0.0)
    return tt


@pytest.fixture(scope="module")
def scheme(heat_desk):
    return InterpolationScheme(heat_desk.grid, p=2)


@pytest.fixture(scope="module")
def test_trajectories(heat_desk):
    """Four seeded off-grid parameter values with their FOM solutions."""
    rng = np.random.default_rng(7)
    alphas = np.column_stack(
        [rng.uniform(lo, hi, size=4) for lo, hi in heat_desk.problem.box]
    )
    states = [desk_fom(heat_desk, a).states for a in alphas]
    return alphas, states


class TestLocalBasis:
    def test_orthonormal(self, heat_desk, tt_exact, scheme):
        alpha = np.array([0.3, 0.6])
        weights = weight_vectors(alpha, scheme)
        lb = local_basis(tt_exact, weights, ell=5)
        assert lb.shape == (heat_desk.mesh.n_nodes, 5)
        gram = lb.T @ lb
        assert np.abs(gram - np.eye(5)).max() <= 1e-12

    def test_ell_out_of_range(self, tt_exact, scheme):
        weights = weight_vectors((0.3, 0.6), scheme)
        upper = min(tt_exact.ranks[0], 20)
        with pytest.raises(ValueError):
            local_basis(tt_exact, weights, ell=0)
        with pytest.raises(ValueError):
            local_basis(tt_exact, weights, ell=upper + 1)

    def test_full_ell_spans_universal_space(self, rng):
        # On a tensor whose coefficient matrices have full rank, the
        # largest admissible basis spans the whole universal space.
        core = rng.normal(size=(4, 6, 3, 3))
        t = np.asfortranarray(
            np.einsum("ma,ankl->mnkl", rng.normal(size=(10, 4)), core)
        )
        tt, _ = tt_svd(t, 0.0)
        r1 = tt.ranks[0]
        assert r1 == 4
        lb = local_basis(tt, [np.array([0.2, 0.3, 0.5]), np.array([1.0, 0.0, 0.0])], r1)
        uni = tt.universal_basis
        cosines = np.linalg.svd(lb.T @ uni, compute_uv=False)
        assert np.abs(cosines - 1.0).max() <= 1e-10

    def test_node_singular_values_match_snapshot_svd(
        self, heat_desk, tt_exact, scheme
    ):
        idx = (1, 1)
        # local_basis factors the interpolated coefficient matrix.
        alpha = grid_point(heat_desk.grid, idx)
        coeff = interpolate_coefficients(tt_exact, weight_vectors(alpha, scheme))
        stored = heat_desk.tensor[:, :, idx[0], idx[1]]
        oracle = np.linalg.svd(stored, compute_uv=False)
        got = np.linalg.svd(coeff, compute_uv=False)[: oracle.size]
        np.testing.assert_allclose(
            got, oracle, rtol=1e-11, atol=1e-12 * oracle[0]
        )

    def test_small_svd_matches_dense_extraction_svd(
        self, heat_desk, tt_exact, scheme, rng
    ):
        for _ in range(3):
            alpha = np.array(
                [rng.uniform(lo, hi) for lo, hi in heat_desk.problem.box]
            )
            weights = weight_vectors(alpha, scheme)
            coeff = interpolate_coefficients(tt_exact, weights)
            dense = interpolate_snapshots(tt_exact, weights)
            oracle = np.linalg.svd(dense, compute_uv=False)
            got = np.linalg.svd(coeff, compute_uv=False)[: oracle.size]
            np.testing.assert_allclose(
                got, oracle, rtol=1e-11, atol=1e-11 * oracle[0]
            )


class TestRomSolve:
    def test_galerkin_reproduction(self, heat_desk):
        # A basis containing the initial state and the whole trajectory
        # makes the ROM agree with the FOM.
        alpha = np.array([0.25, 0.3])
        fom = desk_fom(heat_desk, alpha)
        u0 = initial_state(heat_desk.problem, heat_desk.mesh)
        span = np.column_stack([u0, fom.states])
        u, s, _ = np.linalg.svd(span, full_matrices=False)
        keep = s > 1e-12 * s[0]
        basis = u[:, keep]
        op, load = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        rom = rom_solve(basis, heat_desk.mass, op, load, u0, heat_desk.tg)
        rel = np.sqrt(
            trajectory_error_sq(fom.states, rom.lift(), heat_desk.gram, heat_desk.tg.dt)
            / trajectory_error_sq(
                np.zeros_like(fom.states), fom.states, heat_desk.gram, heat_desk.tg.dt
            )
        )
        assert rel <= 1e-10

    def test_identity_basis_reproduces_fom(self, heat_desk):
        alpha = np.array([0.4, 0.8])
        m = heat_desk.mesh.nodes.shape[0]
        basis = np.eye(m)
        op, load = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        u0 = initial_state(heat_desk.problem, heat_desk.mesh)
        rom = rom_solve(basis, heat_desk.mass, op, load, u0, heat_desk.tg)
        fom = desk_fom(heat_desk, alpha)
        scale = np.abs(fom.states).max()
        assert np.abs(rom.lift() - fom.states).max() <= 1e-10 * scale

    def test_error_strictly_decreasing_in_ell(self, heat_desk, scheme):
        eps_tilde = frobenius_tolerance(
            1e-4, heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt
        )
        tt, _ = tt_svd(heat_desk.tensor, eps_tilde)
        alpha = np.array([0.5, 0.9])
        weights = weight_vectors(alpha, scheme)
        fom = desk_fom(heat_desk, alpha)
        op, load = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        u0 = initial_state(heat_desk.problem, heat_desk.mesh)
        errors = []
        for ell in (2, 4, 8):
            lb = local_basis(tt, weights, ell)
            rom = rom_solve(lb, heat_desk.mass, op, load, u0, heat_desk.tg)
            errors.append(
                np.sqrt(
                    trajectory_error_sq(
                        fom.states, rom.lift(), heat_desk.gram, heat_desk.tg.dt
                    )
                )
            )
        assert errors[0] > errors[1] > errors[2]

    def test_reduced_energy_decay_without_forcing(
        self, heat_desk, tt_exact, scheme, rng
    ):
        alpha = np.array([0.3, 0.5])
        lb = local_basis(tt_exact, weight_vectors(alpha, scheme), ell=6)
        op, _ = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        m = heat_desk.mesh.nodes.shape[0]
        u0 = rng.uniform(0.5, 1.5, size=m)
        rom = rom_solve(
            lb, heat_desk.mass, op, np.zeros(m), u0, heat_desk.tg
        )
        lifted = rom.lift()
        energy = [float(u @ (heat_desk.mass @ u)) for u in lifted.T]
        diffs = np.diff(np.array(energy))
        assert np.all(diffs <= 1e-12 * energy[0])

    def test_matches_lu_solve_loop_oracle(
        self, heat_desk, tt_exact, scheme, advdiff, unit_mesh, rng
    ):
        alpha = np.array([0.35, 0.6])
        op, load = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        u0 = rng.uniform(0.0, 1.0, size=heat_desk.mesh.n_nodes)
        weights = weight_vectors(alpha, scheme)
        cases = [
            (local_basis(tt_exact, weights, ell=ell), heat_desk.mass, op, load, u0)
            for ell in (1, 5, 9)
        ]
        # advdiff's operator is not symmetric, so its propagator is not normal.
        op, load = assemble_operator(unit_mesh, advdiff, np.full(5, 0.08))
        u0 = rng.uniform(0.5, 1.5, size=unit_mesh.n_nodes)
        basis = np.linalg.qr(rng.normal(size=(unit_mesh.n_nodes, 6)))[0]
        cases.append((basis, assemble_mass(unit_mesh), op, load, u0))
        # The doubling march rounds differently from a solve per step; N = 1
        # makes no product, and N = 3, 7, 100 end on a partial round.
        for steps in (1, 2, 3, 7, 100):
            tg = TimeGrid(heat_desk.problem.final_time, steps)
            for s, mass, op, load, u0 in cases:
                got = rom_solve(s, mass, op, load, u0, tg).coefficients
                oracle = lu_solve_march(s, mass, op, load, u0, tg)
                assert got.shape == oracle.shape == (s.shape[1], steps)
                assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("steps", [1, 7, 100])
    def test_one_factor_and_one_solve_per_march(
        self, heat_desk, tt_exact, scheme, monkeypatch, steps
    ):
        calls = {"getrf": 0, "getrs": 0}
        bind = sla.get_lapack_funcs

        def counting(names, arrays=(), dtype=None):
            def wrap(name, func):
                def counted(*args, **kwargs):
                    calls[name] += 1
                    return func(*args, **kwargs)

                return counted

            return tuple(wrap(n, f) for n, f in zip(names, bind(names, arrays, dtype)))

        monkeypatch.setattr(sla, "get_lapack_funcs", counting)
        alpha = np.array([0.35, 0.6])
        lb = local_basis(tt_exact, weight_vectors(alpha, scheme), ell=5)
        op, load = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        u0 = initial_state(heat_desk.problem, heat_desk.mesh)
        tg = TimeGrid(heat_desk.problem.final_time, steps)
        rom_solve(lb, heat_desk.mass, op, load, u0, tg)
        assert calls == {"getrf": 1, "getrs": 1}

    @pytest.mark.parametrize("defect", ["nan load", "nan u0", "inf load", "overflow"])
    def test_non_finite_coefficients_raise_without_warning(
        self, heat_desk, tt_exact, scheme, defect
    ):
        alpha = np.array([0.35, 0.6])
        s = local_basis(tt_exact, weight_vectors(alpha, scheme), ell=4)
        op, load = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        u0 = initial_state(heat_desk.problem, heat_desk.mesh)
        tg = heat_desk.tg
        if defect == "nan load":
            load = load.copy()
            load[5] = np.nan
        elif defect == "nan u0":
            u0 = u0.copy()
            u0[5] = np.nan
        elif defect == "inf load":
            load = load.copy()
            load[5] = np.inf
        else:
            # A time-step matrix of 1e-3 M gives the propagator 1000 I, whose
            # 199th power overflows.
            tg = TimeGrid(heat_desk.problem.final_time, 200)
            op = -(1.0 - 1e-3) / tg.dt * heat_desk.mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="non-finite coefficients"):
                rom_solve(s, heat_desk.mass, op, load, u0, tg)

    @pytest.mark.parametrize("defect", ["nan", "repeated column"])
    def test_singular_basis_raises_without_warning(
        self, heat_desk, tt_exact, scheme, defect
    ):
        # The reduced time-step factor goes through the full-order march's
        # pivot rule: a NaN pivot fails it, and an exact zero pivot fails
        # it before LAPACK's info (or scipy's LinAlgWarning) is consulted.
        alpha = np.array([0.35, 0.6])
        s = local_basis(tt_exact, weight_vectors(alpha, scheme), ell=4)
        if defect == "nan":
            s[3, 1] = np.nan
        else:
            s[:, 2] = s[:, 1]
        op, load = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        u0 = initial_state(heat_desk.problem, heat_desk.mesh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="numerically singular: pivot ratio"):
                rom_solve(s, heat_desk.mass, op, load, u0, heat_desk.tg)

    def test_coefficients_layout(self, heat_desk, tt_exact, scheme):
        alpha = np.array([0.2, 0.1])
        lb = local_basis(tt_exact, weight_vectors(alpha, scheme), ell=3)
        op, load = assemble_operator(heat_desk.mesh, heat_desk.problem, alpha)
        u0 = initial_state(heat_desk.problem, heat_desk.mesh)
        rom = rom_solve(lb, heat_desk.mass, op, load, u0, heat_desk.tg)
        assert rom.coefficients.shape == (3, heat_desk.tg.steps)
        assert rom.lift().shape == (heat_desk.mesh.nodes.shape[0], heat_desk.tg.steps)


@pytest.fixture(scope="module")
def online_desks(heat_desk, tt_exact, scheme, advdiff, unit_mesh):
    """Per problem: an exact train, its scheme, terms, mass, time grid and
    an off-grid query point. advdiff's N exceeds its first rank."""
    heat = SimpleNamespace(
        tt=tt_exact,
        scheme=scheme,
        terms=affine_operator(heat_desk.mesh, heat_desk.problem),
        mass=heat_desk.mass,
        tg=heat_desk.tg,
        alpha=np.array([0.35, 0.6]),
    )
    tg = TimeGrid(advdiff.final_time, 30)
    grid = uniform_grid(advdiff.box, (2,) * 5)
    train, _ = tt_svd(generate_snapshots(advdiff, unit_mesh, tg, grid), 0.0)
    adv = SimpleNamespace(
        tt=train,
        scheme=InterpolationScheme(grid, p=2),
        terms=affine_operator(unit_mesh, advdiff),
        mass=assemble_mass(unit_mesh),
        tg=tg,
        alpha=np.full(5, 0.08),
    )
    return {"heat": heat, "advdiff": adv}


def relative(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


class TestReducedTrain:
    @pytest.mark.parametrize("start", ["rest", "random"])
    @pytest.mark.parametrize("kind", ["heat", "advdiff"])
    def test_matches_full_space_query(self, online_desks, kind, start, rng, monkeypatch):
        # The projected march equals the full-order one in the lifted basis.
        # "random" replaces the problem's state at rest with one that is not.
        d = online_desks[kind]
        u0 = initial_state(d.terms.problem, d.terms.mesh)
        if start == "random":
            u0 = rng.uniform(0.5, 1.5, size=u0.size)
            monkeypatch.setattr(rom_module, "initial_state", lambda problem, mesh: u0)
        reduced = ReducedTrain(d.tt, d.scheme, d.terms, d.mass, d.tg)
        weights = weight_vectors(d.alpha, d.scheme)
        top = min(d.tt.ranks[0], d.tg.steps)
        for ell in (1, top // 2, top):
            got = reduced.query(d.alpha, ell)
            basis = local_basis(d.tt, weights, ell)
            ref = rom_solve(basis, d.mass, *d.terms(d.alpha), u0, d.tg)
            assert got.basis.shape == basis.shape
            assert relative(got.coefficients, ref.coefficients) <= 1e-12
            assert relative(got.lift(), ref.lift()) <= 1e-12

    def test_query_makes_no_full_order_sparse_product(self, online_desks, monkeypatch):
        d = online_desks["heat"]
        reduced = ReducedTrain(d.tt, d.scheme, d.terms, d.mass, d.tg)

        def refuse(*args):
            raise AssertionError("product with a full-order sparse matrix")

        for name in ("__matmul__", "__rmatmul__", "__mul__", "dot"):
            monkeypatch.setattr(sp.csr_matrix, name, refuse)
        with pytest.raises(AssertionError):
            d.mass @ np.ones(d.mass.shape[0])
        traj = reduced.query(d.alpha, 5)
        assert traj.lift().shape == (d.mass.shape[0], d.tg.steps)


class TestPodBasis:
    def test_repeated_snapshot(self, heat_desk, rng):
        m = heat_desk.mesh.nodes.shape[0]
        snap = rng.normal(size=m)
        states = np.column_stack([snap] * 5)
        basis = pod_basis(states, heat_desk.mass, ell=1)
        assert basis.shape == (m, 1)
        # Mass-normalized, and collinear with the snapshot.
        assert float(basis[:, 0] @ (heat_desk.mass @ basis[:, 0])) == pytest.approx(
            1.0, rel=1e-11
        )
        cos = abs(float(snap @ (heat_desk.mass @ basis[:, 0])))
        norm = np.sqrt(float(snap @ (heat_desk.mass @ snap)))
        assert cos == pytest.approx(norm, rel=1e-11)

    def test_identity_mass_is_plain_svd(self, rng):
        states = rng.normal(size=(30, 8))
        eye = sp.identity(30, format="csr")
        basis = pod_basis(states, eye, ell=3)
        u, _, _ = np.linalg.svd(states, full_matrices=False)
        cosines = np.linalg.svd(basis.T @ u[:, :3], compute_uv=False)
        assert np.abs(cosines - 1.0).max() <= 1e-11

    def test_mass_orthonormality(self, heat_desk, rng):
        m = heat_desk.mesh.nodes.shape[0]
        states = rng.normal(size=(m, 10))
        basis = pod_basis(states, heat_desk.mass, ell=6)
        gram = basis.T @ (heat_desk.mass @ basis)
        assert np.abs(gram - np.eye(6)).max() <= 1e-11

    def test_projection_error_is_tail_energy(self, rng):
        # Weighted Eckart-Young: projection error in the weighted
        # Frobenius norm equals the discarded tail of the weighted SVD.
        n = 12
        raw = rng.normal(size=(n, n))
        w = sp.csr_matrix(raw @ raw.T + n * np.eye(n))
        states = rng.normal(size=(n, 7))
        chol = np.linalg.cholesky(w.toarray())
        sigma = np.linalg.svd(chol.T @ states, compute_uv=False)
        for ell in (1, 3, 5):
            basis = pod_basis(states, w, ell)
            proj = basis @ (basis.T @ (w @ states))
            resid = states - proj
            err = np.sqrt(np.sum(resid * (w @ resid)))
            expected = np.sqrt(np.sum(sigma[ell:] ** 2))
            assert err == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_ell_beyond_rank(self, heat_desk, rng):
        m = heat_desk.mesh.nodes.shape[0]
        snap = rng.normal(size=m)
        states = np.column_stack([snap, 2.0 * snap, -snap])
        with pytest.raises(ValueError):
            pod_basis(states, heat_desk.mass, ell=2)


class TestSpectralDiagnostics:
    def test_mass_orthonormal_columns_flat_spectrum(self, heat_desk, rng):
        m = heat_desk.mesh.nodes.shape[0]
        n = 6
        raw = rng.normal(size=(m, n))
        gram = raw.T @ (heat_desk.mass @ raw)
        u = raw @ np.linalg.inv(np.linalg.cholesky(gram).T)
        lam = correlation_spectrum(u, heat_desk.mass)
        np.testing.assert_allclose(lam[:n], np.full(n, 1.0 / n), rtol=1e-11)
        assert np.all(lam >= 0)

    def test_rank_one(self, heat_desk, rng):
        m = heat_desk.mesh.nodes.shape[0]
        u = np.outer(rng.normal(size=m), rng.normal(size=5))
        lam = correlation_spectrum(u, heat_desk.mass)
        assert lam[0] > 0
        assert np.all(lam[1:] <= 1e-13 * lam[0])

    def test_cutoff_scales_with_step_count(self, rng):
        # eigh on the N x N Gram matrix is accurate to about N * eps_mach
        # times the largest eigenvalue; values under that are round-off.
        m, n = 80, 60
        lam = np.zeros(n)
        lam[:3] = (1.0, 0.5, 1.2e-14)  # 1.2e-14 < 60 * eps_mach = 1.33e-14
        q = np.linalg.qr(rng.normal(size=(m, n)))[0]
        u = q * np.sqrt(n * lam)
        got = correlation_spectrum(u, sp.identity(m, format="csr"))
        np.testing.assert_allclose(got[:2], lam[:2], rtol=1e-12)
        assert np.all(got[2:] == 0.0)
        # With few steps the fixed 1e-14 floor still applies.
        lam = np.array([1.0, 2e-14, 0.0, 0.0])
        u = np.linalg.qr(rng.normal(size=(m, 4)))[0] * np.sqrt(4 * lam)
        got = correlation_spectrum(u, sp.identity(m, format="csr"))
        assert got[1] == pytest.approx(2e-14, rel=1e-2)

    def test_matches_cholesky_weighted_svd(self, rng):
        m, n = 20, 6
        raw = rng.normal(size=(m, m))
        w = sp.csr_matrix(raw @ raw.T + m * np.eye(m))
        u = rng.normal(size=(m, n))
        lam = correlation_spectrum(u, w)
        chol = np.linalg.cholesky(w.toarray())
        sigma = np.linalg.svd(chol.T @ u, compute_uv=False)
        np.testing.assert_allclose(lam[:n], sigma**2 / n, rtol=1e-11)

    def test_tail_energy_endpoints(self, heat_desk, test_trajectories):
        _, states = test_trajectories
        spectra = [correlation_spectrum(s, heat_desk.mass) for s in states]
        n = heat_desk.tg.steps
        full = tail_energy(spectra, 0)
        oracle = max(
            sum(float(u @ (heat_desk.mass @ u)) for u in s.T) / n for s in states
        )
        assert full == pytest.approx(oracle, rel=1e-12)
        assert tail_energy(spectra, n) <= 1e-12
        tails = [tail_energy(spectra, ell) for ell in range(n + 1)]
        assert np.all(np.diff(tails) <= 1e-15 * tails[0])

    def test_tail_envelope_on_desk_instance(self, heat_desk, test_trajectories):
        # Qualitative magnitude window for the spectral tails of this
        # desk problem; the interesting range decays from ~1e-3 through
        # ~1e-11 and reaches numerical zero around ell = 9.
        _, states = test_trajectories
        spectra = [correlation_spectrum(s, heat_desk.mass) for s in states]
        tails = [tail_energy(spectra, ell) for ell in range(2, 8)]
        for tail in tails:
            assert 1e-13 <= tail <= 1e-2
        window = [
            tail_energy(spectra, ell) for ell in range(0, 13)
        ]
        assert any(2e-10 <= v <= 5e-5 for v in window)

    def test_sigma_tail_dominated_by_spectral_tail(
        self, heat_desk, scheme, test_trajectories
    ):
        # One-sided qualitative bound: the scaled singular-value tails of
        # the interpolated coefficient matrices stay within a fixed
        # multiple of Lambda_ell plus the compression and interpolation
        # contributions (eps^2 + delta^4 for quadratic stencils).
        alphas, states = test_trajectories
        spectra = [correlation_spectrum(s, heat_desk.mass) for s in states]
        eps = 1e-6
        eps_tilde = frobenius_tolerance(
            eps, heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt
        )
        tt, _ = tt_svd(heat_desk.tensor, eps_tilde)
        delta = max(grid_spacings(heat_desk.grid))
        h2 = (heat_desk.mesh.cell * np.sqrt(2)) ** 2
        dt = heat_desk.tg.dt
        for ell in range(0, 9):
            worst = 0.0
            for alpha in alphas:
                coeff = interpolate_coefficients(tt, weight_vectors(alpha, scheme))
                s = np.linalg.svd(coeff, compute_uv=False)
                worst = max(worst, float((s[ell:] ** 2).sum()))
            lhs = dt * h2 * worst
            rhs = tail_energy(spectra, ell) + eps**2 + delta**4
            assert lhs <= 100.0 * rhs


class TestErrorFunctional:
    def test_zero_for_identical(self, heat_desk, rng):
        m = heat_desk.mesh.nodes.shape[0]
        states = rng.normal(size=(m, 5))
        assert trajectory_error_sq(states, states, heat_desk.gram, 0.5) == 0.0

    def test_quadratic_scaling(self, heat_desk, rng):
        m = heat_desk.mesh.nodes.shape[0]
        a = rng.normal(size=(m, 5))
        b = rng.normal(size=(m, 5))
        e1 = trajectory_error_sq(a, b, heat_desk.gram, 0.5)
        e2 = trajectory_error_sq(a, 2.0 * b - a, heat_desk.gram, 0.5)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    def test_column_loop_oracle(self, heat_desk, rng):
        m = heat_desk.mesh.nodes.shape[0]
        a = rng.normal(size=(m, 4))
        b = rng.normal(size=(m, 4))
        dt = 0.125
        oracle = dt * sum(
            float((a[:, j] - b[:, j]) @ (heat_desk.gram @ (a[:, j] - b[:, j])))
            for j in range(4)
        )
        assert trajectory_error_sq(a, b, heat_desk.gram, dt) == pytest.approx(
            oracle, rel=1e-13
        )
