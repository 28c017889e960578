"""Meshing, assembly, and backward Euler solver tests.

Frozen mesh counts below were derived once from the structured-grid
construction (nodes on an axis-aligned lattice, two triangles per cell,
hole cells removed) and pinned.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lrtdrom import fem
from lrtdrom import (
    BudgetError,
    DomainError,
    GeometryError,
    Mesh2D,
    ProblemSpec,
    SolverError,
    TimeGrid,
    advdiff_problem,
    assemble_h1_gram,
    assemble_mass,
    assemble_operator,
    backward_euler_solve,
    build_mesh,
    heat_problem,
    initial_state,
    solve_fom,
)
from lrtdrom.fem import (
    BoundaryTag,
    affine_operator,
    assemble_load,
    assemble_stiffness,
    boundary_load,
    solve_fom_batch,
    source_values,
    _SOURCE_CENTER,
    _SOURCE_WIDTH,
)
from oracles import advection_field, boundary_mass, superlu_march, time_levels

SQ2 = np.sqrt(2.0) / 2.0


def march(mass, op, load, u0, tg) -> np.ndarray:
    """The states (M, N, k) that :func:`backward_euler_solve` marches from
    a start block ``u0`` (M, k) under a fixed load block (M, k)."""
    out = np.empty((u0.shape[0], tg.steps, u0.shape[1]), order="F")
    backward_euler_solve(mass, op, load, u0, tg, out)
    return out


def zero_march(mass, op, tg) -> np.ndarray:
    """March a one-column zero start under a zero load."""
    zero = np.zeros((mass.shape[0], 1))
    return march(mass, op, zero, zero, tg)


def centroid_rule_advdiff(mesh, problem, alpha):
    """Advection-diffusion operator and load assembled directly at one alpha.

    One-point (centroid) quadrature of the velocity field written out per
    component, and of the Gaussian source: the per-alpha assembly that the
    affine terms replace.
    """
    a1, a2, a3, a4, a5 = alpha
    p = mesh.nodes[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    x1, x2 = x.mean(axis=1), y.mean(axis=1)
    e1 = (SQ2 - a2 * np.sin(np.pi * x2) - a3 * np.cos(np.pi * x1) * np.sin(np.pi * x2)
          - 2.0 * a5 * np.sin(2.0 * np.pi * x2))
    e2 = (SQ2 + a1 * np.sin(np.pi * x1) + a3 * np.sin(np.pi * x1) * np.cos(np.pi * x2)
          + 2.0 * a4 * np.sin(2.0 * np.pi * x1))
    conv = (e1[:, None] * b + e2[:, None] * c) / (2.0 * area)[:, None]
    local = (area[:, None, None] / 3.0) * conv[:, None, :]
    local = np.broadcast_to(local, (len(area), 3, 3)).reshape(-1)
    tri = mesh.triangles
    n = mesh.n_nodes
    rows, cols = np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel()
    advection = sp.coo_matrix((local, (rows, cols)), shape=(n, n)).tocsr()
    op = problem.nu * assemble_stiffness(mesh) + advection
    (sx, sy), w = _SOURCE_CENTER, _SOURCE_WIDTH
    f = np.exp(-((x1 - sx) ** 2 + (x2 - sy) ** 2) / (2 * w**2)) / (2 * np.pi * w**2)
    load = np.zeros(n)
    np.add.at(load, tri, np.broadcast_to((area * f / 3.0)[:, None], tri.shape))
    return op, load


def reference_triangle_mesh() -> Mesh2D:
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh2D(
        nodes=nodes,
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.empty((0, 2), dtype=int),
        edge_tags=np.empty(0, dtype=int),
        cell=1.0,
    )


class TestMesh:
    def test_unit_square_counts(self, advdiff):
        mesh = build_mesh(advdiff, 0.5)
        assert mesh.nodes.shape == (9, 2)
        assert mesh.triangles.shape == (8, 3)
        fine = build_mesh(advdiff, 0.25)
        assert fine.nodes.shape == (25, 2)
        assert fine.triangles.shape == (32, 3)

    def test_heat_counts(self, heat, heat_mesh):
        assert heat_mesh.cell == pytest.approx(0.5)
        assert heat_mesh.nodes.shape == (186, 2)
        assert heat_mesh.triangles.shape == (296, 3)
        assert heat_mesh.boundary_edges.shape == (80, 2)
        mid = build_mesh(heat, 0.4)  # 0.4 does not divide the hole rims
        assert mid.cell == pytest.approx(0.25)
        assert mid.nodes.shape == (670, 2)
        assert mid.triangles.shape == (1184, 3)

    def test_heat_boundary_tags(self, heat):
        # Edges per tag; all three hole rims share BoundaryTag.HOLE.
        expected = {
            0.5: (0.5, 48, 8, 24),
            0.2: (1.0 / 6.0, 144, 24, 72),
            0.1: (0.1, 240, 40, 120),
        }
        for h, (cell, neumann, robin, hole) in expected.items():
            mesh = build_mesh(heat, h)
            assert mesh.cell == pytest.approx(cell)
            tags, counts = np.unique(mesh.edge_tags, return_counts=True)
            assert dict(zip(tags.tolist(), counts.tolist())) == {
                BoundaryTag.NEUMANN: neumann,
                BoundaryTag.OUTER_ROBIN: robin,
                BoundaryTag.HOLE: hole,
            }
            # Hole edges sit on the hole rims, an equal share on each.
            rims = mesh.nodes[mesh.boundary_edges[mesh.edge_tags == BoundaryTag.HOLE]]
            assert np.all((rims[..., 1] >= 1.5) & (rims[..., 1] <= 2.5))
            for cx in (2.5, 5.0, 7.5):
                near = np.abs(rims[..., 0].mean(axis=1) - cx) <= 0.5
                assert np.count_nonzero(near) == hole // 3
            # Robin edges sit on the left outer edge only.
            robin_nodes = mesh.boundary_edges[mesh.edge_tags == BoundaryTag.OUTER_ROBIN]
            assert np.all(mesh.nodes[robin_nodes.ravel(), 0] == 0.0)

    def test_triangles_positive_and_quasi_uniform(self, heat_mesh):
        p = heat_mesh.nodes[heat_mesh.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        assert np.all(cross > 0)  # CCW orientation, positive area
        edges = np.stack(
            [
                p[:, 1] - p[:, 0],
                p[:, 2] - p[:, 1],
                p[:, 0] - p[:, 2],
            ],
            axis=1,
        )
        diam = np.linalg.norm(edges, axis=2).max(axis=1)
        assert diam.max() / diam.min() <= 4.0
        assert diam.max() == pytest.approx(heat_mesh.cell * np.sqrt(2))

    def test_tiny_cell_size_is_over_budget(self, heat):
        # h 1e-5 snaps at once to a 10^6 x 4 10^5 grid; the budget check
        # counts its nodes before the 373 GiB cell mask is allocated.
        with pytest.raises(BudgetError, match="mesh needs"):
            build_mesh(heat, 1e-5)
        # At these sizes width / h overflows, and the count reads inf
        # before any snapping.
        for h in (3e-308, 1e-310, 5e-324):
            with pytest.raises(BudgetError, match="mesh needs inf GiB"):
                build_mesh(heat, h)

    def test_hole_outside_domain_rejected(self):
        bad = ProblemSpec(
            kind="heat",
            outer=(0.0, 0.0, 10.0, 4.0),
            holes=((9.5, 1.5, 10.5, 2.5),),
            box=((0.01, 0.5), (0.0, 0.9)),
            final_time=1.0,
            robin_side="left",
        )
        with pytest.raises(GeometryError):
            build_mesh(bad, 0.5)

    def test_hole_touching_boundary_rejected(self):
        bad = ProblemSpec(
            kind="heat",
            outer=(0.0, 0.0, 10.0, 4.0),
            holes=((0.0, 1.5, 1.0, 2.5),),
            box=((0.01, 0.5), (0.0, 0.9)),
            final_time=1.0,
            robin_side="left",
        )
        with pytest.raises(GeometryError):
            build_mesh(bad, 0.5)


class TestAssembly:
    def test_reference_triangle_mass(self):
        mass = assemble_mass(reference_triangle_mesh()).toarray()
        expected = np.full((3, 3), 1.0 / 24.0)
        np.fill_diagonal(expected, 1.0 / 12.0)
        np.testing.assert_allclose(mass, expected, rtol=0, atol=1e-15)

    def test_mass_sum_equals_area(self, unit_mesh, heat_mesh):
        assert assemble_mass(unit_mesh).sum() == pytest.approx(1.0, rel=1e-13)
        # 10 x 4 rectangle minus three unit-square holes
        assert assemble_mass(heat_mesh).sum() == pytest.approx(37.0, rel=1e-13)

    def test_mass_eigenvalues_scale_with_h(self, advdiff):
        # Fixed constants across >= 3 refinement levels: lam(M) in
        # [0.02 h^2, 0.55 h^2] on the unit square.
        for h in (0.5, 0.25, 0.125):
            mesh = build_mesh(advdiff, h)
            lam = np.linalg.eigvalsh(assemble_mass(mesh).toarray())
            h = mesh.cell * np.sqrt(2)
            assert lam[0] > 0.02 * h**2
            assert lam[-1] < 0.55 * h**2

    def test_mass_and_gram_spd(self, heat_mesh):
        for matrix in (assemble_mass(heat_mesh), assemble_h1_gram(heat_mesh)):
            dense = matrix.toarray()
            np.testing.assert_allclose(dense, dense.T, rtol=0, atol=1e-15)
            np.linalg.cholesky(dense)  # raises if not SPD

    def test_gram_is_stiffness_plus_mass(self, heat_mesh):
        gram = assemble_h1_gram(heat_mesh)
        stiff = assemble_stiffness(heat_mesh)
        mass = assemble_mass(heat_mesh)
        diff = (gram - stiff - mass).toarray()
        assert np.abs(diff).max() <= 1e-14
        row_sums = np.asarray(stiff.sum(axis=1)).ravel()
        assert np.abs(row_sums).max() <= 1e-12  # constants in the kernel

    def test_h1_energy_against_quadrature_oracle(self, advdiff):
        # Nodal interpolant of x1*x2 on the unit square; compare v' L v
        # with per-triangle exact quadrature (midpoint rule is exact for
        # the quadratic integrands of P1 functions).
        mesh = build_mesh(advdiff, 0.25)
        v = mesh.nodes[:, 0] * mesh.nodes[:, 1]
        energy = float(v @ (assemble_h1_gram(mesh) @ v))
        oracle = 0.0
        for tri in mesh.triangles:
            pts = mesh.nodes[tri]
            vals = v[tri]
            vander = np.column_stack([np.ones(3), pts])
            coef = np.linalg.solve(vander, vals)  # v = c0 + c1 x1 + c2 x2
            area = 0.5 * abs(np.linalg.det(vander))
            mids = 0.5 * (pts + np.roll(pts, -1, axis=0))
            mid_vals = coef[0] + mids @ coef[1:]
            oracle += area * (coef[1] ** 2 + coef[2] ** 2)
            oracle += area / 3.0 * float(mid_vals @ mid_vals)
        assert energy == pytest.approx(oracle, rel=1e-13)

    def test_load_of_unit_density_integrates_area(self, unit_mesh):
        load = assemble_load(unit_mesh, lambda x: np.ones(x.shape[0]))
        assert load.sum() == pytest.approx(1.0, rel=1e-13)

    def test_heat_operator_zero_alpha(self, heat, heat_mesh):
        op, load = assemble_operator(heat_mesh, heat, (0.0, 0.0))
        expected = assemble_stiffness(heat_mesh) + 0.5 * boundary_mass(
            heat_mesh, BoundaryTag.HOLE
        )
        assert np.abs((op - expected).toarray()).max() <= 1e-14
        assert np.all(load == 0.0)
        # Robin load enters through alpha_1 only.
        _, load1 = assemble_operator(heat_mesh, heat, (0.2, 0.0))
        robin = boundary_load(heat_mesh, BoundaryTag.OUTER_ROBIN)
        np.testing.assert_allclose(load1, 0.2 * robin, rtol=0, atol=1e-15)

    def test_heat_operator_general_alpha(self, heat, heat_mesh):
        alpha = (0.3, 0.7)
        op, load = assemble_operator(heat_mesh, heat, alpha)
        robin, holes = BoundaryTag.OUTER_ROBIN, BoundaryTag.HOLE
        expected = (
            assemble_stiffness(heat_mesh)
            + 0.3 * boundary_mass(heat_mesh, robin)
            + 0.5 * boundary_mass(heat_mesh, holes)
        )
        assert np.abs((op - expected).toarray()).max() <= 1e-14
        expected_load = (
            0.3 * boundary_load(heat_mesh, robin)
            + 0.5 * 0.7 * boundary_load(heat_mesh, holes)
        )
        np.testing.assert_allclose(load, expected_load, rtol=0, atol=1e-15)

    def test_advdiff_operator_matches_centroid_rule_oracle(self, advdiff, rng):
        mesh = build_mesh(advdiff, 0.125)
        alphas = [np.zeros(5), *rng.uniform(-0.1, 0.1, size=(4, 5)), np.full(5, 3.0)]
        for alpha in alphas:
            op, load = assemble_operator(mesh, advdiff, alpha)
            ref_op, ref_load = centroid_rule_advdiff(mesh, advdiff, alpha)
            assert abs(op - ref_op).max() <= 1e-14 * abs(ref_op).max()
            assert np.abs(load - ref_load).max() <= 1e-14 * np.abs(ref_load).max()

    def test_affine_coefficients_group_shared_operators(
        self, heat, heat_mesh, advdiff, unit_mesh
    ):
        # alpha_2 enters the heat load only, so equal alpha_1 is one operator.
        terms = affine_operator(heat_mesh, heat)
        np.testing.assert_array_equal(terms.theta((0.2, 0.1)), terms.theta((0.2, 0.9)))
        assert not np.array_equal(terms.theta((0.2, 0.1)), terms.theta((0.3, 0.1)))
        op, load = terms((0.2, 0.9))
        ref_op, ref_load = assemble_operator(heat_mesh, heat, (0.2, 0.9))
        np.testing.assert_array_equal(op.toarray(), ref_op.toarray())
        np.testing.assert_array_equal(load, ref_load)
        adv = affine_operator(unit_mesh, advdiff)
        a = np.full(5, 0.05)
        for i in range(5):
            b = a.copy()
            b[i] = -0.05
            assert not np.array_equal(adv.theta(a), adv.theta(b))
        with pytest.raises(DomainError):
            terms.theta((0.2,))

    def test_bad_alpha_vector_rejected(self, heat, heat_mesh):
        with pytest.raises(DomainError):
            assemble_operator(heat_mesh, heat, (0.1, 0.5, 0.0))
        with pytest.raises(DomainError):
            assemble_operator(heat_mesh, heat, (np.nan, 0.5))

    def test_source_profile(self):
        (sx, sy), w = _SOURCE_CENTER, _SOURCE_WIDTH
        vals = source_values(np.array([(sx, sy), (sx + w, sy)]))
        peak = 1.0 / (2.0 * np.pi * w**2)
        assert vals[0] == pytest.approx(peak, rel=1e-13)
        assert vals[1] / vals[0] == pytest.approx(np.exp(-0.5), rel=1e-13)


class TestHeldTerms:
    """A mesh keeps the affine terms of the last problem assembled on it."""

    @pytest.fixture()
    def stiffness_calls(self, monkeypatch):
        calls = []

        def counted(mesh):
            calls.append(mesh)
            return assemble_stiffness(mesh)

        monkeypatch.setattr(fem, "assemble_stiffness", counted)
        return calls

    def test_repeated_operator_assembles_stiffness_once(
        self, heat, heat_mesh, stiffness_calls
    ):
        mesh = dataclasses.replace(heat_mesh)
        first = assemble_operator(mesh, heat, (0.2, 0.3))
        second = assemble_operator(mesh, heat, (0.4, 0.6))
        assert len(stiffness_calls) == 1
        assert not np.array_equal(first[0].data, second[0].data)

    @pytest.mark.parametrize("kind", ["heat", "advdiff"])
    def test_held_terms_equal_fresh_build(
        self, heat, heat_mesh, advdiff, unit_mesh, kind
    ):
        problem, mesh = (heat, heat_mesh) if kind == "heat" else (advdiff, unit_mesh)
        alpha = np.linspace(0.05, 0.1, problem.n_params)
        affine_operator(mesh, problem)
        held = affine_operator(mesh, problem)
        fresh = affine_operator(dataclasses.replace(mesh), problem)
        assert fresh is not held
        for name in ("indptr", "indices", "op_terms", "op_coeffs", "load_terms", "load_coeffs"):
            np.testing.assert_array_equal(getattr(held, name), getattr(fresh, name))
        op, load = assemble_operator(mesh, problem, alpha)
        ref_op, ref_load = fresh(alpha)
        np.testing.assert_array_equal(op.toarray(), ref_op.toarray())
        np.testing.assert_array_equal(load, ref_load)

    def test_other_problem_replaces_held_terms(
        self, advdiff, unit_mesh, stiffness_calls
    ):
        mesh = dataclasses.replace(unit_mesh)
        thick = dataclasses.replace(advdiff, nu=0.5)
        alpha = np.zeros(5)
        thin_op, _ = assemble_operator(mesh, advdiff, alpha)
        thick_op, _ = assemble_operator(mesh, thick, alpha)
        assert abs(thick_op - thin_op).max() > 0
        assert mesh._terms.problem == thick
        assemble_operator(mesh, advdiff, alpha)
        assert len(stiffness_calls) == 3

    def test_mesh_and_held_terms_are_read_only(self, heat, heat_mesh):
        for mesh in (heat_mesh, reference_triangle_mesh()):
            for name in ("nodes", "triangles", "boundary_edges", "edge_tags"):
                assert not getattr(mesh, name).flags.writeable
        with pytest.raises(ValueError):
            heat_mesh.nodes[0, 0] = 1.0
        terms = affine_operator(heat_mesh, heat)
        with pytest.raises(ValueError):
            terms.op_terms[0, 0] = 1.0
        with pytest.raises(ValueError):
            terms.load_coeffs[0, 0] = 1.0
        op, _ = terms((0.2, 0.3))
        op.indices[0] = op.indices[0]  # each operator owns its pattern


class TestAdvection:
    def test_zero_alpha_is_unit_diagonal_drift(self, rng):
        x = rng.uniform(0.0, 1.0, size=(40, 2))
        eta = advection_field(x, np.zeros(5))
        np.testing.assert_allclose(eta, np.full((40, 2), SQ2), rtol=0, atol=1e-15)

    def test_pinned_point(self):
        eta = advection_field(np.array([[0.5, 0.25]]), (0.1, 0.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(eta[0], [SQ2, SQ2 + 0.1], rtol=0, atol=1e-14)

    def test_matches_stream_function_oracle(self, rng):
        # eta = (cos pi/4, sin pi/4) + (1/pi) * (d h / d x2, -d h / d x1)
        # for the five-term cosine stream function; derivatives by
        # central differences.
        def stream(x, a):
            x1, x2 = x[..., 0], x[..., 1]
            return (
                a[0] * np.cos(np.pi * x1)
                + a[1] * np.cos(np.pi * x2)
                + a[2] * np.cos(np.pi * x1) * np.cos(np.pi * x2)
                + a[3] * np.cos(2 * np.pi * x1)
                + a[4] * np.cos(2 * np.pi * x2)
            )

        step = 1e-6
        for _ in range(5):
            alpha = rng.uniform(-0.1, 0.1, size=5)
            x = rng.uniform(0.0, 1.0, size=(30, 2))
            dx1 = np.array([step, 0.0])
            dx2 = np.array([0.0, step])
            dh_dx1 = (stream(x + dx1, alpha) - stream(x - dx1, alpha)) / (2 * step)
            dh_dx2 = (stream(x + dx2, alpha) - stream(x - dx2, alpha)) / (2 * step)
            expected = np.stack(
                [SQ2 + dh_dx2 / np.pi, SQ2 - dh_dx1 / np.pi], axis=-1
            )
            eta = advection_field(x, alpha)
            np.testing.assert_allclose(eta, expected, rtol=0, atol=1e-7)

    def test_divergence_free(self, rng):
        step = 1e-4
        for _ in range(5):
            alpha = rng.uniform(-0.1, 0.1, size=5)
            x = rng.uniform(0.1, 0.9, size=(30, 2))
            dx1 = np.array([step, 0.0])
            dx2 = np.array([0.0, step])
            d1 = (
                advection_field(x + dx1, alpha)[:, 0]
                - advection_field(x - dx1, alpha)[:, 0]
            ) / (2 * step)
            d2 = (
                advection_field(x + dx2, alpha)[:, 1]
                - advection_field(x - dx2, alpha)[:, 1]
            ) / (2 * step)
            assert np.abs(d1 + d2).max() <= 1e-6


class TestTimeStepping:
    def test_time_grid(self):
        tg = TimeGrid(20.0, 8)
        assert tg.dt == pytest.approx(2.5)
        np.testing.assert_allclose(time_levels(tg), 2.5 * np.arange(1, 9))
        with pytest.raises(ValueError):
            TimeGrid(20.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)

    def test_constants_preserved_by_pure_neumann_laplacian(self, unit_mesh):
        mass = assemble_mass(unit_mesh)
        stiff = assemble_stiffness(unit_mesh)
        tg = TimeGrid(1.0, 12)
        c = 3.25
        u0 = np.full((unit_mesh.nodes.shape[0], 1), c)
        states = march(mass, stiff, np.zeros_like(u0), u0, tg)
        assert np.abs(states - c).max() <= 1e-12

    def test_energy_decay_without_forcing(self, heat, heat_mesh, rng):
        mass = assemble_mass(heat_mesh)
        op, _ = assemble_operator(heat_mesh, heat, (0.3, 0.0))
        tg = TimeGrid(heat.final_time, 25)
        u0 = rng.uniform(0.5, 1.5, size=heat_mesh.nodes.shape[0])
        states = march(mass, op, np.zeros((u0.size, 1)), u0[:, None], tg)
        energy = [float(u0 @ (mass @ u0))]
        energy += [float(u @ (mass @ u)) for u in states[:, :, 0].T]
        energy = np.array(energy)
        assert np.all(np.diff(energy) <= 1e-12 * energy[0])
        assert energy.max() == pytest.approx(energy[0])

    def test_singular_system_raises(self):
        zero = sp.csr_matrix((4, 4))
        with pytest.raises(SolverError):
            zero_march(zero, zero, TimeGrid(1.0, 2))

    @pytest.mark.parametrize(
        "u0, load, out",
        [
            ((4,), (4, 1), (4, 2, 1)),  # a 1-D start
            ((4, 1), (4,), (4, 2, 1)),  # a 1-D load
            ((4, 1), (4, 1), (4, 2)),  # 2-D states
            ((4, 2), (4, 2), (4, 2, 1)),  # a start wider than the states
            ((4, 1), (4, 1), (4, 3, 1)),  # more states than steps
        ],
        ids=["1d-start", "1d-load", "2d-states", "wide-start", "extra-steps"],
    )
    def test_march_shapes_must_agree(self, u0, load, out):
        mass = sp.identity(4, format="csr")
        with pytest.raises(SolverError, match="march needs"):
            backward_euler_solve(
                mass, mass, np.zeros(load), np.zeros(u0), TimeGrid(1.0, 2), np.empty(out)
            )

    def test_states_layout(self, heat, heat_mesh, heat_mass):
        tg = TimeGrid(heat.final_time, 7)
        traj = solve_fom(heat, heat_mesh, tg, (0.25, 0.5), heat_mass)
        assert traj.states.shape == (heat_mesh.nodes.shape[0], 7)
        assert traj.states.flags.f_contiguous
        assert np.all(np.isfinite(traj.states))
        np.testing.assert_array_equal(
            initial_state(heat, heat_mesh), np.zeros(heat_mesh.nodes.shape[0])
        )

    def test_batch_matches_single_solves(self, heat, heat_mesh):
        # The alpha_1 = 0.1 group (columns 0, 2, 3) is a superposition of
        # the two marched load terms; the other points are groups of one.
        alphas = np.array([(0.1, 0.2), (0.3, 0.2), (0.1, 0.5), (0.1, 0.9), (0.4, 0.0)])
        tg = TimeGrid(heat.final_time, 9)
        out = np.full((heat_mesh.n_nodes, 9, len(alphas)), np.nan, order="F")
        mass = assemble_mass(heat_mesh)
        solve_fom_batch(affine_operator(heat_mesh, heat), mass, tg, alphas, out)
        for j, alpha in enumerate(alphas):
            ref = solve_fom(heat, heat_mesh, tg, alpha, mass).states
            assert np.abs(out[:, :, j] - ref).max() <= 1e-12 * np.abs(ref).max(), j

    @pytest.mark.parametrize("alphas", [[(0.1, 0.2)], [(0.1, 0.2), (0.1, 0.5)]])
    def test_batch_rejects_non_finite_trajectory(self, heat, heat_mesh, alphas):
        # A group of one marches its own load, a larger group the load
        # terms; either way a non-finite trajectory raises.
        terms = affine_operator(heat_mesh, heat)
        loads = terms.load_terms.copy()
        loads[1, np.argmax(loads[1])] = np.inf
        bad = dataclasses.replace(terms, load_terms=loads)
        tg = TimeGrid(heat.final_time, 3)
        out = np.empty((heat_mesh.n_nodes, 3, len(alphas)), order="F")
        with pytest.raises(SolverError, match="non-finite"):
            solve_fom_batch(bad, assemble_mass(heat_mesh), tg, alphas, out)

    def test_heat_steady_state_positive(self, heat, heat_mesh):
        op, load = assemble_operator(heat_mesh, heat, (0.5, 0.9))
        steady = spla.spsolve(op.tocsc(), load)
        assert np.all(steady > 0.0)


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(got - ref).max() / np.abs(ref).max())


# (problem, mesh size, alpha) of a symmetric (heat) and a nonsymmetric
# (advdiff) time-step system.
MARCH_SYSTEMS = {
    "heat": (heat_problem(), 0.5, (0.3, 0.5)),
    "advdiff": (advdiff_problem(), 0.1, (0.05, -0.02, 0.1, 0.0, -0.1)),
}


class TestBandedMarch:
    """The banded march against SuperLU in node order (``superlu_march``)."""

    @staticmethod
    def system(kind: str):
        problem, h, alpha = MARCH_SYSTEMS[kind]
        mesh = build_mesh(problem, h)
        op, load = assemble_operator(mesh, problem, alpha)
        return assemble_mass(mesh), op, load, TimeGrid(problem.final_time, 12)

    @pytest.mark.parametrize("kind", ["heat", "advdiff"])
    @pytest.mark.parametrize("width", [1, 2])
    def test_matches_superlu(self, kind, width, rng):
        mass, op, load, tg = self.system(kind)
        u0 = rng.normal(size=(mass.shape[0], width))
        load = np.column_stack([load, -2.0 * load][:width])
        got = march(mass, op, load, u0, tg)
        ref = superlu_march(mass, op, load, u0, tg)
        assert got.shape == ref.shape
        assert relative_error(got, ref) <= 1e-12

    @pytest.mark.parametrize("kind", ["heat", "advdiff"])
    def test_block_into_a_view_matches_superlu(self, kind, rng):
        mass, op, load, tg = self.system(kind)
        m = mass.shape[0]
        u0 = rng.normal(size=(m, 2))
        loads = np.column_stack([load, np.cos(1.0) * load])
        big = np.full((m, tg.steps, 4), np.nan, order="F")
        backward_euler_solve(mass, op, loads, u0, tg, big[:, :, 1:3])
        ref = superlu_march(mass, op, loads, u0, tg)
        assert relative_error(big[:, :, 1:3], ref) <= 1e-12
        assert np.isnan(big[:, :, [0, 3]]).all()
        backward_euler_solve(mass, op, loads[:, :1], u0[:, :1], tg, big[:, :, 3:])
        assert relative_error(big[:, :, 3], ref[:, :, 0]) <= 1e-12

    @pytest.mark.parametrize("kind, routine", [("heat", "dpbtrf"), ("advdiff", "dgbtrf")])
    def test_symmetric_systems_take_cholesky(self, kind, routine, monkeypatch):
        # Heat's mass + dt * operator is exactly symmetric, advdiff's is not.
        mass, op, load, tg = self.system(kind)
        calls = []
        for name in ("dpbtrf", "dgbtrf"):
            factor = getattr(fem, name)
            monkeypatch.setattr(
                fem, name, lambda *a, _f=factor, _n=name, **k: calls.append(_n) or _f(*a, **k)
            )
        march(mass, op, load[:, None], np.zeros((mass.shape[0], 1)), tg)
        assert calls == [routine]

    def test_symmetric_indefinite_system_raises(self):
        # mass + dt * op = diag(1, -1, 1, -1): symmetric but not positive
        # definite, so the Cholesky factorization fails.
        mass = sp.identity(4, format="csr")
        op = sp.diags([0.0, -4.0, 0.0, -4.0], format="csr")
        with pytest.raises(SolverError, match="factorization failed"):
            zero_march(mass, op, TimeGrid(1.0, 2))

    def test_nonsymmetric_singular_system_raises(self):
        # [[2, 1], [4, 2]] has an exactly zero second pivot.
        zero = sp.csr_matrix((2, 2))
        op = sp.csr_matrix(np.array([[2.0, 1.0], [4.0, 2.0]]))
        with pytest.raises(SolverError, match="factorization failed"):
            zero_march(zero, op, TimeGrid(1.0, 1))

    def test_tiny_pivot_ratio_raises(self):
        mass = sp.diags([1.0, 1e-16], format="csr")
        zero = sp.csr_matrix((2, 2))
        with pytest.raises(SolverError, match="numerically singular"):
            zero_march(mass, zero, TimeGrid(1.0, 1))

    def test_nan_pivot_raises(self):
        # A NaN entry gives LU (info 0) a NaN pivot, which no ratio test
        # written as "min <= 1e-14 max" catches.
        zero = sp.csr_matrix((2, 2))
        op = sp.csr_matrix(np.array([[np.nan, 1.0], [0.0, 1.0]]))
        with pytest.raises(SolverError, match="numerically singular: pivot ratio nan"):
            zero_march(zero, op, TimeGrid(1.0, 1))

    @pytest.mark.parametrize(
        "pivots",
        [[1.0, 1e-14], [1.0, 0.0], [0.0, 0.0], [1.0, np.nan], [np.inf, 1.0]],
    )
    def test_pivot_rule_rejects(self, pivots):
        with pytest.raises(SolverError, match="numerically singular: pivot ratio"):
            fem.check_pivots(np.array(pivots), "system")

    def test_pivot_rule_accepts(self):
        fem.check_pivots(np.array([1.0, 2e-14]), "system")

    @pytest.mark.parametrize(
        "problem, h, bandwidth",
        [(heat_problem(), 0.5, 10), (heat_problem(), 0.2, 26), (advdiff_problem(), 0.1, 12)],
    )
    def test_node_numbering_keeps_the_band_narrow(self, problem, h, bandwidth):
        # build_mesh numbers nodes column by column, so the half-bandwidth
        # is the nodes per grid column plus one: a renumbering that widens
        # the band (and slows every march) fails here.
        mesh = build_mesh(problem, h)
        op, _ = assemble_operator(mesh, problem, np.full(problem.n_params, 0.05))
        pattern = (abs(assemble_mass(mesh)) + abs(op)).tocoo()
        y0, y1 = problem.outer[1], problem.outer[3]
        assert np.abs(pattern.row - pattern.col).max() == bandwidth
        assert bandwidth == round((y1 - y0) / mesh.cell) + 2

    def test_permuted_system_matches_superlu(self, rng):
        # A random node order makes the band nearly full; the march must
        # still agree with SuperLU on the permuted system.
        mass, op, load, tg = self.system("heat")
        perm = np.random.default_rng(7).permutation(mass.shape[0])
        mass, op = mass[perm][:, perm], op[perm][:, perm]
        u0 = rng.normal(size=(mass.shape[0], 1))
        got = march(mass, op, load[perm, None], u0, tg)
        ref = superlu_march(mass, op, load[perm, None], u0, tg)
        assert relative_error(got, ref) <= 1e-12


def test_problem_factories():
    heat = heat_problem()
    assert heat.kind == "heat"
    assert heat.n_params == 2
    assert heat.final_time == 20.0
    assert heat.box == ((0.01, 0.501), (0.0, 0.9))
    assert heat.robin_side == "left"
    assert len(heat.holes) == 3

    adv = advdiff_problem()
    assert adv.kind == "advdiff"
    assert adv.n_params == 5
    assert adv.final_time == 1.0
    assert adv.nu == pytest.approx(1.0 / 30.0)
    assert adv.holes == ()
    assert adv.box == tuple(((-0.1, 0.1),) * 5)


# Hashes the full-order blocks of 8 random points and of a 3^d snapshot
# grid, on heat (h 0.2, N 100) and advdiff (h 0.1, N 60).
_MARCH_DIGEST = """
import hashlib
import numpy as np
from lrtdrom import TimeGrid, assemble_mass, build_mesh, generate_snapshots, uniform_grid
from lrtdrom import advdiff_problem, heat_problem
from lrtdrom.fem import affine_operator, solve_fom_batch

digest = hashlib.sha256()
rng = np.random.default_rng(11)
for problem, h, steps in ((heat_problem(), 0.2, 100), (advdiff_problem(), 0.1, 60)):
    mesh = build_mesh(problem, h)
    mass = assemble_mass(mesh)
    tg = TimeGrid(problem.final_time, steps)
    lo, hi = np.array(problem.box).T
    points = rng.uniform(lo, hi, size=(8, lo.size))
    out = np.empty((mesh.n_nodes, steps, len(points)), order="F")
    solve_fom_batch(affine_operator(mesh, problem), mass, tg, points, out)
    digest.update(out.tobytes(order="F"))
    grid = uniform_grid(problem.box, (3,) * lo.size)
    digest.update(generate_snapshots(problem, mesh, tg, grid).tobytes(order="F"))
print(digest.hexdigest())
"""


def test_full_order_march_does_not_depend_on_blas_threads():
    # The FOM cache keys no thread setting, so a cached trajectory must be
    # the same bytes whatever OPENBLAS_NUM_THREADS the solve ran under.
    src = str(Path(fem.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _MARCH_DIGEST],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
