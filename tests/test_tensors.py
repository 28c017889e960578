"""Parameter grids, snapshot tensors, tensor primitives, persistence."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from lrtdrom import (
    BudgetError,
    DomainError,
    FormatError,
    ParameterGrid,
    TimeGrid,
    assemble_mass,
    build_mesh,
    generate_snapshots,
    load_tensor,
    save_tensor,
    solve_fom,
    uniform_grid,
)
from lrtdrom.errors import resolve_memory_budget
from lrtdrom.tensors import (
    frobenius_norm,
    max_trajectory_norm,
    spectral_norm,
    unfold_first_mode,
)
from oracles import grid_box, grid_indices, grid_point, grid_spacings, mode_product

# Frozen once from the writer; pins magic, header layout, little-endian
# doubles, and first-index-fastest payload order.
GOLDEN_2X2X2 = (
    b"LRT1\x03\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00"
    b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0?"
    b"\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\x08@"
    b"\x00\x00\x00\x00\x00\x00\x10@\x00\x00\x00\x00\x00\x00\x14@"
    b"\x00\x00\x00\x00\x00\x00\x18@\x00\x00\x00\x00\x00\x00\x1c@"
)


class TestParameterGrid:
    def test_uniform_axis_nodes(self):
        grid = uniform_grid([(0.0, 1.0)], [3])
        np.testing.assert_array_equal(grid.axes[0], [0.0, 0.5, 1.0])
        assert grid.counts == (3,)
        assert grid_box(grid) == ((0.0, 1.0),)
        assert grid.n_points == 3

    def test_heat_box_spacings(self, heat):
        grid = uniform_grid(heat.box, (11, 19))
        assert grid_spacings(grid)[0] == pytest.approx(0.0491, rel=1e-12)
        assert grid_spacings(grid)[1] == pytest.approx(0.05, rel=1e-12)

    def test_single_node_axis_allowed(self):
        grid = ParameterGrid(axes=(np.array([0.3]), np.array([0.0, 1.0])))
        assert grid.counts == (1, 2)
        assert grid_spacings(grid)[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterGrid(axes=(np.array([0.5, 0.5]),))
        with pytest.raises(ValueError):
            ParameterGrid(axes=(np.array([1.0, 0.0]),))
        with pytest.raises(ValueError):
            uniform_grid([(0.0, 1.0)], [2, 2])
        with pytest.raises(ValueError):
            uniform_grid([(1.0, 0.0)], [2])

    def test_points_first_axis_fastest(self):
        grid = uniform_grid([(0.0, 1.0), (10.0, 20.0)], [2, 3])
        pts = grid.points()
        assert pts.shape == (6, 2)
        np.testing.assert_array_equal(pts[0], [0.0, 10.0])
        np.testing.assert_array_equal(pts[1], [1.0, 10.0])
        np.testing.assert_array_equal(pts[2], [0.0, 15.0])
        idx = list(grid_indices(grid))
        assert idx[:3] == [(0, 0), (1, 0), (0, 1)]
        np.testing.assert_array_equal(grid_point(grid, (1, 2)), [1.0, 20.0])


class TestSnapshots:
    def test_single_point_grid_equals_fom(self, heat, heat_mesh, heat_mass):
        tg = TimeGrid(heat.final_time, 10)
        grid = ParameterGrid(axes=(np.array([0.3]), np.array([0.5])))
        tensor = generate_snapshots(heat, heat_mesh, tg, grid)
        assert tensor.shape == (heat_mesh.nodes.shape[0], 10, 1, 1)
        ref = solve_fom(heat, heat_mesh, tg, (0.3, 0.5), heat_mass)
        np.testing.assert_array_equal(tensor[:, :, 0, 0], ref.states)

    def test_slice_matches_independent_rerun(self, heat):
        # Grid nodes that share alpha_1 share an operator and are marched
        # as one block; a multi-column sparse solve rounds differently from
        # a single-column one, so slices agree to round-off, not bitwise.
        mesh = build_mesh(heat, 0.2)
        tg = TimeGrid(heat.final_time, 100)
        grid = uniform_grid(heat.box, (5, 5))
        tensor = generate_snapshots(heat, mesh, tg, grid)
        assert tensor.shape == (mesh.nodes.shape[0], 100, 5, 5)
        assert np.all(np.isfinite(tensor))
        mass = assemble_mass(mesh)
        for idx in grid_indices(grid):
            rerun = solve_fom(heat, mesh, tg, grid_point(grid, idx), mass).states
            got = tensor[(slice(None), slice(None), *idx)]
            assert np.abs(got - rerun).max() <= 1e-12 * np.abs(rerun).max(), idx

    def test_advdiff_slices_match_independent_reruns(self, advdiff, unit_mesh):
        tg = TimeGrid(advdiff.final_time, 8)
        grid = uniform_grid(advdiff.box, (2, 1, 2, 1, 2))
        tensor = generate_snapshots(advdiff, unit_mesh, tg, grid)
        mass = assemble_mass(unit_mesh)
        for idx in grid_indices(grid):
            rerun = solve_fom(advdiff, unit_mesh, tg, grid_point(grid, idx), mass).states
            got = tensor[(slice(None), slice(None), *idx)]
            assert np.abs(got - rerun).max() <= 1e-12 * np.abs(rerun).max(), idx

    def test_reruns_are_bit_identical(self, heat, heat_mesh):
        tg = TimeGrid(heat.final_time, 12)
        grid = uniform_grid(heat.box, (3, 4))
        first = generate_snapshots(heat, heat_mesh, tg, grid)
        np.testing.assert_array_equal(
            generate_snapshots(heat, heat_mesh, tg, grid), first
        )

    def test_peak_beyond_tensor_does_not_grow_with_grid(self, heat, heat_mesh):
        # Every trajectory is checked for finite values as it is written, so
        # no tensor-sized temporary (such as one bool per entry) appears:
        # doubling the grid leaves the memory beyond the tensor unchanged.
        tg = TimeGrid(heat.final_time, 40)
        generate_snapshots(heat, heat_mesh, tg, uniform_grid(heat.box, (2, 2)))
        extra, size = [], []
        for counts in [(9, 9), (9, 18)]:
            tracemalloc.start()
            try:
                tensor = generate_snapshots(
                    heat, heat_mesh, tg, uniform_grid(heat.box, counts)
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - tensor.nbytes)
            size.append(tensor.nbytes)
            del tensor
        assert extra[1] - extra[0] <= size[0] / 32, extra

    def test_wrong_parameter_count_rejected(self, heat, heat_mesh):
        tg = TimeGrid(heat.final_time, 4)
        grid = uniform_grid([(0.0, 1.0)], [2])
        with pytest.raises(DomainError):
            generate_snapshots(heat, heat_mesh, tg, grid)

    def test_memory_budget_preflight(self, heat, heat_mesh, monkeypatch):
        tg = TimeGrid(heat.final_time, 4)
        grid = uniform_grid(heat.box, (2, 2))
        monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "1e-9")
        with pytest.raises(BudgetError):
            generate_snapshots(heat, heat_mesh, tg, grid)

    def test_budget_resolution(self, monkeypatch):
        monkeypatch.delenv("LRTDROM_MEM_BUDGET_GB", raising=False)
        assert resolve_memory_budget() == 8.0
        monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "0.75")
        assert resolve_memory_budget() == 0.75
        monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "-1")
        with pytest.raises(BudgetError):
            resolve_memory_budget()


class TestNorms:
    def test_frobenius_norm(self, rng):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0
        assert frobenius_norm(np.ones((2, 3, 4))) == pytest.approx(np.sqrt(24.0))
        t = np.asfortranarray(rng.normal(size=(4, 5, 3)))
        naive = np.sqrt(sum(x * x for x in t.ravel()))
        assert frobenius_norm(t) == pytest.approx(naive, rel=1e-14)

    def test_max_trajectory_norm_identity_single_point(self, rng):
        t = np.asfortranarray(rng.normal(size=(6, 4, 1)))
        eye = sp.identity(6, format="csr")
        dt = 0.25
        expected = np.sqrt(dt) * np.linalg.norm(t[:, :, 0])
        assert max_trajectory_norm(t, eye, dt) == pytest.approx(expected, rel=1e-14)

    def test_trajectory_norm_bounded_by_frobenius(self, heat_desk, rng):
        # |Phi|_0 <= sqrt(|M| dt) |Phi|_F, with |M| from a dense
        # eigensolve so the bound carries no estimation slack.
        mass = heat_desk.mass
        dense_norm = float(np.max(np.abs(sla.eigvalsh(mass.toarray()))))
        dt = heat_desk.tg.dt
        m = mass.shape[0]
        for _ in range(5):
            t = np.asfortranarray(rng.normal(size=(m, 3, 2, 2)))
            lhs = max_trajectory_norm(t, mass, dt)
            rhs = np.sqrt(dense_norm * dt) * frobenius_norm(t)
            assert lhs <= rhs * (1 + 1e-12)
        lhs = max_trajectory_norm(heat_desk.tensor, mass, dt)
        rhs = np.sqrt(dense_norm * dt) * frobenius_norm(heat_desk.tensor)
        assert lhs <= rhs * (1 + 1e-12)

    def test_trajectory_norm_mesh_independent(self, heat):
        # The worst trajectory norm is a discrete space-time L2 quantity;
        # it must be stable under mesh refinement.
        from lrtdrom import assemble_mass

        values = []
        for h in (0.4, 0.2, 0.1):
            mesh = build_mesh(heat, h)
            tg = TimeGrid(heat.final_time, 20)
            grid = uniform_grid(heat.box, (3, 3))
            tensor = generate_snapshots(heat, mesh, tg, grid)
            values.append(
                max_trajectory_norm(tensor, assemble_mass(mesh), tg.dt)
            )
        values = np.array(values)
        assert values.max() / values.min() < 1.10

    def test_weighted_contraction_bound(self, heat_desk, rng):
        # |M^(1/2) (Phi x3 x1 x4 x2)|_F <= |Phi|_0 dt^(-1/2) prod |x_i|_1
        mass = heat_desk.mass
        dt = heat_desk.tg.dt
        phi = heat_desk.tensor
        norm0 = max_trajectory_norm(phi, mass, dt)
        for _ in range(5):
            x1 = rng.normal(size=phi.shape[2])
            x2 = rng.normal(size=phi.shape[3])
            mat = mode_product(mode_product(phi, x1, 2), x2, 2)
            lhs = np.sqrt(np.sum(mat * (mass @ mat)))
            rhs = (
                norm0
                / np.sqrt(dt)
                * np.abs(x1).sum()
                * np.abs(x2).sum()
            )
            assert lhs <= rhs * (1 + 1e-12)

    def test_spectral_norm_bounds_dense(self, heat_mass, advdiff):
        # A true upper bound, and a tight one, on both built-in masses.
        advdiff_mass = assemble_mass(build_mesh(advdiff, 0.1))
        for mass in (heat_mass, advdiff_mass):
            dense = float(np.max(sla.svdvals(mass.toarray())))
            assert dense <= spectral_norm(mass) <= 1.1 * dense
            assert spectral_norm(mass.toarray()) == spectral_norm(mass)


class TestUnfoldAndModeProduct:
    def test_unfold_columns_are_fibers(self):
        t = np.arange(8.0).reshape(2, 2, 2, order="F")
        mat = unfold_first_mode(t)
        assert mat.shape == (2, 4)
        np.testing.assert_array_equal(mat[:, 0], t[:, 0, 0])
        np.testing.assert_array_equal(mat[:, 1], t[:, 1, 0])
        np.testing.assert_array_equal(mat[:, 2], t[:, 0, 1])
        np.testing.assert_array_equal(mat[:, 3], t[:, 1, 1])
        # Zero-copy reshape of the Fortran layout.
        assert mat.base is t or mat.base is t.base

    def test_unfold_refold_identity(self, rng):
        t = np.asfortranarray(rng.normal(size=(3, 4, 5)))
        back = unfold_first_mode(t).reshape(t.shape, order="F")
        np.testing.assert_array_equal(back, t)

    def test_rank_one_unfolds_to_rank_one(self, rng):
        a, b, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=5)
        t = np.asfortranarray(np.einsum("i,j,k->ijk", a, b, c))
        assert np.linalg.matrix_rank(unfold_first_mode(t)) == 1

    def test_mode_product_indicator_and_sum(self, rng):
        t = np.asfortranarray(rng.normal(size=(3, 4, 5)))
        e2 = np.zeros(5)
        e2[2] = 1.0
        np.testing.assert_allclose(
            mode_product(t, e2, 2), t[:, :, 2], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            mode_product(t, np.ones(5), 2), t.sum(axis=2), rtol=0, atol=1e-13
        )

    def test_mode_product_triple_loop_oracle(self, rng):
        t = np.asfortranarray(rng.normal(size=(3, 4, 5)))
        a = rng.normal(size=4)
        got = mode_product(t, a, 1)
        oracle = np.zeros((3, 5))
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    oracle[i, k] += a[j] * t[i, j, k]
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-14)

    def test_mode_products_commute_across_modes(self, rng):
        t = np.asfortranarray(rng.normal(size=(3, 4, 5, 6)))
        a = rng.normal(size=5)
        b = rng.normal(size=6)
        left = mode_product(mode_product(t, a, 2), b, 2)
        right = mode_product(mode_product(t, b, 3), a, 2)
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-13)

    def test_matrix_factor(self, rng):
        t = np.asfortranarray(rng.normal(size=(3, 4, 5)))
        w = rng.normal(size=(2, 5))
        got = mode_product(t, w, 2)
        oracle = np.einsum("ijk,lk->ijl", t, w)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-13)

    def test_mode_product_errors(self, rng):
        t = np.asfortranarray(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            mode_product(t, np.ones(3), 2)
        with pytest.raises(ValueError):
            mode_product(t, np.ones(5), 1)


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, rng):
        t = np.asfortranarray(rng.normal(size=(4, 3, 2, 2)))
        path = tmp_path / "t.lrt"
        save_tensor(path, t)
        back = load_tensor(path)
        assert back.shape == t.shape
        assert back.flags.f_contiguous
        np.testing.assert_array_equal(back, t)

    def test_golden_byte_dump(self, tmp_path):
        t = np.arange(8.0).reshape(2, 2, 2, order="F")
        path = tmp_path / "golden.lrt"
        save_tensor(path, t)
        assert path.read_bytes() == GOLDEN_2X2X2
        np.testing.assert_array_equal(load_tensor(path), t)

    def test_format_errors(self, tmp_path):
        path = tmp_path / "bad.lrt"
        path.write_bytes(b"NOPE" + GOLDEN_2X2X2[4:])
        with pytest.raises(FormatError):
            load_tensor(path)
        path.write_bytes(GOLDEN_2X2X2[:-8])  # truncated payload
        with pytest.raises(FormatError):
            load_tensor(path)
        path.write_bytes(GOLDEN_2X2X2 + b"\x00")  # trailing bytes
        with pytest.raises(FormatError):
            load_tensor(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, value):
        path = tmp_path / "bad.lrt"
        path.write_bytes(GOLDEN_2X2X2[:-8] + np.array([value], dtype="<f8").tobytes())
        with pytest.raises(FormatError, match="non-finite value in payload"):
            load_tensor(path)

    def test_load_reads_in_place(self, tmp_path, rng):
        # The payload is read once and reshaped, not copied: the peak is
        # the tensor plus the finiteness mask (one byte per value).
        t = np.asfortranarray(rng.normal(size=(256, 64, 8)))
        path = tmp_path / "t.lrt"
        save_tensor(path, t)
        tracemalloc.start()
        try:
            back = load_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back, t)
        assert peak <= 1.2 * t.nbytes, peak / t.nbytes

    @pytest.mark.parametrize(
        "dims",
        [(65535, 65535), (2**31, 2**31), (2**32 - 1,) * 8],
        ids=["32GiB", "too-big", "wraps-int64"],
    )
    def test_header_claiming_more_than_the_file_holds(self, tmp_path, dims):
        # The claimed payload is checked against the file size before any
        # allocation, in exact integers: (2^32 - 1)^8 wraps an int64 product.
        path = tmp_path / "crafted.lrt"
        header = np.array([len(dims), *dims], dtype="<u4").tobytes()
        path.write_bytes(b"LRT1" + header + np.zeros(16).tobytes())
        with pytest.raises(FormatError, match="truncated"):
            load_tensor(path)
