"""Tensor-train compression, extraction, and persistence tests."""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import lrtdrom.tt as tt_module
from lrtdrom import (
    BudgetError,
    DomainError,
    FormatError,
    InterpolationScheme,
    TimeGrid,
    TTTensor,
    build_mesh,
    frobenius_tolerance,
    generate_snapshots,
    load_tt,
    local_basis,
    save_tt,
    tt_svd,
    uniform_grid,
    weight_vectors,
)
from lrtdrom.tensors import frobenius_norm, max_trajectory_norm, unfold_first_mode
from lrtdrom.tt import interpolate_coefficients
from oracles import (
    grid_box,
    grid_indices,
    grid_point,
    interpolate_snapshots,
    mode_product,
    tensordot_coefficients,
    tt_to_full,
)


def random_tt(rng, dims, ranks):
    full_ranks = (1, *ranks, 1)
    cores = tuple(
        np.asfortranarray(rng.normal(size=(full_ranks[i], dims[i], full_ranks[i + 1])))
        for i in range(len(dims))
    )
    return TTTensor(cores=cores)


class TestTTSvd:
    def test_rank_one_exact(self, rng):
        a, b, c = rng.normal(size=4), rng.normal(size=5), rng.normal(size=6)
        t = np.asfortranarray(np.einsum("i,j,k->ijk", a, b, c))
        tt, report = tt_svd(t, 0.0)
        assert tt.ranks == (1, 1)
        assert report.ranks == (1, 1)
        err = frobenius_norm(tt_to_full(tt) - t) / frobenius_norm(t)
        assert err <= 1e-13

    def test_lossless_roundtrip(self, rng):
        t = np.asfortranarray(rng.normal(size=(4, 4, 4)))
        tt, _ = tt_svd(t, 0.0)
        err = frobenius_norm(tt_to_full(tt) - t) / frobenius_norm(t)
        assert err <= 1e-12

    def test_truncation_respects_budget(self, rng):
        # Random tensors have flat spectra, so force real truncation with
        # a structured low-rank-plus-noise tensor.
        base = np.einsum(
            "i,j,k,l->ijkl",
            rng.normal(size=6),
            rng.normal(size=5),
            rng.normal(size=4),
            rng.normal(size=3),
        )
        t = np.asfortranarray(base + 0.05 * rng.normal(size=(6, 5, 4, 3)))
        tt, report = tt_svd(t, 0.1)
        norm = frobenius_norm(t)
        err = frobenius_norm(tt_to_full(tt) - t)
        assert err <= 0.1 * norm
        assert sum(report.discarded_energy) > 0.0  # truncation happened
        assert err <= report.error_bound + 1e-12 * norm
        assert tt.ranks[0] < 6  # strictly compressed
        assert report.eps_tilde == 0.1
        assert report.tensor_norm == pytest.approx(norm, rel=1e-14)
        assert report.ranks == tt.ranks

    def test_flat_spectrum_keeps_full_rank_under_loose_budget(self, rng):
        t = np.asfortranarray(rng.normal(size=(6, 5, 4, 3)))
        tt, report = tt_svd(t, 0.1)
        err = frobenius_norm(tt_to_full(tt) - t)
        assert err <= 0.1 * frobenius_norm(t)
        assert err <= report.error_bound + 1e-12 * frobenius_norm(t)
        assert report.ranks == tt.ranks

    def test_ranks_bounded_by_unfoldings(self, rng):
        t = np.asfortranarray(rng.normal(size=(3, 4, 5, 2)))
        tt, _ = tt_svd(t, 0.0)
        dims = t.shape
        for i, r in enumerate(tt.ranks, start=1):
            left = int(np.prod(dims[:i]))
            right = int(np.prod(dims[i:]))
            assert r <= min(left, right)

    def test_cores_left_orthogonal(self, rng):
        t = np.asfortranarray(rng.normal(size=(6, 5, 4, 3)))
        tt, _ = tt_svd(t, 0.3)
        for core in tt.cores[:-1]:
            r_prev, n, r = core.shape
            mat = core.reshape(r_prev * n, r, order="F")
            gram = mat.T @ mat
            assert np.abs(gram - np.eye(r)).max() <= 1e-12

    @pytest.mark.parametrize("eps_tilde", [-0.1, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_tolerance(self, rng, eps_tilde):
        t = np.asfortranarray(rng.normal(size=(4, 3, 2)))
        with pytest.raises(ValueError, match="tolerance"):
            tt_svd(t, eps_tilde)

    def test_order_one_tensor(self, rng):
        # Every snapshot tensor has a space and a time mode at least.
        with pytest.raises(ValueError, match="at least two modes"):
            tt_svd(rng.normal(size=7), 0.0)

    def test_rank_monotone_in_tolerance(self, heat_desk):
        ranks = []
        for eps_tilde in (1e-1, 1e-3, 1e-5):
            tt, _ = tt_svd(heat_desk.tensor, eps_tilde)
            ranks.append(tt.ranks[0])
        assert ranks == sorted(ranks)


class TestTTTensor:
    def test_chain_validation(self, rng):
        good = random_tt(rng, (3, 4, 5), (2, 3))
        assert good.order == 3
        assert good.dims == (3, 4, 5)
        assert good.ranks == (2, 3)
        cores = list(good.cores)
        cores[1] = cores[1][:1]  # break the rank chain
        with pytest.raises(ValueError):
            TTTensor(cores=tuple(cores))
        with pytest.raises(ValueError):
            TTTensor(cores=())

    def test_to_full_outer_product(self, rng):
        a, b, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=5)
        tt = TTTensor(
            cores=(
                np.asfortranarray(a.reshape(1, 3, 1)),
                np.asfortranarray(b.reshape(1, 4, 1)),
                np.asfortranarray(c.reshape(1, 5, 1)),
            )
        )
        np.testing.assert_allclose(
            tt_to_full(tt), np.einsum("i,j,k->ijk", a, b, c), rtol=0, atol=1e-14
        )

    def test_to_full_matches_elementwise_oracle(self, rng):
        tt = random_tt(rng, (3, 4, 2), (2, 3))
        full = tt_to_full(tt)
        g1, g2, g3 = tt.cores
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    val = g1[:, i, :] @ g2[:, j, :] @ g3[:, k, :]
                    assert full[i, j, k] == pytest.approx(float(val[0, 0]), abs=1e-12)

    def test_to_full_budget(self, rng, monkeypatch):
        tt = random_tt(rng, (30, 30, 30), (3, 3))
        monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "1e-9")
        with pytest.raises(BudgetError):
            tt_to_full(tt)


class TestToleranceConversion:
    def test_zero_eps(self, heat_desk):
        assert (
            frobenius_tolerance(0.0, heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt)
            == 0.0
        )

    def test_identity_mass_single_point(self, rng):
        t = np.asfortranarray(rng.normal(size=(8, 5, 1)))
        eye = sp.identity(8, format="csr")
        # With unit mass, unit step, one parameter point, the trajectory
        # norm and Frobenius norm coincide, so eps passes through.
        assert frobenius_tolerance(0.3, t, eye, 1.0) == pytest.approx(0.3, rel=1e-6)

    def test_identity_on_heat_tensor(self, heat_desk):
        eps = 1e-3
        got = frobenius_tolerance(eps, heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt)
        norm0 = max_trajectory_norm(heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt)
        # |mass| is bounded by the largest absolute row sum of the symmetric mass.
        row_sum = float(abs(heat_desk.mass).sum(axis=1).max())
        expected = (
            eps
            * norm0
            / (np.sqrt(row_sum * heat_desk.tg.dt) * frobenius_norm(heat_desk.tensor))
        )
        assert got == pytest.approx(expected, rel=1e-5)

    def test_errors(self, heat_desk):
        with pytest.raises(ValueError):
            frobenius_tolerance(-0.1, heat_desk.tensor, heat_desk.mass, 1.0)
        with pytest.raises(DomainError):
            frobenius_tolerance(0.1, np.zeros((3, 4, 2)), sp.identity(3), 1.0)
        with pytest.raises(DomainError):
            frobenius_tolerance([0.0, 0.1], np.zeros((3, 4, 2)), sp.identity(3), 1.0)

    def test_list_matches_scalar_calls_bit_for_bit(self, heat_desk):
        args = (heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt)
        eps = [0.0, 1e-1, 1e-3, -0.0, 1e-5]
        got = frobenius_tolerance(eps, *args)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        for value, e in zip(got.tolist(), eps):
            scalar = frobenius_tolerance(e, *args)
            assert type(scalar) is float
            assert value.hex() == scalar.hex()
        assert got[3].hex() == frobenius_tolerance(-0.0, *args).hex() == "0x0.0p+0"
        assert frobenius_tolerance(np.array(eps), *args).tolist() == got.tolist()

    def test_one_call_measures_each_norm_once(self, heat_desk, monkeypatch):
        calls = []
        for name in ("frobenius_norm", "max_trajectory_norm", "spectral_norm"):
            norm = getattr(tt_module, name)
            monkeypatch.setattr(
                tt_module,
                name,
                lambda *a, _name=name, _norm=norm: calls.append(_name) or _norm(*a),
            )
        args = (heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt)
        frobenius_tolerance([1e-1, 1e-3, 1e-5, 1e-7], *args)
        assert sorted(calls) == ["frobenius_norm", "max_trajectory_norm", "spectral_norm"]
        calls.clear()
        # Every eps 0: the trajectory norm is not measured.
        assert frobenius_tolerance([0.0, 0.0], *args).tolist() == [0.0, 0.0]
        assert calls == ["frobenius_norm"]

    @pytest.mark.parametrize(
        "eps",
        [math.nan, math.inf, -math.inf, -0.1, [1e-3, math.nan], [1e-3, -1e-3], [[1e-3]]],
    )
    def test_rejects_negative_or_non_finite_eps(self, heat_desk, eps):
        with pytest.raises(ValueError, match="tolerance"):
            frobenius_tolerance(eps, heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_time_step_that_is_not_finite_and_positive(self, heat_desk, dt):
        with pytest.raises(ValueError, match="time step"):
            frobenius_tolerance(1e-3, heat_desk.tensor, heat_desk.mass, dt)


def structured_tensor(rng, dims):
    """Rank-one tensor plus small noise: truncation bites at every tolerance."""
    base = np.ones(())
    for n in dims:
        base = np.multiply.outer(base, rng.normal(size=n))
    return np.asfortranarray(base + 0.05 * rng.normal(size=dims))


def assert_same_train(a, b):
    assert len(a.cores) == len(b.cores)
    for x, y in zip(a.cores, b.cores):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestCompressionMemo:
    EPS_TILDES = (1e-1, 0.0, 1e-3, 0.3, 1e-6)

    @pytest.mark.parametrize("dims", [(7, 6, 5), (6, 5, 4, 3)])
    def test_tt_svd_memo_is_bit_identical(self, rng, dims):
        t = structured_tensor(rng, dims)
        memo = {}
        for eps_tilde in self.EPS_TILDES:
            fresh, fresh_report = tt_svd(t, eps_tilde)
            reused, reused_report = tt_svd(t, eps_tilde, memo=memo)
            assert_same_train(fresh, reused)
            assert reused_report == fresh_report
            # An in-place edit of one train must not reach the next.
            reused.cores[0][...] = 0.0
            assert_same_train(tt_svd(t, eps_tilde, memo=memo)[0], fresh)
        # eps_tilde 0 takes gesdd, the others the Gram split: each once.
        assert {"gram", "svd"} <= set(memo["first_unfolding"])

    def test_tt_svd_memo_on_heat_tensor(self, heat_desk):
        memo = {}
        for eps_tilde in self.EPS_TILDES:
            fresh, fresh_report = tt_svd(heat_desk.tensor, eps_tilde)
            reused, reused_report = tt_svd(heat_desk.tensor, eps_tilde, memo=memo)
            assert_same_train(fresh, reused)
            assert reused_report == fresh_report

    def test_shared_memo_matches_separate_calls(self, heat_desk):
        # The study's pattern: one conversion, then one memo per tensor.
        args = (heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt)
        memo = {}
        for eps_tilde in frobenius_tolerance([1e-1, 1e-3, 1e-5], *args).tolist():
            fresh, fresh_report = tt_svd(heat_desk.tensor, eps_tilde)
            reused, reused_report = tt_svd(heat_desk.tensor, eps_tilde, memo=memo)
            assert_same_train(fresh, reused)
            assert reused_report == fresh_report
        assert memo["tensor"] is heat_desk.tensor
        assert memo["fro"] == frobenius_norm(heat_desk.tensor)

    def test_memo_serves_one_tensor(self, rng):
        memo = {}
        tt_svd(structured_tensor(rng, (4, 3, 2)), 0.1, memo=memo)
        with pytest.raises(ValueError, match="memo belongs"):
            tt_svd(structured_tensor(rng, (4, 3, 3)), 0.1, memo=memo)

    def test_memo_rejects_another_tensor(self, rng):
        # Same shape and dtype, other values: a memo must not serve them.
        a = rng.standard_normal((200, 10, 3, 3))
        b = 5.0 * rng.standard_normal((200, 10, 3, 3))
        memo = {}
        tt, report = tt_svd(a, 0.1, memo=memo)
        with pytest.raises(ValueError, match="memo belongs"):
            tt_svd(b, 0.1, memo=memo)
        # An equal copy of the tensor is another tensor too.
        with pytest.raises(ValueError, match="memo belongs"):
            tt_svd(a.copy(), 0.1, memo=memo)
        again, again_report = tt_svd(a, 0.1, memo=memo)
        assert_same_train(tt, again)
        assert again_report == report


def certificate_tensor(rng, kind):
    """Test tensors for the first-unfolding kernel; every smaller side of
    the first unfolding is wide enough for the randomized range finder."""
    if kind == "zero":
        return np.zeros((150, 10, 14), order="F")
    if kind == "rank_one":
        t = np.ones(())
        for n in (150, 10, 14):
            t = np.multiply.outer(t, rng.normal(size=n))
        return np.asfortranarray(t)
    dims = (160, 12, 15) if kind.endswith("3") else (140, 6, 5, 6)
    if kind.startswith("flat"):
        return np.asfortranarray(rng.normal(size=dims))
    # Six rank-one terms 1.5 decades apart, plus noise under the roundoff
    # floor: the spectrum has clear gaps and the range finder converges.
    t = np.zeros(dims)
    for i in range(6):
        term = np.ones(())
        for n in dims:
            v = rng.normal(size=n)
            term = np.multiply.outer(term, v / np.linalg.norm(v))
        t += 10.0 ** (-1.5 * i) * term
    return np.asfortranarray(t + 1e-17 * rng.normal(size=dims))


def first_unfolding(t, budget):
    """The first unfolding's truncation as tt_svd makes it, and the memo
    it filled."""
    memo = {}
    w = unfold_first_mode(t)
    return tt_module._first_unfolding(w, frobenius_norm(t), budget, memo), memo


def finder_columns(memo):
    """Columns of Q the range finder kept (0 when it released them)."""
    return memo["finder"].q.shape[1]


def finder_residual(memo):
    """|W - QB|_F over the blocks the finder kept (0 when none)."""
    n = finder_columns(memo) // tt_module._SKETCH_BLOCK
    return memo["finder"].residuals[n - 1] if n else 0.0


class TestCoreOwnership:
    """A train holds only its kept columns: no core is a view that pins a
    whole SVD factor, with or without a memo."""

    EPS_TILDES = (1e-1, 1e-3, 0.0)

    @pytest.fixture(scope="class")
    def advdiff_tensor(self, advdiff, unit_mesh):
        tg = TimeGrid(advdiff.final_time, 8)
        return generate_snapshots(advdiff, unit_mesh, tg, uniform_grid(advdiff.box, (2,) * 5))

    # The heat unfolding (186 x 180) takes the finder unless it is
    # switched off; advdiff's (25 x 256) is too short for it.
    @pytest.mark.parametrize("memo", [False, True], ids=["fresh", "memo"])
    @pytest.mark.parametrize(
        "kind, path", [("heat", "finder"), ("heat", "dense"), ("advdiff", "dense")]
    )
    def test_cores_own_their_memory(
        self, heat_desk, advdiff_tensor, monkeypatch, kind, path, memo
    ):
        t = heat_desk.tensor if kind == "heat" else advdiff_tensor
        if path == "dense":
            monkeypatch.setattr(tt_module, "_SKETCH_MIN_BLOCKS", 10**9)
        cache = {} if memo else None
        for eps_tilde in self.EPS_TILDES:
            tt, _ = tt_svd(t, eps_tilde, memo=cache)
            for core in tt.cores:
                root = core
                while isinstance(root.base, np.ndarray):
                    root = root.base
                assert root.nbytes <= core.nbytes
        if memo:
            if path == "dense":  # eps_tilde 0 takes gesdd, the others the Gram split
                assert {"gram", "svd"} <= set(cache["first_unfolding"])
            else:
                assert "finder" in cache


class TestCertificate:
    """The TT certificate holds on both first-unfolding paths: the
    randomized range finder (with its measured residual) and the dense
    split of W it falls back to."""

    FINDER = ("low_rank_noise3", "low_rank_noise4", "rank_one", "zero")
    FALLBACK = ("flat3", "flat4")

    def test_residual_counts_toward_every_tail(self):
        s = np.array([4.0, 2.0, 1.0])  # tails 21, 5, 1, 0
        assert tt_module._select_rank(s, 1.5, 0.0) == (2, 1.0)
        assert tt_module._select_rank(s, 1.5, 0.5) == (2, 1.5)
        assert tt_module._select_rank(s, 1.5, 2.0) == (3, 2.0)
        # No rank meets the budget: keep them all, report the residual.
        assert tt_module._select_rank(s, 1.5, 3.0) == (3, 3.0)
        assert tt_module._select_rank(s, 0.0, 1e-30) == (3, 1e-30)

    @pytest.mark.parametrize("kind", FINDER + FALLBACK)
    def test_kernel_path(self, rng, kind):
        t = certificate_tensor(rng, kind)
        w = unfold_first_mode(t)
        (u, carry, dropped), memo = first_unfolding(t, 0.0)
        assert (u.shape[1] < min(w.shape)) == (kind in self.FINDER)
        assert (finder_columns(memo) > 0) == (kind in self.FINDER)
        assert u.flags.f_contiguous and carry.flags.f_contiguous
        r2 = finder_residual(memo) ** 2
        assert r2 <= dropped
        assert r2 <= (tt_module._ROUNDOFF_FLOOR * frobenius_norm(t)) ** 2
        if kind in self.FALLBACK:
            assert dropped == 0.0 and set(memo["first_unfolding"]) == {"svd"}

    @pytest.mark.parametrize("eps_tilde", [0.0, 1e-6, 1e-3, 0.1])
    @pytest.mark.parametrize("kind", FINDER + FALLBACK)
    def test_certificate(self, rng, monkeypatch, kind, eps_tilde):
        t = certificate_tensor(rng, kind)
        norm = frobenius_norm(t)
        tt, report = tt_svd(t, eps_tilde)
        err = frobenius_norm(t - tt_to_full(tt))
        assert err <= report.error_bound + 1e-12 * norm
        r2 = finder_residual(first_unfolding(t, 0.0)[1]) ** 2
        assert report.discarded_energy[0] >= r2
        if eps_tilde > 0:
            assert report.error_bound <= eps_tilde * norm
        again, again_report = tt_svd(t, eps_tilde)
        assert_same_train(tt, again)
        assert again_report == report
        assert all(core.flags.f_contiguous for core in tt.cores)
        tt.universal_basis

        monkeypatch.setattr(tt_module, "_SKETCH_MIN_BLOCKS", 10**9)  # dense only
        dense, _ = tt_svd(t, eps_tilde)
        assert tt.ranks == dense.ranks


def graded_tensor(rng):
    """Finder-path tensor whose singular values fall one decade per ten:
    the finder needs 1, 2 or 3 blocks as the budget tightens and falls
    back to the dense SVD under about 1e-10 of |W|_F."""
    dims = (200, 15, 20)
    k = 200
    u = np.linalg.qr(rng.normal(size=(200, k)))[0]
    v = np.linalg.qr(rng.normal(size=(300, k)))[0]
    s = 10.0 ** (-np.arange(k) / 10.0)
    return np.asfortranarray(((u * s) @ v.T).reshape(dims, order="F"))


class TestBudgetTarget:
    """The range finder stops at a fraction of the first unfolding's
    budget; a memo extends or reuses its blocks without changing results."""

    # Kept columns on the first unfolding, fresh call per eps_tilde: one,
    # two and three blocks, then the dense fallback (all 200).
    COLUMNS = {1e-1: 32, 1e-3: 64, 1e-6: 96, 1e-9: 200, 0.0: 200}

    def first_svd(self, t, eps_tilde):
        """First-unfolding truncation as tt_svd asks for it, its memo, the
        columns it factored (the finder's Q, or all of W) and the target."""
        norm = frobenius_norm(t)
        budget = eps_tilde * norm / np.sqrt(t.ndim - 1)
        target = max(budget / 16, tt_module._ROUNDOFF_FLOOR * norm)
        parts, memo = first_unfolding(t, budget)
        columns = finder_columns(memo) or min(unfold_first_mode(t).shape)
        return parts, memo, columns, target

    def test_block_count_follows_budget(self, rng):
        t = graded_tensor(rng)
        for eps_tilde, columns in self.COLUMNS.items():
            assert self.first_svd(t, eps_tilde)[2] == columns

    def test_measured_residual_meets_target(self, rng):
        t = graded_tensor(rng)
        w = unfold_first_mode(t)
        norm = frobenius_norm(t)
        for eps_tilde in self.COLUMNS:
            (u, carry, dropped), memo, columns, target = self.first_svd(t, eps_tilde)
            r2 = finder_residual(memo) ** 2
            assert r2 <= target**2
            if finder_columns(memo):
                # r2 is |W - QB|_F^2 for the finder, measured against Q.
                q = memo["finder"].q
                direct = np.linalg.norm(w - q @ (q.T @ w))
                assert abs(np.sqrt(r2) - direct) <= 1e-13 * norm
            else:
                assert columns == min(w.shape) and r2 == 0.0
            # The truncation costs what it reports, residual included.
            assert r2 <= dropped
            assert np.linalg.norm(w - u @ carry) <= np.sqrt(dropped) + 1e-13 * norm

    def test_chunked_residual_matches_the_direct_norm(self, rng):
        # 300 rows put 436 columns in a chunk: four full chunks and a part.
        # The second block's pass runs with the first block's Q and B.
        w = np.asfortranarray(rng.standard_normal((300, 2000)))
        finder = tt_module._RangeFinder(w.shape)
        for n in (1, 2):
            finder._add_block(w)
            assert finder.q.shape == (300, 32 * n) and finder.b.shape == (32 * n, 2000)
            np.testing.assert_allclose(finder.b, finder.q.T @ w, rtol=0, atol=1e-12)
            direct = np.linalg.norm(w - finder.q @ finder.b)
            assert finder.residuals[-1] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "order",
        [
            (1e-1, 1e-3, 1e-6, 0.0),  # each call needs more blocks than held
            (1e-6, 1e-3, 1e-1),  # each call needs fewer
            (0.0, 1e-1, 1e-9, 1e-3, 1e-6),  # fallback first: blocks drawn again
            (1e-3, 1e-9, 1e-6, 1e-1, 0.0, 1e-3),
        ],
    )
    def test_memo_in_any_eps_order(self, rng, order):
        t = graded_tensor(rng)
        memo = {}
        for eps_tilde in order:
            fresh, fresh_report = tt_svd(t, eps_tilde)
            reused, reused_report = tt_svd(t, eps_tilde, memo=memo)
            assert_same_train(fresh, reused)
            assert reused_report == fresh_report
            assert fresh.ranks[0] <= self.COLUMNS[eps_tilde]

    def test_memo_holds_blocks_not_copies(self, rng, monkeypatch):
        t = graded_tensor(rng)
        memo = {}
        tt_svd(t, 1e-1, memo=memo)
        finder = memo["finder"]
        assert finder.q.shape == (200, 32) and finder.b.shape == (32, 300)
        tt_svd(t, 1e-6, memo=memo)
        assert finder.q.shape == (200, 96) and len(finder.residuals) == 3
        assert "first_unfolding" not in memo
        tt_svd(t, 0.0, memo=memo)  # the finder misses: its blocks are released
        assert finder.q.shape == (200, 0) and set(memo["first_unfolding"]) == {"svd"}
        # Another target it cannot meet goes to the dense factors at once.
        monkeypatch.setattr(tt_module._RangeFinder, "_add_block", None)
        tt_svd(t, 1e-9, memo=memo)

    def test_peak_allocation_under_half_the_tensor(self, rng):
        # A 10 MiB rank-two tensor on the finder path: the factorization
        # copies no part of the unfolding beyond one column chunk.
        dims = (512, 64, 40)
        t = np.zeros(dims, order="F")
        for _ in range(2):
            term = np.ones(())
            for n in dims:
                term = np.multiply.outer(term, rng.normal(size=n))
            t += term
        w = unfold_first_mode(t)
        assert w.nbytes >= 8 * 2**20
        for eps_tilde in (1e-3, 0.0):
            assert self.first_svd(t, eps_tilde)[2] == 32  # one finder block, no fallback
            tracemalloc.start()
            try:
                tt_svd(t, eps_tilde)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < t.nbytes / 2


class TestGramSplit:
    """Unfoldings factored through the Gram matrix of their short side:
    a wide first unfolding with a tall second one, and the reverse."""

    DIMS = {"wide": (12, 30, 40), "tall": (300, 4, 25)}

    @staticmethod
    def no_gesdd(monkeypatch):
        def fail(w):
            raise AssertionError(f"gesdd on a {w.shape} unfolding")

        monkeypatch.setattr(tt_module, "_thin_svd", fail)

    @pytest.mark.parametrize("eps_tilde", [1e-6, 1e-3, 1e-1])
    @pytest.mark.parametrize("kind", ["wide", "tall"])
    def test_exact_low_rank_keeps_minimal_ranks(self, rng, monkeypatch, kind, eps_tilde):
        t = np.asfortranarray(tt_to_full(random_tt(rng, self.DIMS[kind], (3, 2))))
        self.no_gesdd(monkeypatch)
        memo = {}
        tt, report = tt_svd(t, eps_tilde, memo=memo)
        assert tt.ranks == (3, 2)
        assert set(memo["first_unfolding"]) == {"energy", "gram"}
        assert report.error_bound <= eps_tilde * frobenius_norm(t)

    @pytest.mark.parametrize("eps_tilde", [1e-6, 1e-3, 1e-1])
    @pytest.mark.parametrize("kind", ["wide", "tall"])
    def test_certificate(self, rng, monkeypatch, kind, eps_tilde):
        t = structured_tensor(rng, self.DIMS[kind])
        norm = frobenius_norm(t)
        self.no_gesdd(monkeypatch)
        tt, report = tt_svd(t, eps_tilde)
        assert frobenius_norm(t - tt_to_full(tt)) <= report.error_bound + 1e-12 * norm
        assert report.error_bound <= eps_tilde * norm
        # The first unfolding's truncation costs the energy it reports.
        w = unfold_first_mode(t)
        u = tt.universal_basis
        error2 = np.linalg.norm(w - u @ (u.T @ w)) ** 2
        assert error2 <= report.discarded_energy[0] + 1e-12 * norm**2
        if kind == "wide":  # the dropped rows of X^T W, measured
            assert report.discarded_energy[0] <= error2 + 1e-12 * norm**2

    def test_zero_or_subfloor_budget_takes_gesdd(self, rng):
        w = unfold_first_mode(structured_tensor(rng, (20, 6, 5)))
        floor = np.sqrt(tt_module._ROUNDOFF_FLOOR * np.sum(w * w))
        for budget, keys in [
            (0.0, {"svd"}),
            (floor * (1 - 1e-6), {"energy", "svd"}),
            (floor * (1 + 1e-6), {"energy", "gram"}),
        ]:
            memo = {}
            u, carry, _ = tt_module._truncate(w, budget, memo)
            assert set(memo) == keys
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-13)

    def test_flat_first_core_is_orthonormal(self, rng):
        # Flat 160 x 180 first unfoldings: the finder misses and W takes
        # the Gram split, whose eigenvectors must pass universal_basis's
        # 1e-13 check (the evd driver's do; evr's miss it on some).
        for _ in range(4):
            t = np.asfortranarray(rng.normal(size=(160, 12, 15)))
            memo = {}
            tt, _ = tt_svd(t, 1e-3, memo=memo)
            assert finder_columns(memo) == 0
            assert set(memo["first_unfolding"]) == {"energy", "gram"}
            assert tt_module._orthonormality_defect(tt.universal_basis) <= 1e-13


class TestGramSplitFallbacks:
    """Where the Gram split gives up, gesdd answers, as when forced."""

    @staticmethod
    def forced_gesdd(monkeypatch, t, eps_tilde):
        with monkeypatch.context() as m:
            m.setattr(tt_module, "_gram_split", lambda w: None)
            return tt_svd(t, eps_tilde)

    @staticmethod
    def assert_certified(t, tt, report, eps_tilde):
        norm = frobenius_norm(t)
        assert report.error_bound <= eps_tilde * norm
        assert frobenius_norm(t - tt_to_full(tt)) <= report.error_bound + 1e-12 * norm

    @pytest.mark.parametrize("eps_tilde", [1e-3, 1e-1])
    @pytest.mark.parametrize("dims", [(12, 30, 40), (300, 4, 25)])
    def test_non_orthonormal_eigenvectors(self, rng, monkeypatch, dims, eps_tilde):
        t = structured_tensor(rng, dims)
        expected, expected_report = self.forced_gesdd(monkeypatch, t, eps_tilde)
        memo = {}
        with monkeypatch.context() as m:
            m.setattr(tt_module, "_orthonormality_defect", lambda u: 1.0)
            tt, report = tt_svd(t, eps_tilde, memo=memo)
        assert memo["first_unfolding"]["gram"] is None
        assert_same_train(tt, expected)
        assert report == expected_report
        self.assert_certified(t, tt, report, eps_tilde)

    @pytest.mark.parametrize("eps_tilde", [1e-3, 1e-1])
    def test_cholesky_failure(self, rng, monkeypatch, eps_tilde):
        # A tall 300 x 100 first unfolding: its kept columns of W X go
        # through CholeskyQR2, whose first factorization fails here.
        t = structured_tensor(rng, (300, 4, 25))
        expected, expected_report = self.forced_gesdd(monkeypatch, t, eps_tilde)
        failed = []

        def failing_dpotrf(a, overwrite_a=False):
            failed.append(a.shape)
            return a, 1

        memo = {}
        with monkeypatch.context() as m:
            m.setattr(tt_module, "lapack", SimpleNamespace(dpotrf=failing_dpotrf))
            tt, report = tt_svd(t, eps_tilde, memo=memo)
        assert failed and memo["first_unfolding"]["gram"].tall
        assert {"gram", "svd"} <= set(memo["first_unfolding"])
        assert tt.ranks == expected.ranks
        assert report.ranks == expected_report.ranks
        self.assert_certified(t, tt, report, eps_tilde)

    def test_zero_kept_column_norm(self, monkeypatch):
        # A tall zero W splits into columns of norm 0, which cannot be
        # scaled to orthonormal ones: gesdd keeps one column.
        w = np.zeros((6, 3), order="F")
        memo = {}
        core, carry, dropped = tt_module._truncate(w, 1.0, memo)
        split = memo["gram"]
        assert split.tall and split.s[0] == 0.0
        assert split.take(w, 1) is None and "svd" in memo
        with monkeypatch.context() as m:
            m.setattr(tt_module, "_gram_split", lambda w: None)
            expected = tt_module._truncate(w, 1.0, {})
        assert core.tobytes() == expected[0].tobytes()
        assert carry.tobytes() == expected[1].tobytes()
        assert dropped == expected[2] == 0.0
        assert core.shape == (6, 1) and np.linalg.norm(core) == pytest.approx(1.0)
        assert np.linalg.norm(w - core @ carry) ** 2 <= dropped


class TestMemoryModel:
    """check_compression_budget bounds tt_svd's traced peak, the tensor
    included, on every path the kernel takes."""

    @pytest.fixture(scope="class")
    def advdiff_tensor(self, advdiff):
        # The advdiff benchmark's mesh and grid, with 20 steps.
        mesh = build_mesh(advdiff, 0.1)
        tg = TimeGrid(advdiff.final_time, 20)
        return generate_snapshots(advdiff, mesh, tg, uniform_grid(advdiff.box, (3,) * 5))

    @staticmethod
    def model_bytes(monkeypatch, dims) -> int:
        counted = []
        monkeypatch.setattr(tt_module, "check_budget", lambda n, what: counted.append(n))
        tt_module.check_compression_budget(dims)
        monkeypatch.undo()
        return 8 * counted[0]

    @staticmethod
    def traced_peak(t, eps_tildes) -> int:
        memo = {}
        tracemalloc.start()
        try:
            for eps_tilde in eps_tildes:
                tt_svd(t, eps_tilde, memo=memo)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("path", ["gram", "gesdd"])
    def test_advdiff(self, advdiff_tensor, monkeypatch, path):
        t = advdiff_tensor
        model = self.model_bytes(monkeypatch, t.shape)
        if path == "gesdd":
            monkeypatch.setattr(tt_module, "_gram_split", lambda w: None)
        peak = self.traced_peak(t, (6.4e-3, 6.4e-5, 6.4e-7))  # the sweep's eps_tilde
        assert t.nbytes + peak <= model

    @pytest.mark.parametrize(
        "kind, path",
        [("heat", "gram"), ("heat", "gesdd"), ("graded", "finder"), ("flat", "gesdd")],
    )
    def test_other_paths(self, rng, heat_desk, monkeypatch, kind, path):
        t = {
            "heat": heat_desk.tensor,
            "graded": graded_tensor(rng),
            "flat": np.asfortranarray(rng.normal(size=(40, 30, 9, 9))),
        }[kind]
        model = self.model_bytes(monkeypatch, t.shape)
        if path == "gesdd":
            monkeypatch.setattr(tt_module, "_gram_split", lambda w: None)
        # eps_tilde 0 keeps every rank on the flat tensor: the worst case.
        eps_tildes = (0.0,) if kind == "flat" else (1e-1, 1e-3, 1e-6)
        peak = self.traced_peak(t, eps_tildes)
        assert t.nbytes + peak <= model


class TestUniversalBasis:
    def test_orthonormal_columns(self, heat_desk):
        tt, _ = tt_svd(heat_desk.tensor, 1e-6)
        basis = tt.universal_basis
        assert basis.shape == (heat_desk.tensor.shape[0], tt.ranks[0])
        gram = basis.T @ basis
        assert np.abs(gram - np.eye(basis.shape[1])).max() <= 1e-13

    def test_rejects_non_left_orthogonal(self, rng):
        tt = random_tt(rng, (6, 5, 4), (3, 2))
        for _ in range(2):  # a failed check is not kept
            with pytest.raises(ValueError):
                tt.universal_basis

    def test_rejects_nan(self, rng):
        tt, _ = tt_svd(np.asfortranarray(rng.normal(size=(6, 4, 3))), 0.0)
        cores = [core.copy() for core in tt.cores]
        cores[0][0, 2, 0] = np.nan
        bad = TTTensor(cores=tuple(cores))
        for _ in range(2):
            with pytest.raises(ValueError, match="left-orthogonal"):
                bad.universal_basis

    def test_checked_once_per_train(self, rng, monkeypatch, tmp_path):
        tt, _ = tt_svd(np.asfortranarray(rng.normal(size=(6, 4, 3))), 0.0)
        weights = [np.array([0.2, 0.3, 0.5])]
        first = local_basis(tt, weights, 2)
        monkeypatch.setattr(tt_module, "_ORTHONORMAL_TOL", -1.0)  # every check fails
        np.testing.assert_array_equal(local_basis(tt, weights, 2), first)
        path = tmp_path / "t.lrtt"
        save_tt(path, tt)
        for fresh in (TTTensor(cores=tt.cores), load_tt(path)):
            with pytest.raises(ValueError, match="left-orthogonal"):
                local_basis(fresh, weights, 2)

    def test_range_matches_unfolding(self, rng):
        t = np.asfortranarray(rng.normal(size=(6, 4, 3, 2)))
        tt, _ = tt_svd(t, 0.0)
        basis = tt.universal_basis
        q, _ = np.linalg.qr(unfold_first_mode(tt_to_full(tt)))
        q = q[:, : basis.shape[1]]
        # Principal angles between equal subspaces: all cosines are 1.
        cosines = np.linalg.svd(basis.T @ q, compute_uv=False)
        assert np.abs(cosines - 1.0).max() <= 1e-10


class TestExtraction:
    def test_training_nodes_recover_snapshots(self, heat_desk):
        tt, _ = tt_svd(heat_desk.tensor, 0.0)
        scheme = InterpolationScheme(heat_desk.grid, p=2)
        for idx in grid_indices(heat_desk.grid):
            alpha = grid_point(heat_desk.grid, idx)
            weights = weight_vectors(alpha, scheme)
            got = interpolate_snapshots(tt, weights)
            stored = heat_desk.tensor[:, :, idx[0], idx[1]]
            rel = frobenius_norm(got - stored) / frobenius_norm(stored)
            assert rel <= 1e-12

    def test_two_node_average(self, rng):
        t = np.asfortranarray(rng.normal(size=(6, 4, 2)))
        tt, _ = tt_svd(t, 0.0)
        got = interpolate_snapshots(tt, [np.array([0.5, 0.5])])
        expected = 0.5 * (t[:, :, 0] + t[:, :, 1])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_matches_dense_mode_product_chain(self, rng):
        t = np.asfortranarray(rng.normal(size=(5, 4, 3, 4)))
        tt, _ = tt_svd(t, 0.0)
        full = tt_to_full(tt)
        for _ in range(5):
            x1 = rng.normal(size=3)
            x2 = rng.normal(size=4)
            got = interpolate_snapshots(tt, [x1, x2])
            oracle = mode_product(mode_product(full, x1, 2), x2, 2)
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-11)

    def test_linear_in_each_weight_vector(self, rng):
        t = np.asfortranarray(rng.normal(size=(5, 4, 3, 4)))
        tt, _ = tt_svd(t, 0.05)
        x1a, x1b = rng.normal(size=3), rng.normal(size=3)
        x2 = rng.normal(size=4)
        lhs = interpolate_snapshots(tt, [2.0 * x1a - 3.0 * x1b, x2])
        rhs = 2.0 * interpolate_snapshots(tt, [x1a, x2]) - 3.0 * interpolate_snapshots(
            tt, [x1b, x2]
        )
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11)

    def test_weight_length_mismatch(self, rng):
        t = np.asfortranarray(rng.normal(size=(5, 4, 3)))
        tt, _ = tt_svd(t, 0.0)
        with pytest.raises(ValueError):
            interpolate_snapshots(tt, [np.ones(2)])
        with pytest.raises(ValueError):
            interpolate_snapshots(tt, [np.ones(3), np.ones(3)])

    def test_coefficient_matrix_identities(self, heat_desk, rng):
        tt, _ = tt_svd(heat_desk.tensor, 1e-8)
        basis = tt.universal_basis
        scheme = InterpolationScheme(heat_desk.grid, p=2)
        box = grid_box(heat_desk.grid)
        for _ in range(4):
            alpha = np.array([rng.uniform(lo, hi) for lo, hi in box])
            weights = weight_vectors(alpha, scheme)
            coeffs = interpolate_coefficients(tt, weights)
            local = interpolate_snapshots(tt, weights)
            np.testing.assert_allclose(basis @ coeffs, local, rtol=0, atol=1e-13)
            # Orthonormal basis: extraction and coefficients share spectra.
            np.testing.assert_allclose(
                np.linalg.svd(coeffs, compute_uv=False),
                np.linalg.svd(local, compute_uv=False),
                rtol=1e-11,
                atol=1e-13,
            )

    def test_coefficients_at_node_project_snapshot(self, heat_desk):
        tt, _ = tt_svd(heat_desk.tensor, 0.0)
        basis = tt.universal_basis
        scheme = InterpolationScheme(heat_desk.grid, p=2)
        idx = (1, 2)
        weights = weight_vectors(grid_point(heat_desk.grid, idx), scheme)
        coeffs = interpolate_coefficients(tt, weights)
        stored = heat_desk.tensor[:, :, idx[0], idx[1]]
        np.testing.assert_allclose(coeffs, basis.T @ stored, rtol=0, atol=1e-11)


def laid_out(core: np.ndarray, layout: str) -> np.ndarray:
    """``core`` in Fortran order, C order, or as a non-contiguous view
    (every other node of a larger array)."""
    if layout == "F":
        return np.asfortranarray(core)
    if layout == "C":
        return np.ascontiguousarray(core)
    r_prev, n, r = core.shape
    padded = np.zeros((r_prev, 2 * n, r), order="F")
    padded[:, ::2] = core
    return padded[:, ::2]


class TestContraction:
    """interpolate_coefficients against the tensordot oracle, whatever the
    layout of the cores, and without copying a Fortran-ordered core."""

    @pytest.mark.parametrize(
        "layouts", [("F",), ("C",), ("sliced",), ("F", "C", "sliced")]
    )
    @pytest.mark.parametrize("order", [3, 4, 5, 6, 7])
    def test_matches_tensordot(self, rng, order, layouts):
        dims = tuple(int(n) for n in rng.integers(2, 7, size=order))
        drawn = tuple(int(r) for r in rng.integers(1, 6, size=order - 1))
        for ranks in (drawn, (1,) * (order - 1)):
            full = (1, *ranks, 1)
            cores = (
                rng.normal(size=(full[k], dims[k], full[k + 1])) for k in range(order)
            )
            tt = TTTensor(
                cores=tuple(
                    laid_out(core, layouts[k % len(layouts)])
                    for k, core in enumerate(cores)
                )
            )
            weights = [rng.normal(size=n) for n in dims[2:]]
            got = interpolate_coefficients(tt, weights)
            want = tensordot_coefficients(tt, weights)
            assert got.shape == want.shape == (ranks[0], dims[1])
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_copies_no_core(self, rng):
        # An 8 MiB core 1, Fortran-ordered as tt_svd and load_tt build it.
        tt = random_tt(rng, (4, 128, 5, 6), (64, 128, 3))
        assert tt.cores[1].nbytes >= 8 * 2**20
        weights = [rng.normal(size=5), rng.normal(size=6)]
        tracemalloc.start()
        try:
            coeff = interpolate_coefficients(tt, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeff.shape == (64, 128)
        assert peak < tt.cores[1].nbytes / 10


def test_mirsky_perturbation_bound(rng):
    # Distance between singular value vectors never exceeds the
    # Frobenius distance between the matrices.
    for _ in range(20):
        a = rng.normal(size=(7, 5))
        b = a + 0.1 * rng.normal(size=(7, 5))
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        assert np.linalg.norm(sa - sb) <= np.linalg.norm(a - b, "fro") * (1 + 1e-12)


class TestPersistence:
    def test_round_trip(self, tmp_path, rng):
        t = np.asfortranarray(rng.normal(size=(5, 4, 3, 2)))
        tt, _ = tt_svd(t, 0.2)
        path = tmp_path / "t.lrtt"
        save_tt(path, tt)
        back = load_tt(path)
        assert back.dims == tt.dims
        assert back.ranks == tt.ranks
        for got, exp in zip(back.cores, tt.cores):
            np.testing.assert_array_equal(got, exp)

    def test_bad_magic(self, tmp_path, rng):
        t = np.asfortranarray(rng.normal(size=(3, 3, 3)))
        tt, _ = tt_svd(t, 0.0)
        path = tmp_path / "t.lrtt"
        save_tt(path, tt)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_tt(path)

    def test_truncated(self, tmp_path, rng):
        t = np.asfortranarray(rng.normal(size=(3, 3, 3)))
        tt, _ = tt_svd(t, 0.0)
        path = tmp_path / "t.lrtt"
        save_tt(path, tt)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(FormatError):
            load_tt(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_core(self, tmp_path, rng, value):
        tt, _ = tt_svd(np.asfortranarray(rng.normal(size=(3, 3, 3))), 0.0)
        path = tmp_path / "t.lrtt"
        save_tt(path, tt)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] + np.array([value], dtype="<f8").tobytes())
        with pytest.raises(FormatError, match="non-finite value in core 2"):
            load_tt(path)

    def test_rank_claiming_more_than_the_file_holds(self, tmp_path):
        # Order 2, dims (2, 2), interior rank 2^31: the first core alone
        # would be 32 GiB, and the file holds 16 doubles.
        path = tmp_path / "crafted.lrtt"
        header = np.array([2, 2, 2, 2**31], dtype="<u4").tobytes()
        path.write_bytes(b"LRTT" + header + np.zeros(16).tobytes())
        with pytest.raises(FormatError, match="truncated"):
            load_tt(path)
