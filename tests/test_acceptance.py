"""Acceptance suite: one test per shipped guarantee, each timed.

Every test prints a single ``criterion N: PASS/FAIL`` line with the
measured quantities and wall time, then asserts both the guarantee and
its runtime budget. Run with ``pytest -rA`` to see the lines for passing
tests too.
"""

from __future__ import annotations

import time

import numpy as np

from lrtdrom import (
    InterpolationScheme,
    TimeGrid,
    advdiff_problem,
    assemble_h1_gram,
    assemble_mass,
    assemble_operator,
    backward_euler_solve,
    build_mesh,
    exclude_plateau,
    frobenius_tolerance,
    generate_snapshots,
    heat_problem,
    initial_state,
    parse_config,
    rom_solve,
    run_study,
    slope_fit,
    solve_fom,
    trajectory_error_sq,
    tt_svd,
    uniform_grid,
    weight_vectors,
)
from lrtdrom.fem import assemble_load, assemble_stiffness
from lrtdrom.tensors import frobenius_norm, max_trajectory_norm
from oracles import (
    grid_point,
    interpolate_snapshots,
    mode_product,
    time_levels,
    tt_to_full,
)

def report(n: int, ok: bool, detail: str, wall: float, budget_s: float) -> None:
    status = "PASS" if ok and wall < budget_s else "FAIL"
    print(f"criterion {n}: {status} ({detail}; {wall:.1f}s of {budget_s:.0f}s budget)")
    assert ok, detail
    assert wall < budget_s, f"criterion {n} exceeded {budget_s}s ({wall:.1f}s)"


def heat_study_config(**overrides) -> dict:
    data = {
        "problem": {"kind": "heat"},
        "mesh": {"h": 0.2},
        "time": {"N": 100},
        "grid": {"K": [9, 9]},
        "rom": {"ell": [12]},
        "interpolation": {"p": 2},
        "test_set": {"mode": "grid", "n": 8},
        "sweep": {},
    }
    for key, value in overrides.items():
        if value is None:
            data.pop(key, None)
        else:
            data[key] = value
    return data


def test_criterion_01_tt_compression_guarantee():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        order = int(rng.integers(3, 6))
        dims = tuple(int(d) for d in rng.integers(2, 9, size=order))
        t = np.asfortranarray(rng.normal(size=dims))
        norm = frobenius_norm(t)
        for eps_tilde in (0.0, 0.05, 0.2):
            tt, _ = tt_svd(t, eps_tilde)
            err = frobenius_norm(tt_to_full(tt) - t)
            slack = err - eps_tilde * norm
            worst = max(worst, slack)
            if slack > 1e-12:
                break
    wall = time.perf_counter() - start
    report(
        1,
        worst <= 1e-12,
        f"50 tensors x 3 tolerances, worst bound violation {worst:.2e} <= 1e-12",
        wall,
        10.0,
    )


def test_criterion_02_training_node_recovery():
    start = time.perf_counter()
    problem = heat_problem()
    mesh = build_mesh(problem, 0.4)
    tg = TimeGrid(problem.final_time, 20)
    grid = uniform_grid(problem.box, (5, 5))
    tensor = generate_snapshots(problem, mesh, tg, grid)
    tt, _ = tt_svd(tensor, 0.0)
    scheme = InterpolationScheme(grid=grid, p=2)
    worst = 0.0
    for i in range(5):
        for j in range(5):
            alpha = grid_point(grid, (i, j))
            rec = interpolate_snapshots(tt, weight_vectors(alpha, scheme))
            stored = tensor[:, :, i, j]
            worst = max(
                worst, np.linalg.norm(rec - stored) / np.linalg.norm(stored)
            )
    wall = time.perf_counter() - start
    report(
        2,
        worst <= 1e-11,
        f"25 training nodes, worst relative recovery error {worst:.2e} <= 1e-11",
        wall,
        120.0,
    )


def test_criterion_03_galerkin_reproduction():
    start = time.perf_counter()
    problem = heat_problem()
    mesh = build_mesh(problem, 0.4)
    tg = TimeGrid(problem.final_time, 50)
    mass = assemble_mass(mesh)
    gram = assemble_h1_gram(mesh)
    worst = 0.0
    for alpha in ((0.1, 0.2), (0.3, 0.7), (0.45, 0.05)):
        alpha = np.asarray(alpha)
        fom = solve_fom(problem, mesh, tg, alpha, mass)
        u0 = initial_state(problem, mesh)
        u, s, _ = np.linalg.svd(
            np.column_stack([u0, fom.states]), full_matrices=False
        )
        keep = s > 1e-12 * s[0]
        basis = u[:, keep]
        op, load = assemble_operator(mesh, problem, alpha)
        rom = rom_solve(basis, mass, op, load, u0, tg)
        num = trajectory_error_sq(fom.states, rom.lift(), gram, tg.dt)
        den = trajectory_error_sq(
            np.zeros_like(fom.states), fom.states, gram, tg.dt
        )
        worst = max(worst, np.sqrt(num / den))
    wall = time.perf_counter() - start
    report(
        3,
        worst <= 1e-9,
        f"3 parameter values, worst relative trajectory error {worst:.2e} <= 1e-9",
        wall,
        60.0,
    )


def test_criterion_04_error_scales_linearly_with_eps(tmp_path):
    start = time.perf_counter()
    config = parse_config(
        heat_study_config(sweep={"variable": "eps", "values": [1e-1, 1e-2, 1e-3, 1e-4]})
    )
    result = run_study(config, out_dir=tmp_path)
    xs = [row.value for row in result.rows]
    ys = [row.e_max for row in result.rows]
    kept_x, kept_y = exclude_plateau(xs, ys)
    fit = slope_fit(kept_x, kept_y)
    wall = time.perf_counter() - start
    report(
        4,
        0.7 <= fit.slope <= 1.3,
        f"slope {fit.slope:.3f} in [0.7, 1.3] over {kept_x.size}/4 points"
        f" (r2 {fit.r_squared:.3f})",
        wall,
        900.0,
    )


def test_criterion_05_error_scales_quadratically_with_delta(tmp_path):
    start = time.perf_counter()
    config = parse_config(
        heat_study_config(
            grid=None,
            compression={"eps": [1e-6]},
            sweep={"variable": "delta", "values": [0.1, 0.05, 0.025]},
        )
    )
    result = run_study(config, out_dir=tmp_path)
    xs = [row.value for row in result.rows]
    ys = [row.e_max for row in result.rows]
    fit = slope_fit(xs, ys)
    wall = time.perf_counter() - start
    report(
        5,
        1.5 <= fit.slope <= 2.5,
        f"slope {fit.slope:.3f} in [1.5, 2.5] (r2 {fit.r_squared:.3f})",
        wall,
        1800.0,
    )


def test_criterion_06_error_tracks_sqrt_of_spectral_tail(tmp_path):
    start = time.perf_counter()
    config = parse_config(
        heat_study_config(
            rom=None,
            compression={"eps": [1e-6]},
            sweep={"variable": "ell", "values": [2, 4, 6, 8, 10, 12]},
        )
    )
    result = run_study(config, out_dir=tmp_path)
    pairs = [
        (row.lambda_tail, row.e_max)
        for row in result.rows
        if row.lambda_tail > 0 and row.e_max > 0
    ]
    xs, ys = zip(*pairs)
    kept_x, kept_y = exclude_plateau(xs, ys)
    fit = slope_fit(kept_x, kept_y)
    wall = time.perf_counter() - start
    report(
        6,
        0.3 <= fit.slope <= 0.7,
        f"slope {fit.slope:.3f} in [0.3, 0.7] over {kept_x.size}/6 basis sizes"
        f" (r2 {fit.r_squared:.3f})",
        wall,
        900.0,
    )


def test_criterion_07_fom_convergence_order():
    # u = e^{-t} cos(pi x) cos(pi y) solves u_t - lap u = c e^{-t} cos cos
    # with zero flux. The march takes a fixed load, so it runs on
    # v^n = e^{t_n} u^n: the backward Euler step for u with load c e^{-t} g
    # is the step for v with load c g, mass e^{dt} M and operator
    # K - ((e^{dt} - 1) / dt) M.
    start = time.perf_counter()
    problem = advdiff_problem()
    c = 2.0 * np.pi**2 - 1.0

    def exact_profile(points: np.ndarray) -> np.ndarray:
        return np.cos(np.pi * points[:, 0]) * np.cos(np.pi * points[:, 1])

    errors = []
    for h, steps in ((0.25, 8), (0.125, 16), (0.0625, 32)):
        mesh = build_mesh(problem, h)
        tg = TimeGrid(1.0, steps)
        mass = assemble_mass(mesh)
        stiffness = assemble_stiffness(mesh)
        gram = assemble_h1_gram(mesh)
        g = assemble_load(mesh, exact_profile)
        u0 = exact_profile(mesh.nodes)
        traj = np.column_stack([np.exp(-t) * u0 for t in time_levels(tg)])
        growth = np.exp(tg.dt)
        v = np.empty((mesh.n_nodes, steps, 1), order="F")
        backward_euler_solve(
            growth * mass,
            stiffness - ((growth - 1.0) / tg.dt) * mass,
            c * g[:, None],
            u0[:, None],
            tg,
            v,
        )
        solved = np.exp(-time_levels(tg)) * v[:, :, 0]
        errors.append(np.sqrt(trajectory_error_sq(solved, traj, gram, tg.dt)))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    wall = time.perf_counter() - start
    report(
        7,
        min(orders) >= 0.9,
        f"observed orders {orders[0]:.2f}, {orders[1]:.2f} >= 0.9"
        f" under joint (h, dt) halving",
        wall,
        300.0,
    )


def test_criterion_08_universal_rank_grows_as_eps_shrinks():
    start = time.perf_counter()
    problem = heat_problem()
    mesh = build_mesh(problem, 0.2)
    tg = TimeGrid(problem.final_time, 100)
    grid = uniform_grid(problem.box, (9, 9))
    tensor = generate_snapshots(problem, mesh, tg, grid)
    mass = assemble_mass(mesh)
    ranks = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        eps_tilde = frobenius_tolerance(eps, tensor, mass, tg.dt)
        tt, _ = tt_svd(tensor, eps_tilde)
        ranks.append(tt.ranks[0])
    wall = time.perf_counter() - start
    report(
        8,
        all(b >= a for a, b in zip(ranks, ranks[1:])),
        f"universal ranks {ranks} non-decreasing as eps drops 1e-1 -> 1e-6",
        wall,
        600.0,
    )


def test_criterion_09_property_suites(heat_desk, tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    checks: list[tuple[str, bool]] = []

    # Singular values are 1-Lipschitz in the Frobenius norm.
    worst = 0.0
    for _ in range(100):
        m, n = rng.integers(2, 13), rng.integers(2, 11)
        a = rng.normal(size=(m, n))
        b = a + rng.normal(scale=rng.uniform(0.01, 2.0), size=(m, n))
        diff = np.linalg.svd(a, compute_uv=False) - np.linalg.svd(
            b, compute_uv=False
        )
        worst = max(
            worst, float(np.linalg.norm(diff)) - float(np.linalg.norm(a - b))
        )
    checks.append(("sv-perturbation", worst <= 1e-12))

    # Vector contraction along each mode agrees with an einsum oracle.
    ok = True
    for _ in range(10):
        t = np.asfortranarray(rng.normal(size=(4, 5, 3)))
        for mode, spec in ((0, "ijk,i->jk"), (1, "ijk,j->ik"), (2, "ijk,k->ij")):
            v = rng.normal(size=t.shape[mode])
            got = mode_product(t, v, mode)
            ok = ok and np.abs(got - np.einsum(spec, t, v)).max() <= 1e-13
    checks.append(("mode-product", ok))

    # Stencil weights reproduce polynomials up to the stencil degree.
    grid = uniform_grid(((0.0, 2.0), (1.0, 3.0)), (7, 9))
    ok = True
    for p, fn in (
        (2, lambda a: 1.5 * a[0] - 0.5 * a[1] + 2.0),
        (3, lambda a: a[0] ** 2 - a[0] * a[1] + 0.25 * a[1] ** 2 + 1.0),
    ):
        scheme = InterpolationScheme(grid=grid, p=p)
        samples = np.array(
            [[fn((x, y)) for y in grid.axes[1]] for x in grid.axes[0]]
        )
        for _ in range(50):
            alpha = np.array([rng.uniform(0.0, 2.0), rng.uniform(1.0, 3.0)])
            w1, w2 = weight_vectors(alpha, scheme)
            got = float(w1 @ samples @ w2)
            ok = ok and abs(got - fn(alpha)) <= 1e-12
    checks.append(("stencil-exactness", ok))

    # Worst-trajectory norm bounds: against the Frobenius norm, and the
    # weighted contraction against the product of stencil 1-norms.
    mass, dt, phi = heat_desk.mass, heat_desk.tg.dt, heat_desk.tensor
    dense_norm = float(np.max(np.abs(np.linalg.eigvalsh(mass.toarray()))))
    norm0 = max_trajectory_norm(phi, mass, dt)
    ok = norm0 <= np.sqrt(dense_norm * dt) * frobenius_norm(phi) * (1 + 1e-12)
    for _ in range(5):
        t = np.asfortranarray(rng.normal(size=phi.shape))
        lhs = max_trajectory_norm(t, mass, dt)
        rhs = np.sqrt(dense_norm * dt) * frobenius_norm(t)
        ok = ok and lhs <= rhs * (1 + 1e-12)
        x1, x2 = rng.normal(size=phi.shape[2]), rng.normal(size=phi.shape[3])
        mat = mode_product(mode_product(t, x1, 2), x2, 2)
        lhs = np.sqrt(np.sum(mat * (mass @ mat)))
        rhs = (
            max_trajectory_norm(t, mass, dt)
            / np.sqrt(dt)
            * np.abs(x1).sum()
            * np.abs(x2).sum()
        )
        ok = ok and lhs <= rhs * (1 + 1e-12)
    checks.append(("norm-inequalities", ok))

    # Seeded studies emit identical numeric columns in fresh directories.
    config = {
        "problem": {"kind": "heat"},
        "mesh": {"h": 0.5},
        "time": {"N": 10},
        "grid": {"K": [3, 3]},
        "rom": {"ell": [4]},
        "interpolation": {"p": 2},
        "test_set": {"mode": "random", "count": 3, "seed": 11},
        "sweep": {"variable": "eps", "values": [1e-1, 1e-3]},
    }
    a = run_study(parse_config(config), out_dir=tmp_path / "a")
    b = run_study(parse_config(config), out_dir=tmp_path / "b")
    same = all(
        ra.csv_line().rsplit(",", 1)[0] == rb.csv_line().rsplit(",", 1)[0]
        for ra, rb in zip(a.rows, b.rows)
    )
    checks.append(("csv-determinism", same))

    wall = time.perf_counter() - start
    failed = [name for name, ok in checks if not ok]
    report(
        9,
        not failed,
        f"{len(checks)} property suites pass"
        + (f" (failing: {failed})" if failed else ""),
        wall,
        300.0,
    )


def test_criterion_10_advdiff_error_decreases_then_plateaus(tmp_path):
    start = time.perf_counter()
    config = parse_config(
        {
            "problem": {"kind": "advdiff"},
            "mesh": {"h": 0.1},
            "time": {"N": 60},
            "grid": {"K": [3, 3, 3, 3, 3]},
            "rom": {"ell": [12]},
            "interpolation": {"p": 3},
            "test_set": {"mode": "random", "count": 50, "seed": 42},
            "sweep": {"variable": "eps", "values": [1e-1, 1e-3, 1e-5]},
        }
    )
    result = run_study(config, out_dir=tmp_path)
    e1, e3, e5 = (row.e_max for row in result.rows)
    decreasing = e1 > 1.5 * e3
    plateau = 0.5 * e3 <= e5 <= 1.05 * e3
    wall = time.perf_counter() - start
    report(
        10,
        decreasing and plateau,
        f"E_max {e1:.3e} -> {e3:.3e} -> {e5:.3e}: drops then flattens",
        wall,
        2700.0,
    )
