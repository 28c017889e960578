"""The benchmark's three workloads, driven through lrtdrom's public API.

Every call into the package goes through a module attribute looked up at
call time (``study.run_study``, ``lrtdrom.tt_svd``), so the wrappers that
:mod:`tracing` installs see it. The seed fixes every input: the random test
set of a sweep, and the stream of query points of the online workload.

Sizes: ``full`` is the benchmark; ``small`` is the reduced problem that
``selfcheck.py`` runs in seconds.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lrtdrom
from lrtdrom import study

HEAT_EPS = {"full": [1e-1, 1e-2, 1e-3, 1e-4], "small": [1e-1, 1e-3]}
HEAT_SIZE = {
    "full": {"h": 0.2, "N": 100, "K": [9, 9], "test": 64},
    "small": {"h": 0.5, "N": 20, "K": [3, 3], "test": 8},
}
ADVDIFF_SIZE = {
    # configs/advdiff_smoke.json without the workers key.
    "full": {"h": 0.1, "N": 60, "eps": [1e-1, 1e-3, 1e-5], "test": 50},
    "small": {"h": 0.25, "N": 10, "eps": [1e-1, 1e-3], "test": 8},
}
ONLINE_EPS = 1e-3
ONLINE_ELL = 12
# Queries per batch (the size of the heat sweep's test set), and queries
# checked against full-order solves.
ONLINE_SIZE = {
    "full": {"batch": 64, "check": 128},
    "small": {"batch": 8, "check": 8},
}
# Timed units of each kind (untraced, traced) in a traced run: studies, or
# batches of queries.
TRACE_UNITS = {"heat-eps-sweep": 1, "advdiff-sweep": 2, "heat-online": 8}
# Set-ups per untraced run, whose median is setup_s: a sweep's set-up is an
# import and a parsed config, the online one builds the whole offline stage.
SETUP_REPS = {"sweep": 7, "online": 3}


class Gate:
    """Counts operations and checks; each one that fails is noted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def e_max(self, value: float, ref: float, factor: float, what: str) -> None:
        ok = math.isfinite(value) and ref / factor <= value <= ref * factor
        self.op(ok, f"{what}: E_max {value:.6g} not within x{factor} of {ref:.6g}")


def sweep_config(name: str, seed: int, size: str) -> dict:
    """The study config of a sweep workload; the seed draws the test set."""
    if name == "heat-eps-sweep":
        s = HEAT_SIZE[size]
        return {
            "problem": {"kind": "heat"},
            "mesh": {"h": s["h"]},
            "time": {"N": s["N"]},
            "grid": {"K": s["K"]},
            "rom": {"ell": [12]},
            "interpolation": {"p": 2},
            "test_set": {"mode": "random", "count": s["test"], "seed": seed},
            "sweep": {"variable": "eps", "values": HEAT_EPS[size]},
        }
    s = ADVDIFF_SIZE[size]
    return {
        "problem": {"kind": "advdiff"},
        "mesh": {"h": s["h"]},
        "time": {"N": s["N"]},
        "grid": {"K": [3, 3, 3, 3, 3]},
        "rom": {"ell": [12]},
        "interpolation": {"p": 3},
        "test_set": {"mode": "random", "count": s["test"], "seed": seed},
        "sweep": {"variable": "eps", "values": s["eps"]},
    }


class CompletionProbe:
    """Stamps the end of every ``trajectory_error_sq`` that ``run_study`` makes.

    With one worker each test point of a row ends in exactly one such call,
    so the gap between consecutive stamps of a row is the latency of one
    query. A test point's latency is the sum of its gaps over the rows: the
    rows differ in rank and basis size, so their gaps pooled would make a
    distribution with one mode per row, whose percentiles jump between modes.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def __enter__(self) -> "CompletionProbe":
        self.original = study.trajectory_error_sq

        def stamped(*args, **kwargs):
            out = self.original(*args, **kwargs)
            self.stamps.append(time.perf_counter())
            return out

        study.trajectory_error_sq = stamped
        return self

    def __exit__(self, *exc) -> bool:
        study.trajectory_error_sq = self.original
        return False


class SweepWorkload:
    """One cold ``run_study`` per timed unit, in a fresh output directory."""

    kind = "sweep"
    setup_reps = SETUP_REPS[kind]

    def __init__(self, name: str, size: str, work: Path) -> None:
        self.name = name
        self.size = size
        self.work = work
        self.trace_units = TRACE_UNITS[name]

    def setup(self, seed: int):
        return study.parse_config(sweep_config(self.name, seed, self.size))

    def unit(self, config, probe: CompletionProbe | None = None):
        """Run one study; returns (seconds, rows, per-test-point seconds)."""
        out = Path(tempfile.mkdtemp(prefix="study-", dir=self.work))
        try:
            start = time.perf_counter()
            result = study.run_study(config, out)
            seconds = time.perf_counter() - start
        finally:
            shutil.rmtree(out, ignore_errors=True)
        latencies: list[float] = []
        if probe is not None:
            n_test, n_rows = config.test_set.count, len(result.rows)
            stamps, probe.stamps = probe.stamps, []
            if len(stamps) == n_test * n_rows:
                # Point 0 of a row also waits for the row's compression.
                gaps = np.diff(np.reshape(stamps, (n_rows, n_test)), axis=1)
                latencies = gaps.sum(axis=0).tolist()
        return seconds, result.rows, latencies

    @staticmethod
    def check(gate: Gate, units: list, reference: dict, factor: float) -> float:
        """Gate every row of every unit; returns the run's E_max."""
        ref_rows = reference["rows"]
        first = units[0]
        for u, rows in enumerate(units):
            gate.op(len(rows) == len(ref_rows), f"unit {u}: {len(rows)} rows")
            for row, ref in zip(rows, ref_rows):
                where = f"unit {u} row {row.value:g}"
                gate.op(row.error is None, f"{where}: {row.error}")
                gate.op(row.r1 == ref["R1"], f"{where}: R1 {row.r1} != {ref['R1']}")
                gate.e_max(row.e_max, ref["E_max"], factor, where)
            if u:
                same = [_numbers(a) == _numbers(b) for a, b in zip(rows, first)]
                gate.op(all(same), f"unit {u}: rows differ from unit 0")
        return max((row.e_max for row in first), default=float("nan"))


def _numbers(row) -> tuple:
    """A row's numeric columns, wall time aside, comparable bit for bit."""
    return tuple(
        float(v).hex()
        for v in (row.eps, row.delta_max, row.ell, row.lambda_tail, row.e_max, row.e_mean, row.r1)
    )


@dataclass
class OnlineState:
    problem: object
    tg: object
    mesh: object
    mass: object
    train: object
    scheme: object
    ell: int
    u0: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    checked: list = field(default_factory=list)  # query points the gate re-solves


class OnlineWorkload:
    """Offline build in set-up, then a closed loop of single queries."""

    kind = "online"
    name = "heat-online"
    setup_reps = SETUP_REPS[kind]

    def __init__(self, size: str) -> None:
        self.size = size
        self.sizes = ONLINE_SIZE[size]
        self.trace_units = TRACE_UNITS[self.name]

    def setup(self, seed: int) -> OnlineState:
        s = HEAT_SIZE[self.size]
        problem = lrtdrom.heat_problem()
        tg = lrtdrom.TimeGrid(final_time=problem.final_time, steps=s["N"])
        mesh = lrtdrom.build_mesh(problem, s["h"])
        mass = lrtdrom.assemble_mass(mesh)
        grid = lrtdrom.uniform_grid(problem.box, s["K"])
        tensor = lrtdrom.generate_snapshots(problem, mesh, tg, grid)
        eps_tilde = lrtdrom.frobenius_tolerance(ONLINE_EPS, tensor, mass, tg.dt)
        train, _ = lrtdrom.tt_svd(tensor, eps_tilde)
        del tensor
        return OnlineState(
            problem=problem,
            tg=tg,
            mesh=mesh,
            mass=mass,
            train=train,
            scheme=lrtdrom.InterpolationScheme(grid=grid, p=2),
            ell=min(ONLINE_ELL, train.ranks[0]),
            u0=lrtdrom.initial_state(problem, mesh),
            lows=np.array([lo for lo, _ in problem.box]),
            highs=np.array([hi for _, hi in problem.box]),
        )

    @staticmethod
    def query(state: OnlineState, alpha: np.ndarray) -> np.ndarray:
        weights = lrtdrom.weight_vectors(alpha, state.scheme)
        basis = lrtdrom.local_basis(state.train, weights, state.ell, alpha=alpha)
        op, load = lrtdrom.assemble_operator(state.mesh, state.problem, alpha)
        traj = lrtdrom.rom_solve(basis, state.mass, op, load, state.u0, state.tg)
        return traj.lift()

    def batch(self, state: OnlineState, rng: np.random.Generator, gate: Gate):
        """Answer one batch of seeded queries; returns per-query seconds."""
        latencies = []
        for _ in range(self.sizes["batch"]):
            alpha = rng.uniform(state.lows, state.highs)
            start = time.perf_counter()
            try:
                self.query(state, alpha)
                ok = True
            except Exception as exc:  # a query that raises counts as failed
                ok = False
                error = f"query {alpha.tolist()}: {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            gate.op(ok, "" if ok else error)
            if ok and len(state.checked) < self.sizes["check"]:
                state.checked.append(alpha)
        return latencies

    def check(self, gate: Gate, state: OnlineState, reference: dict, factor: float) -> tuple[float, float]:
        """Answer the first queries again and check them against full-order
        solves; returns (E_max, lambda_tail). Nothing of the check is held
        while the queries are timed."""
        gate.op(state.train.ranks[0] == reference["R1"], f"R1 {state.train.ranks[0]} != {reference['R1']}")
        gram = lrtdrom.assemble_h1_gram(state.mesh)
        errors, tails = [], []
        for alpha in state.checked:
            rom_states = self.query(state, alpha)
            fom = lrtdrom.solve_fom(state.problem, state.mesh, state.tg, alpha, mass=state.mass).states
            errors.append(math.sqrt(lrtdrom.trajectory_error_sq(fom, rom_states, gram, state.tg.dt)))
            tails.append(float(lrtdrom.correlation_spectrum(fom, state.mass)[state.ell:].sum()))
        e_max = max(errors, default=float("nan"))
        gate.e_max(e_max, reference["E_max"], factor, f"{len(errors)} checked queries")
        return e_max, max(tails, default=float("nan"))


def percentile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    return float(np.quantile(np.asarray(values), q)) if values else float("nan")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")
