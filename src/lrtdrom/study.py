"""End-to-end accuracy studies: config parsing, sweeps, CSV emission.

A study sweeps exactly one of three knobs: the compression tolerance
``eps``, the parameter-grid spacing ``delta``, or the local basis size
``ell``. It first compresses the snapshot tensor of every sweep value
(built or reused), then solves the reduced model of each at every test
parameter and records the worst and mean space-time H1 errors against
cached full-order runs. Results go to a CSV file with a fixed header and
a JSON summary whose rows carry the same columns.

Configs are JSON with a strict schema: every block is an object, and
unknown keys anywhere are rejected. The swept variable's values live in
the ``sweep`` block and its per-run block (``compression``, ``rom``, or
``grid``) must be omitted; non-swept blocks carry exactly one value.
Random test sets draw from numpy's default 64-bit PCG64 generator, so a
fixed seed fixes the test set across machines.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import tempfile
import time
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from .errors import ConfigError, FormatError, check_budget
from .fem import (
    AffineOperator,
    ProblemSpec,
    TimeGrid,
    advdiff_problem,
    affine_operator,
    assemble_h1_gram,
    assemble_mass,
    build_mesh,
    heat_problem,
    solve_fom_batch,
)
from .interp import InterpolationScheme
from .rom import correlation_spectrum, query, tail_energy, trajectory_error_sq
from .tensors import (
    ParameterGrid,
    generate_snapshots,
    load_tensor,
    save_tensor,
    uniform_grid,
)
from .tt import check_compression_budget, frobenius_tolerance, tt_svd

# (file column name, StudyRow attribute, text format) of every results
# column, in file order: the header of results.csv and the keys of a
# summary.json row, which adds the test point of E_max and the error string.
ROW_COLUMNS = (
    ("sweep_var", "sweep_var", "s"),
    ("value", "value", ".17g"),
    ("eps", "eps", ".17g"),
    ("delta_max", "delta_max", ".17g"),
    ("ell", "ell", "d"),
    ("lambda_tail", "lambda_tail", ".17g"),
    ("E_max", "e_max", ".17g"),
    ("E_mean", "e_mean", ".17g"),
    ("R1", "r1", "d"),
    ("wall_s", "wall_s", ".3f"),
)
CSV_HEADER = ",".join(name for name, _, _ in ROW_COLUMNS)

_SWEEP_VARIABLES = ("eps", "delta", "ell")


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")


def _object(value, where: str, keys: set[str]) -> dict:
    """``value`` as a JSON object whose keys all lie in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    _check_keys(value, keys, where)
    return value


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return block[key]


def _is_number(value) -> bool:
    """A finite JSON number: not a boolean, NaN or an infinity (which
    Python's json module reads from ``NaN`` and ``Infinity``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _as_positive_float(value, where: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{where} must be a finite number")
    value = float(value)
    if not value > 0:
        raise ConfigError(f"{where} must be positive")
    return value


def _as_positive_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer")
    if value < 1:
        raise ConfigError(f"{where} must be at least 1")
    if not _is_number(value):  # counts enter float arithmetic (dt, delta_max)
        raise ConfigError(f"{where} is too large")
    return value


def _single(parse):
    """A reader of a single-entry list whose entry ``parse`` reads."""

    def parse_entry(value, where: str):
        if not isinstance(value, list) or len(value) != 1:
            raise ConfigError(f"{where} must be a single-entry list")
        return parse(value[0], where)

    return parse_entry


@dataclass(frozen=True)
class TestSetSpec:
    """How the test parameter set is built.

    grid: midpoints of n uniform subintervals per axis (offset from any
    uniform training grid). random: seeded uniform draws from the box.
    explicit: points given verbatim; the only mode allowed to touch the
    training grid.
    """

    __test__ = False  # not a pytest class despite the name

    mode: str
    n: int = 0
    count: int = 0
    seed: int = 0
    points: tuple[tuple[float, ...], ...] = ()

    def n_points(self, d: int) -> int:
        """How many points :meth:`build` makes in a box of ``d`` sides."""
        if self.mode == "grid":
            return self.n**d
        if self.mode == "random":
            return self.count
        return len(self.points)

    def build(self, box: Sequence[tuple[float, float]]) -> np.ndarray:
        if self.mode == "grid":
            axes = [
                lo + (np.arange(self.n) + 0.5) * (hi - lo) / self.n
                for lo, hi in box
            ]
            return ParameterGrid(axes=tuple(axes)).points()
        if self.mode == "random":
            rng = np.random.default_rng(self.seed)
            lows = np.array([lo for lo, _ in box])
            highs = np.array([hi for _, hi in box])
            return rng.uniform(lows, highs, size=(self.count, len(box)))
        return np.array(self.points, dtype=float)


def _parse_test_set(block, d: int) -> TestSetSpec:
    """The test set of a ``test_set`` block, for a problem of ``d`` parameters."""
    where = "test_set"
    _object(block, where, {"mode", "n", "count", "seed", "points"})
    mode = _require(block, "mode", where)
    if mode == "grid":
        _check_keys(block, {"mode", "n"}, where)
        return TestSetSpec(mode="grid", n=_as_positive_int(_require(block, "n", where), "test_set.n"))
    if mode == "random":
        _check_keys(block, {"mode", "count", "seed"}, where)
        count = _as_positive_int(_require(block, "count", where), "test_set.count")
        seed = _require(block, "seed", where)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("test_set.seed must be a non-negative integer")
        return TestSetSpec(mode="random", count=count, seed=seed)
    if mode == "explicit":
        _check_keys(block, {"mode", "points"}, where)
        points = _require(block, "points", where)
        if not isinstance(points, list) or not points:
            raise ConfigError("test_set.points must be a non-empty list")
        if not all(isinstance(p, list) and all(map(_is_number, p)) for p in points):
            raise ConfigError("test_set.points must be lists of numbers")
        if any(len(p) != d for p in points):
            raise ConfigError(f"test_set.points must be rows of length {d}")
        return TestSetSpec(
            mode="explicit", points=tuple(tuple(float(v) for v in p) for p in points)
        )
    raise ConfigError(f"unknown test_set.mode {mode!r}")


@dataclass(frozen=True)
class SweepRun:
    """One sweep value with the training-grid counts, eps and requested
    basis size it runs at."""

    value: float
    counts: tuple[int, ...]
    eps: float
    ell: int


@dataclass(frozen=True)
class StudyConfig:
    """Parsed and validated study description.

    ``runs`` holds one :class:`SweepRun` per sweep value, in sweep order:
    the swept variable takes the value (a delta becomes the grid counts
    of :func:`grid_counts_for_delta`), the other two their single
    configured value. ``out_dir`` is None when the config has no
    ``output`` block.
    """

    problem: ProblemSpec
    h: float
    tg: TimeGrid
    p: int
    test_set: TestSetSpec
    sweep_variable: str
    runs: tuple[SweepRun, ...]
    out_dir: str | None = None


def parse_problem(block) -> ProblemSpec:
    """The problem of a ``problem`` block: ``{"kind": "heat"}`` or
    ``{"kind": "advdiff"}``."""
    _object(block, "problem", {"kind"})
    kind = _require(block, "kind", "problem")
    if kind == "heat":
        return heat_problem()
    if kind != "advdiff":
        raise ConfigError(f"unknown problem.kind {kind!r}")
    return advdiff_problem()


def parse_config(data: dict) -> StudyConfig:
    """Validate a JSON study description and resolve its sweep into runs.

    Every block is a JSON object; unknown keys are rejected. The swept
    variable's block (``compression`` for eps, ``grid`` for delta, ``rom``
    for ell) must be omitted, and every other one holds a single value.
    """
    _object(
        data,
        "config root",
        {"problem", "mesh", "time", "grid", "compression", "rom", "interpolation",
         "test_set", "sweep", "output"},
    )

    def block(name: str, keys: set[str]) -> dict:
        return _object(_require(data, name, "config root"), name, keys)

    problem = parse_problem(_require(data, "problem", "config root"))
    h = _as_positive_float(_require(block("mesh", {"h"}), "h", "mesh"), "mesh.h")
    steps = _as_positive_int(_require(block("time", {"N"}), "N", "time"), "time.N")
    p = _as_positive_int(
        _require(block("interpolation", {"p"}), "p", "interpolation"), "interpolation.p"
    )
    test_set = _parse_test_set(
        _require(data, "test_set", "config root"), problem.n_params
    )
    out_dir = None
    if "output" in data:
        out_dir = _require(block("output", {"dir"}), "dir", "output")
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigError("output.dir must be a non-empty string")

    sweep = block("sweep", {"variable", "values"})
    variable = _require(sweep, "variable", "sweep")
    if variable not in _SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep.variable must be one of {_SWEEP_VARIABLES}, got {variable!r}"
        )
    raw_values = _require(sweep, "values", "sweep")
    if not isinstance(raw_values, list) or not raw_values:
        raise ConfigError("sweep.values must be a non-empty list")
    if variable == "ell":
        values = tuple(
            float(_as_positive_int(v, "sweep.values entry")) for v in raw_values
        )
    else:
        values = tuple(_as_positive_float(v, "sweep.values entry") for v in raw_values)
    if len(set(values)) != len(values):
        raise ConfigError("sweep.values must be distinct")

    def fixed(swept: str, name: str, key: str, parse):
        """``name.key`` read by ``parse``, or None when ``swept`` is the
        sweep variable, whose block must then be omitted."""
        if variable == swept:
            if name in data:
                raise ConfigError(f"{name} block must be omitted when sweeping {swept}")
            return None
        return parse(_require(block(name, {key}), key, name), f"{name}.{key}")

    def grid_counts(value, where: str) -> tuple[int, ...]:
        if not isinstance(value, list) or len(value) != problem.n_params:
            raise ConfigError(f"{where} must list {problem.n_params} per-dimension counts")
        counts = tuple(_as_positive_int(k, f"{where} entry") for k in value)
        if min(counts) < 2:
            raise ConfigError(f"{where} entries must be at least 2")
        return counts

    counts = fixed("delta", "grid", "K", grid_counts)
    eps = fixed("eps", "compression", "eps", _single(_as_positive_float))
    ell = fixed("ell", "rom", "ell", _single(_as_positive_int))
    runs = tuple(
        SweepRun(
            value=v,
            counts=grid_counts_for_delta(problem.box, v) if counts is None else counts,
            eps=v if eps is None else eps,
            ell=int(v) if ell is None else ell,
        )
        for v in values
    )
    fewest = min(min(run.counts) for run in runs)
    if p > fewest:
        raise ConfigError(f"interpolation.p {p} exceeds axis node count {fewest}")
    return StudyConfig(
        problem=problem,
        h=h,
        tg=TimeGrid(problem.final_time, steps),
        p=p,
        test_set=test_set,
        sweep_variable=variable,
        runs=runs,
        out_dir=out_dir,
    )


def load_config(path: str | os.PathLike) -> StudyConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(data)


def grid_counts_for_delta(
    box: Sequence[tuple[float, float]], delta: float
) -> tuple[int, ...]:
    """Per-dimension node counts whose uniform spacing is at most ``delta``.

    When ``delta`` divides a box side exactly the spacing hits it exactly;
    every axis gets at least two nodes. A ``delta`` so small that a side
    over it overflows a float is a :class:`ConfigError`.
    """
    counts = []
    for lo, hi in box:
        ratio = (hi - lo) / delta
        if not math.isfinite(ratio):
            raise ConfigError(f"delta {delta!r} is too small for the parameter box")
        counts.append(max(math.ceil(ratio - 1e-9), 1) + 1)
    return tuple(counts)


@dataclass(frozen=True, kw_only=True)
class StudyRow:
    """One CSV record of a sweep; a failed run keeps the defaults of the
    measured columns and carries its ``error``. ``e_max_alpha``, the test
    point whose error is E_max, goes to summary.json only."""

    sweep_var: str
    value: float
    eps: float
    delta_max: float
    ell: int
    lambda_tail: float = math.nan
    e_max: float = math.nan
    e_mean: float = math.nan
    r1: int = 0
    wall_s: float
    e_max_alpha: tuple[float, ...] | None = None
    error: str | None = None

    def csv_line(self) -> str:
        return ",".join(format(getattr(self, attr), fmt) for _, attr, fmt in ROW_COLUMNS)

    def summary(self) -> dict:
        """The summary.json record: every column under its file name, a
        non-finite value as None (JSON null), then e_max_alpha and error."""
        values = {name: getattr(self, attr) for name, attr, _ in ROW_COLUMNS}
        return {
            name: None if isinstance(v, float) and not math.isfinite(v) else v
            for name, v in values.items()
        } | {"e_max_alpha": self.e_max_alpha, "error": self.error}


@dataclass
class StudyResult:
    """Rows plus the paths of the emitted files."""

    rows: list[StudyRow]
    csv_path: Path
    summary_path: Path


# Part of every FOM-cache key: raise it when a change to the full-order
# solver or to a problem constant of ``fem`` (the source, the advdiff
# diffusion coefficient), which the key does not carry, alters its
# output, so entries it wrote earlier stop matching.
_FOM_SOLVER_VERSION = 5


class FomCache:
    """Content-addressed store of full-order trajectories under a directory,
    one ``<key>.lrt`` file per entry in the :func:`save_tensor` layout."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(problem: ProblemSpec, h: float, tg: TimeGrid, alpha: Sequence[float]) -> str:
        """Digest of every :class:`ProblemSpec` field, the mesh size, the
        time grid, the parameter value and the solver version."""
        payload = {
            "solver": _FOM_SOLVER_VERSION,
            "problem": dataclasses.asdict(problem),
            "h": float(h).hex(),
            "T": float(tg.final_time).hex(),
            "N": tg.steps,
            "alpha": [float(a).hex() for a in alpha],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def lookup(self, key: str) -> np.ndarray | None:
        """The stored states, or None when the entry is missing or
        :func:`load_tensor` cannot read it (the caller recomputes and
        overwrites it)."""
        try:
            return load_tensor(self.directory / f"{key}.lrt")
        except (OSError, FormatError):
            return None

    def store(self, key: str, states: np.ndarray) -> None:
        """Write an entry atomically, replacing a directory in its place;
        concurrent writers of one key each use their own temp file, and
        the last ``os.replace`` wins."""
        fd, tmp = tempfile.mkstemp(prefix=f"{key}.", suffix=".tmp", dir=self.directory)
        os.close(fd)
        path = self.directory / f"{key}.lrt"
        try:
            save_tensor(tmp, states)
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise


def _solve_test_foms(
    terms: AffineOperator,
    mass,
    tg: TimeGrid,
    points: np.ndarray,
    cache: FomCache,
) -> list[np.ndarray]:
    """Full-order trajectories at the test points: cache hits as stored,
    every miss from one :func:`solve_fom_batch` call, then stored."""
    m = terms.mesh.n_nodes
    keys = [FomCache.key(terms.problem, terms.mesh.cell, tg, a) for a in points]
    states = [cache.lookup(key) for key in keys]
    misses = [
        j for j, hit in enumerate(states) if hit is None or hit.shape != (m, tg.steps)
    ]
    if misses:
        block = np.empty((m, tg.steps, len(misses)), order="F")
        solve_fom_batch(terms, mass, tg, points[misses], block)
        for c, j in enumerate(misses):
            states[j] = block[:, :, c]
            cache.store(keys[j], states[j])
    return states


def _environment() -> dict:
    """Python, numpy, scipy and BLAS versions, and the BLAS thread
    variables (``"unset"`` when absent): the wall times of a run depend
    on them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            name: os.environ.get(name, "unset")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def _check_disjoint(test_points: np.ndarray, grid: ParameterGrid) -> None:
    """Exact-match scan; any test point equal to a training node is rejected."""
    training = grid.points()
    for row in test_points:
        if np.any(np.all(training == row, axis=1)):
            raise ConfigError(
                f"test point {row.tolist()} coincides with a training grid node"
            )


def run_study(
    config: StudyConfig,
    out_dir: str | os.PathLike | None = None,
) -> StudyResult:
    """Run every entry of ``config.runs``; write results.csv and
    summary.json.

    Two phases keep each snapshot tensor apart from the test trajectories.
    First every run, in order, gets its train: a run rebuilds the
    snapshots only when its grid counts change. When a grid is built, one
    :func:`frobenius_tolerance` call converts the eps of this run and of
    every later run on the same counts, and one :func:`tt_svd` memo per
    grid factors the first unfolding once for every eps. A grid's tensor
    and memo are released before the next grid is built (or after a
    failed compression), the last ones after the last compression. Then
    the full-order test trajectories are solved, cached under the output
    directory so that a rerun there skips those solves, and each run's
    reduced model is solved at every test point, rows outer. A row's
    ``wall_s`` is its compression time plus its evaluation time. A failed
    run records its error in a row with its own eps, requested ell and
    ``delta_max``.

    The numeric columns reproduce bit for bit at one BLAS thread setting,
    with or without the cache: a fresh directory gives the same rows.
    Between thread settings the compression, local bases, correlation
    spectra and errors may move them at round-off; the full-order and
    reduced marches do not move.

    The memory budget is checked before anything it covers is allocated:
    the test trajectories from the test set's point count, before its
    points are built or any run compressed (a :class:`BudgetError` here
    ends the study), and each grid's tensor and its TT-SVD alone, from
    the run's node counts before the grid is built (a
    :class:`BudgetError` row). The output directory and its FOM cache are
    made after the mesh is built and the test trajectories fit, so a study
    that fails either check leaves no directory behind, and before any
    compression, so a cache that cannot be made fails first.
    """
    if out_dir is None and config.out_dir is None:
        raise ConfigError("no output directory given (config output.dir or --out)")
    out = Path(config.out_dir if out_dir is None else out_dir)

    problem, tg = config.problem, config.tg
    mesh = build_mesh(problem, config.h)
    mass = assemble_mass(mesh)
    gram = assemble_h1_gram(mesh)
    terms = affine_operator(mesh, problem)
    n_test = config.test_set.n_points(problem.n_params)
    check_budget(mesh.n_nodes * tg.steps * n_test, "test trajectories")
    out.mkdir(parents=True, exist_ok=True)
    cache = FomCache(out / "fom_cache")
    test_points = config.test_set.build(problem.box)

    compressed = []  # per run: (grid, train, error, seconds)
    grid = tensor = memo = tt = tt_eps = None
    for i, run in enumerate(config.runs):
        start = time.perf_counter()
        try:
            if grid is None or grid.counts != run.counts:
                grid = tensor = memo = tt = None
                check_compression_budget((mesh.n_nodes, tg.steps, *run.counts))
                new_grid = uniform_grid(problem.box, run.counts)
                if config.test_set.mode != "explicit":
                    _check_disjoint(test_points, new_grid)
                tensor = generate_snapshots(problem, mesh, tg, new_grid)
                grid, memo = new_grid, {}
                eps = [r.eps for r in config.runs[i:] if r.counts == run.counts]
                converted = frobenius_tolerance(eps, tensor, mass, tg.dt).tolist()
                eps_tilde = dict(zip(eps, converted))
            if tt is None or tt_eps != run.eps:
                tt, _ = tt_svd(tensor, eps_tilde[run.eps], memo=memo)
                tt_eps = run.eps
            done = (grid, tt, None)
        except ConfigError:
            raise
        except Exception as exc:  # record the failure, keep sweeping
            grid = tensor = memo = tt = None
            done = (None, None, f"{type(exc).__name__}: {exc}")
        compressed.append((*done, time.perf_counter() - start))
    tensor = memo = None

    test_states = _solve_test_foms(terms, mass, tg, test_points, cache)
    spectra = [correlation_spectrum(states, mass) for states in test_states]

    rows: list[StudyRow] = []
    for run, (grid, tt, error, compress_s) in zip(config.runs, compressed):
        start = time.perf_counter()
        measured = {"ell": run.ell, "error": error}
        if error is None:
            try:
                r1 = tt.ranks[0]
                ell = min(run.ell, r1, tg.steps)
                scheme = InterpolationScheme(grid=grid, p=config.p)
                errors = []
                for alpha, fom_states in zip(test_points, test_states):
                    lifted = query(tt, scheme, terms, mass, tg, alpha, ell).lift()
                    errors.append(trajectory_error_sq(fom_states, lifted, gram, tg.dt))
                worst = max(range(len(errors)), key=errors.__getitem__)
                measured = {
                    "ell": ell,
                    "r1": int(r1),
                    "lambda_tail": tail_energy(spectra, ell),
                    "e_max": float(np.sqrt(errors[worst])),
                    "e_mean": float(np.sqrt(np.mean(errors))),
                    "e_max_alpha": tuple(test_points[worst].tolist()),
                }
            except Exception as exc:  # record the failure, keep sweeping
                measured["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(
            StudyRow(
                sweep_var=config.sweep_variable,
                value=run.value,
                eps=run.eps,
                delta_max=max(
                    (hi - lo) / (k - 1) for (lo, hi), k in zip(problem.box, run.counts)
                ),
                wall_s=compress_s + time.perf_counter() - start,
                **measured,
            )
        )

    csv_path = out / "results.csv"
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(row.csv_line() + "\n")

    summary_path = out / "summary.json"
    summary = {
        "sweep_variable": config.sweep_variable,
        "n_test": test_points.shape[0],
        "mesh_nodes": mesh.n_nodes,
        "env": _environment(),
        "rows": [row.summary() for row in rows],
    }
    with open(summary_path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, allow_nan=False)
    return StudyResult(rows=rows, csv_path=csv_path, summary_path=summary_path)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def slope_fit(xs: Sequence[float], ys: Sequence[float]) -> SlopeFit:
    """Least-squares line through (log x, log y).

    Needs at least three strictly positive pairs whose x values are not
    all equal. A constant y gives slope 0 with R^2 defined as 1.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if xs.size < 3:
        raise ValueError("need at least three points for a slope fit")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("slope fit needs strictly positive values")
    if np.all(xs == xs[0]):
        raise ValueError("slope fit needs x values that are not all equal")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def exclude_plateau(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the plateau tail before a slope fit.

    The plateau is the maximal small-x run of points with
    y <= 2 * min(y). All of it is dropped except its largest-x member:
    that knee point sits on the decay line as much as on the plateau,
    and keeping it means a monotone dataset with no plateau loses
    nothing.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if xs.size == 0:
        return xs, ys
    order = np.argsort(xs, kind="stable")
    floor = float(np.min(ys))
    run = []
    for k in order:
        if ys[k] <= 2.0 * floor:
            run.append(k)
        else:
            break
    if run:
        run.pop()  # keep the knee
    drop = np.zeros(xs.size, dtype=bool)
    drop[run] = True
    return xs[~drop], ys[~drop]
