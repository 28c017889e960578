"""Command-line entry points.

Five subcommands cover the pipeline stages: ``snapshots`` builds and
stores the snapshot tensor of a config, ``compress`` turns a stored
tensor into a tensor train at a given tolerance, ``rom`` solves the
reduced model at one parameter value, ``study`` runs a full sweep, and
``slopes`` fits log-log slopes to a study's CSV output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, LrtdRomError
from .fem import (
    Mesh2D,
    ProblemSpec,
    TimeGrid,
    assemble_mass,
    assemble_operator,
    build_mesh,
    initial_state,
)
from .interp import InterpolationScheme, weight_vectors
from .rom import local_basis, rom_solve
from .study import StudyConfig, exclude_plateau, load_config, run_study, slope_fit
from .tensors import (
    generate_snapshots,
    load_tensor,
    save_tensor,
    uniform_grid,
)
from .tt import check_compression_budget, frobenius_tolerance, load_tt, save_tt, tt_svd


@dataclasses.dataclass(frozen=True)
class _Stored:
    """What a snapshot directory's meta.json describes."""

    problem: ProblemSpec
    mesh: Mesh2D
    tg: TimeGrid
    scheme: InterpolationScheme

    @classmethod
    def of(cls, config: StudyConfig) -> _Stored:
        """What ``lrtdrom snapshots`` samples for ``config``: the grid of
        its runs, which a delta sweep does not share."""
        if config.sweep_variable == "delta":
            raise ConfigError("a delta sweep samples no single grid; give a grid block")
        problem = config.problem
        grid = uniform_grid(problem.box, config.runs[0].counts)
        return cls(
            problem=problem,
            mesh=build_mesh(problem, config.h),
            tg=config.tg,
            scheme=InterpolationScheme(grid=grid, p=config.p),
        )

    @property
    def shape(self) -> tuple[int, ...]:
        """The (M, N, K_1, ..., K_D) snapshot tensor shape."""
        return (self.mesh.n_nodes, self.tg.steps, *self.scheme.grid.counts)

    def check_shape(self, path: Path, shape: tuple[int, ...]) -> None:
        """Raise ConfigError unless a stored tensor of ``shape`` is the
        one that meta.json describes."""
        if tuple(shape) != self.shape:
            raise ConfigError(
                f"{path} has shape {tuple(shape)}, but meta.json describes "
                f"{self.shape}; rerun `lrtdrom snapshots`"
            )


def _load_meta(directory: Path) -> _Stored:
    """What the study config that ``lrtdrom snapshots`` stored as
    meta.json samples."""
    path = directory / "meta.json"
    if not path.exists():
        raise ConfigError(f"no meta.json in {directory}; run `lrtdrom snapshots` first")
    try:
        return _Stored.of(load_config(path))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}; rerun `lrtdrom snapshots`") from exc


def _tag(value: float) -> str:
    """A float as file names spell it: its ``:g`` text when that reads
    back as the same float (``0.001``), else its ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _load_snapshots(directory: Path) -> np.ndarray:
    path = directory / "snapshots.lrt"
    try:
        return load_tensor(path)
    except FileNotFoundError as exc:
        raise ConfigError(
            f"no snapshots.lrt in {directory}; run `lrtdrom snapshots` first"
        ) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _cmd_snapshots(args: argparse.Namespace) -> int:
    stored = _Stored.of(load_config(args.config))
    tensor = generate_snapshots(stored.problem, stored.mesh, stored.tg, stored.scheme.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_tensor(out / "snapshots.lrt", tensor)
    (out / "meta.json").write_bytes(Path(args.config).read_bytes())
    print(f"wrote {out / 'snapshots.lrt'} shape {tensor.shape}")
    print(f"wrote {out / 'meta.json'}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise ConfigError(f"--eps must be a non-negative number, got {args.eps}")
    directory = Path(args.dir)
    stored = _load_meta(directory)
    m, *rest = stored.shape
    check_compression_budget(m, math.prod(rest))
    tensor = _load_snapshots(directory)
    stored.check_shape(directory / "snapshots.lrt", tensor.shape)
    mass = assemble_mass(stored.mesh)
    eps_tilde = frobenius_tolerance(args.eps, tensor, mass, stored.tg.dt)
    tt, report = tt_svd(tensor, eps_tilde)
    tt_path = directory / f"tt_eps{_tag(args.eps)}.lrtt"
    save_tt(tt_path, tt)
    report_path = tt_path.with_suffix(".json")
    with open(report_path, "w", encoding="utf-8") as f:
        fields = dataclasses.asdict(report)
        json.dump({"eps": args.eps, **fields, "error_bound": report.error_bound}, f, indent=2)
    print(f"wrote {tt_path} ranks {tt.ranks}")
    print(f"wrote {report_path}")
    return 0


def _find_tt(directory: Path, eps: float | None) -> Path:
    if eps is not None:
        tag = _tag(eps)
        path = directory / f"tt_eps{tag}.lrtt"
        if not path.exists():
            raise ConfigError(f"{path} not found; run `lrtdrom compress --eps {tag}`")
        return path
    candidates = sorted(directory.glob("tt_eps*.lrtt"))
    if len(candidates) != 1:
        raise ConfigError(
            f"{len(candidates)} compressed tensors in {directory}; pass --eps to pick one"
        )
    return candidates[0]


def _cmd_rom(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    stored = _load_meta(directory)
    try:
        alpha = np.array([float(v) for v in args.alpha.split(",")])
    except ValueError as exc:
        raise ConfigError(
            f"--alpha must be comma-separated numbers, got {args.alpha!r}"
        ) from exc
    path = _find_tt(directory, args.eps)
    try:
        tt = load_tt(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    stored.check_shape(path, tt.dims)
    problem, mesh, tg = stored.problem, stored.mesh, stored.tg
    weights = weight_vectors(alpha, stored.scheme)
    try:
        basis = local_basis(tt, weights, args.ell)
    except ValueError as exc:
        raise ConfigError(f"cannot build the reduced basis: {exc}") from exc
    mass = assemble_mass(mesh)
    op, load = assemble_operator(mesh, problem, alpha)
    traj = rom_solve(basis, mass, op, load, initial_state(problem, mesh), tg)
    out_path = directory / ("rom_" + "_".join(_tag(v) for v in alpha) + ".npz")
    np.savez(
        out_path,
        alpha=alpha,
        ell=args.ell,
        coefficients=traj.coefficients,
        basis=basis,
    )
    final = traj.lift()[:, -1]
    print(f"wrote {out_path}")
    print(
        f"alpha=({args.alpha}) ell={args.ell} "
        f"final-state range [{final.min():.6g}, {final.max():.6g}]"
    )
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    result = run_study(config, out_dir=args.out)
    for row in result.rows:
        status = f"  [{row.error}]" if row.error else ""
        print(
            f"{row.sweep_var}={row.value:g} eps={row.eps:g} ell={row.ell} "
            f"E_max={row.e_max:.6g} E_mean={row.e_mean:.6g} R1={row.r1}{status}"
        )
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.dat_path}")
    print(f"wrote {result.summary_path}")
    return 0


_X_COLUMN = {"eps": "eps", "delta": "delta_max", "ell": "lambda_tail"}


def _cmd_slopes(args: argparse.Namespace) -> int:
    if not math.isfinite(args.floor_factor):
        raise ConfigError(f"--floor-factor must be a finite number, got {args.floor_factor}")
    try:
        with open(args.csv, "r", encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {args.csv}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{args.csv} is empty")
    header = lines[0].split(",")
    x_col = _X_COLUMN[args.var]
    try:
        xi, yi = header.index(x_col), header.index("E_max")
    except ValueError as exc:
        raise ConfigError(f"CSV is missing expected columns: {exc}") from exc
    xs, ys = [], []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            x, y = float(parts[xi]), float(parts[yi])
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"malformed row in {args.csv}: {line!r}") from exc
        if np.isfinite(x) and np.isfinite(y):
            xs.append(x)
            ys.append(y)
    # A log-log fit reads positive pairs only. Drop the others before the
    # plateau rule, whose floor a zero (a clipped lambda_tail) would set.
    xs, ys = np.array(xs), np.array(ys)
    positive = (xs > 0) & (ys > 0)
    if not positive.all():
        print(
            f"left out {np.count_nonzero(~positive)} of {xs.size} rows "
            f"with a non-positive {x_col} or E_max"
        )
    try:
        xk, yk = exclude_plateau(xs[positive], ys[positive], factor=args.floor_factor)
        fit = slope_fit(xk, yk)
    except ValueError as exc:
        raise ConfigError(f"cannot fit a slope to {args.csv}: {exc}") from exc
    print(
        f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
        f"r2={fit.r_squared:.4f} points={xk.size}/{len(xs)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrtdrom",
        description="Tensor-compressed reduced-order models for parametric parabolic problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snapshots", help="generate and store the snapshot tensor")
    p.add_argument("--config", required=True, help="study config (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_snapshots)

    p = sub.add_parser("compress", help="tensor-train compression of stored snapshots")
    p.add_argument("--eps", type=float, required=True, help="trajectory-norm tolerance")
    p.add_argument("--dir", default=".", help="directory holding snapshots.lrt")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("rom", help="solve the reduced model at one parameter value")
    p.add_argument("--alpha", required=True, help="comma-separated parameter values")
    p.add_argument("--ell", type=int, required=True, help="reduced basis size")
    p.add_argument("--dir", default=".", help="directory holding the compressed tensor")
    p.add_argument("--eps", type=float, default=None, help="pick the tensor compressed at this tolerance")
    p.set_defaults(func=_cmd_rom)

    p = sub.add_parser("study", help="run a sweep study from a config")
    p.add_argument("--config", required=True, help="study config (JSON)")
    p.add_argument("--out", help="output directory (default: the config's output.dir)")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("slopes", help="log-log slope fit over a results CSV")
    p.add_argument("--csv", required=True, help="results.csv from a study")
    p.add_argument("--var", required=True, choices=sorted(_X_COLUMN), help="swept variable")
    p.add_argument(
        "--floor-factor",
        type=float,
        default=2.0,
        help="plateau exclusion factor (0 disables)",
    )
    p.set_defaults(func=_cmd_slopes)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LrtdRomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
