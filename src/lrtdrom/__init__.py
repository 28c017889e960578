"""Tensor-compressed reduced-order models for multi-parameter parabolic PDEs.

Pipeline: full-order finite-element solves on a parameter grid fill a
snapshot tensor; a tensor-train decomposition compresses it; Lagrange
weight vectors contracted with the parameter cores interpolate local
coefficient matrices at out-of-sample parameters; their singular vectors
span parameter-specific reduced bases for Galerkin time stepping.

The package namespace holds that pipeline, the types it returns, its
storage formats and its errors. Building blocks such as the affine
operator terms, the tensor norms and the coefficient contraction are
imported from their modules (``lrtdrom.fem``, ``lrtdrom.tensors``,
``lrtdrom.tt`` and so on).
"""

from .errors import (
    AssemblyError,
    BudgetError,
    ConfigError,
    DomainError,
    FormatError,
    GeometryError,
    LrtdRomError,
    SolverError,
)
from .fem import (
    FomTrajectory,
    Mesh2D,
    ProblemSpec,
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
from .interp import InterpolationScheme, weight_vectors
from .rom import (
    RomTrajectory,
    correlation_spectrum,
    local_basis,
    rom_solve,
    trajectory_error_sq,
)
from .study import (
    SlopeFit,
    StudyConfig,
    StudyResult,
    StudyRow,
    exclude_plateau,
    load_config,
    parse_config,
    run_study,
    slope_fit,
)
from .tensors import (
    ParameterGrid,
    generate_snapshots,
    load_tensor,
    save_tensor,
    uniform_grid,
)
from .tt import (
    CompressionReport,
    TTTensor,
    frobenius_tolerance,
    load_tt,
    save_tt,
    tt_svd,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BudgetError",
    "ConfigError",
    "DomainError",
    "FormatError",
    "GeometryError",
    "LrtdRomError",
    "SolverError",
    "FomTrajectory",
    "Mesh2D",
    "ProblemSpec",
    "TimeGrid",
    "advdiff_problem",
    "assemble_h1_gram",
    "assemble_mass",
    "assemble_operator",
    "backward_euler_solve",
    "build_mesh",
    "heat_problem",
    "initial_state",
    "solve_fom",
    "InterpolationScheme",
    "weight_vectors",
    "RomTrajectory",
    "correlation_spectrum",
    "local_basis",
    "rom_solve",
    "trajectory_error_sq",
    "SlopeFit",
    "StudyConfig",
    "StudyResult",
    "StudyRow",
    "exclude_plateau",
    "load_config",
    "parse_config",
    "run_study",
    "slope_fit",
    "ParameterGrid",
    "generate_snapshots",
    "load_tensor",
    "save_tensor",
    "uniform_grid",
    "CompressionReport",
    "TTTensor",
    "frobenius_tolerance",
    "load_tt",
    "save_tt",
    "tt_svd",
    "__version__",
]
