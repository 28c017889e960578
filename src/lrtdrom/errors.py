"""Exception types shared across the package, and the memory budget
check that raises :class:`BudgetError`."""

import math
import os


class LrtdRomError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(LrtdRomError):
    """Invalid domain geometry (misplaced holes, unreachable cell size)."""


class AssemblyError(LrtdRomError):
    """Finite element assembly failed (degenerate elements, bad data)."""


class DomainError(LrtdRomError):
    """An alpha of the wrong shape or with a non-finite entry (one outside
    the parameter box is accepted), a query outside a grid axis's range, a
    grid/problem axis mismatch, or a zero tensor's tolerance conversion."""


class SolverError(LrtdRomError):
    """A linear system could not be factored or is numerically singular."""


class FormatError(LrtdRomError):
    """A binary file does not conform to the expected layout."""


class ConfigError(LrtdRomError):
    """A study configuration is malformed or inconsistent."""


class BudgetError(LrtdRomError):
    """A requested allocation exceeds the configured memory budget."""


def resolve_memory_budget() -> float:
    """Memory budget in GiB: LRTDROM_MEM_BUDGET_GB, else 8."""
    env = os.environ.get("LRTDROM_MEM_BUDGET_GB", "8")
    try:
        budget = float(env)
    except ValueError:
        msg = f"LRTDROM_MEM_BUDGET_GB is not a number: {env!r}"
        raise BudgetError(msg) from None
    if not budget > 0:
        raise BudgetError(f"memory budget must be positive, got {budget}")
    return budget


def check_budget(n_doubles: float, what: str) -> None:
    """Raise BudgetError when ``n_doubles`` float64 values exceed the budget
    of :func:`resolve_memory_budget`, read at each check.

    ``n_doubles`` may be an integer beyond the float range (a grid of
    astronomically many points) or an overflowed float count (a mesh
    size far below the domain's width); the message then reads ``inf`` GiB.
    """
    budget = resolve_memory_budget()
    need = 8 * n_doubles
    if need > budget * 2**30:
        gib = need / 2**30 if need < 2**1000 else math.inf
        raise BudgetError(f"{what} needs {gib:.2f} GiB, budget is {budget:.2f} GiB")
