"""Shared fixtures: small problem instances reused across test modules.

Session scope keeps the FOM solves that back the snapshot fixtures to a
few seconds in total; every fixture is deterministic.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lrtdrom import (
    TimeGrid,
    advdiff_problem,
    assemble_h1_gram,
    assemble_mass,
    build_mesh,
    generate_snapshots,
    heat_problem,
    uniform_grid,
)
from lrtdrom.study import _environment

SOURCE = Path(__file__).resolve().parents[1] / "src" / "lrtdrom"


def pytest_report_header(config):
    """The environment a study records in summary.json: wall times in a
    test log (the acceptance criteria report theirs) depend on the BLAS
    thread count. Then the package's size, counted as
    ``wc -l src/lrtdrom/*.py`` counts it."""
    env = _environment()
    threads = " ".join(f"{name}={value}" for name, value in env["threads"].items())
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE.glob("*.py"))
    return [
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['blas']}, {threads}",
        f"src/lrtdrom: {lines} lines",
    ]


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header; print it at the end of a quiet log instead.
    if config.get_verbosity() < 0:
        terminalreporter.section("environment")
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def heat():
    return heat_problem()


@pytest.fixture(scope="session")
def advdiff():
    return advdiff_problem()


@pytest.fixture(scope="session")
def heat_mesh(heat):
    return build_mesh(heat, 0.5)


@pytest.fixture(scope="session")
def heat_mass(heat_mesh):
    return assemble_mass(heat_mesh)


@pytest.fixture(scope="session")
def unit_mesh(advdiff):
    return build_mesh(advdiff, 0.25)


@pytest.fixture(scope="session")
def heat_desk(heat, heat_mesh, heat_mass):
    """Small end-to-end heat instance: 3x3 training grid, 20 time steps."""
    tg = TimeGrid(heat.final_time, 20)
    grid = uniform_grid(heat.box, (3, 3))
    tensor = generate_snapshots(heat, heat_mesh, tg, grid)
    return SimpleNamespace(
        problem=heat,
        mesh=heat_mesh,
        tg=tg,
        grid=grid,
        tensor=tensor,
        mass=heat_mass,
        gram=assemble_h1_gram(heat_mesh),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20240915)
