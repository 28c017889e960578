"""The names and signatures the benchmark under bench/ relies on.

The traced benchmark wraps package functions by name and the workloads
call the public API directly, so a rename or a dropped parameter would
break a benchmark run rather than a test. These checks catch that first.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import lrtdrom
from lrtdrom import study

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return load_bench_module("workloads")


def test_traced_functions_resolve(tracing):
    for module, name in tracing.TRACED_FUNCTIONS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_traced_methods_are_defined_on_their_class(tracing):
    for cls, name, _ in tracing.TRACED_METHODS:
        assert name in cls.__dict__, f"{cls.__name__}.{name}"


def test_workload_calls_exist(workloads):
    # Every attribute the workloads read off lrtdrom or lrtdrom.study.
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("lrtdrom", "study")
    }
    assert ("lrtdrom", "local_basis") in used and ("study", "run_study") in used
    modules = {"lrtdrom": lrtdrom, "study": study}
    missing = sorted(f"{m}.{a}" for m, a in used if not hasattr(modules[m], a))
    assert missing == []


def test_call_signatures_the_benchmark_uses():
    assert "alpha" in inspect.signature(lrtdrom.local_basis).parameters
    assert "mass" in inspect.signature(lrtdrom.solve_fom).parameters
    # bench/tracing.py reads the time grid of a march as its fifth argument.
    assert list(inspect.signature(lrtdrom.backward_euler_solve).parameters)[4] == "tg"
    # The traced run and the sweep latency probe patch these on study.
    for name in ("tt_svd", "frobenius_tolerance", "trajectory_error_sq"):
        assert callable(getattr(study, name)), name


def test_scalar_tolerance_is_a_python_float(heat_desk):
    # The heat-online set-up hands it to tt_svd, and `lrtdrom compress`
    # writes the report that carries it as JSON.
    eps_tilde = lrtdrom.frobenius_tolerance(
        1e-3, heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt
    )
    assert type(eps_tilde) is float
    assert json.loads(json.dumps(eps_tilde)) == eps_tilde


def test_tolerance_list_matches_scalar_calls(heat_desk):
    args = (heat_desk.tensor, heat_desk.mass, heat_desk.tg.dt)
    eps = [1e-1, 1e-3, 1e-5]
    listed = lrtdrom.frobenius_tolerance(eps, *args)
    assert [value.hex() for value in listed.tolist()] == [
        lrtdrom.frobenius_tolerance(e, *args).hex() for e in eps
    ]


@pytest.mark.parametrize("name", ["heat-eps-sweep", "advdiff-sweep"])
def test_small_sweep_configs_parse(workloads, name):
    config = study.parse_config(workloads.sweep_config(name, 1, "small"))
    assert config.sweep_variable == "eps"


def test_traced_small_sweep_span_counts(tracing, workloads, tmp_path):
    # The per-layer numbers and the certificate gate of a traced sweep read
    # these spans; a refactor that hides a query stage from the tracer, or
    # a compression from the tt_svd reports, changes a count here.
    config = study.parse_config(workloads.sweep_config("heat-eps-sweep", 1, "small"))
    tracer = tracing.Tracer()
    with tracer.active():
        rows = study.run_study(config, tmp_path).rows
    assert len(rows) == 2 and all(row.error is None for row in rows)
    calls = {name: entry["calls"] for name, entry in tracer.summary().items()}
    per_query = (
        "interp.weight_vectors",
        "rom.local_basis",
        "tt.interpolate_coefficients",
        "rom.rom_solve",
        "rom.lift",
        "rom.trajectory_error_sq",
    )
    for name in per_query:
        assert calls.get(name) == 16, name  # 2 rows x 8 test points
    assert calls.get("tt.tt_svd") == 2
    assert len(tracer.reports) == 2
    assert calls.get("tt.frobenius_tolerance") == 1
    assert calls.get("study.run_study") == 1
