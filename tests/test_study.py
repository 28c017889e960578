"""Config parsing, sweep execution, CSV emission, slope fitting."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import shutil
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import lrtdrom.fem as fem_module
import lrtdrom.rom as rom_module
import lrtdrom.study as study_module
import lrtdrom.tt as tt_module
from lrtdrom import (
    BudgetError,
    ConfigError,
    ProblemSpec,
    SolverError,
    TimeGrid,
    advdiff_problem,
    assemble_mass,
    build_mesh,
    exclude_plateau,
    heat_problem,
    load_config,
    parse_config,
    run_study,
    slope_fit,
    solve_fom,
)
from lrtdrom.study import (
    CSV_HEADER,
    FomCache,
    SweepRun,
    TestSetSpec,
    _environment,
    grid_counts_for_delta,
)
from lrtdrom.errors import check_budget
from lrtdrom.tensors import load_tensor, save_tensor, uniform_grid
from oracles import grid_spacings


def poisoned_entries(path: Path, states: np.ndarray):
    """Turn the cache entry at ``path`` into each entry a study must not
    use, in turn, and yield ``(label, readable)``. The ``.lrt`` bytes of
    ``states`` with a bad magic, cut short, or with a trailing byte; a
    NaN or an infinite payload; and a directory are unreadable. An order-3
    entry and one of the wrong shape are well-formed (``readable``), and
    only the study's (M, N) shape check rejects them."""
    save_tensor(path, states)
    blob = path.read_bytes()
    for label, data in [
        ("bad magic", b"LRTT" + blob[4:]),
        ("truncated", blob[:-1]),
        ("trailing bytes", blob + b"\0"),
    ]:
        path.write_bytes(data)
        yield label, False
    for value in (np.nan, np.inf):
        bad = states.copy()
        bad[0, -1] = value
        save_tensor(path, bad)
        yield f"payload holds {value}", False
    for label, tensor in [("order 3", states[:, :, None]), ("wrong shape", states[1:])]:
        save_tensor(path, tensor)
        yield label, True
    path.unlink()
    path.mkdir()
    (path / "inside").write_bytes(blob)
    yield "directory", False


def base_config() -> dict:
    """Small heat sweep over eps; mutated per test."""
    return {
        "problem": {"kind": "heat"},
        "mesh": {"h": 0.5},
        "time": {"N": 10},
        "grid": {"K": [3, 3]},
        "rom": {"ell": [4]},
        "interpolation": {"p": 2},
        "test_set": {"mode": "explicit", "points": [[0.2, 0.3]]},
        "sweep": {"variable": "eps", "values": [1e-1, 1e-3]},
    }


# Values a JSON key may hold that its schema does not expect: null, a
# boolean, zero, negative, fractional and subnormal numbers, strings,
# lists of each depth, objects, and NaN.
SUBSTITUTES = [None, True, 0, -1, 2.5, 1e-320, "x", "", [], [1], [[1]], {}, {"a": 1}, math.nan]


def substitution_bases() -> dict[str, dict]:
    """Both shipped configs, and heat variants that sweep delta and ell or
    use an explicit test set."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    heat = json.loads((configs / "heat_eps_study.json").read_text(encoding="utf-8"))
    advdiff = json.loads((configs / "advdiff_smoke.json").read_text(encoding="utf-8"))
    fixed_eps = {"compression": {"eps": [1e-3]}}
    delta = {k: v for k, v in heat.items() if k != "grid"} | fixed_eps
    ell = {k: v for k, v in heat.items() if k != "rom"} | fixed_eps
    return {
        "heat": heat,
        "advdiff": advdiff,
        "delta": delta | {"sweep": {"variable": "delta", "values": [0.25, 0.125]}},
        "ell": ell | {"sweep": {"variable": "ell", "values": [2, 4]}},
        "explicit": heat | {"test_set": {"mode": "explicit", "points": [[0.2, 0.3]]}},
    }


def key_paths(node, prefix=()):
    """The path of every object member and list entry below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "path", sorted((REPO / "configs").glob("*.json")), ids=lambda path: path.name
)
def test_shipped_config_parses(path):
    load_config(path)


def test_readme_configs_parse():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config(base_config())
        assert cfg.problem.kind == "heat"
        assert cfg.h == 0.5
        assert cfg.tg.steps == 10
        assert cfg.tg.final_time == heat_problem().final_time
        assert cfg.p == 2
        assert cfg.sweep_variable == "eps"
        assert cfg.runs == (
            SweepRun(value=1e-1, counts=(3, 3), eps=1e-1, ell=4),
            SweepRun(value=1e-3, counts=(3, 3), eps=1e-3, ell=4),
        )
        assert cfg.out_dir is None

    def test_unknown_keys_rejected(self):
        data = base_config()
        data["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(data)
        data = base_config()
        data["mesh"]["warp"] = 2
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(data)

    def test_missing_block(self):
        data = base_config()
        del data["time"]
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(data)

    def test_swept_block_must_be_omitted(self):
        data = base_config()
        data["compression"] = {"eps": [1e-2]}
        with pytest.raises(ConfigError, match="omitted"):
            parse_config(data)

    def test_non_swept_blocks_hold_one_value(self):
        data = base_config()
        data["rom"]["ell"] = [4, 6]
        with pytest.raises(ConfigError, match="single-entry"):
            parse_config(data)

    def test_sweep_values_validation(self):
        data = base_config()
        data["sweep"]["values"] = [1e-1, 1e-1]
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(data)
        data["sweep"]["values"] = []
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(data)
        data["sweep"]["values"] = [1e-1, -1e-2]
        with pytest.raises(ConfigError, match="positive"):
            parse_config(data)
        data["sweep"]["variable"] = "banana"
        with pytest.raises(ConfigError, match="sweep.variable"):
            parse_config(data)

    def test_nu_only_for_advdiff(self):
        # The diffusion coefficient is a constant of fem: no kind takes it.
        data = base_config()
        data["problem"]["nu"] = 0.01
        with pytest.raises(ConfigError, match=r"unknown keys \['nu'\] in problem"):
            parse_config(data)
        data = base_config()
        data["problem"] = {"kind": "advdiff", "nu": 1.0 / 30.0}
        data["grid"]["K"] = [3, 3, 3, 3, 3]
        data["test_set"]["points"] = [[0.05] * 5]
        with pytest.raises(ConfigError, match=r"unknown keys \['nu'\] in problem"):
            parse_config(data)

    def test_grid_counts_validation(self):
        data = base_config()
        data["grid"]["K"] = [3]
        with pytest.raises(ConfigError, match="per-dimension"):
            parse_config(data)
        data["grid"]["K"] = [3, 1]
        with pytest.raises(ConfigError, match="at least 2"):
            parse_config(data)

    def test_grid_block_forbidden_when_sweeping_delta(self):
        data = base_config()
        data["sweep"] = {"variable": "delta", "values": [0.2, 0.1]}
        data["compression"] = {"eps": [1e-3]}
        with pytest.raises(ConfigError, match="omitted"):
            parse_config(data)
        del data["grid"]
        cfg = parse_config(data)
        box = heat_problem().box
        assert cfg.runs == tuple(
            SweepRun(value=d, counts=grid_counts_for_delta(box, d), eps=1e-3, ell=4)
            for d in (0.2, 0.1)
        )

    def test_ell_clamped_to_r1_without_max_ell(self, tmp_path):
        # No key bounds ell: the removed max_ell and memory_budget_gb keys
        # are unknown, and a large ell runs with each row's R1 in its place.
        for key, value in (("max_ell", 100), ("memory_budget_gb", 1.0)):
            data = base_config()
            data[key] = value
            with pytest.raises(ConfigError, match=f"unknown keys.*'{key}'"):
                parse_config(data)
        data = base_config()
        data["time"]["N"] = 40
        data["rom"]["ell"] = [80]
        config = parse_config(data)
        assert [run.ell for run in config.runs] == [80, 80]
        result = run_study(config, out_dir=tmp_path)
        for row in result.rows:
            assert row.error is None
            assert row.ell == row.r1 < 40

    def test_booleans_are_not_numbers(self):
        data = base_config()
        data["time"]["N"] = True
        with pytest.raises(ConfigError, match="integer"):
            parse_config(data)
        data = base_config()
        data["mesh"]["h"] = True
        with pytest.raises(ConfigError, match="number"):
            parse_config(data)

    @pytest.mark.parametrize(
        "changes, removed",
        [
            pytest.param({"mesh": {"h": "X"}}, None, id="mesh.h"),
            # time.T and problem.nu are no longer keys: any value is rejected.
            pytest.param(
                {"time": {"N": 10, "T": "X"}}, r"unknown keys \['T'\] in time", id="time.T"
            ),
            pytest.param(
                {"sweep": {"variable": "eps", "values": ["X", 1e-2]}}, None, id="sweep.values"
            ),
            pytest.param(
                {
                    "sweep": {"variable": "ell", "values": [2, 4]},
                    "compression": {"eps": ["X"]},
                    "rom": None,
                },
                None,
                id="compression.eps",
            ),
            pytest.param(
                {
                    "problem": {"kind": "advdiff", "nu": "X"},
                    "grid": {"K": [3] * 5},
                    "test_set": {"mode": "random", "count": 2, "seed": 0},
                },
                r"unknown keys \['nu'\] in problem",
                id="problem.nu",
            ),
            pytest.param(
                {"test_set": {"mode": "explicit", "points": [[0.2, "X"]]}},
                None,
                id="test_set.points",
            ),
        ],
    )
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_numbers_rejected(self, changes, removed, literal):
        # Python's json module reads these literals as floats.
        data = base_config()
        for block, value in changes.items():
            if value is None:
                del data[block]
            else:
                data[block] = value
        finite = json.loads(json.dumps(data).replace('"X"', "1"))
        non_finite = json.loads(json.dumps(data).replace('"X"', literal))
        if removed is not None:
            for parsed in (finite, non_finite):
                with pytest.raises(ConfigError, match=removed):
                    parse_config(parsed)
            return
        parse_config(finite)
        with pytest.raises(ConfigError, match="finite number|lists of numbers"):
            parse_config(non_finite)

    def test_integer_beyond_the_float_range_rejected(self):
        data = base_config()
        data["mesh"]["h"] = 10**400
        with pytest.raises(ConfigError, match="mesh.h must be a finite number"):
            parse_config(data)

    def test_workers_key_rejected(self):
        data = base_config()
        data["workers"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*'workers'"):
            parse_config(data)

    @pytest.mark.parametrize("points", [[[0.1, "a"]], [1, 2], [[0.1, True]]])
    def test_explicit_points_must_be_number_lists(self, points):
        data = base_config()
        data["test_set"] = {"mode": "explicit", "points": points}
        with pytest.raises(ConfigError, match="lists of numbers"):
            parse_config(data)

    @pytest.mark.parametrize("points", [[[0.2, 0.3], [0.1]], [[0.2, 0.3, 0.4]]])
    def test_explicit_points_must_match_the_parameter_count(self, points):
        data = base_config()
        data["test_set"] = {"mode": "explicit", "points": points}
        with pytest.raises(ConfigError, match="rows of length 2"):
            parse_config(data)

    @pytest.mark.parametrize("ell_sweep", [False, True], ids=["eps", "ell"])
    def test_stencil_must_fit_the_grid(self, ell_sweep):
        data = base_config()
        data["interpolation"]["p"] = 4
        if ell_sweep:
            del data["rom"]
            data["compression"] = {"eps": [1e-3]}
            data["sweep"] = {"variable": "ell", "values": [2, 4]}
        with pytest.raises(ConfigError, match="interpolation.p 4 exceeds axis node count 3"):
            parse_config(data)
        data["interpolation"]["p"] = 3
        assert parse_config(data).p == 3

    def test_stencil_must_fit_every_delta_grid(self):
        data = base_config()
        del data["grid"]
        data["compression"] = {"eps": [1e-3]}
        data["interpolation"]["p"] = 3
        # delta 0.5 puts 2 nodes on heat's [0.01, 0.5] side.
        data["sweep"] = {"variable": "delta", "values": [0.25, 0.5]}
        with pytest.raises(ConfigError, match="interpolation.p 3 exceeds axis node count 2"):
            parse_config(data)

    def test_test_set_modes(self):
        data = base_config()
        data["test_set"] = {"mode": "grid", "n": 4}
        assert parse_config(data).test_set == TestSetSpec(mode="grid", n=4)
        data["test_set"] = {"mode": "random", "count": 7, "seed": 42}
        assert parse_config(data).test_set == TestSetSpec(
            mode="random", count=7, seed=42
        )
        data["test_set"] = {"mode": "random", "count": 7, "seed": True}
        with pytest.raises(ConfigError, match="seed"):
            parse_config(data)
        data["test_set"] = {"mode": "random", "count": 7, "seed": -1}
        with pytest.raises(ConfigError, match="test_set.seed must be a non-negative integer"):
            parse_config(data)
        data["test_set"] = {"mode": "teleport"}
        with pytest.raises(ConfigError, match="mode"):
            parse_config(data)
        data["test_set"] = {"mode": "grid", "n": 4, "count": 2}
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(data)
        data["test_set"] = {"mode": "explicit", "points": []}
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(data)

    def test_ell_sweep_resolves_integer_runs(self):
        data = base_config()
        del data["rom"]
        data["compression"] = {"eps": [1e-3]}
        data["sweep"] = {"variable": "ell", "values": [2, 4]}
        runs = parse_config(data).runs
        assert runs == (
            SweepRun(value=2.0, counts=(3, 3), eps=1e-3, ell=2),
            SweepRun(value=4.0, counts=(3, 3), eps=1e-3, ell=4),
        )
        assert all(type(run.ell) is int for run in runs)

    @pytest.mark.parametrize("base", sorted(substitution_bases()))
    def test_substituted_values_parse_or_raise_config_error(self, base):
        # Each key path of the config holds each substitute in turn: the
        # parser returns a config that builds its test set (so a negative
        # seed is rejected), or raises ConfigError, never another type.
        data = substitution_bases()[base]
        parse_config(data)
        escaped = []
        for path in key_paths(data):
            for value in SUBSTITUTES:
                changed = copy.deepcopy(data)
                node = changed
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    config = parse_config(changed)
                    config.test_set.build(config.problem.box)
                except ConfigError:
                    pass
                except Exception as exc:
                    escaped.append((path, value, repr(exc)))
        assert escaped == []

    @pytest.mark.parametrize("value", [v for v in SUBSTITUTES if v != "x"], ids=repr)
    def test_output_dir_must_be_a_non_empty_string(self, value):
        data = base_config()
        data["output"] = {"dir": value}
        with pytest.raises(ConfigError, match="output.dir must be a non-empty string"):
            parse_config(data)
        data["output"]["dir"] = "out/study"
        assert parse_config(data).out_dir == "out/study"

    def test_over_fine_delta_rejected(self):
        data = base_config()
        del data["grid"]
        data["compression"] = {"eps": [1e-3]}
        data["sweep"] = {"variable": "delta", "values": [0.25, 1e-320]}
        with pytest.raises(ConfigError, match="too small"):
            parse_config(data)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(base_config()), encoding="utf-8")
        assert load_config(path) == parse_config(base_config())


class TestTestSetSpec:
    def test_grid_midpoints(self):
        box = ((0.0, 1.0), (0.0, 1.0))
        pts = TestSetSpec(mode="grid", n=2).build(box)
        assert pts.shape == (4, 2)
        got = {tuple(row) for row in pts}
        assert got == {(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)}

    def test_random_is_seeded_and_in_box(self):
        box = ((-1.0, 1.0), (0.0, 0.5), (2.0, 3.0))
        spec = TestSetSpec(mode="random", count=20, seed=99)
        a = spec.build(box)
        b = spec.build(box)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (20, 3)
        for j, (lo, hi) in enumerate(box):
            assert np.all((a[:, j] >= lo) & (a[:, j] <= hi))

    def test_explicit_verbatim(self):
        pts = TestSetSpec(mode="explicit", points=((0.1, 0.2), (0.3, 0.4))).build(
            ((0.0, 1.0), (0.0, 1.0))
        )
        np.testing.assert_array_equal(pts, [[0.1, 0.2], [0.3, 0.4]])
        data = base_config()
        data["test_set"] = {"mode": "explicit", "points": [[0.1]]}
        with pytest.raises(ConfigError, match="rows of length"):
            parse_config(data)

    @pytest.mark.parametrize(
        "problem, n", [(heat_problem(), 8), (advdiff_problem(), 2)], ids=["heat", "advdiff"]
    )
    def test_grid_points_are_the_midpoint_grid_enumeration(self, problem, n):
        # The enumeration the grid mode used before it became a ParameterGrid.
        axes = [lo + (np.arange(n) + 0.5) * (hi - lo) / n for lo, hi in problem.box]
        mats = np.meshgrid(*axes, indexing="ij")
        expected = np.column_stack([m.ravel(order="F") for m in mats])
        pts = TestSetSpec(mode="grid", n=n).build(problem.box)
        assert pts.shape == expected.shape == (n**problem.n_params, problem.n_params)
        assert pts.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "spec, d, count",
        [
            (TestSetSpec(mode="grid", n=100000), 2, 10**10),
            (TestSetSpec(mode="grid", n=3), 5, 243),
            (TestSetSpec(mode="random", count=7, seed=1), 3, 7),
            (TestSetSpec(mode="explicit", points=((0.1, 0.2),) * 4), 2, 4),
        ],
        ids=["grid-huge", "grid", "random", "explicit"],
    )
    def test_point_count_needs_no_points(self, spec, d, count):
        n = spec.n_points(d)
        assert n == count and type(n) is int


class TestGridCountsForDelta:
    def test_heat_box(self):
        assert grid_counts_for_delta(heat_problem().box, 0.05) == (11, 19)

    def test_exact_division(self):
        assert grid_counts_for_delta(((0.0, 1.0),), 0.25) == (5,)

    def test_rounds_up(self):
        assert grid_counts_for_delta(((0.0, 1.0),), 0.3) == (5,)

    def test_coarse_delta_keeps_two_nodes(self):
        for delta in (1.0, 7.0, 1e10, 1e300):
            assert grid_counts_for_delta(((0.0, 1.0),), delta) == (2,)

    def test_over_fine_delta_is_a_config_error(self):
        (count,) = grid_counts_for_delta(((0.0, 1.0),), 1e-300)
        assert count > 10**299
        with pytest.raises(ConfigError, match="too small"):
            grid_counts_for_delta(((0.0, 1.0),), 1e-320)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    result = run_study(parse_config(base_config()), out_dir=out)
    return result, out


class TestRunStudy:
    def test_csv_shape(self, smoke):
        result, _ = smoke
        lines = result.csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(result.rows) == 3
        for row in result.rows:
            assert row.error is None
            assert row.e_mean <= row.e_max
            assert row.r1 >= 1
            assert row.lambda_tail >= 0
            assert row.ell == min(4, row.r1, 10)

    def test_summary_json(self, smoke):
        result, _ = smoke
        summary = json.loads(result.summary_path.read_text(encoding="utf-8"))
        assert summary["sweep_variable"] == "eps"
        assert summary["n_test"] == 1
        assert len(summary["rows"]) == 2
        assert summary["rows"][0]["E_max"] == result.rows[0].e_max
        assert summary["env"] == _environment()
        threads = summary["env"]["threads"]
        assert set(threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        for row in summary["rows"]:
            assert row["e_max_alpha"] == [0.2, 0.3]

    def test_e_max_alpha_names_the_worst_test_point(self, tmp_path):
        points = [[0.2, 0.3], [0.45, 0.15], [0.05, 0.9]]
        data = base_config()
        data["test_set"]["points"] = points
        rows = run_study(parse_config(data), out_dir=tmp_path / "all").rows
        for k, point in enumerate(points):
            data["test_set"]["points"] = [point]
            alone = run_study(parse_config(data), out_dir=tmp_path / str(k)).rows
            for row, single in zip(rows, alone):
                assert single.e_max_alpha == tuple(point)
                if row.e_max_alpha == tuple(point):
                    assert single.e_max == pytest.approx(row.e_max, rel=1e-10)
                else:
                    assert single.e_max <= row.e_max * (1 + 1e-10)

    def test_all_outputs_agree_with_rows(self, smoke):
        result, _ = smoke
        attrs = {
            "value": "value",
            "eps": "eps",
            "delta_max": "delta_max",
            "ell": "ell",
            "lambda_tail": "lambda_tail",
            "E_max": "e_max",
            "E_mean": "e_mean",
            "R1": "r1",
        }
        csv_lines = result.csv_path.read_text(encoding="utf-8").splitlines()
        csv_header = csv_lines[0].split(",")
        csv_rows = [dict(zip(csv_header, ln.split(","))) for ln in csv_lines[1:]]
        summary = json.loads(result.summary_path.read_text(encoding="utf-8"))
        assert set(attrs) <= set(csv_header)
        assert len(csv_rows) == len(summary["rows"]) == len(result.rows)
        for row, c, s in zip(result.rows, csv_rows, summary["rows"]):
            assert list(s) == csv_header + ["e_max_alpha", "error"]
            assert c["sweep_var"] == s["sweep_var"] == row.sweep_var
            assert s["error"] == row.error
            assert abs(float(c["wall_s"]) - row.wall_s) <= 5e-4
            assert s["wall_s"] == row.wall_s
            for name, attr in attrs.items():
                want = getattr(row, attr)
                assert float(c[name]) == s[name] == want, name

    def test_readme_lists_the_output_files(self, smoke):
        # README's Outputs list names exactly what a study writes, a cache
        # entry as fom_cache/<key>.lrt.
        result, out = smoke
        section = (REPO / "README.md").read_text(encoding="utf-8").split("## Outputs", 1)[1]
        items = section.split("\n\n")[2]
        listed = re.findall(r"^- `([^`]+)`", items, re.M)
        written = {
            path.name if path.parent == out else str(path.relative_to(out).with_stem("<key>"))
            for path in out.rglob("*")
            if path.is_file()
        }
        assert sorted(listed) == sorted(written)

    def test_warm_rerun_is_numerically_identical(self, smoke, monkeypatch):
        result, out = smoke
        found = []
        lookup = FomCache.lookup

        def recorded(self, key):
            states = lookup(self, key)
            found.append(states is not None)
            return states

        monkeypatch.setattr(FomCache, "lookup", recorded)
        again = run_study(parse_config(base_config()), out_dir=out)
        assert found == [True]
        for a, b in zip(result.rows, again.rows):
            assert a.csv_line().rsplit(",", 1)[0] == b.csv_line().rsplit(",", 1)[0]

    def test_fresh_directory_reproduces_numeric_columns(self, smoke, tmp_path):
        result, _ = smoke
        again = run_study(parse_config(base_config()), out_dir=tmp_path / "b")
        for a, b in zip(result.rows, again.rows):
            assert a.csv_line().rsplit(",", 1)[0] == b.csv_line().rsplit(",", 1)[0]

    def test_requires_output_directory(self):
        with pytest.raises(ConfigError, match="output"):
            run_study(parse_config(base_config()))

    def test_grid_test_point_on_training_node_rejected(self, tmp_path):
        # n=1 midpoints land exactly on the centre node of an odd
        # training grid, which the disjointness scan must catch.
        data = base_config()
        data["test_set"] = {"mode": "grid", "n": 1}
        with pytest.raises(ConfigError, match="training grid node"):
            run_study(parse_config(data), out_dir=tmp_path)

    def test_out_of_box_test_point_yields_error_row(self, tmp_path):
        data = base_config()
        data["test_set"] = {"mode": "explicit", "points": [[0.6, 0.95]]}
        data["sweep"]["values"] = [1e-1]
        result = run_study(parse_config(data), out_dir=tmp_path)
        row = result.rows[0]
        assert row.error is not None and "DomainError" in row.error
        assert math.isnan(row.e_max)
        assert "nan" in result.csv_path.read_text(encoding="utf-8")

        def reject(constant):
            raise ValueError(f"summary.json holds {constant}")

        text = result.summary_path.read_text(encoding="utf-8")
        [entry] = json.loads(text, parse_constant=reject)["rows"]
        assert entry["E_max"] is entry["E_mean"] is entry["lambda_tail"] is None
        assert entry["error"] == row.error and entry["R1"] == 0

    def test_error_row_carries_its_own_delta_max(self, tmp_path):
        # The second grid is too large to build: its row records the error
        # with its own spacing, not the first grid's.
        data = base_config()
        del data["grid"]
        data |= {
            "mesh": {"h": 1.0},
            "time": {"N": 4},
            "compression": {"eps": [1e-3]},
            "sweep": {"variable": "delta", "values": [0.25, 1e-300]},
        }
        first, second = run_study(parse_config(data), out_dir=tmp_path).rows
        box = heat_problem().box
        grid = uniform_grid(box, grid_counts_for_delta(box, 0.25))
        assert first.error is None and first.delta_max == max(grid_spacings(grid))
        assert second.error.startswith("BudgetError")
        assert second.delta_max == 1e-300
        assert math.isnan(second.e_max) and second.r1 == 0 and second.ell == 4

    def test_over_fine_grid_is_budgeted_before_it_exists(self, tmp_path, monkeypatch):
        # A delta of 1e-300 asks for ~4e599 grid points: the budget check
        # sees the count before any grid axis is allocated, so the row
        # records a BudgetError and the grid is never built.
        built = []
        make_grid = study_module.uniform_grid

        def counted(box, counts):
            built.append(counts)
            return make_grid(box, counts)

        monkeypatch.setattr(study_module, "uniform_grid", counted)
        data = base_config()
        del data["grid"]
        data |= {
            "compression": {"eps": [1e-3]},
            "sweep": {"variable": "delta", "values": [1e-300, 0.25]},
        }
        first, second = run_study(parse_config(data), out_dir=tmp_path).rows
        assert first.error.startswith("BudgetError: snapshot tensor")
        assert second.error is None
        box = heat_problem().box
        assert built == [grid_counts_for_delta(box, 0.25)]

    def test_training_nodes_are_reproduced(self, tmp_path):
        # Explicit test points on the training grid with a near-lossless
        # compression and a basis as large as the trajectory: the reduced
        # model replays the stored snapshots to solver precision.
        data = base_config()
        data["rom"]["ell"] = [10]
        data["sweep"]["values"] = [1e-12]
        data["test_set"] = {
            "mode": "explicit",
            "points": [[0.01, 0.0], [0.501, 0.9], [0.01, 0.9]],
        }
        result = run_study(parse_config(data), out_dir=tmp_path)
        assert result.rows[0].error is None
        assert result.rows[0].e_max <= 1e-8

    @staticmethod
    def solved_widths(data, tmp_path, monkeypatch) -> list[tuple[int, int]]:
        """(columns, operators) of every march in a study of ``data``: a
        march of P load modes has one operator, a stack one per column.
        Each cached test trajectory is checked against a solve of its own."""
        widths = []
        march = fem_module.backward_euler_solve

        def counted(mass, op, load, u0, tg, out):
            widths.append((u0.shape[1], op.shape[0] // mass.shape[0]))
            march(mass, op, load, u0, tg, out)

        monkeypatch.setattr(fem_module, "backward_euler_solve", counted)
        config = parse_config(data)
        result = run_study(config, out_dir=tmp_path)
        monkeypatch.undo()
        assert all(row.error is None for row in result.rows)
        mesh = build_mesh(config.problem, config.h)
        mass = assemble_mass(mesh)
        for alpha in config.test_set.build(config.problem.box):
            key = FomCache.key(config.problem, mesh.cell, config.tg, alpha)
            cached = load_tensor(tmp_path / "fom_cache" / f"{key}.lrt")
            ref = solve_fom(config.problem, mesh, config.tg, alpha, mass).states
            assert np.abs(cached - ref).max() <= 1e-12 * np.abs(ref).max()
        return widths

    def test_grid_test_set_is_solved_in_groups(self, tmp_path, monkeypatch):
        # The 3x3 midpoint test set has three alpha_1 values, so its nine
        # full-order solves cost three marches of the two load terms, like
        # the 3x3 training grid.
        data = base_config()
        data["test_set"] = {"mode": "grid", "n": 3}
        assert self.solved_widths(data, tmp_path, monkeypatch) == [(2, 1)] * 6

    def test_advdiff_grid_points_march_one_column_each(self, tmp_path, monkeypatch):
        # Every advdiff point has an operator of its own, so each of the
        # 2^5 test and 2^5 training points marches its own load, as one
        # column of a stack: on this 25-node mesh one stack holds them all.
        data = {
            "problem": {"kind": "advdiff"},
            "mesh": {"h": 0.25},
            "time": {"N": 8},
            "grid": {"K": [2] * 5},
            "rom": {"ell": [4]},
            "interpolation": {"p": 1},
            "test_set": {"mode": "grid", "n": 2},
            "sweep": {"variable": "eps", "values": [1e-1]},
        }
        assert self.solved_widths(data, tmp_path, monkeypatch) == [(32, 32)] * 2

    def test_non_finite_snapshot_march_yields_error_row(self, tmp_path, monkeypatch):
        # The first march of the training grid returns a NaN: that sweep
        # value records a SolverError row, and the next one rebuilds the
        # snapshots and matches a clean run.
        clean = run_study(parse_config(base_config()), out_dir=tmp_path / "clean")
        march = fem_module.backward_euler_solve
        poisoned = []

        def poison_first_grid_march(mass, op, load, u0, tg, out):
            march(mass, op, load, u0, tg, out)
            # The first march of the two load modes: one shared operator.
            if u0.shape[1:] == (2,) and op.shape == mass.shape and not poisoned:
                out[0, -1, 1] = np.nan
                poisoned.append(True)

        monkeypatch.setattr(fem_module, "backward_euler_solve", poison_first_grid_march)
        result = run_study(parse_config(base_config()), out_dir=tmp_path / "bad")
        first, second = result.rows
        assert first.error is not None and first.error.startswith("SolverError")
        assert "non-finite" in first.error
        assert math.isnan(first.e_max) and first.r1 == 0
        assert second.error is None
        assert numeric_columns(result)[1] == numeric_columns(clean)[1]
        summary = json.loads(result.summary_path.read_text(encoding="utf-8"))
        assert summary["rows"][0]["error"] == first.error

    def test_compression_failure_yields_error_row(self, smoke, tmp_path, monkeypatch):
        # The SVD fails at the first eps value only: that value records an
        # error row, and the next one matches the clean smoke run.
        svd = study_module.tt_svd
        calls = []

        def fail_first_eps(tensor, eps_tilde, memo=None):
            calls.append(eps_tilde)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(tensor, eps_tilde, memo=memo)

        monkeypatch.setattr(study_module, "tt_svd", fail_first_eps)
        result = run_study(parse_config(base_config()), out_dir=tmp_path)
        first, second = result.rows
        assert first.error == "LinAlgError: SVD did not converge"
        assert math.isnan(first.e_max) and first.r1 == 0
        assert first.eps == 1e-1 and first.ell == 4
        assert second.error is None
        assert numeric_columns(result)[1] == numeric_columns(smoke[0])[1]

    def test_reduced_solve_failure_yields_error_row(self, smoke, tmp_path, monkeypatch):
        solve = rom_module.rom_solve
        calls = []

        def fail_first_row(*args, **kwargs):
            calls.append(True)
            if len(calls) == 1:  # the single test point of the first row
                raise SolverError("reduced time-step system numerically singular")
            return solve(*args, **kwargs)

        monkeypatch.setattr(rom_module, "rom_solve", fail_first_row)
        result = run_study(parse_config(base_config()), out_dir=tmp_path)
        first, second = result.rows
        assert first.error.startswith("SolverError: reduced time-step system")
        assert math.isnan(first.e_max) and first.r1 == 0
        assert second.error is None
        assert numeric_columns(result)[1] == numeric_columns(smoke[0])[1]
        summary = json.loads(result.summary_path.read_text(encoding="utf-8"))
        assert summary["rows"][0]["error"] == first.error
        assert summary["rows"][0]["e_max_alpha"] is None
        assert summary["rows"][1]["e_max_alpha"] == [0.2, 0.3]


def numeric_columns(result) -> list[str]:
    """Each row's CSV line without the wall-clock column."""
    return [row.csv_line().rsplit(",", 1)[0] for row in result.rows]


class TestCompressionReuse:
    EPS = [1e-1, 1e-2, 1e-3]

    def eps_sweep(self) -> dict:
        data = base_config()
        data["sweep"]["values"] = list(self.EPS)
        return data

    def test_first_unfolding_factored_once_per_grid(self, tmp_path, monkeypatch):
        # Work on a whole first unfolding W is its gesdd SVD, its Gram
        # split or one range finder block; with the grid's memo each piece
        # runs at most once.
        work = []
        thin_svd, add_block = tt_module._thin_svd, tt_module._RangeFinder._add_block
        gram_split = tt_module._gram_split

        def counting_svd(w):
            work.append((np.shape(w), "dense"))
            return thin_svd(w)

        def counting_gram(w):
            work.append((np.shape(w), "gram"))
            return gram_split(w)

        def counting_block(finder, w):
            work.append((np.shape(w), len(finder.residuals)))
            add_block(finder, w)

        monkeypatch.setattr(tt_module, "_thin_svd", counting_svd)
        monkeypatch.setattr(tt_module, "_gram_split", counting_gram)
        monkeypatch.setattr(tt_module._RangeFinder, "_add_block", counting_block)
        m = build_mesh(heat_problem(), 0.5).n_nodes

        def work_on_unfolding(points):
            done = [what for shape, what in work if shape == (m, 10 * points)]
            assert done and len(set(done)) == len(done)
            return done

        result = run_study(parse_config(self.eps_sweep()), out_dir=tmp_path / "eps")
        assert all(row.error is None for row in result.rows)
        assert work_on_unfolding(9) == ["gram"]  # 90 columns: under 128

        data = self.eps_sweep()
        data["grid"]["K"] = [5, 3]
        work.clear()
        result = run_study(parse_config(data), out_dir=tmp_path / "finder")
        assert all(row.error is None for row in result.rows)
        assert not {"dense", "gram"} & set(work_on_unfolding(15))

        data = base_config()
        del data["grid"]
        data["compression"] = {"eps": [1e-3]}
        data["sweep"] = {"variable": "delta", "values": [0.5, 0.25]}
        work.clear()
        result = run_study(parse_config(data), out_dir=tmp_path / "delta")
        assert all(row.error is None for row in result.rows)
        for delta in (0.5, 0.25):
            counts = grid_counts_for_delta(heat_problem().box, delta)
            work_on_unfolding(math.prod(counts))

    def test_tolerances_converted_once_per_grid(self, tmp_path, monkeypatch):
        conversions, norms = [], []
        convert, norm0 = study_module.frobenius_tolerance, tt_module.max_trajectory_norm

        def counting_convert(eps, *args):
            conversions.append(list(eps))
            return convert(eps, *args)

        def counting_norm0(*args):
            norms.append(args[0].shape)
            return norm0(*args)

        monkeypatch.setattr(study_module, "frobenius_tolerance", counting_convert)
        monkeypatch.setattr(tt_module, "max_trajectory_norm", counting_norm0)
        data = self.eps_sweep()
        data["sweep"]["values"] = [1e-1, 1e-2, 1e-3, 1e-4]
        result = run_study(parse_config(data), out_dir=tmp_path / "eps")
        assert all(row.error is None for row in result.rows)
        assert conversions == [[1e-1, 1e-2, 1e-3, 1e-4]] and len(norms) == 1

        data = base_config()
        del data["grid"]
        data["compression"] = {"eps": [1e-3]}
        data["sweep"] = {"variable": "delta", "values": [0.5, 0.25]}
        conversions.clear()
        norms.clear()
        result = run_study(parse_config(data), out_dir=tmp_path / "delta")
        assert all(row.error is None for row in result.rows)
        assert conversions == [[1e-3], [1e-3]]
        assert len(set(norms)) == len(norms) == 2

    def test_eps_sweep_matches_single_value_studies(self, tmp_path):
        sweep = run_study(parse_config(self.eps_sweep()), out_dir=tmp_path / "sweep")
        singles = []
        for k, eps in enumerate(self.EPS):
            data = base_config()
            data["sweep"]["values"] = [eps]
            singles += numeric_columns(
                run_study(parse_config(data), out_dir=tmp_path / f"single{k}")
            )
        assert numeric_columns(sweep) == singles

    def test_preflight_counts_the_svd_workspace(self, tmp_path, monkeypatch):
        # A budget that holds the snapshot tensor but not the SVD factors
        # and gesdd's copy of the first unfolding next to it.
        tensor_doubles = build_mesh(heat_problem(), 0.5).n_nodes * 10 * 9
        monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", repr(1.5 * 8 * tensor_doubles / 2**30))
        check_budget(tensor_doubles, "snapshot tensor")  # the old estimate fits
        result = run_study(parse_config(base_config()), out_dir=tmp_path)
        for row in result.rows:
            assert row.error is not None and "BudgetError" in row.error

    @staticmethod
    def random_test_set(count: int) -> dict:
        data = base_config()
        data["test_set"] = {"mode": "random", "count": count, "seed": 0}
        return data

    def test_preflight_counts_the_test_trajectories(self, tmp_path, monkeypatch):
        # 3000 test trajectories (M=186, 10 steps) need 42.6 MiB; a 5 MiB
        # budget holds every compression of the study but not them, so the
        # study stops before it builds a tensor or solves a test point.
        built = []
        monkeypatch.setattr(study_module, "generate_snapshots", lambda *a: built.append(a))
        monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "0.005")
        with pytest.raises(BudgetError, match="test trajectories"):
            run_study(parse_config(self.random_test_set(3000)), out_dir=tmp_path)
        assert built == []
        assert not list((tmp_path / "fom_cache").glob("*.lrt"))

    def test_preflight_builds_no_test_points(self, tmp_path, monkeypatch):
        # A 100000^2 midpoint grid would take 149 GiB to enumerate; the
        # budget check counts it from the spec and stops the study first.
        def build(self, box):
            raise AssertionError("test points built before the budget check")

        monkeypatch.setattr(TestSetSpec, "build", build)
        data = base_config()
        data["test_set"] = {"mode": "grid", "n": 100000}
        with pytest.raises(BudgetError, match="test trajectories needs"):
            run_study(parse_config(data), out_dir=tmp_path)

    def test_compression_budget_excludes_the_test_trajectories(
        self, tmp_path, monkeypatch
    ):
        # 50 test trajectories (0.71 MiB) and the 3x3 grid's compression
        # (0.84 MiB) each fit 1 MiB but not together; they are never alive
        # together, so every row runs.
        m = build_mesh(heat_problem(), 0.5).n_nodes
        held = m * 10 * 50
        budget_gb = 1.0 / 1024
        monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", repr(budget_gb - 8 * held / 2**30))
        with pytest.raises(BudgetError):
            tt_module.check_compression_budget((m, 10, 3, 3))
        monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", repr(budget_gb))
        check_budget(held, "test trajectories")
        tt_module.check_compression_budget((m, 10, 3, 3))
        result = run_study(parse_config(self.random_test_set(50)), out_dir=tmp_path)
        assert [row.error for row in result.rows] == [None, None]

    @pytest.mark.parametrize("variable", ["eps", "delta"])
    def test_tensors_released_before_the_test_solves(self, variable, tmp_path, monkeypatch):
        # Every snapshot tensor is built, compressed and freed before the
        # first full-order test solve.
        data = base_config()
        if variable == "delta":
            del data["grid"]
            data["compression"] = {"eps": [1e-3]}
            data["sweep"] = {"variable": "delta", "values": [0.5, 0.25]}
        tensors, solved = [], []
        generate, solve = study_module.generate_snapshots, study_module._solve_test_foms

        def tracked_generate(*args):
            tensor = generate(*args)
            tensors.append(weakref.ref(tensor))
            return tensor

        def checked_solve(*args):
            assert [ref() for ref in tensors] == [None] * len(tensors)
            solved.append(len(tensors))
            return solve(*args)

        monkeypatch.setattr(study_module, "generate_snapshots", tracked_generate)
        monkeypatch.setattr(study_module, "_solve_test_foms", checked_solve)
        result = run_study(parse_config(data), out_dir=tmp_path)
        assert all(row.error is None for row in result.rows)
        assert solved == [1 if variable == "eps" else 2]


class TestFomCache:
    def test_store_and_lookup_bitwise(self, tmp_path, rng):
        cache = FomCache(tmp_path)
        states = rng.normal(size=(6, 4))
        key = FomCache.key(heat_problem(), 0.5, TimeGrid(2.0, 4), (0.2, 0.3))
        assert cache.lookup(key) is None
        cache.store(key, states)
        hit = cache.lookup(key)
        np.testing.assert_array_equal(hit, states)

    def test_key_tracks_inputs(self):
        problem = heat_problem()
        tg = TimeGrid(2.0, 4)
        base = FomCache.key(problem, 0.5, tg, (0.2, 0.3))
        assert FomCache.key(problem, 0.25, tg, (0.2, 0.3)) != base
        assert FomCache.key(problem, 0.5, TimeGrid(2.0, 8), (0.2, 0.3)) != base
        assert FomCache.key(problem, 0.5, tg, (0.2, 0.30001)) != base

    def test_key_tracks_solver_version(self, monkeypatch):
        # The node-order banded march moved trajectories by ~1e-14: entries
        # written by the reordered banded march (solver version 4) must not match.
        tg = TimeGrid(2.0, 4)
        current = FomCache.key(heat_problem(), 0.5, tg, (0.2, 0.3))
        monkeypatch.setattr(study_module, "_FOM_SOLVER_VERSION", 4)
        assert FomCache.key(heat_problem(), 0.5, tg, (0.2, 0.3)) != current

    def test_key_tracks_every_problem_field(self):
        problem = heat_problem()
        tg = TimeGrid(2.0, 4)
        base = FomCache.key(problem, 0.5, tg, (0.2, 0.3))
        changes = {
            "kind": "advdiff",
            "outer": (0.0, 0.0, 10.0, 4.5),
            "holes": problem.holes[:2],
            "box": ((0.01, 0.501), (0.0, 0.8)),
            "final_time": 21.0,
            "robin_side": "right",
        }
        assert set(changes) == {f.name for f in dataclasses.fields(ProblemSpec)}
        for name, value in changes.items():
            changed = dataclasses.replace(problem, **{name: value})
            assert FomCache.key(changed, 0.5, tg, (0.2, 0.3)) != base, name

    def test_concurrent_stores_of_one_key(self, tmp_path, rng, monkeypatch):
        # Both writers finish their temp file before either renames it, the
        # interleaving that made a shared temp name vanish under the second.
        cache = FomCache(tmp_path)
        states = rng.normal(size=(6, 4))
        barrier = threading.Barrier(2, timeout=10)
        save = study_module.save_tensor

        def save_then_wait(*args, **kwargs):
            save(*args, **kwargs)
            barrier.wait()

        monkeypatch.setattr(study_module, "save_tensor", save_then_wait)
        errors = []

        def store():
            try:
                cache.store("k", states)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=store) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        np.testing.assert_array_equal(cache.lookup("k"), states)
        assert [p.name for p in tmp_path.iterdir()] == ["k.lrt"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_store_leaves_nothing_behind(self, tmp_path, rng, monkeypatch, error):
        def partial_save(path, states):
            Path(path).write_bytes(b"LRT")
            raise error("write failed")

        monkeypatch.setattr(study_module, "save_tensor", partial_save)
        cache = FomCache(tmp_path)
        with pytest.raises(error, match="write failed"):
            cache.store("k", rng.normal(size=(6, 4)))
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_is_ignored(self, tmp_path, rng):
        cache = FomCache(tmp_path)
        key = "deadbeef"
        good = rng.normal(size=(6, 4))
        for label, readable in poisoned_entries(tmp_path / f"{key}.lrt", good):
            hit = cache.lookup(key)
            assert hit.shape != good.shape if readable else hit is None, label
        cache.store(key, good)
        np.testing.assert_array_equal(cache.lookup(key), good)

    def test_study_over_poisoned_cache_matches_cold_run(self, smoke, tmp_path):
        result, out = smoke
        shutil.copytree(out / "fom_cache", tmp_path / "fom_cache")
        [entry] = (tmp_path / "fom_cache").iterdir()
        assert entry.suffix == ".lrt"
        states = load_tensor(entry)
        for label, _ in poisoned_entries(entry, states):
            again = run_study(parse_config(base_config()), out_dir=tmp_path)
            for a, b in zip(result.rows, again.rows):
                assert a.csv_line().rsplit(",", 1)[0] == b.csv_line().rsplit(",", 1)[0], label
            assert load_tensor(entry).tobytes() == states.tobytes(), label


class TestSlopeFit:
    def test_exact_power_law(self):
        fit = slope_fit([1.0, 2.0, 4.0], [1.0, 4.0, 16.0])
        assert fit.slope == pytest.approx(2.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        fit = slope_fit([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_noisy_square_root(self):
        rng = np.random.default_rng(3)
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        ys = 3.0 * np.sqrt(xs) * (1.0 + rng.uniform(-0.01, 0.01, size=6))
        fit = slope_fit(xs, ys)
        assert 0.45 <= fit.slope <= 0.55

    def test_validation(self):
        with pytest.raises(ValueError, match="three points"):
            slope_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            slope_fit([1.0, 2.0, 3.0], [1.0, 0.0, 2.0])
        with pytest.raises(ValueError, match="equal length"):
            slope_fit([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="not all equal"):
            slope_fit([0.1] * 3, [0.3, 0.03, 0.003])


class TestExcludePlateau:
    def test_drops_flat_tail_keeps_knee(self):
        xs = [1e-4, 1e-3, 1e-2, 1e-1]
        ys = [5.1e-3, 4.3e-3, 4.6e-2, 3.4e-1]
        kept_x, kept_y = exclude_plateau(xs, ys)
        np.testing.assert_array_equal(kept_x, [1e-3, 1e-2, 1e-1])
        np.testing.assert_array_equal(kept_y, [4.3e-3, 4.6e-2, 3.4e-1])

    def test_monotone_data_is_untouched(self):
        xs = [1.0, 2.0, 4.0]
        ys = [1e-3, 1e-2, 1e-1]
        kept_x, _ = exclude_plateau(xs, ys)
        np.testing.assert_array_equal(kept_x, xs)

    def test_boundary_point_counts_as_plateau(self):
        xs = [1e-4, 1e-3, 1e-2]
        ys = [2.0e-3, 1.0e-3, 5e-2]
        kept_x, _ = exclude_plateau(xs, ys)
        np.testing.assert_array_equal(kept_x, [1e-3, 1e-2])

    def test_unsorted_input(self):
        xs = [1e-2, 1e-4, 1e-1, 1e-3]
        ys = [4.6e-2, 5.1e-3, 3.4e-1, 4.3e-3]
        kept_x, kept_y = exclude_plateau(xs, ys)
        np.testing.assert_array_equal(kept_x, [1e-2, 1e-1, 1e-3])
        np.testing.assert_array_equal(kept_y, [4.6e-2, 3.4e-1, 4.3e-3])

