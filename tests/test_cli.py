"""Command-line interface: full pipeline and error paths."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import lrtdrom.study as study_module
from lrtdrom import (
    assemble_mass,
    cli,
    frobenius_tolerance,
    generate_snapshots,
    load_config,
    load_tensor,
    load_tt,
    tt_svd,
)
from lrtdrom.cli import _load_meta, main


CONFIG = {
    "problem": {"kind": "heat"},
    "mesh": {"h": 0.5},
    "time": {"N": 10},
    "grid": {"K": [3, 3]},
    "rom": {"ell": [4]},
    "interpolation": {"p": 2},
    "test_set": {"mode": "explicit", "points": [[0.2, 0.3]]},
    "sweep": {"variable": "eps", "values": [1e-1, 1e-2, 1e-3]},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return path


def test_snapshot_compress_rom_slopes_pipeline(tmp_path, config_path, capsys):
    work = tmp_path / "work"
    assert main(["snapshots", "--config", str(config_path), "--out", str(work)]) == 0
    tensor = load_tensor(work / "snapshots.lrt")
    assert tensor.shape[2:] == (3, 3)
    meta = json.loads((work / "meta.json").read_text(encoding="utf-8"))
    assert meta["problem"] == {"kind": "heat"} and meta["time"]["N"] == 10

    assert main(["compress", "--eps", "1e-3", "--dir", str(work)]) == 0
    tt = load_tt(work / "tt_eps0.001.lrtt")
    assert tt.order == 4
    report = json.loads((work / "tt_eps0.001.json").read_text(encoding="utf-8"))
    assert report["eps"] == 1e-3 and report["ranks"][0] == tt.ranks[0]

    assert main(["rom", "--alpha", "0.2,0.3", "--ell", "4", "--dir", str(work)]) == 0
    saved = np.load(work / "rom_0.2_0.3.npz")
    assert saved["coefficients"].shape == (4, 10)
    assert saved["basis"].shape[1] == 4

    out = tmp_path / "study_out"
    assert main(["study", "--config", str(config_path), "--out", str(out)]) == 0
    csv = out / "results.csv"
    assert csv.exists() and (out / "summary.json").exists()

    capsys.readouterr()
    rc = main(
        ["slopes", "--csv", str(csv), "--var", "eps", "--floor-factor", "0"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "slope=" in printed and "r2=" in printed


def test_compress_without_snapshots_fails(compressed, tmp_path, capsys):
    capsys.readouterr()
    rc = main(["compress", "--eps", "1e-2", "--dir", str(tmp_path)])
    assert rc == 1
    assert "meta.json" in capsys.readouterr().err
    # A meta.json alone, as if the tensor had been deleted.
    shutil.copy(compressed / "meta.json", tmp_path)
    rc = main(["compress", "--eps", "1e-2", "--dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: no snapshots.lrt in {tmp_path}")
    (tmp_path / "snapshots.lrt").mkdir()  # there, but not a readable file
    rc = main(["compress", "--eps", "1e-2", "--dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot read ")


def test_compress_crafted_tensor_header_fails(compressed, tmp_path, capsys):
    # A header claiming 65535 x 65535 doubles (32 GiB) over 16 doubles of
    # payload is a format error, not an allocation attempt.
    shutil.copy(compressed / "meta.json", tmp_path)
    header = np.array([2, 65535, 65535], dtype="<u4").tobytes()
    (tmp_path / "snapshots.lrt").write_bytes(b"LRT1" + header + np.zeros(16).tobytes())
    capsys.readouterr()
    rc = main(["compress", "--eps", "1e-2", "--dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated" in err


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"problem": ', "cannot read"),
        (
            '{"mesh": {"h": 0.5}}',
            "missing required key 'problem' in config root; rerun `lrtdrom snapshots`",
        ),
        (json.dumps(CONFIG | {"problem": {"kind": "plate"}}), "unknown problem.kind 'plate'"),
    ],
    ids=["not-json", "no-kind", "unknown-kind"],
)
def test_malformed_meta_reports_error(compressed, tmp_path, capsys, content, message):
    shutil.copy(compressed / "snapshots.lrt", tmp_path)
    (tmp_path / "meta.json").write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert main(["compress", "--eps", "1e-2", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_bad_config_reports_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    bad = dict(CONFIG, bogus=1)
    path.write_text(json.dumps(bad), encoding="utf-8")
    rc = main(["study", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes",
    [
        {"mesh": 5},
        {"output": {"dir": None}},
        {
            "grid": None,
            "compression": {"eps": [1e-3]},
            "sweep": {"variable": "delta", "values": [0.25, 1e-320]},
        },
        {"test_set": {"mode": "explicit", "points": [[0.2, 0.3], [0.1]]}},
        {"test_set": {"mode": "random", "count": 2, "seed": -1}},
    ],
    ids=["non-object-block", "null-output-dir", "over-fine-delta", "ragged-explicit-points",
         "negative-seed"],
)
def test_malformed_study_config_reports_error(tmp_path, capsys, changes):
    path = tmp_path / "study.json"
    data = {key: value for key, value in (CONFIG | changes).items() if value is not None}
    path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    rc = main(["study", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", [None, '{"problem": '], ids=["missing", "not-json"])
def test_unreadable_config_reports_error(tmp_path, capsys, content):
    path = tmp_path / "study.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    rc = main(["study", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {path}")


def test_unparseable_memory_budget_reports_error(
    tmp_path, config_path, capsys, monkeypatch
):
    monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "abc")
    rc = main(["study", "--config", str(config_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LRTDROM_MEM_BUDGET_GB") and "'abc'" in err
    assert not (tmp_path / "o" / "results.csv").exists()


def test_study_over_budget_test_trajectories_reports_error(tmp_path, capsys, monkeypatch):
    # 3000 random test trajectories (M=186, 10 steps) need 42.6 MiB, over
    # a 5 MiB budget that holds every compression of the study.
    path = tmp_path / "study.json"
    data = CONFIG | {"test_set": {"mode": "random", "count": 3000, "seed": 0}}
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "0.005")
    capsys.readouterr()
    rc = main(["study", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "test trajectories" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_snapshots_over_budget_tensor_reports_error(tmp_path, capsys, monkeypatch):
    # 1000 steps on the 3x3 grid (M=186) make a 12.8 MiB tensor, over a
    # 1 MiB budget that holds the mesh.
    path = tmp_path / "study.json"
    path.write_text(json.dumps(CONFIG | {"time": {"N": 1000}}), encoding="utf-8")
    monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "0.001")
    capsys.readouterr()
    rc = main(["snapshots", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: snapshot tensor needs ")
    assert not (tmp_path / "o").exists()


def test_study_huge_grid_test_set_reports_error(tmp_path, capsys):
    # 100000^2 midpoints would need 149 GiB to enumerate and 135 TiB of
    # trajectories; the budget check counts them without building them.
    path = tmp_path / "study.json"
    path.write_text(
        json.dumps(CONFIG | {"test_set": {"mode": "grid", "n": 100000}}), encoding="utf-8"
    )
    capsys.readouterr()
    rc = main(["study", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: test trajectories needs ") and "Traceback" not in err
    assert not (tmp_path / "o" / "results.csv").exists()


@pytest.mark.parametrize(
    "content, extra, message",
    [
        pytest.param(None, [], "cannot read", id="None-cannot read"),
        pytest.param("", [], "is empty", id="-is empty"),
        pytest.param(
            "sweep_var,value,eps,E_max\neps,0.1,0.1\n",
            [],
            "malformed row",
            id="sweep_var,value,eps,E_max\neps,0.1,0.1\n-malformed row",
        ),
        pytest.param(
            "eps,E_max\n1,1\n0.1,0.1\n0.01,0.01\n",
            ["--floor-factor", "nan"],
            "must be a finite",
            id="nan-floor-factor",
        ),
        pytest.param(
            "eps,delta_max,E_max\n0.1,0.5,0.3\n0.01,0.5,0.03\n0.001,0.5,0.003\n",
            ["--var", "delta"],
            "cannot fit a slope",
            id="constant-x",
        ),
    ],
)
def test_bad_slopes_csv_reports_error(tmp_path, capsys, content, extra, message):
    path = tmp_path / "results.csv"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    rc = main(["slopes", "--csv", str(path), "--var", "eps", *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# Criterion 6's ell sweep (heat, h 0.2, N 100, 9x9 grid, eps 1e-6, one BLAS
# thread). The ell-12 tail is clipped to 0.
ELL_SWEEP_CSV = """sweep_var,value,eps,delta_max,ell,lambda_tail,E_max,E_mean,R1,wall_s
ell,2,1e-06,0.0625,2,4.559e-3,0.6667,0.3,40,1.0
ell,4,1e-06,0.0625,4,2.039e-5,0.06308,0.03,40,1.0
ell,6,1e-06,0.0625,6,1.711e-7,0.02309,0.01,40,1.0
ell,8,1e-06,0.0625,8,5.929e-10,0.01520,0.01,40,1.0
ell,10,1e-06,0.0625,10,1.471e-12,0.01492,0.01,40,1.0
ell,12,1e-06,0.0625,12,0,0.01005,0.005,40,1.0
"""


def test_slopes_leaves_out_non_positive_rows_before_the_plateau_rule(tmp_path, capsys):
    # A zero tail would set the plateau floor and keep the ell-8 row: the
    # fit must read what acceptance criterion 6 reads on the same rows.
    path = tmp_path / "results.csv"
    path.write_text(ELL_SWEEP_CSV, encoding="utf-8")
    capsys.readouterr()
    assert main(["slopes", "--csv", str(path), "--var", "ell"]) == 0
    printed = capsys.readouterr().out
    assert "left out 1 of 6 rows with a non-positive lambda_tail or E_max" in printed
    assert "slope=0.3323 " in printed and "points=3/6" in printed


@pytest.fixture(scope="module")
def compressed(tmp_path_factory):
    """Snapshots and one compressed tensor of CONFIG, ready for `rom`."""
    work = tmp_path_factory.mktemp("compressed")
    config = work / "study.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert main(["snapshots", "--config", str(config), "--out", str(work)]) == 0
    assert main(["compress", "--eps", "1e-3", "--dir", str(work)]) == 0
    return work


def test_compress_report_bytes(compressed):
    # The report is the CompressionReport plus eps and error_bound, in the
    # key order and layout of the hand-listed schema it replaced.
    tensor = load_tensor(compressed / "snapshots.lrt")
    stored = _load_meta(compressed)
    eps_tilde = frobenius_tolerance(1e-3, tensor, assemble_mass(stored.mesh), stored.tg.dt)
    _, report = tt_svd(tensor, eps_tilde)
    listed = {
        "eps": 1e-3,
        "eps_tilde": report.eps_tilde,
        "tensor_norm": report.tensor_norm,
        "ranks": list(report.ranks),
        "discarded_energy": list(report.discarded_energy),
        "error_bound": report.error_bound,
    }
    written = (compressed / "tt_eps0.001.json").read_bytes()
    assert written == json.dumps(listed, indent=2).encode("utf-8")


@pytest.mark.parametrize(
    "alpha, ell, message",
    [
        ("0.2,x", "4", "--alpha must be comma-separated numbers"),
        ("0.2,0.3", "999", "basis size 999"),
        ("0.2,0.3,0.4", "4", "expected 2 parameters"),
    ],
)
def test_bad_rom_arguments_report_error(compressed, capsys, alpha, ell, message):
    capsys.readouterr()
    rc = main(["rom", "--alpha", alpha, "--ell", ell, "--dir", str(compressed)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_rom_train_selection(compressed, tmp_path, capsys):
    # One stored train needs no --eps; with two, --eps picks one.
    for name in ("meta.json", "tt_eps0.001.lrtt"):
        shutil.copy(compressed / name, tmp_path)
    shutil.copy(tmp_path / "tt_eps0.001.lrtt", tmp_path / "tt_eps0.01.lrtt")
    rom = ["rom", "--alpha", "0.2,0.3", "--ell", "4", "--dir", str(tmp_path)]
    capsys.readouterr()
    assert main(rom) == 1
    assert capsys.readouterr().err == (
        f"error: 2 compressed tensors in {tmp_path}; pass --eps to pick one\n"
    )
    assert main([*rom, "--eps", "1e-5"]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'tt_eps1e-05.lrtt'} not found; "
        "run `lrtdrom compress --eps 1e-05`\n"
    )
    assert main([*rom, "--eps", "1e-2"]) == 0


def test_nearly_equal_tolerances_keep_their_own_trains(
    compressed, tmp_path, monkeypatch, capsys
):
    # 0.01 and 0.0100000004 print alike with six significant digits. Each
    # gets its own train and report, and `rom --eps` reads the one it names.
    for name in ("meta.json", "snapshots.lrt"):
        shutil.copy(compressed / name, tmp_path)
    tolerances = ("0.01", "0.0100000004")
    for eps in tolerances:
        assert main(["compress", "--eps", eps, "--dir", str(tmp_path)]) == 0
    for eps in tolerances:
        report = json.loads((tmp_path / f"tt_eps{eps}.json").read_text(encoding="utf-8"))
        assert report["eps"] == float(eps)
    assert len(list(tmp_path.glob("tt_eps*.lrtt"))) == 2
    loaded = []
    monkeypatch.setattr(cli, "load_tt", lambda path: loaded.append(path.name) or load_tt(path))
    rom = ["rom", "--alpha", "0.2,0.3", "--ell", "4", "--dir", str(tmp_path)]
    for eps in tolerances:
        assert main([*rom, "--eps", eps]) == 0
    assert loaded == [f"tt_eps{eps}.lrtt" for eps in tolerances]


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("rom", {"interpolation": {"p": 9}}, "interpolation.p 9 exceeds axis node count 3"),
        ("rom", {"grid": {"K": [3, 1]}}, "grid.K entries must be at least 2"),
        ("rom", {"grid": {"K": 5}}, "grid.K must list 2 per-dimension counts"),
        ("rom", {"time": {"N": 0}}, "time.N must be at least 1"),
        ("compress", {"time": {"N": 0}}, "time.N must be at least 1"),
        ("rom", {"time": {"N": 10.7}}, "time.N must be an integer"),
        ("compress", {"time": {"N": 10.7}}, "time.N must be an integer"),
        ("rom", {"interpolation": {"p": 2.9}}, "interpolation.p must be an integer"),
        ("rom", {"interpolation": {"p": True}}, "interpolation.p must be an integer"),
        ("rom", {"mesh": {"h": float("inf")}}, "mesh.h must be a finite number"),
        ("compress", {"time": {"N": 10, "T": float("inf")}}, "time.T must be a finite number"),
        ("compress", {"time": {"N": 10, "T": float("nan")}}, "time.T must be a finite number"),
        (
            "compress",
            {"problem": {"kind": "advdiff", "nu": float("inf")}},
            "problem.nu must be a finite number",
        ),
        # The stored tensors are heat at h 0.5, N 10 on a 3x3 grid.
        (
            "compress",
            {"mesh": {"h": 0.25}},
            "(186, 10, 3, 3), but meta.json describes (670, 10, 3, 3)",
        ),
        ("rom", {"mesh": {"h": 0.25}}, "(186, 10, 3, 3), but meta.json describes (670, 10, 3, 3)"),
        (
            "compress",
            {"time": {"N": 20}},
            "(186, 10, 3, 3), but meta.json describes (186, 20, 3, 3)",
        ),
        ("rom", {"time": {"N": 20}}, "(186, 10, 3, 3), but meta.json describes (186, 20, 3, 3)"),
        (
            "compress",
            {"grid": {"K": [2, 3]}},
            "(186, 10, 3, 3), but meta.json describes (186, 10, 2, 3)",
        ),
        ("rom", {"grid": {"K": [2, 3]}}, "(186, 10, 3, 3), but meta.json describes (186, 10, 2, 3)"),
    ],
    ids=["rom-p-too-large", "rom-K-too-small", "rom-K-not-a-list",
         "rom-no-steps", "compress-no-steps", "rom-fractional-N",
         "compress-fractional-N", "rom-fractional-p", "rom-boolean-p", "rom-infinite-h",
         "compress-infinite-T", "compress-nan-T", "compress-infinite-nu",
         "compress-h-disagrees", "rom-h-disagrees", "compress-N-disagrees",
         "rom-N-disagrees", "compress-axes-disagree", "rom-axes-disagree"],
)
def test_bad_meta_values_report_error(
    compressed, tmp_path, capsys, command, change, message
):
    for name in ("snapshots.lrt", "tt_eps0.001.lrtt"):
        shutil.copy(compressed / name, tmp_path)
    meta = json.loads((compressed / "meta.json").read_text(encoding="utf-8"))
    (tmp_path / "meta.json").write_text(json.dumps({**meta, **change}), encoding="utf-8")
    args = {"rom": ["--alpha", "0.2,0.3", "--ell", "4"], "compress": ["--eps", "1e-2"]}
    capsys.readouterr()
    assert main([command, *args[command], "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.glob("rom_*")) and not (tmp_path / "tt_eps0.01.lrtt").exists()


@pytest.mark.parametrize(
    "problem",
    [{"kind": "heat"}, {"kind": "advdiff", "nu": 0.05}],
    ids=["heat", "advdiff-nu"],
)
def test_meta_round_trips_the_problem(tmp_path, problem):
    config, alpha = dict(CONFIG, problem=problem), "0.2,0.3"
    if problem["kind"] == "advdiff":
        config.update(
            mesh={"h": 0.25},
            grid={"K": [2] * 5},
            test_set={"mode": "explicit", "points": [[0.05] * 5]},
        )
        alpha = ",".join(["0.05"] * 5)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    work = tmp_path / "work"
    assert main(["snapshots", "--config", str(path), "--out", str(work)]) == 0
    meta = json.loads((work / "meta.json").read_text(encoding="utf-8"))
    assert meta["problem"] == problem
    assert _load_meta(work).problem == load_config(path).problem
    assert main(["compress", "--eps", "1e-3", "--dir", str(work)]) == 0
    assert main(["rom", "--alpha", alpha, "--ell", "2", "--dir", str(work)]) == 0


def test_meta_is_the_config_and_rebuilds_the_sampled_axes(tmp_path, config_path, monkeypatch):
    sampled = []

    def recording(problem, mesh, tg, grid):
        sampled.append(grid.axes)
        return generate_snapshots(problem, mesh, tg, grid)

    monkeypatch.setattr(cli, "generate_snapshots", recording)
    work = tmp_path / "work"
    assert main(["snapshots", "--config", str(config_path), "--out", str(work)]) == 0
    assert (work / "meta.json").read_bytes() == config_path.read_bytes()
    [axes] = sampled
    stored = _load_meta(work).scheme.grid.axes
    assert [a.tobytes() for a in stored] == [a.tobytes() for a in axes]


# meta.json as snapshot directories held it before it was the study config.
OLD_META = {
    "problem": {"kind": "heat"}, "h": 0.5, "cell": 0.5, "M": 186, "T": 1.0, "N": 10,
    "p": 2, "axes": [[0.01, 0.255, 0.5], [0.0, 0.45, 0.9]],
}


@pytest.mark.parametrize(
    "command, meta, message",
    [
        ("compress", OLD_META, "unknown keys ['M', 'N', 'T', 'axes', 'cell', 'h', 'p']"),
        ("rom", OLD_META, "unknown keys ['M', 'N', 'T', 'axes', 'cell', 'h', 'p']"),
        (
            "rom",
            {k: v for k, v in CONFIG.items() if k != "grid"}
            | {"compression": {"eps": [1e-3]}, "rom": {"ell": [4]},
               "sweep": {"variable": "delta", "values": [0.25]}},
            "a delta sweep samples no single grid; give a grid block",
        ),
    ],
    ids=["compress-old-format", "rom-old-format", "rom-delta-sweep"],
)
def test_meta_that_is_not_a_grid_config_asks_for_a_rerun(
    compressed, tmp_path, capsys, command, meta, message
):
    for name in ("snapshots.lrt", "tt_eps0.001.lrtt"):
        shutil.copy(compressed / name, tmp_path)
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    args = {"rom": ["--alpha", "0.2,0.3", "--ell", "4"], "compress": ["--eps", "1e-2"]}
    capsys.readouterr()
    assert main([command, *args[command], "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'meta.json'}: ") and message in err
    assert err.rstrip().endswith("rerun `lrtdrom snapshots`")
    assert not list(tmp_path.glob("rom_*")) and not (tmp_path / "tt_eps0.01.lrtt").exists()


def test_unreadable_compressed_tensor_reports_error(compressed, tmp_path, capsys):
    shutil.copy(compressed / "meta.json", tmp_path)
    (tmp_path / "tt_eps0.001.lrtt").mkdir()  # there, but not a readable file
    capsys.readouterr()
    rc = main(["rom", "--alpha", "0.2,0.3", "--ell", "4", "--dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot read ")


@pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
def test_bad_compress_tolerance_reports_error(compressed, capsys, eps):
    capsys.readouterr()
    assert main(["compress", "--eps", eps, "--dir", str(compressed)]) == 1
    assert "--eps must be a non-negative number" in capsys.readouterr().err
    written = sorted(p.name for p in compressed.glob("tt_eps*"))
    assert written == ["tt_eps0.001.json", "tt_eps0.001.lrtt"]


def test_compress_over_budget_reports_error(compressed, capsys, monkeypatch):
    # 0.3 MiB holds the 0.13 MiB tensor (M=186, 10 steps, 3x3 grid) but not
    # the SVD workspace next to it (0.7 MiB in all). The check needs only
    # the shape meta.json describes, so the tensor is never read.
    def load_tensor(path):
        raise AssertionError("snapshots read before the budget check")

    monkeypatch.setattr(cli, "load_tensor", load_tensor)
    monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "3e-4")
    capsys.readouterr()
    assert main(["compress", "--eps", "1e-2", "--dir", str(compressed)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "first-unfolding SVD" in err
    assert not (compressed / "tt_eps0.01.lrtt").exists()


@pytest.mark.parametrize(
    "command, name, what",
    [
        (["compress", "--eps", "1e-2"], "snapshots.lrt", "payload"),
        (["rom", "--alpha", "0.2,0.3", "--ell", "4"], "tt_eps0.001.lrtt", "core 3"),
    ],
    ids=["lrt", "lrtt"],
)
def test_non_finite_stored_file_reports_error(
    compressed, tmp_path, capsys, command, name, what
):
    for path in compressed.iterdir():
        shutil.copy(path, tmp_path)
    stored = tmp_path / name
    raw = bytearray(stored.read_bytes())
    raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    stored.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main([*command, "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: non-finite value in {what}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["snapshots", "study"])
def test_tiny_mesh_size_reports_error(tmp_path, capsys, command):
    # At 3e-308 and below, width / h overflows to inf.
    path = tmp_path / "study.json"
    for h in (1e-5, 3e-308, 5e-324):
        path.write_text(json.dumps(CONFIG | {"mesh": {"h": h}}), encoding="utf-8")
        capsys.readouterr()
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mesh needs ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["snapshots", "study"])
def test_output_path_that_is_a_file_reports_error(tmp_path, config_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


def test_fom_cache_path_that_is_a_file_reports_error(
    tmp_path, config_path, capsys, monkeypatch
):
    # The cache is made before any compression, so the study fails first.
    built = []
    monkeypatch.setattr(study_module, "generate_snapshots", lambda *a: built.append(a))
    out = tmp_path / "o"
    out.mkdir()
    (out / "fom_cache").write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["study", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fom_cache" in err and "Traceback" not in err
    assert built == []


def test_compress_report_path_that_is_a_directory_reports_error(
    compressed, tmp_path, capsys
):
    for name in ("meta.json", "snapshots.lrt"):
        shutil.copy(compressed / name, tmp_path)
    (tmp_path / "tt_eps0.01.json").mkdir()
    capsys.readouterr()
    assert main(["compress", "--eps", "1e-2", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tt_eps0.01.json" in err and "Traceback" not in err


def test_study_writes_to_the_config_output_dir(tmp_path):
    out = tmp_path / "from_config"
    path = tmp_path / "study.json"
    path.write_text(json.dumps(CONFIG | {"output": {"dir": str(out)}}), encoding="utf-8")
    assert main(["study", "--config", str(path)]) == 0
    assert (out / "results.csv").exists() and (out / "summary.json").exists()


def test_study_without_output_dir_reports_error(tmp_path, config_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["study", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no output directory given") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.json"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 2


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["rom", "--alpha", "0.2,0.3"])
    assert excinfo.value.code == 2
