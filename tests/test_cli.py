"""Command-line interface: full pipeline and error paths."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from lrtdrom import load_config, load_tensor, load_tt
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
    assert meta["problem"] == {"kind": "heat"} and meta["N"] == 10

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
        ('{"h": 0.5}', "lacks ['problem', 'T', 'N', 'p', 'axes']; rerun `lrtdrom snapshots`"),
        (
            '{"problem": {"kind": "plate"}, "h": 0.5, "T": 1.0, "N": 10, "p": 2, "axes": []}',
            "unknown problem.kind 'plate'",
        ),
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
    ],
    ids=["non-object-block", "null-output-dir", "over-fine-delta"],
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


@pytest.fixture(scope="module")
def compressed(tmp_path_factory):
    """Snapshots and one compressed tensor of CONFIG, ready for `rom`."""
    work = tmp_path_factory.mktemp("compressed")
    config = work / "study.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert main(["snapshots", "--config", str(config), "--out", str(work)]) == 0
    assert main(["compress", "--eps", "1e-3", "--dir", str(work)]) == 0
    return work


@pytest.mark.parametrize(
    "alpha, ell, message",
    [
        ("0.2,x", "4", "--alpha must be comma-separated numbers"),
        ("0.2,0.3", "999", "basis size 999"),
    ],
)
def test_bad_rom_arguments_report_error(compressed, capsys, alpha, ell, message):
    capsys.readouterr()
    rc = main(["rom", "--alpha", alpha, "--ell", ell, "--dir", str(compressed)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("rom", {"p": 9}, "stencil size 9 exceeds axis node count 3"),
        ("rom", {"axes": [[0.5, 0.2, 0.0], [0.0, 0.45, 0.9]]}, "strictly increasing"),
        ("rom", {"axes": 5}, "bad value"),
        ("rom", {"N": 0}, "N must be at least 1"),
        ("compress", {"N": 0}, "N must be at least 1"),
        ("rom", {"N": 10.7}, "N must be an integer"),
        ("compress", {"N": 10.7}, "N must be an integer"),
        ("rom", {"p": 2.9}, "p must be an integer"),
        ("rom", {"p": True}, "p must be an integer"),
        ("rom", {"h": float("inf")}, "h must be a finite number"),
        ("compress", {"T": float("inf")}, "T must be a finite number"),
        ("compress", {"T": float("nan")}, "T must be a finite number"),
        (
            "compress",
            {"problem": {"kind": "advdiff", "nu": float("inf")}},
            "problem.nu must be a finite number",
        ),
        # The stored tensors are heat at h 0.5, N 10 on a 3x3 grid.
        ("compress", {"h": 0.25}, "(186, 10, 3, 3), but meta.json describes (670, 10, 3, 3)"),
        ("rom", {"h": 0.25}, "(186, 10, 3, 3), but meta.json describes (670, 10, 3, 3)"),
        ("compress", {"N": 20}, "(186, 10, 3, 3), but meta.json describes (186, 20, 3, 3)"),
        ("rom", {"N": 20}, "(186, 10, 3, 3), but meta.json describes (186, 20, 3, 3)"),
        (
            "compress",
            {"axes": [[0.01, 0.501], [0.0, 0.45, 0.9]]},
            "(186, 10, 3, 3), but meta.json describes (186, 10, 2, 3)",
        ),
        (
            "rom",
            {"axes": [[0.01, 0.501], [0.0, 0.45, 0.9]]},
            "(186, 10, 3, 3), but meta.json describes (186, 10, 2, 3)",
        ),
    ],
    ids=["rom-p-too-large", "rom-decreasing-axis", "rom-axes-not-a-list",
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
        config.update(mesh={"h": 0.25}, grid={"K": [2] * 5})
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
    # 0.3 MiB holds the loaded 0.13 MiB tensor (M=186, 10 steps, 3x3 grid)
    # but not the SVD workspace next to it (0.7 MiB in all).
    monkeypatch.setenv("LRTDROM_MEM_BUDGET_GB", "3e-4")
    capsys.readouterr()
    assert main(["compress", "--eps", "1e-2", "--dir", str(compressed)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "first-unfolding SVD" in err
    assert not (compressed / "tt_eps0.01.lrtt").exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 2


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["rom", "--alpha", "0.2,0.3"])
    assert excinfo.value.code == 2
