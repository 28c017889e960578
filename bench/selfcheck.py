"""Reduced-size self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload at the small size (``--size small``, about a second of
work each) and checks three things:

1. untraced and traced, the last line has exactly the keys ``correct``,
   ``attempted``, ``failed`` and ``metrics``; every metric that
   BENCHMARK.json names prints with its unit; and the gate passes;
2. against a reference with one perturbed value (R1 of a sweep's first row
   plus one, the online E_max times ten) the gate fails;
3. in a directory that holds only BENCHMARK.json and the benchmark's files,
   run.py exits with a non-zero code and prints no result.

Exits with code 1 when any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from suite import BENCH, ROOT, WORKLOADS, run_one

WORK = ROOT / ".bench_work"
SECONDS = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        want = {m["name"]: m["unit"] for m in group}
        for workload in WORKLOADS:
            run = run_one(workload, 1, SECONDS, trace, ["--size", "small"])
            where = f"{workload} trace {trace}"
            if run["exit"] != 0:
                problems.append(f"{where}: exit {run['exit']}: {run['stderr']}")
                continue
            result = run["result"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units {got} != {want}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: gate failed: {run['report']['failures']}")

    reference = json.loads((BENCH / "reference.json").read_text())
    small = reference["small"]
    for name in ("heat-eps-sweep", "advdiff-sweep"):
        small[name]["rows"][0]["R1"] += 1
    small["heat-online"]["E_max"] *= 10
    WORK.mkdir(exist_ok=True)
    perturbed = WORK / "reference-perturbed.json"
    perturbed.write_text(json.dumps(reference))
    for workload in WORKLOADS:
        run = run_one(workload, 1, SECONDS, 0, ["--size", "small", "--reference", str(perturbed)])
        if run["exit"] != 0 or run["result"]["correct"] or not run["result"]["failed"]:
            problems.append(f"{workload}: a perturbed reference did not trip the gate")

    bare = WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
