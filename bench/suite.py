"""Run the benchmark's workloads, each in its own process, and tabulate them.

    python3 bench/suite.py                    # every workload once, end-to-end metrics
    python3 bench/suite.py --trace 1          # the traced run: per-layer metrics
    python3 bench/suite.py --seeds 1-10 --record bench/results/untraced.json

For every workload it prints each metric by name with its unit, the
correctness gate's verdict and the fail ratio (failed / attempted). With more
than one seed it prints the median, the quartiles and the spread (distance
between the quartiles as a share of the median) next to the metric's bound
from BENCHMARK.json. ``--record`` writes every run's raw output to a JSON
file. The exit code is 1 when any run fails or its gate does not pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("heat-eps-sweep", "heat-online", "advdiff-sweep")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int, extra: list[str]) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("report "):
        return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    return {"workload": workload, "seed": seed, "trace": trace, "exit": 0,
            "report": json.loads(lines[-2][len("report "):]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def tabulate(runs: list[dict], bounds: dict[str, float]) -> bool:
    ok = True
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        good = [r for r in mine if r["exit"] == 0]
        attempted = sum(r["result"]["attempted"] for r in good)
        failed = sum(r["result"]["failed"] for r in good)
        correct = len(good) == len(mine) and all(r["result"]["correct"] for r in good)
        ok &= correct
        ratio = failed / attempted if attempted else float("nan")
        print(f"\n{workload}: {len(mine)} run(s), correct={correct}, "
              f"fail_ratio={ratio:.4g} ({failed}/{attempted})")
        for r in mine:
            if r["exit"] != 0:
                print(f"  seed {r['seed']}: exit {r['exit']}\n{r['stderr']}")
            elif r["report"]["failures"]:
                print(f"  seed {r['seed']}: " + "; ".join(r["report"]["failures"]))
        if not good:
            continue
        env = good[0]["report"]["env"]
        print(f"  env: {json.dumps(env)}")
        samples = [r["report"].get("query_samples") for r in good]
        if samples[0] is not None:
            print(f"  query samples per run: {samples}")
        columns = [
            (name, entry["unit"], [r["result"]["metrics"][name]["value"] for r in good])
            for name, entry in good[0]["result"]["metrics"].items()
        ]
        if "query_p99_ms" in good[0]["report"]:
            columns.append(("query_p99_ms", "ms", [r["report"]["query_p99_ms"] for r in good]))
        for name, unit, values in columns:
            med, q1, q3, sp = spread(values)
            line = f"  {name:34s} {med:14.6g} {unit:8s}"
            if len(values) > 1:
                line += f" q1 {q1:.6g} q3 {q3:.6g} spread {sp:.3f}"
                line += f" (bound {bounds[name]})" if name in bounds else " (not gated)"
            print(line)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="write every run's raw output here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in WORKLOADS:
            run = run_one(workload, seed, seconds, args.trace, [])
            status = run["result"]["correct"] if run["exit"] == 0 else f"exit {run['exit']}"
            print(f"{workload} seed {seed} trace {args.trace}: {status}", flush=True)
            runs.append(run)
    ok = tabulate(runs, bounds)
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        record = {"seconds": seconds, "trace": args.trace, "runs": runs}
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
