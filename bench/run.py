"""Run one workload of the lrtdrom benchmark and print its metrics.

    python3 bench/run.py --workload heat-eps-sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports lrtdrom from ``src/`` there
and exits with code 1 when the sources are missing. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, ``report {...}``, holds the
environment, the sample counts, the sweep rows and any gate failures.

``--trace 0`` measures the end-to-end metrics with nothing wrapped, apart
from one completion stamp per test point of a sweep. ``--trace 1`` wraps the
package's public functions (see ``tracing.py``), does a fixed amount of work
so that counts compare across runs, and reports the per-layer metrics; it
writes its spans to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
WORKLOADS = ("heat-eps-sweep", "heat-online", "advdiff-sweep")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workers: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workers": workers,
        "commit": git_commit(),
    }


def fresh_import_s() -> float:
    """Seconds for a new interpreter to start and import lrtdrom.

    The child stamps the end of its import on CLOCK_MONOTONIC, which is one
    clock for every process, so neither the wait for its exit nor its
    teardown counts.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import time, lrtdrom; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120,
        capture_output=True, text=True,
    )
    return float(proc.stdout.split()[-1]) - start


def load_reference(path: Path, size: str, name: str) -> tuple[dict, float]:
    with open(path, encoding="utf-8") as f:
        ref = json.load(f)
    return ref[size][name], float(ref["e_max_factor"])


def run_untraced(wl, args, gate, reference, factor, report) -> dict:
    import numpy as np

    from workloads import CompletionProbe, median, percentile

    samples, state = [], None
    for _ in range(wl.setup_reps):
        imported = fresh_import_s()
        state = None  # free the previous build before making the next
        start = time.perf_counter()
        state = wl.setup(args.seed)
        samples.append(imported + time.perf_counter() - start)
    report["setup_samples_s"] = samples
    report["workers"] = getattr(state, "workers", 1)

    t0 = time.perf_counter()
    times, latencies = [], []
    if wl.kind == "sweep":
        units = []
        with CompletionProbe() as probe:
            while not times or time.perf_counter() - t0 < args.seconds:
                seconds, rows, lat = wl.unit(state, probe)
                times.append(seconds)
                units.append(rows)
                latencies.extend(lat)
        e_max = wl.check(gate, units, reference, factor)
        report["rows"] = [_row(r) for r in units[0]]
    else:
        rng = np.random.default_rng(args.seed)
        while not times or time.perf_counter() - t0 < args.seconds:
            lat = wl.batch(state, rng, gate)
            times.append(sum(lat))
            latencies.extend(lat)
        e_max, tail = wl.check(gate, state, reference, factor)
        report["online"] = {"R1": state.train.ranks[0], "ell": state.ell, "lambda_tail": tail}
    report["unit_s"] = times
    report["query_samples"] = len(latencies)
    # Reported, not gated: a p99 of 63 points (a heat study) is its largest
    # value or two, and moved by more than 25% between runs of the same code.
    report["query_p99_ms"] = 1e3 * percentile(latencies, 0.99)
    return {
        "study_s": median(times),
        "setup_s": median(samples),
        "query_p50_ms": 1e3 * percentile(latencies, 0.50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "e_max": e_max,
    }


def run_traced(wl, args, gate, reference, factor, report) -> dict:
    import numpy as np

    from tracing import Tracer
    from workloads import median

    tracer = Tracer()
    with tracer.active():
        state = wl.setup(args.seed)
    report["workers"] = getattr(state, "workers", 1)
    untraced, traced = [], []
    if wl.kind == "sweep":
        units = []
        for _ in range(wl.trace_units):
            seconds, rows, _ = wl.unit(state)
            untraced.append(seconds)
            units.append(rows)
            with tracer.active():
                seconds, rows, _ = wl.unit(state)
            traced.append(seconds)
            units.append(rows)
        wl.check(gate, units, reference, factor)
        driver = "study.run_study"
    else:
        rng = np.random.default_rng(args.seed)
        for _ in range(wl.trace_units):
            untraced.append(sum(wl.batch(state, rng, gate)))
            with tracer.active(), tracer.span("driver.queries"):
                traced.append(sum(wl.batch(state, rng, gate)))
        with tracer.active():
            wl.check(gate, state, reference, factor)
        driver = "driver.queries"

    for rep in tracer.reports:
        budget = rep.eps_tilde * rep.tensor_norm
        gate.op(
            rep.error_bound <= budget,
            f"certificate: error_bound {rep.error_bound:.6g} > eps_tilde*|X|_F {budget:.6g}",
        )
    slack = min(
        (1.0 - rep.error_bound / (rep.eps_tilde * rep.tensor_norm) for rep in tracer.reports if rep.eps_tilde > 0),
        default=float("nan"),
    )
    windows = [(s.start, s.end) for s in tracer.spans if s.name == "driver.queries"]
    offline = sum(
        1
        for s in tracer.spans
        if s.name in ("tt.tt_svd", "tensors.generate_snapshots")
        and any(s.start < hi and s.end > lo for lo, hi in windows)
    )
    gate.op(offline == 0, f"{offline} offline spans inside the query phase")

    trace_file = WORK / "traces" / f"{wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    report["untraced_unit_s"] = untraced
    report["traced_unit_s"] = traced

    summary = tracer.summary()
    counts = tracer.counts

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    # Every BENCHMARK.json name ending in .calls or .s is read off its span.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for metric in (m["name"] for m in spec["per_layer"]):
        head, _, key = metric.rpartition(".")
        if key in ("calls", "s"):
            metrics[metric] = span(head, key)
    gflop = counts["tt.tt_svd.flop_computed"] / 1e9
    svd_s = span("tt.tt_svd", "s")
    metrics.update(
        {
            "fem.steps": counts["fem.steps"],
            "tensors.snapshot_bytes_computed": counts["tensors.snapshot_bytes_computed"],
            "tt.tt_svd.gflop_computed": gflop,
            "tt.tt_svd.gflops_per_s": gflop / svd_s if svd_s else 0.0,
            "tt.certificate_slack": slack,
            "study.fom_cache.hits": counts["study.fom_cache.hits"],
            "study.fom_cache.misses": counts["study.fom_cache.misses"],
            "driver.self_s": span(driver, "self_s"),
            "trace.overhead_s": median(traced) - median(untraced),
            "trace.spans": len(tracer.spans),
            "trace.offline_spans_in_queries": offline,
        }
    )
    return metrics


def _row(row) -> dict:
    return {
        "value": row.value,
        "R1": row.r1,
        "ell": row.ell,
        "E_max": row.e_max,
        "E_mean": row.e_mean,
        "lambda_tail": row.lambda_tail,
        "wall_s": row.wall_s,
        "error": row.error,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small is the reduced problem of selfcheck.py")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                        help="reference rows the correctness gate compares against")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, pinned before numpy loads; child processes inherit it.
    # With one client and one worker the process then runs on one core, and
    # a busy neighbour on another core cannot stall a BLAS call.
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "lrtdrom" / "__init__.py").is_file():
        print(f"run.py: no lrtdrom sources under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import lrtdrom

    if Path(lrtdrom.__file__).resolve().parent != (src / "lrtdrom").resolve():
        print(f"run.py: imported lrtdrom from {lrtdrom.__file__}, not {src}", file=sys.stderr)
        return 1

    from workloads import Gate, OnlineWorkload, SweepWorkload

    WORK.mkdir(exist_ok=True)
    if args.workload == "heat-online":
        wl = OnlineWorkload(args.size)
    else:
        wl = SweepWorkload(args.workload, args.size, WORK)
    reference, factor = load_reference(args.reference, args.size, args.workload)
    gate = Gate()
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size}
    run = run_traced if args.trace else run_untraced
    values = run(wl, args, gate, reference, factor, report)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    report["env"] = environment(report.pop("workers"))
    report["fail_ratio"] = gate.failed / gate.attempted
    report["failures"] = gate.failures[:20]
    print("report " + json.dumps(report))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
