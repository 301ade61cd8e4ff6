#!/usr/bin/env python3
"""Adds one trajectory point to bench/trajectory.json.

    python3 bench/record.py --label "seed commit" [--seeds 1-10]

For each workload it runs bench/run.py once per seed with tracing off and
once with tracing on, and records per end-to-end metric the median,
quartiles, spread (interquartile range over median) and values of the runs, the
traced per-layer metrics, the op mix of a cycle, and the machine.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

TRAJECTORY = BENCH / "trajectory.json"


def bench_run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": values}


def machine() -> dict:
    import numpy
    import scipy

    model = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    point = {"label": args.label, "date": time.strftime("%Y-%m-%d"), "machine": machine(),
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in inputs.WORKLOADS:
        runs = [bench_run(workload, seed, 0, seconds) for seed in args.seeds]
        traced = bench_run(workload, args.seeds[0], 1, seconds)
        mix = collections.Counter(rec["label"] for rec in inputs.generate(workload, args.seeds[0]))
        point["workloads"][workload] = {
            "loop": "closed",
            "clients": 1,
            "cycle": dict(mix),
            "latency": "Harrell-Davis estimates over all samples",
            "tail_percentile": run.TAIL[workload],
            "setup_samples_per_run": run.SETUP_PROBES + run.WORKERS,
            "blas_threads": 1,
            "ops_per_run": summary([r["attempted"] for r in runs]),
            "failed": sum(r["failed"] for r in runs),
            "wall_s_per_run": summary([r["wall_s"] for r in runs]),
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in runs]) for name, _ in run.END_TO_END
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(workload, json.dumps(point["workloads"][workload]["end_to_end"]), flush=True)
    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    TRAJECTORY.write_text(json.dumps(points + [point], indent=1) + "\n")


if __name__ == "__main__":
    main()
