#!/usr/bin/env python3
"""Feeds bench/merge_parallel_bench.py a synthetic Google Benchmark report
whose sweep points use every time_unit, and checks that real_time_ns and
cpu_time_ns are nanoseconds and the speedups compare like with like.

Usage: merge_parallel_bench_test.py [path/to/merge_parallel_bench.py]
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SCRIPT = os.path.join(HERE, "..", "..", "bench",
                              "merge_parallel_bench.py")


def point(name, real, cpu, unit=None):
    b = {"name": name, "run_type": "iteration", "real_time": real,
         "cpu_time": cpu, "items_per_second": 1000.0}
    if unit is not None:
        b["time_unit"] = unit
    return b


def main():
    script = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_SCRIPT
    # One op swept at 1/2/4/8 threads, each point in a different unit: the
    # same 8 ms at 1 thread, then 4, 2 and 1 ms. A missing time_unit means
    # nanoseconds.
    report = {
        "context": {"num_cpus": 8, "date": "2026-01-01T00:00:00"},
        "benchmarks": [
            point("BM_Op/Threads/1", 8000000.0, 7900000.0),
            point("BM_Op/Threads/2", 4000.0, 3950.0, "us"),
            point("BM_Op/Threads/4", 2.0, 1.975, "ms"),
            point("BM_Op/Threads/8", 0.001, 0.0009875, "s"),
            # Aggregates and non-sweep benchmarks are skipped.
            dict(point("BM_Op/Threads/8", 5.0, 5.0, "ms"),
                 run_type="aggregate"),
            point("BM_Other/1024", 3.0, 3.0, "ms"),
        ],
    }
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "report.json")
        out = os.path.join(tmp, "merged.json")
        with open(src, "w") as f:
            json.dump(report, f)
        subprocess.run([sys.executable, script, src, "-o", out], check=True)
        with open(out) as f:
            merged = json.load(f)

        bad_unit = os.path.join(tmp, "bad.json")
        with open(bad_unit, "w") as f:
            json.dump({"benchmarks": [point("BM_Op/Threads/1", 1.0, 1.0,
                                            "min")]}, f)
        rejected = subprocess.run(
            [sys.executable, script, bad_unit, "-o",
             os.path.join(tmp, "never.json")],
            capture_output=True).returncode != 0

    failures = []
    real = {r["threads"]: r["real_time_ns"] for r in merged["results"]}
    cpu = {r["threads"]: r["cpu_time_ns"] for r in merged["results"]}
    want_real = {1: 8e6, 2: 4e6, 4: 2e6, 8: 1e6}
    want_cpu = {1: 7.9e6, 2: 3.95e6, 4: 1.975e6, 8: 0.9875e6}
    if len(merged["results"]) != 4:
        failures.append(f"expected 4 sweep points, got {merged['results']}")
    for t, want in want_real.items():
        if abs(real.get(t, 0) - want) > 1e-6 * want:
            failures.append(f"threads={t}: real_time_ns {real.get(t)} != {want}")
    for t, want in want_cpu.items():
        if abs(cpu.get(t, 0) - want) > 1e-6 * want:
            failures.append(f"threads={t}: cpu_time_ns {cpu.get(t)} != {want}")
    want_speedups = {"1": 1.0, "2": 2.0, "4": 4.0, "8": 8.0}
    if merged["speedups"].get("BM_Op/Threads") != want_speedups:
        failures.append(f"speedups {merged['speedups']} != {want_speedups}")
    if not rejected:
        failures.append("an unknown time_unit was accepted")

    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    if failures:
        return 1
    print("merge_parallel_bench: time units convert to nanoseconds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
