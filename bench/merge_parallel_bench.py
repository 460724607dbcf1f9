#!/usr/bin/env python3
"""Merge Google Benchmark JSON reports from the thread-count sweeps into a
single BENCH_parallel.json with per-op speedups relative to 1 thread.

Usage: merge_parallel_bench.py report1.json [report2.json ...] -o OUT.json
"""

import argparse
import json
import sys

# Google Benchmark reports real_time and cpu_time in the benchmark's
# time_unit (nanoseconds when the field is absent).
NS_PER_UNIT = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(value, unit):
    if value is None:
        return None
    if unit not in NS_PER_UNIT:
        raise ValueError(f"unknown time_unit {unit!r}")
    return value * NS_PER_UNIT[unit]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("reports", nargs="+")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()

    results = []
    context = {}
    for path in args.reports:
        with open(path) as f:
            data = json.load(f)
        context = data.get("context", context)
        for b in data.get("benchmarks", []):
            name = b.get("name", "")
            if "Threads/" not in name or b.get("run_type") == "aggregate":
                continue
            op, _, threads = name.rpartition("/")
            try:
                threads = int(threads)
            except ValueError:
                continue
            unit = b.get("time_unit", "ns")
            record = {
                "op": op,
                "threads": threads,
                "real_time_ns": to_ns(b.get("real_time"), unit),
                "cpu_time_ns": to_ns(b.get("cpu_time"), unit),
                "items_per_second": b.get("items_per_second"),
            }
            # Benchmarks instrumented with a KernelObserver (bench_sort)
            # emit extra counters: per-iteration kernel-telemetry deltas
            # ("telemetry.<field>" — which physical path the op took) and a
            # cumulative log2 latency histogram ("lat_us.le_<bound>", plus
            # count/sum). Fold them into structured sub-objects.
            telemetry = {
                key[len("telemetry."):]: value
                for key, value in b.items()
                if key.startswith("telemetry.")
            }
            if telemetry:
                record["telemetry"] = dict(sorted(telemetry.items()))
            latency = {
                key[len("lat_us."):]: value
                for key, value in b.items()
                if key.startswith("lat_us.")
            }
            if latency:
                record["latency_hist_us"] = dict(sorted(latency.items()))
            results.append(record)

    speedups = {}
    by_op = {}
    for r in results:
        by_op.setdefault(r["op"], {})[r["threads"]] = r["real_time_ns"]
    for op, times in sorted(by_op.items()):
        base = times.get(1)
        if not base:
            continue
        speedups[op] = {
            str(t): round(base / times[t], 3)
            for t in sorted(times)
            if times[t]
        }

    out = {
        "description": "Thread-count sweep over the morsel-parallel GDK "
                       "kernels and tiling engines (1/2/4/N threads; "
                       "speedup is real time at 1 thread divided by real "
                       "time at N threads). Instrumented ops also carry "
                       "per-iteration kernel-telemetry deltas (the chosen "
                       "physical path) and a log2 latency histogram.",
        "host": {
            "num_cpus": context.get("num_cpus"),
            "date": context.get("date"),
        },
        "results": results,
        "speedups": speedups,
    }
    with open(args.output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {args.output}: {len(results)} sweep points, "
          f"{len(speedups)} ops", file=sys.stderr)


if __name__ == "__main__":
    main()
