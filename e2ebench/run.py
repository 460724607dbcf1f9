#!/usr/bin/env python3
"""Build and run the SciQL end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload cell_oltp --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ (Release) into
.bench_build/e2ebench; later calls only rebuild what changed. Each workload
runs in a fresh process. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The exit code is 0 only
when every operation succeeded and every oracle agreed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD, "sciql_e2ebench")
WORKLOADS = ("array_pipeline", "cell_oltp", "shared_ingest")
# Layer boundaries every traced run must cross: a wrapper that is no longer
# called (its boundary inlined or bypassed) shows as 0 here.
TRACED_BOUNDARIES = ("engine.stmts_traced", "sql.parse_us_per_stmt",
                     "engine.compile_us_per_stmt", "mal.optimize_us_per_stmt",
                     "engine.execute_us_per_stmt", "mal.run_us_per_stmt")


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no engine sources at %s/src; run from a full checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the run record.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_binary(args):
    os.makedirs(WORK, exist_ok=True)
    # The binary fixes its own malloc settings (see main.cc); the caller's
    # environment must not change them.
    env = {k: v for k, v in os.environ.items()
           if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    try:
        proc = subprocess.run([BINARY] + args + ["--work-dir", WORK],
                              stdout=subprocess.PIPE, text=True, timeout=170,
                              env=env)
    except subprocess.TimeoutExpired:
        fail("benchmark process did not finish within 170 s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def expected_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def selftest():
    """Oracles reject wrong answers; every workload, at smoke sizes, is
    correct and prints exactly the metrics BENCHMARK.json lists, and every
    traced run crosses each timed layer boundary."""
    code, _ = run_binary(["--selftest"])
    ok = code == 0
    e2e_names, layer_names = expected_names()
    for workload in WORKLOADS:
        for trace, names in (("0", e2e_names), ("1", layer_names)):
            code, out = run_binary(["--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", trace,
                                    "--smoke"])
            result = json.loads(out.strip().splitlines()[-1])
            got = list(result["metrics"])
            good = (code == 0 and result["correct"] and got == names)
            if got != names:
                print("%s trace %s: metrics differ from BENCHMARK.json: "
                      "missing %s, extra %s" % (
                          workload, trace, sorted(set(names) - set(got)),
                          sorted(set(got) - set(names))))
            if trace == "1":
                unmeasured = [m for m in TRACED_BOUNDARIES
                              if not result["metrics"].get(m, {}).get(
                                  "value", 0) > 0]
                if unmeasured:
                    print("%s trace 1: no time at %s" % (
                        workload, ", ".join(unmeasured)))
                    good = False
            print("selftest %s trace=%s: %s" % (
                workload, trace, "ok" if good else "FAILED"))
            ok = ok and good
    print("selftest: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    build()
    if a.selftest:
        return selftest()
    code, _ = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", a.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
