#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the program's layer libraries and
the perfbench program from source into .bench_build/ (an incremental no-op
after the first run), then runs one workload.  The program's last stdout
line is the JSON result; build output goes to stderr.  Spans of a traced
run are written to .bench_build/traces/.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own unit tests instead.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fleet_saturate", "fleet_wire", "node_monitor")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "host", "reconstruction_fabric.hpp")):
        sys.exit("perfbench: no program sources next to perfbench/; run from a repository checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-dir", trace_dir]
    try:
        # run() kills the child on timeout and waits for it to exit.
        sys.exit(subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
