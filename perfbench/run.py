#!/usr/bin/env python3
"""Repository benchmark: build from this checkout's sources, run one workload.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads: cli_cold, serve_cold, serve_hot, search (see perfbench/metrics.json
for why each exists and which end-to-end metric each per-layer metric should
move). The maestro library and CLI are built from src/ and tools/ together
with the driver into .bench_build/perfbench (CMake, Release). Build output
goes to stderr; the last stdout line is the result object. The exit status is
nonzero when the build fails, the checkout lacks the sources, or any output
check or mechanism guard fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cli_cold", "serve_cold", "serve_hot", "search")
SOURCES = ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/maestro_cli.cpp")


def run_to_stderr(cmd):
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        sys.exit("perfbench: command failed: " + " ".join(cmd))


def build():
    for path in SOURCES:
        if not os.path.isfile(os.path.join(ROOT, path)):
            sys.exit("perfbench: %s is missing; run from a full checkout" % path)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_to_stderr(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_to_stderr(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                   "maestro_cli", "--parallel", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    driver = os.path.join(BUILD, "perfbench_driver")
    if args.self_test:
        os.execv(driver, [driver, "--self-test"])
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    os.execv(driver, [
        driver, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--maestro", os.path.join(BUILD, "maestro_tools", "maestro"),
        "--out-dir", out_dir,
    ])


if __name__ == "__main__":
    main()
