#!/usr/bin/env python3
"""Build ecopatch from source and run one benchmark workload.

    python3 perfbench/run.py --workload warm_sessions --seed 1 --seconds 20 --trace 0

Run from the repository root. The repository is built with its own CMake
project (targets ecopatch and ecopatchd) and the load generator with
perfbench/CMakeLists.txt, both under .bench_build/.
Build output goes to stderr, so the last line of stdout is the load
generator's JSON result. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_sessions", "fresh_sessions", "table1_sweep")
RUN_TIMEOUT_S = 170


def build(build_dir):
    repo_build = os.path.join(build_dir, "ecopatch")
    bench_build = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", repo_build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", repo_build, "-j", jobs, "--target", "ecopatch", "ecopatchd"],
        ["cmake", "-S", HERE, "-B", bench_build, "-DCMAKE_BUILD_TYPE=Release",
         "-DECOPATCH_BUILD_DIR=" + repo_build],
        ["cmake", "--build", bench_build, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None, None
    return (os.path.join(repo_build, "tools", "ecopatchd"),
            os.path.join(bench_build, "perfbench"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "ecopatchd.cpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print("perfbench: %s missing; run from a full checkout" % needed, file=sys.stderr)
            return 2

    os.chdir(ROOT)  # the load generator uses paths relative to the root
    daemon, loadgen = build(os.path.abspath(".bench_build"))
    if loadgen is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon, "--run-dir", ".bench_run"]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The daemon dies with the load generator (PR_SET_PDEATHSIG).
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
