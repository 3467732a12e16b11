#!/usr/bin/env python3
"""Build and run the planner benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload replan_sync --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library sources under src/ together with the benchmark program.
It is configured and built in Release mode under $CARGO_TARGET_DIR (default
.bench_build) on first use.  The program's standard output is passed through:
its last line is the JSON result.  Span traces (--trace 1) and a full JSON
report of every run are written next to the build, under traces/ and
reports/.
"""

import argparse
import fcntl
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("replan_sync", "cold_tiers", "async_readers")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out, targets):
    """Configure (once) and build `targets`; build output goes to stderr."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "Makefile")):  # configured successfully
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                      "--target"] + targets)
        for step in steps:
            subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    out = build_dir()
    if args.self_test:
        build(out, ["perfbench_tests"])
        return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    build(out, ["perfbench"])

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("traces", "reports"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--report", os.path.join(out, "reports", name + ".json")]
    if args.trace:
        command += ["--trace-out", os.path.join(out, "traces", name + ".jsonl")]
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
