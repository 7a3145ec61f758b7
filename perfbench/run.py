#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload certify|bnb|stream|fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (a CMake project that compiles ../src in Release) under
.bench_build/; later calls rebuild incrementally.  Build output goes to
stderr; stdout carries the checked-out commit and the benchmark's report,
whose last line is the JSON result.  The exit status is the benchmark's:
nonzero when the build fails or any correctness check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("certify", "bnb", "stream", "fleet")


def build():
    """Configures (once) and builds perf_e2e; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perf_e2e",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "perf_e2e")


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    print("commit: " + commit())
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
           "--dir=" + scratch]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=170, check=False)
        code = done.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
