#!/usr/bin/env python3
"""Builds hpcc_bench from this checkout and runs one benchmark workload.

Run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Every call configures and builds benchmark/ (the simulator library plus the
driver) into .bench_build/; only the first one compiles anything. Build
output goes to stderr, so the last line on stdout is the driver's JSON
result. The exit status is the driver's: 0 only when every
output check passed.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
# The driver itself ends within --seconds plus its probes; this only stops a
# hung run.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", "benchmark", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "hpcc_bench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: building hpcc_bench failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD_DIR, "hpcc_bench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: hpcc_bench exceeded %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
