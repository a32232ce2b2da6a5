#!/usr/bin/env python3
"""Builds the egglog benchmark from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload pointsto --seed 1 --seconds 12 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental after the first run. Build output goes to standard error;
the last line of standard output is the benchmark's JSON result. Exits
non-zero, without a result, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--scratch", scratch],
                         stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        print("perfbench: run failed with code %d" % run.returncode,
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
