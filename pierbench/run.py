#!/usr/bin/env python3
"""Build and run the pier end-to-end benchmark.

Usage, from the root of the repository:

    python3 pierbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds pierbench/ (an optimised CMake package compiling
../src) into $CARGO_TARGET_DIR/pierbench, or .bench_build/pierbench when
the variable is unset, then runs the benchmark binary with the same
arguments. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero, printing
no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pierbench")


def run_build_step(command):
    """Runs one build command with its output on stderr."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, check=False)
    return result.returncode == 0


def build(out_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out_dir, "--target", "pierbench",
                "-j", jobs]
    return run_build_step(configure) and run_build_step(compile_)


def main():
    out_dir = build_dir()
    if not build(out_dir):
        print("pierbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out_dir, "pierbench")
    sys.stdout.flush()
    result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, check=False)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
