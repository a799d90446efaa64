#!/usr/bin/env python3
"""Build the satproof benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 satbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds satbench/CMakeLists.txt (the repository's libraries, the satproof
CLI, gen_bigtrace and the harness; Release, no sanitizer) into
$CARGO_TARGET_DIR/satbench (default .bench_build/satbench), then runs the
harness. The last line of standard output is the result JSON; result files
and traced-run outputs go to .bench_out/. See satbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("svc-small", "check-large", "check-stream", "certify")


def build(build_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        try:
            subprocess.run(
                ["cmake", "-S", here, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        except subprocess.CalledProcessError:
            if os.path.exists(cache):  # let the next run configure afresh
                os.remove(cache)
            raise
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "satbench_harness", "satproof", "gen_bigtrace"],
        stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "satbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"satbench: build failed: {e}", file=sys.stderr)
        return 1
    harness = os.path.join(build_dir, "satbench_harness")
    return subprocess.run(
        [harness, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--bin-dir", build_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
