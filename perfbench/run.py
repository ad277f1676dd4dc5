#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
inside the checkout; build output goes to stderr. The last line of stdout is
the benchmark's JSON result. The exit code is the benchmark's: non-zero when
any served answer failed its checks, or when the checkout has no sources.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold-uniform", "hot-zipf", "ingest-mixed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found under {root}; run from the root of a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "min"),
                        help="min is the smoke-test scale")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build(os.getcwd())
    sys.stdout.flush()
    result = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", args.trace,
                             "--size", args.size])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
