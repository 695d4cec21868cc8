#!/usr/bin/env python3
"""Build emc_bench from this checkout and run one workload.

Run from the repository root:

    python3 benchmark/run.py --workload pingpong_small --seed 1 \
        --seconds 15 --trace 0

The first call configures and builds the benchmark (and the library it
links) in build-bench/; later calls only bring that build up to date.
The benchmark binary then replaces this process, so one run is one
process, and the last line of stdout is its JSON result. Build output
is shown, on stderr, only when a build step fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no library sources (CMakeLists.txt, src/) next "
                 "to benchmark/; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("run.py: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one job per cell")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    build()
    binary = os.path.join(BUILD, "emc_bench")
    argv = [binary, "--workload=" + args.workload,
            "--seed=%d" % args.seed, "--seconds=%r" % args.seconds,
            "--trace=%d" % args.trace,
            "--trace-dir=" + os.path.join(BUILD, "trace")]
    if args.smoke:
        argv.append("--smoke")
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
