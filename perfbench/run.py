#!/usr/bin/env python3
"""Builds and runs the RichWasm end-to-end benchmark.

    python3 perfbench/run.py --workload admit-mix|link-cold|exec-tiers \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library through the repository's own CMake (Release, into
.bench_build/perfbench); later runs only check that the build is current.
The benchmark binary runs with the library's tracing and tier-up overrides
cleared and prints its result as the last line of standard output.
"""

import argparse
import fcntl
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rwperf")
# Switches the library reads from the environment; each changes what a
# run measures, so runs start with all of them cleared.
PINNED_ENV = ("RW_JIT_THRESHOLD", "RW_OBS", "RW_OBS_TRACE", "RW_OBS_TRACE_SAMPLE")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_cache():
    """Refuses a build tree that is not a plain Release build."""
    cache = open(os.path.join(BUILD, "CMakeCache.txt")).read()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    if not build_type or build_type.group(1) != "Release":
        die("the build tree is not a Release build; remove " + BUILD)
    for line in cache.splitlines():
        if line.startswith("CMAKE_CXX_FLAGS") and "-fsanitize" in line:
            die("the build tree is a sanitizer build; remove " + BUILD)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no RichWasm sources next to perfbench/ (expected ../CMakeLists.txt and ../src)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One builder at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        check_cache()
        subprocess.run(["cmake", "--build", BUILD, "--target", "rwperf",
                        "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["admit-mix", "link-cold", "exec-tiers"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        die("build failed: %s" % e)
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--t0-ns", str(t0)],
        env=env, cwd=ROOT, timeout=170)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
