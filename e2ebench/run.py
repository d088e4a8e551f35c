#!/usr/bin/env python3
"""Builds the end-to-end benchmark driver from source, then runs it.

Usage (from the repository root):

    python3 e2ebench/run.py --workload paper-restart --seed 1 --seconds 15 --trace 0

All arguments go to the driver (see README.md in this directory). The build
lives in .bench_build/e2ebench and is incremental; its output goes to stderr
so that the driver's JSON result stays the last line of stdout. Traces of
--trace 1 runs are written to .bench_build/traces.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cloud.h")):
        sys.exit("e2ebench: the library sources (src/) are missing; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("e2ebench: build failed: " + " ".join(cmd))


def main():
    build()
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main()
