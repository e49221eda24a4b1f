#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the library from src/ plus iaa_perfbench from perfbench/src)
with CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset, then runs one workload. Build output goes to stderr.
iaa_perfbench's notes and its final JSON line go to stdout; the JSON line is
the last line. Exits non-zero, without printing a result, when the sources
are missing, the build fails, or the run fails or overruns.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper", "sparse_large", "service_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    """The environment for every child: temporary files stay in the build
    directory, inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=os.path.abspath(tmp))


def build():
    """Configures (once) and builds iaa_perfbench; returns its path."""
    if not os.path.isfile(os.path.join("src", "interp", "Interpreter.h")):
        fail("run from the repository root: src/ is missing")
    bdir = build_dir()
    env = child_env()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build step failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "iaa_perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no " + exe)
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", build_dir(), "--src", "src"]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S,
                             env=child_env())
    except subprocess.TimeoutExpired:
        fail("%s overran %d s" % (args.workload, RUN_TIMEOUT_S))
    if run.returncode:
        fail("%s exited %d" % (args.workload, run.returncode))
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
