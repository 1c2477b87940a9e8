#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark program (perfbench/smartbench.cpp plus every simulator
source under src/) with CMake, runs one workload and forwards its report.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload hash-write-skew --seed 1 \
        --seconds 10 --trace 0

Workloads: hash-write-skew, btree-read, dtx-smallbank. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (it adds a run with
span sampling on). See perfbench/README.md.

The build goes to .bench_build/perfbench under the checkout root. The
benchmark's own host spans are written to .bench_build/perfbench/host_spans/.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hash-write-skew", "btree-read", "dtx-smallbank")
# A run must end within 180 s; the first build is allowed more.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build smartbench; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "testbed.hpp")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"), 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                fail("cmake configure failed")
        if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr) != 0:
            fail("build failed")
    return os.path.join(BUILD_DIR, "smartbench")


def seed_arg(text):
    # int() would take "-3", "+3" or " 3"; a seed is plain decimal digits.
    if not text.isdigit() or not text.isascii():
        raise argparse.ArgumentTypeError("seed must be a non-negative "
                                         "decimal integer, got %r" % text)
    return int(text)


def seconds_arg(text):
    if not text.isdigit() or not text.isascii() or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError("seconds must be an integer in "
                                         "[1, 3600], got %r" % text)
    return int(text)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=seed_arg)
    ap.add_argument("--seconds", type=seconds_arg, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args, binary):
    """Run smartbench; return (exit code, stdout lines)."""
    run_id = "%d-%s" % (int(time.time()), uuid.uuid4().hex[:8])
    spans_dir = os.path.join(BUILD_DIR, "host_spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-id", run_id, "--spans-out",
           os.path.join(spans_dir, "%s-seed%d-trace%d-%s.json" % (
               args.workload, args.seed, args.trace, run_id))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main(argv):
    args = parse_args(argv)
    binary = build()
    code, lines = run(args, binary)
    if code != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("smartbench exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("smartbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
