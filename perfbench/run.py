#!/usr/bin/env python3
"""Build the simulator and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ -- the driver plus the
simulator library from src/ -- as a Release build in .bench_build/ at
the repository root; later calls only bring that build up to date.
The driver then runs the workload for --seconds of host time and
prints its metrics; the last line of standard output is one JSON
object (correct, attempted, failed, metrics). perfbench/README.md
describes the workloads and every metric.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("web-for-hdc", "file-segm", "web-online", "fig07-web")

BUILD_TIMEOUT_S = 800
# The driver overruns --seconds by at most one iteration (a few
# seconds); anything longer is a hang.
DRIVER_SLACK_S = 110


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources not found in src/; run from a full "
            "checkout of the repository")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log,
                                   stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"build step {cmd[:2]} failed: {e}")
            if r.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build failed (full log: {log_path})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        die("--seed must be non-negative")
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()

    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        # On timeout, run() kills the driver and waits for it.
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds + DRIVER_SLACK_S)
    except subprocess.TimeoutExpired:
        die("driver did not finish in time")

    lines = r.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(r.stdout)
        die(f"driver exited with {r.returncode} without a result")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
