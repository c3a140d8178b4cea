#!/usr/bin/env python3
"""End-to-end benchmark of the emmap compiler and its emmapcd daemon.

Run from the repository root:

    python3 emmbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0

Builds the library, emmapcd and the benchmark driver from the repository
sources into the build directory ($CARGO_TARGET_DIR when set, else
.bench_build), then runs one workload in its own process. The human-readable
report goes to stderr; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Workloads and metrics are
described in emmbench/NOTES.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold_mix", "daemon_repeat", "daemon_new_sizes")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"emmbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds; returns the driver path or None."""
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "driver", "compiler.h")):
        log(f"repository sources not found next to {bench_dir}")
        return None
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed with exit code {done.returncode}: {' '.join(cmd)}")
            return None
    return cmake_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-artifact", action="store_true",
                    help="self-test only: corrupt one checked artifact")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmake_dir = build(bench_dir, build_dir)
    if cmake_dir is None:
        return 2

    cmd = [os.path.join(cmake_dir, "emmbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--emmapcd={os.path.join(cmake_dir, 'emmapcd')}",
           f"--work-dir={build_dir}"]
    if args.plant_wrong_artifact:
        cmd.append("--plant-wrong-artifact")
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
