#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

NAME is fleet_durable, star_incremental or serve_mixed; `all` runs the three
in turn. Run from the repository root. The benchmark is built from the
library sources with CMake in Release mode under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Every metric is printed by name with its
unit, and the last line of stdout is the result JSON:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

perfbench/metrics.json describes each workload and metric.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet_durable", "star_incremental", "serve_mixed")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build():
    """Configures (once) and builds perfbench; returns the build directory."""
    if not (ROOT / "src" / "dt" / "engine.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_root() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def git_sha():
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return sha.stdout.strip() if sha.returncode == 0 else "none"


def run_one(binary, args, workload, sha):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(build_root() / "perfbench-data"),
           "--git-sha", sha]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    binary = build() / "perfbench"
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_one(binary, args, w, sha) for w in workloads]
    sys.exit(next((c for c in codes if c != 0), 0))


if __name__ == "__main__":
    main()
