#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --self-test

Run from the repository root. The first call configures and builds
the library and the benchmark from source into .bench_build/simbench
(Release); later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
Full results (with provenance) and the traced run's spans are written
to .bench_build/simbench-out/.

--self-test builds and runs the tests of the benchmark's own logic.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "simbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "simbench-out")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def check_call(cmd):
    """Run a build step with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to simbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configured = any(os.path.isfile(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        check_call(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check_call(["cmake", "--build", BUILD_DIR, "--target", target,
                "-j", jobs])
    return os.path.join(BUILD_DIR, target)


def git_state():
    """(commit, dirty) of the checkout, or 'none' outside a git tree."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
             "simbench"], capture_output=True, text=True,
            check=True).stdout
        return commit, "1" if status.strip() else "0"
    except (OSError, subprocess.CalledProcessError):
        return "none", "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("simbench_tests")
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required")

    binary = build("simbench")
    os.makedirs(OUT_DIR, exist_ok=True)
    commit, dirty = git_state()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-commit", commit, "--git-dirty", dirty,
           "--out-dir", OUT_DIR]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
