#!/usr/bin/env python3
"""Survey benchmark entry point.

    python3 surveybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds surveybench/ (a CMake project over
the repository's src/ tree) in Release under $CARGO_TARGET_DIR (default
.bench_build), runs the arithmetic self-tests, then runs the workload. The
last stdout line is the result object: {"correct", "attempted", "failed",
"metrics"}.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"surveybench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/ tree under {ROOT}; the benchmark builds the repository from source")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "survey_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "survey_bench")


def source_id():
    """The commit when the checkout is a git tree, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "surveybench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def run_binary(argv):
    """Runs argv, returns (returncode, stdout lines); stderr passes through."""
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{argv[0]} exceeded {RUN_TIMEOUT_S} s", 1)
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build(os.path.join(target_dir(), "surveybench"))
    work_dir = os.path.join(target_dir(), "surveybench-work")
    code, _ = run_binary([binary, "--self-test"])
    if code != 0:
        fail("arithmetic self-tests failed", 1)

    code, lines = run_binary([binary, "--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--commit", source_id(), "--work-dir", work_dir])
    if not lines:
        fail(f"benchmark printed no result (exit {code})", code or 1)
    for line in lines:
        print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
