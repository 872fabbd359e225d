#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library sources (src/) are compiled
together with the benchmark program into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run builds, later runs reuse
the build. The benchmark's own unit tests (harness_test) run before every
measurement. The last line of standard output is the JSON result; the exit code
is non-zero, and no result is printed, when anything fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build_global", "serve_steady", "serve_refresh")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("timed out: " + " ".join(cmd))


def build(build_dir):
    binary = os.path.join(build_dir, "polbench")
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log, "w") as out:
        for cmd in (
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", "4"],
        ):
            if run(cmd, 850, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail("build failed, see " + log)
    test = os.path.join(build_dir, "harness_test")
    if os.path.exists(test):
        if run([test], 60, stdout=subprocess.DEVNULL) != 0:
            fail("benchmark unit tests failed")
    return binary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found beside perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, target, "perfbench"))
    # cmake --build is incremental: a warm tree re-checks and links nothing.
    binary = build(build_dir)
    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    sys.stdout.flush()
    code = run(cmd, 170)
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
