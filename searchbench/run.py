#!/usr/bin/env python3
"""Build the search benchmark from source and run one workload.

    python3 searchbench/run.py --workload codesign_har|fleet_cold|service_warm \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The harness (searchbench/src) and the
repository libraries it links are built with CMake, Release, into
$CARGO_TARGET_DIR/searchbench (default .bench_build/searchbench); reports
and span files go to .../out.  The harness's stdout is passed through, so
the last line is the JSON result.  Build failures exit non-zero without a
result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the harness; returns the binary path."""
    build_dir = os.path.join(target_dir(), "searchbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "searchbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("searchbench: build step failed: %s\n" % " ".join(step))
            sys.exit(done.returncode or 1)
    return os.path.join(build_dir, "searchbench")


def main(argv):
    binary = build()
    out_dir = os.path.join(target_dir(), "out")
    done = subprocess.run([binary] + argv + ["--out-dir", out_dir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
