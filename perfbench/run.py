#!/usr/bin/env python3
"""Builds the RkNN engine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hub-serve|stored-expand|durable-mixed \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The benchmark and the library sources under
src/ are compiled in Release mode into the directory named by
CARGO_TARGET_DIR (default .bench_build) inside the checkout; the build is
incremental, so only the first run pays for it. Build output goes to
stderr. The workload's report goes to stdout, ending with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Exits non-zero, without a result line, when the build fails (for example
in a directory that holds the benchmark but not the library sources).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(out_dir, targets=("perfbench",)):
    """Configures (once) and builds `targets`; returns the benchmark binary
    path, or None when a build step failed."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target"] + list(targets))
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" %
                             " ".join(cmd))
            return None
    return os.path.join(out_dir, "perfbench")


def main(argv):
    binary = build(build_dir())
    if binary is None:
        return 1
    sys.stdout.flush()
    done = subprocess.run([binary] + argv)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
