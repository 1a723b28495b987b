#!/usr/bin/env python3
"""Self-test of the RkNN engine benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark and its unit check
(see run.py), runs the unit check of the percentile and self-time
helpers, then a tiny-size run of every workload in BENCHMARK.json, once
untraced and once traced. Each run must exit 0, pass its output check
("correct": true), and print, as its last line, every end-to-end metric
(untraced) or per-layer metric (traced) that BENCHMARK.json names, each
with the unit BENCHMARK.json gives it. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

import run

CATALOGUE = os.path.join(run.ROOT, "BENCHMARK.json")


def check_result(name, trace, stdout, expected):
    lines = stdout.strip().splitlines()
    if not lines:
        return ["%s trace=%d: no output" % (name, trace)]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["%s trace=%d: last line is not JSON" % (name, trace)]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s trace=%d: result keys %s" %
                        (name, trace, sorted(result)))
        return problems
    if result["correct"] is not True:
        problems.append("%s trace=%d: output check failed" % (name, trace))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s trace=%d: attempted < 1" % (name, trace))
    metrics = result["metrics"]
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append("%s trace=%d: metric %s missing" %
                            (name, trace, metric["name"]))
        elif got.get("unit") != metric["unit"]:
            problems.append("%s trace=%d: metric %s has unit %r, want %r" %
                            (name, trace, metric["name"], got.get("unit"),
                             metric["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("%s trace=%d: metric %s has no number" %
                            (name, trace, metric["name"]))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append("%s trace=%d: unlisted metrics %s" %
                        (name, trace, sorted(extra)))
    return problems


def main():
    with open(CATALOGUE) as f:
        bench = json.load(f)
    out_dir = run.build_dir()
    binary = run.build(out_dir, ("perfbench", "perfbench_unit"))
    if binary is None:
        return 1
    problems = []
    if subprocess.run([os.path.join(out_dir, "perfbench_unit")]).returncode:
        problems.append("unit check failed")
    for workload in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            done = subprocess.run(
                [binary, "--workload", workload["name"], "--seed", "7",
                 "--seconds", "2", "--trace", str(trace), "--tiny"],
                stdout=subprocess.PIPE, universal_newlines=True)
            if done.returncode != 0:
                problems.append("%s trace=%d: exit code %d" %
                                (workload["name"], trace, done.returncode))
                continue
            problems += check_result(workload["name"], trace, done.stdout,
                                     expected)
    for p in problems:
        print("SELFTEST FAILED: " + p)
    if not problems:
        print("selftest: unit check and %d tiny runs passed" %
              (2 * len(bench["workloads"])))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
