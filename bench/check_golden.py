#!/usr/bin/env python3
"""Golden I/O gate for the paper benches.

Runs the ten figure/table benches and both ablations at
`--scale=small --queries=3 --json=...` and compares the work columns of
every config with bench/golden_small.json:

  page_accesses, logical_reads, results, queries   every config
  lists_written_per_op, nodes_touched_per_op       Fig 22
  pages                                            packing ablation
  num_points                                       Tables 1-2

No timing field is compared. Fails (exit 1) on a non-zero bench exit, a
missing or extra config, or any differing value, printing bench, config,
field, want and got.

  python3 bench/check_golden.py --build-dir build            # check
  python3 bench/check_golden.py --build-dir build --update   # rewrite

The rule: a change that moves a bench's work updates golden_small.json
in the same commit and says why in its message. These columns are the
reproduction's page-access counts and answers, so a move is either a
deliberate change to what an algorithm reads or answers, or a defect;
the diff of the golden is where a reviewer tells the two apart.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCHES = [
    "bench_fig15_brite_nodes",
    "bench_fig16_brite_density",
    "bench_fig17_sf_density",
    "bench_fig18_sf_k",
    "bench_fig19_continuous",
    "bench_fig20_grid",
    "bench_fig21_buffer",
    "bench_fig22_updates",
    "bench_table1_adhoc",
    "bench_table2_dblp_density",
    "bench_ablation_packing",
    "bench_ablation_replacement",
]

# Every field a config row carries from this list is pinned; the last
# four appear only in the benches named above.
FIELDS = [
    "page_accesses",
    "logical_reads",
    "results",
    "queries",
    "lists_written_per_op",
    "nodes_touched_per_op",
    "pages",
    "num_points",
]

ARGS = ["--scale=small", "--queries=3"]
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_small.json")


def run_bench(build_dir, bench, out_dir):
    """Runs one bench; returns ({config: {field: value}}, error or None)."""
    path = os.path.join(out_dir, bench + ".json")
    cmd = [os.path.join(build_dir, bench)] + ARGS + ["--json=" + path]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip())
    if not os.path.exists(path):
        return None, "wrote no JSON to " + path
    with open(path) as f:
        report = json.load(f)
    rows = {}
    for config in report["configs"]:
        rows[config["name"]] = {k: config[k] for k in FIELDS if k in config}
    return rows, None


def compare(bench, want, got):
    """Yields one printable line per difference."""
    for name in sorted(set(want) | set(got)):
        if name not in got:
            yield "%s  %s  missing config" % (bench, name)
            continue
        if name not in want:
            yield "%s  %s  extra config" % (bench, name)
            continue
        for field in FIELDS:
            w, g = want[name].get(field), got[name].get(field)
            if w != g:
                yield "%s  %s  %s  want=%s got=%s" % (bench, name, field, w,
                                                      g)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir", required=True,
                        help="directory holding the bench binaries")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden from this build")
    args = parser.parse_args()

    golden = {}
    if not args.update:
        with open(GOLDEN) as f:
            golden = json.load(f)

    got_all = {}
    failures = []
    with tempfile.TemporaryDirectory() as out_dir:
        for bench in BENCHES:
            rows, error = run_bench(args.build_dir, bench, out_dir)
            if error is not None:
                failures.append("%s  %s" % (bench, error))
                continue
            got_all[bench] = rows
            if not args.update:
                failures.extend(compare(bench, golden.get(bench, {}), rows))
    for bench in sorted(set(golden) - set(BENCHES)):
        failures.append("%s  extra bench in the golden" % bench)

    if failures:
        print("golden I/O check FAILED (%d):" % len(failures))
        for line in failures:
            print("  " + line)
        return 1
    if args.update:
        with open(GOLDEN, "w") as f:
            json.dump(got_all, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s (%d benches, %d configs)" %
              (GOLDEN, len(got_all), sum(len(r) for r in got_all.values())))
    else:
        print("golden I/O check passed (%d benches, %d configs)" %
              (len(got_all), sum(len(r) for r in got_all.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
