#!/usr/bin/env python3
"""Checks figure_suite against the repo's own benches at the same seed.

Every figure_suite grid mirrors one bench (same points, same order, same
per-point seed derivation), so each point's results must equal the
bench's results/<bench>.json entry exactly. This runs the benches from a
normal build of the repo and compares:

    cmake -B build -S . && cmake --build build -j 4
    python3 perfbench/crosscheck.py --bench-dir build/bench --seed 5 \\
        --size small --out /tmp/crosscheck

--size small compares the reduced self-test grids (20 000 simulated s per
point, seconds to run); --size full compares the paper-length grids.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIM_SECONDS = {"small": 20000, "full": 2000000}


def load(path):
    with open(path) as f:
        return json.load(f)


def bench_entries(bench, doc):
    """The bench's per-point results, one list per grid in run order."""
    if bench == "ext_lifecycle":
        # Only tables: [epoch, fill_pct, throughput_req_min, delay_min].
        return [[table["table"]["rows"] for table in doc["tables"]]]
    if "sweeps" in doc:
        return [[point["result"] for point in sweep] for sweep in doc["sweeps"]]
    return [[extra["result"] for extra in doc["extra_results"]]]


def lifecycle_rows(point):
    return [[i + 1, e["fill_fraction"] * 100.0, e["requests_per_minute"],
             e["mean_delay_minutes"]] for i, e in enumerate(point["epochs"])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the built fig*/ext_* benches")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=sorted(SIM_SECONDS), default="small")
    parser.add_argument("--out", required=True,
                        help="scratch directory for the results documents")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    ours_path = os.path.join(args.out, "figure_suite.json")
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", "figure_suite", "--seed", str(args.seed),
                    "--seconds", "1", "--trace", "0", "--size", args.size,
                    "--results-out", ours_path],
                   check=True, stdout=subprocess.DEVNULL)
    ours = load(ours_path)

    grids_by_bench = {}
    for grid in ours["grids"]:
        grids_by_bench.setdefault(grid["name"], []).append(grid["points"])

    mismatches = 0
    compared = 0
    for bench, grids in grids_by_bench.items():
        subprocess.run([os.path.join(args.bench_dir, bench),
                        "--sim-seconds=%d" % SIM_SECONDS[args.size],
                        "--seed=%d" % args.seed, "--threads=2",
                        "--results-dir=" + args.out],
                       check=True, stdout=subprocess.DEVNULL)
        theirs = bench_entries(bench, load(os.path.join(args.out,
                                                        bench + ".json")))
        if bench == "ext_lifecycle":
            grids = [[lifecycle_rows(point) for point in grids[0]]]
        if [len(g) for g in grids] != [len(g) for g in theirs]:
            print("%s: grid sizes differ: %s vs %s" % (
                bench, [len(g) for g in grids], [len(g) for g in theirs]))
            mismatches += 1
            continue
        bad = 0
        for mine, bench_grid in zip(grids, theirs):
            for i, (a, b) in enumerate(zip(mine, bench_grid)):
                compared += 1
                if a != b:
                    bad += 1
                    if bad <= 3:
                        print("%s point %d differs" % (bench, i))
        mismatches += bad
        print("%-28s %s" % (bench, "identical" if bad == 0 else
                            "%d points differ" % bad))
    print("%d points compared, %d differ" % (compared, mismatches))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
