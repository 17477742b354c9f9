#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

Runs one workload once per seed (untraced, BENCHMARK.json's run_seconds)
and prints, per metric, the median of the values, the distance between
the first and third quartile as a share of the median, and that spread as
a share of the metric's bound:

    python3 perfbench/spread.py --workload deep_queue --seeds 1-5

A benchmark is steady when every spread except setup_s stays well inside
its bound (below a third of it).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--log", help="append each run's JSON line here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            print("seed %d: exit code %d" % (seed, done.returncode))
            return 1
        line = done.stdout.strip().splitlines()[-1]
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload,
                                      "seed": seed, "result": json.loads(line)})
                          + "\n")
        result = json.loads(line)
        if not result["correct"]:
            print("seed %d: check mode failed" % seed)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: wall_s %.4f" % (seed, result["metrics"]["wall_s"]
                                        ["value"]), flush=True)

    print("%-22s %14s %10s %10s" % ("metric", "median", "iqr/med",
                                    "of bound"))
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print("%-22s %14.6g %9.2f%% %9.0f%%" % (
            metric["name"], median, 100 * spread,
            100 * spread / metric["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
