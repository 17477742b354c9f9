#!/usr/bin/env python3
"""End-to-end benchmark of the tapejuke simulator (see perfbench/README.md).

Builds perfbench/ (a standalone CMake package compiling ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
workload:

    python3 perfbench/run.py --workload figure_suite --seed 1 \
        --seconds 30 --trace 0

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer split.

    python3 perfbench/run.py --selftest

runs every workload at reduced size, traced and untraced, through the
check mode and checks the reported metric names against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figure_suite", "deep_queue", "farm_degraded")
ENVELOPE_COUNTERS = (
    "sched.envelope.extension_rounds",
    "sched.envelope.tapes_rescored",
    "sched.envelope.master_rebuilds",
    "sched.envelope.epoch_reuses",
    "sched.envelope.insert_ratio",
)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.h")):
        fail("no library sources at %s/src: run from a full checkout" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run(binary, args, quiet=False):
    """Runs the benchmark binary; returns (exit code, stdout, stderr).

    The binary's progress lines go to our stderr unless `quiet`, in which
    case they are returned instead."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if quiet else None,
                          text=True)
    return done.returncode, done.stdout, done.stderr


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out, err = run(binary, ["--workload", workload, "--seed",
                                          "11", "--seconds", "1", "--trace",
                                          str(trace), "--size", "small"],
                                 quiet=True)
            where = "%s --trace %d" % (workload, trace)
            before = len(failures)
            if code != 0:
                failures.append("%s: exit code %d" % (where, code))
                sys.stderr.write(err)
                continue
            result = json.loads(out.strip().splitlines()[-1])
            metrics = result["metrics"]
            if not result["correct"] or result["failed"] != 0:
                failures.append(where + ": check mode failed")
            if set(metrics) != expected[trace]:
                failures.append(where + ": metric names differ from "
                                "BENCHMARK.json")
            if trace == 1:
                envelope = [metrics[name]["value"]
                            for name in ENVELOPE_COUNTERS]
                if workload == "farm_degraded" and any(envelope):
                    failures.append(where + ": envelope counters nonzero")
                if workload == "deep_queue" and not all(envelope):
                    failures.append(where + ": envelope counters zero")
            if len(failures) > before:
                sys.stderr.write(err)
            print("%-28s %s" % (where,
                                "ok" if len(failures) == before else "FAIL"))
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--results-out",
                        help="write the first pass's results JSON here")
    parser.add_argument("--selftest", action="store_true",
                        help="reduced-size run of every workload")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    forwarded = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--size", args.size]
    if args.results_out:
        forwarded += ["--results-out", args.results_out]
    code, out, _ = run(binary, forwarded)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
