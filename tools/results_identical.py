#!/usr/bin/env python3
"""Refactor bar: every paper bench writes byte-identical results JSON.

Runs each fig*/abl_*/ext_* bench binary from two build trees (--before,
--after) with the same flags (always --threads=1) into separate
--results-dir directories, then compares every results file byte for
byte (like `cmp`). A behaviour-preserving change must leave all of them
identical.

Usage:
  results_identical.py --before BUILD_A --after BUILD_B \\
      [--quick] [--sim-seconds N] [--seed S] [--bench NAME ...] \\
      [--bench-flag=FLAG ...] [--decision-log]

BUILD_A/BUILD_B are CMake build directories (the binaries live in
<build>/bench/). --bench restricts the run to the named benches
(default: every fig*/abl_*/ext_* binary present in both trees; one
present in only one tree is reported and skipped). Results land in a
temporary directory, removed on success and kept on failure.
--bench-flag passes one more flag through to every bench on both sides
(e.g. --bench-flag=--fault-whole-tape=0.3); write it with "=" so a
leading "--" is not read as an option of this script.
--decision-log has each side also write the scheduler decision log of
the traced grid point (choose it with --bench-flag=--trace-point=N) as
<bench>.decisions.jsonl in its results directory; the log is compared
byte for byte like the JSON, and a side that writes none, or an empty
one, fails. Every candidate's estimated bandwidth is in that log, so it
checks tape scoring on every decision, where the results JSON sees only
the tape chosen.

Exits 0 when every results file matches, 1 on any difference, missing
file, or bench failure.
"""

import argparse
import filecmp
import os
import re
import shutil
import subprocess
import sys
import tempfile

TOOL = "results_identical"
BENCH_PATTERN = re.compile(r"^(fig\d+|abl|ext)_\w+$")


def log(message):
    print("%s: %s" % (TOOL, message), flush=True)


def find_benches(build_dir):
    bench_dir = os.path.join(build_dir, "bench")
    if not os.path.isdir(bench_dir):
        return []
    return sorted(
        name for name in os.listdir(bench_dir)
        if BENCH_PATTERN.match(name)
        and os.access(os.path.join(bench_dir, name), os.X_OK))


def decision_log_path(results_dir, bench):
    return os.path.join(results_dir, bench + ".decisions.jsonl")


def run_bench(build_dir, bench, results_dir, flags, decision_log):
    """Runs one bench into results_dir; returns an error string or None."""
    binary = os.path.join(build_dir, "bench", bench)
    if not os.access(binary, os.X_OK):
        return "%s: no such bench binary" % binary
    os.makedirs(results_dir, exist_ok=True)
    command = [binary, "--results-dir=" + results_dir] + flags
    if decision_log:
        command.append("--decision-log=" +
                       decision_log_path(results_dir, bench))
    completed = subprocess.run(command, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        return "%s exited %d: %s" % (" ".join(command), completed.returncode,
                                     completed.stderr.strip()[-500:])
    if decision_log:
        path = decision_log_path(results_dir, bench)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            return ("%s wrote no decision log (is --trace-point inside its "
                    "grid?)" % " ".join(command))
    return None


def compare_dirs(before_dir, after_dir):
    """Returns (number of files compared, list of difference messages)."""
    before = set(os.listdir(before_dir))
    after = set(os.listdir(after_dir))
    problems = []
    for name in sorted(before - after):
        problems.append("%s: written only by --before" % name)
    for name in sorted(after - before):
        problems.append("%s: written only by --after" % name)
    common = sorted(before & after)
    for name in common:
        if not filecmp.cmp(os.path.join(before_dir, name),
                           os.path.join(after_dir, name), shallow=False):
            problems.append("%s: contents differ" % name)
    return len(common), problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True,
                        help="build directory of the reference tree")
    parser.add_argument("--after", required=True,
                        help="build directory of the changed tree")
    parser.add_argument("--quick", action="store_true",
                        help="pass --quick (reduced grids) to every bench")
    parser.add_argument("--sim-seconds", type=float,
                        help="simulated seconds per point")
    parser.add_argument("--seed", type=int, help="workload seed")
    parser.add_argument("--bench", action="append", default=[],
                        help="bench to run (repeatable; default: all)")
    parser.add_argument("--bench-flag", action="append", default=[],
                        metavar="FLAG",
                        help="flag passed through to every bench "
                             "(repeatable)")
    parser.add_argument("--decision-log", action="store_true",
                        help="also write and compare the traced point's "
                             "scheduler decision log")
    args = parser.parse_args()

    # Benches record their thread count in the results, so both sides
    # must use the same one.
    flags = ["--threads=1"]
    if args.quick:
        flags.append("--quick")
    if args.sim_seconds is not None:
        flags.append("--sim-seconds=%g" % args.sim_seconds)
    if args.seed is not None:
        flags.append("--seed=%d" % args.seed)
    flags.extend(args.bench_flag)

    benches = args.bench
    if not benches:
        before = set(find_benches(args.before))
        after = set(find_benches(args.after))
        for name in sorted(before ^ after):
            log("skip %s: only in --%s" % (name,
                                           "before" if name in before
                                           else "after"))
        benches = sorted(before & after)
    if not benches:
        log("FAIL: no fig*/abl_*/ext_* benches found in %s/bench"
            % args.after)
        return 1

    work_dir = tempfile.mkdtemp(prefix="results_identical.")
    failures = []
    files = 0
    for bench in benches:
        sides = {}
        for side, build_dir in (("before", args.before),
                                ("after", args.after)):
            sides[side] = os.path.join(work_dir, side, bench)
            error = run_bench(build_dir, bench, sides[side], flags,
                              args.decision_log)
            if error is not None:
                failures.append("%s (%s): %s" % (bench, side, error))
                break
        else:
            compared, problems = compare_dirs(sides["before"], sides["after"])
            files += compared
            if compared == 0 and not problems:
                problems.append("no results files written")
            failures.extend("%s: %s" % (bench, p) for p in problems)
            log("%s %s" % ("DIFF" if problems else "same", bench))

    if failures:
        for failure in failures:
            print("%s: FAIL: %s" % (TOOL, failure), file=sys.stderr)
        print("%s: results kept in %s" % (TOOL, work_dir), file=sys.stderr)
        return 1
    log("OK: %d results files byte-identical across %d benches (%s)"
        % (files, len(benches),
           " ".join(flags + (["--decision-log"] if args.decision_log
                             else []))))
    shutil.rmtree(work_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
