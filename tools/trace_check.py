#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file written by the simulator.

Checks the structural invariants docs/OBSERVABILITY.md promises:

  * the document parses and holds a "traceEvents" list;
  * every event has a known phase (M, X, b, e, n, i) and, except for
    metadata, a finite non-negative "ts";
  * non-metadata events are sorted by timestamp (the recorder writes a
    stable timestamp-sorted stream);
  * per-thread "X" drive-state slices have non-negative durations, do not
    overlap, and use only the known drive-state names;
  * async request spans are balanced: every "b" has a matching "e" on the
    same id, "n" instants land inside an open span, and nothing is left
    open at the end;
  * request "e" events carry a known lifecycle outcome (completed, failed,
    expired, shed, open-at-end);
  * the per-drive metadata threads announced by "M" events exist.

Optionally validates a decision JSONL stream (--decision-log): one JSON
object per line carrying the documented keys, whose "drive" names a
"drive N" thread of the trace and whose "chosen" tape is one of its
"candidates".

Usage: trace_check.py TRACE.json [--decision-log DECISIONS.jsonl]
Exits nonzero with a message on the first violation.
"""

import argparse
import math

from tjcheck_lib import fail as lib_fail
from tjcheck_lib import iter_jsonl, load_json_file

TOOL = "trace_check"

KNOWN_PHASES = {"M", "X", "b", "e", "n", "i"}
KNOWN_OUTCOMES = {"completed", "failed", "expired", "shed", "open-at-end"}
KNOWN_STATES = {
    "idle",
    "switching",
    "robot",
    "locating",
    "reading",
    "rewinding",
    "background",
    "down",
}
DECISION_KEYS = {
    "t",
    "scheduler",
    "background",
    "drive",
    "chosen",
    "mounted",
    "pending",
    "background_queue",
    "envelope_rounds",
    "tapes_rescored",
    "candidates",
}

# Adjacent drive-state slices share exact double boundaries, but "dur" is
# serialized as end-start and re-added here, so allow a few ulps of noise
# relative to the timestamp magnitude.
def overlap_epsilon_us(at):
    return max(1e-6, abs(at) * 1e-12)


def fail(message):
    lib_fail(TOOL, message)


def check_trace(path):
    doc = load_json_file(TOOL, path)

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing traceEvents list")
    if not events:
        fail("empty traceEvents")

    drive_threads = set()
    drive_indices = set()
    named_threads = {}
    last_ts = None
    last_slice_end = {}  # tid -> end of the previous X slice, microseconds
    open_spans = set()  # async ids with a 'b' but no 'e' yet
    counts = {phase: 0 for phase in KNOWN_PHASES}
    outcomes = {name: 0 for name in KNOWN_OUTCOMES}

    for index, event in enumerate(events):
        where = "event %d" % index
        if not isinstance(event, dict):
            fail("%s is not an object" % where)
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            fail("%s has unknown phase %r" % (where, phase))
        counts[phase] += 1

        if phase == "M":
            name = event.get("name")
            args = event.get("args", {})
            if name == "thread_name":
                named_threads[event.get("tid")] = args.get("name", "")
                thread = str(args.get("name", ""))
                if thread.startswith("drive "):
                    drive_threads.add(event.get("tid"))
                    drive_indices.add(thread[len("drive "):])
            continue

        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            fail("%s has bad ts %r" % (where, ts))
        if last_ts is not None and ts < last_ts:
            fail("%s: ts %r precedes previous ts %r (stream not sorted)"
                 % (where, ts, last_ts))
        last_ts = ts

        if phase == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float)) or not math.isfinite(dur)
                    or dur < 0):
                fail("%s has bad dur %r" % (where, dur))
            name = event.get("name")
            if name not in KNOWN_STATES:
                fail("%s has unknown drive state %r" % (where, name))
            tid = event.get("tid")
            prev_end = last_slice_end.get(tid)
            if (prev_end is not None
                    and ts < prev_end - overlap_epsilon_us(prev_end)):
                fail("%s: slice on tid %r starts at %r before previous "
                     "slice end %r (overlap)" % (where, tid, ts, prev_end))
            last_slice_end[tid] = ts + dur
        elif phase in ("b", "e", "n"):
            span_id = event.get("id")
            if span_id is None:
                fail("%s: async event without id" % where)
            if phase == "b":
                if span_id in open_spans:
                    fail("%s: span %r opened twice" % (where, span_id))
                open_spans.add(span_id)
            elif phase == "e":
                if span_id not in open_spans:
                    fail("%s: span %r closed without open" % (where, span_id))
                open_spans.remove(span_id)
                outcome = event.get("args", {}).get("outcome")
                if outcome not in KNOWN_OUTCOMES:
                    fail("%s: span %r closed with unknown outcome %r"
                         % (where, span_id, outcome))
                outcomes[outcome] += 1
            else:
                if span_id not in open_spans:
                    fail("%s: instant on closed span %r" % (where, span_id))

    if open_spans:
        fail("%d request spans never closed (e.g. %r)"
             % (len(open_spans), sorted(open_spans)[0]))
    if counts["X"] > 0 and not drive_threads:
        fail("drive-state slices present but no 'drive N' thread metadata")
    if counts["b"] != counts["e"]:
        fail("unbalanced spans: %d 'b' vs %d 'e'" % (counts["b"], counts["e"]))

    return counts, outcomes, drive_indices


def check_decision_log(path, drive_indices):
    lines = 0
    for number, record in iter_jsonl(TOOL, path):
        where = "%s:%d" % (path, number)
        missing = DECISION_KEYS - set(record)
        if missing:
            fail("%s: missing keys %s" % (where, sorted(missing)))
        if not isinstance(record["candidates"], list):
            fail("%s: candidates is not a list" % where)
        if str(record["drive"]) not in drive_indices:
            fail("%s: drive %r has no 'drive N' thread in the trace"
                 % (where, record["drive"]))
        tapes = [c.get("tape") for c in record["candidates"]
                 if isinstance(c, dict)]
        if record["chosen"] not in tapes:
            fail("%s: chosen tape %r is not among the candidates %r"
                 % (where, record["chosen"], tapes))
        lines += 1
    return lines


def main():
    parser = argparse.ArgumentParser(
        description="Validate a simulator trace JSON file.")
    parser.add_argument("trace", help="Chrome trace_event JSON path")
    parser.add_argument("--decision-log", default=None,
                        help="decision JSONL path to validate too")
    args = parser.parse_args()

    counts, outcomes, drive_indices = check_trace(args.trace)
    summary = ("trace_check: OK: %d slices, %d spans, %d span instants, "
               "%d scheduler instants"
               % (counts["X"], counts["b"], counts["n"], counts["i"]))
    lifecycle = {name: n for name, n in sorted(outcomes.items()) if n > 0}
    if lifecycle:
        summary += ", outcomes " + " ".join(
            "%s=%d" % item for item in lifecycle.items())
    if args.decision_log is not None:
        decisions = check_decision_log(args.decision_log, drive_indices)
        summary += ", %d decisions" % decisions
    print(summary)


if __name__ == "__main__":
    main()
