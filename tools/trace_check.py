#!/usr/bin/env python3
"""Validate statpipe Chrome trace-event exports (and metrics snapshots).

Checks that a trace written by src/obs (STATPIPE_TRACE=<path>, or
obs::write_chrome_trace) is something chrome://tracing / Perfetto will
actually load, and that it carries the spans a run was supposed to emit:

  * top level is {"traceEvents": [...]}  — strict JSON;
  * every event is an object with a known phase:
      "X" (complete span): string name, numeric ts >= 0, dur >= 0,
          integer pid/tid;
      "i" (instant):       string name, numeric ts >= 0, scope "s";
      "M" (metadata):      name "process_name"/"thread_name" with
          args.name;
  * per (pid, tid), span COMPLETION times (ts + dur) are monotonically
    non-decreasing — the writer appends each span when it closes, so a
    decrease means a corrupted or hand-edited trace;
  * --require-span NAME (repeatable): at least one "X" event named NAME
    exists across ALL the given trace files together (a dist run splits
    its spans across coordinator and worker traces — pass every file).

With --metrics the tool also validates a metrics snapshot produced by
`statpipe-run --metrics <path>` / obs::write_metrics_json:

  * schema is "statpipe-metrics-v1" with "counters" and "spans" maps;
  * --require-counter NAME (repeatable): NAME is present in "counters";
  * --require-counter-min NAME=MIN (repeatable): NAME is present AND its
    value is >= MIN — how CI asserts a run actually exercised a path
    (e.g. the service leg demands dist.service.cache.hits=1);
  * --require-counter-max NAME=MAX (repeatable): NAME is present AND its
    value is <= MAX — how CI bounds work a run must not repeat (e.g. the
    service leg allows one dist.workload.builds per circuit).

Exit status: 0 when every check passes, 1 otherwise (each violation is
printed).  Used by the CI dist-smoke leg; unit-tested by
tools/test_trace_check.py.

Usage:
  trace_check.py TRACE.json [TRACE.json ...]
                 [--require-span NAME]...
                 [--metrics METRICS.json [--require-counter NAME]...
                  [--require-counter-min NAME=MIN]...
                  [--require-counter-max NAME=MAX]...]
"""
import argparse
import json
import sys

KNOWN_PHASES = {"X", "i", "M"}
SCHEMA = "statpipe-metrics-v1"


def fail(errors, path, msg):
    errors.append(f"{path}: {msg}")


def check_number(errors, path, where, ev, key, minimum=0):
    v = ev.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(errors, path, f"{where}: '{key}' is not a number: {v!r}")
        return None
    if v < minimum:
        fail(errors, path, f"{where}: '{key}' < {minimum}: {v!r}")
        return None
    return v


def check_trace(path, errors, span_names):
    """Validates one trace file; accumulates span names seen into
    span_names and messages into errors."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(errors, path, f"unreadable or invalid JSON: {e}")
        return
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(errors, path, "top level is not an object with 'traceEvents'")
        return
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(errors, path, "'traceEvents' is not a list")
        return

    last_end = {}  # (pid, tid) -> last span completion time, microseconds
    n_spans = 0
    for i, ev in enumerate(events):
        where = f"event #{i}"
        if not isinstance(ev, dict):
            fail(errors, path, f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            fail(errors, path, f"{where}: unknown phase {ph!r}")
            continue
        name = ev.get("name")
        if ph != "M" and not isinstance(name, str):
            fail(errors, path, f"{where}: 'name' is not a string: {name!r}")
            continue
        if ph == "M":
            if name not in ("process_name", "thread_name"):
                fail(errors, path,
                     f"{where}: metadata name {name!r} not recognized")
            elif not isinstance(ev.get("args", {}).get("name"), str):
                fail(errors, path, f"{where}: metadata without args.name")
            continue
        ts = check_number(errors, path, where, ev, "ts")
        if ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                fail(errors, path, f"{where}: instant without scope 's'")
            continue
        # ph == "X"
        dur = check_number(errors, path, where, ev, "dur")
        pid, tid = ev.get("pid"), ev.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            fail(errors, path, f"{where}: pid/tid not integers")
            continue
        if ts is None or dur is None:
            continue
        n_spans += 1
        span_names.add(name)
        end = ts + dur
        key = (pid, tid)
        if key in last_end and end < last_end[key]:
            fail(errors, path,
                 f"{where}: span '{name}' completes at {end} us, before the "
                 f"previous span on pid {pid} tid {tid} ({last_end[key]} us)"
                 " — completion times must be monotonic per thread")
        last_end[key] = max(end, last_end.get(key, 0.0))
    print(f"{path}: {len(events)} event(s), {n_spans} span(s), "
          f"{len(last_end)} thread(s)")


def parse_counter_bound(spec):
    """'NAME=N' -> (NAME, int N >= 0); raises ValueError on junk."""
    name, sep, bound = spec.partition("=")
    if not sep or not name:
        raise ValueError(f"expected NAME=N, got {spec!r}")
    value = int(bound)  # ValueError on non-integers, as intended
    if value < 0:
        raise ValueError(f"N must be >= 0, got {spec!r}")
    return name, value


def check_metrics(path, errors, required_counters, counter_minimums,
                  counter_maximums=()):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(errors, path, f"unreadable or invalid JSON: {e}")
        return
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        fail(errors, path, f"metrics schema is not '{SCHEMA}'")
        return
    counters = doc.get("counters")
    spans = doc.get("spans")
    if not isinstance(counters, dict) or not isinstance(spans, dict):
        fail(errors, path, "'counters'/'spans' maps missing")
        return
    for name, v in counters.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(errors, path, f"counter '{name}' is not a u64: {v!r}")
    for name, st in spans.items():
        if not isinstance(st, dict) or not all(
                isinstance(st.get(k), int) and not isinstance(st.get(k), bool)
                for k in ("count", "total_ns", "min_ns", "max_ns")):
            fail(errors, path, f"span '{name}' stat shape is wrong: {st!r}")
    for name in required_counters:
        if name not in counters:
            fail(errors, path, f"required counter '{name}' is absent")
    for name, minimum in counter_minimums:
        if name not in counters:
            fail(errors, path, f"required counter '{name}' is absent "
                 f"(must be >= {minimum})")
        elif isinstance(counters[name], int) and counters[name] < minimum:
            fail(errors, path, f"counter '{name}' is {counters[name]}, "
                 f"below the required minimum {minimum}")
    for name, maximum in counter_maximums:
        if name not in counters:
            fail(errors, path, f"required counter '{name}' is absent "
                 f"(must be <= {maximum})")
        elif isinstance(counters[name], int) and counters[name] > maximum:
            fail(errors, path, f"counter '{name}' is {counters[name]}, "
                 f"above the allowed maximum {maximum}")
    print(f"{path}: {len(counters)} counter(s), {len(spans)} span stat(s)")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Validate statpipe Chrome trace exports")
    ap.add_argument("traces", nargs="+", metavar="TRACE.json",
                    help="trace-event files (pass every file of a run)")
    ap.add_argument("--require-span", action="append", default=[],
                    metavar="NAME", help="span that must appear in at least "
                    "one of the given traces (repeatable)")
    ap.add_argument("--metrics", metavar="METRICS.json",
                    help="also validate a metrics snapshot")
    ap.add_argument("--require-counter", action="append", default=[],
                    metavar="NAME", help="counter that must be present in "
                    "--metrics (repeatable)")
    ap.add_argument("--require-counter-min", action="append", default=[],
                    metavar="NAME=MIN", help="counter that must be present "
                    "in --metrics with value >= MIN (repeatable)")
    ap.add_argument("--require-counter-max", action="append", default=[],
                    metavar="NAME=MAX", help="counter that must be present "
                    "in --metrics with value <= MAX (repeatable)")
    args = ap.parse_args(argv)
    if (args.require_counter or args.require_counter_min
            or args.require_counter_max) and not args.metrics:
        ap.error("--require-counter/--require-counter-min/"
                 "--require-counter-max need --metrics")
    bounds = {}
    for flag in ("min", "max"):
        try:
            bounds[flag] = [parse_counter_bound(s) for s in
                            getattr(args, f"require_counter_{flag}")]
        except ValueError as e:
            ap.error(f"--require-counter-{flag}: {e}")

    errors = []
    span_names = set()
    for path in args.traces:
        check_trace(path, errors, span_names)
    for name in args.require_span:
        if name not in span_names:
            errors.append(
                f"required span '{name}' appears in none of the traces")
    if args.metrics:
        check_metrics(args.metrics, errors, args.require_counter,
                      bounds["min"], bounds["max"])

    for msg in errors:
        print(f"FAIL: {msg}")
    if errors:
        print(f"trace check: {len(errors)} violation(s)")
        return 1
    print("trace check: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
