#!/usr/bin/env python3
"""Unit tests for tools/trace_check.py (stdlib unittest only).

Drives the validator exactly the way the CI dist-smoke job does — as a
subprocess over trace/metrics files — and pins down its contract: strict
JSON, event shape by phase, per-thread completion-time monotonicity, the
--require-span union across multiple traces, and the metrics snapshot
schema with --require-counter.

Run:  python3 tools/test_trace_check.py
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "trace_check.py"


def span(name, ts, dur, pid=1, tid=1, lane=None):
    ev = {"name": name, "ph": "X", "ts": ts, "dur": dur,
          "pid": pid, "tid": tid}
    if lane is not None:
        ev["args"] = {"lane": lane}
    return ev


def instant(name, ts, message="m", pid=1, tid=1):
    return {"name": name, "ph": "i", "ts": ts, "s": "t",
            "pid": pid, "tid": tid, "args": {"message": message}}


def thread_meta(tid=1, pid=1, label="worker"):
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": label}}


def metrics(counters=None, spans=None, schema="statpipe-metrics-v1"):
    return {"schema": schema, "counters": counters or {},
            "spans": spans or {}}


class TraceCheckTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)

    def write(self, name, doc, raw=None):
        path = self.dir / name
        path.write_text(raw if raw is not None else json.dumps(doc),
                        encoding="utf-8")
        return path

    def trace(self, name, events):
        return self.write(name, {"traceEvents": events})

    def run_check(self, *args):
        return subprocess.run(
            [sys.executable, str(TOOL)] + [str(a) for a in args],
            capture_output=True, text=True)

    # --------------------------------------------------- well-formedness

    def test_valid_trace_passes(self):
        t = self.trace("ok.json", [
            thread_meta(),
            span("mc.draw", 0.0, 5.0, lane=16),
            span("mc.walk", 5.0, 10.0),
            instant("coordinator", 20.0),
        ])
        r = self.run_check(t)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("all checks passed", r.stdout)

    def test_invalid_json_fails(self):
        t = self.write("bad.json", None, raw='{"traceEvents": [')
        r = self.run_check(t)
        self.assertEqual(r.returncode, 1)
        self.assertIn("invalid JSON", r.stdout)

    def test_missing_trace_events_key_fails(self):
        t = self.write("bad.json", {"events": []})
        r = self.run_check(t)
        self.assertEqual(r.returncode, 1)
        self.assertIn("traceEvents", r.stdout)

    def test_unknown_phase_fails(self):
        t = self.trace("bad.json", [dict(span("x", 0, 1), ph="Q")])
        r = self.run_check(t)
        self.assertEqual(r.returncode, 1)
        self.assertIn("unknown phase", r.stdout)

    def test_negative_duration_fails(self):
        t = self.trace("bad.json", [span("x", 0.0, -1.0)])
        r = self.run_check(t)
        self.assertEqual(r.returncode, 1)
        self.assertIn("'dur'", r.stdout)

    def test_missing_pid_tid_fails(self):
        ev = span("x", 0.0, 1.0)
        del ev["tid"]
        t = self.trace("bad.json", [ev])
        r = self.run_check(t)
        self.assertEqual(r.returncode, 1)
        self.assertIn("pid/tid", r.stdout)

    # ----------------------------------------------------- monotonicity

    def test_completion_times_must_be_monotonic_per_thread(self):
        # Second span completes before the first one did — corrupt order.
        t = self.trace("bad.json", [
            span("outer", 0.0, 100.0),
            span("late", 1.0, 2.0),
        ])
        r = self.run_check(t)
        self.assertEqual(r.returncode, 1)
        self.assertIn("monotonic", r.stdout)

    def test_nested_spans_are_fine(self):
        # Inner span closes first, so it is WRITTEN first: ts goes
        # backwards but completion time does not.  Must pass.
        t = self.trace("ok.json", [
            span("inner", 10.0, 5.0),
            span("outer", 0.0, 100.0),
        ])
        r = self.run_check(t)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_threads_are_independent(self):
        t = self.trace("ok.json", [
            span("a", 0.0, 100.0, tid=1),
            span("b", 1.0, 2.0, tid=2),  # earlier completion, other thread
        ])
        r = self.run_check(t)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    # ---------------------------------------------------- required spans

    def test_required_span_missing_fails(self):
        t = self.trace("ok.json", [span("mc.draw", 0, 1)])
        r = self.run_check(t, "--require-span", "mc.chol")
        self.assertEqual(r.returncode, 1)
        self.assertIn("mc.chol", r.stdout)

    def test_required_span_union_across_files(self):
        # dist runs split spans across coordinator and worker traces; the
        # requirement is satisfied by the union of all given files.
        coord = self.trace("coord.json", [span("dist.range", 0, 1)])
        worker = self.trace("worker.json", [span("mc.draw", 0, 1)])
        r = self.run_check(coord, worker, "--require-span", "dist.range",
                           "--require-span", "mc.draw")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    # --------------------------------------------------------- metrics

    def test_metrics_schema_and_required_counters(self):
        m = self.write("m.json", metrics(
            counters={"dist.commits": 4, "mc.samples": 1024},
            spans={"mc.draw": {"count": 2, "total_ns": 10,
                               "min_ns": 4, "max_ns": 6}}))
        t = self.trace("ok.json", [span("mc.draw", 0, 1)])
        r = self.run_check(t, "--metrics", m,
                           "--require-counter", "dist.commits")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_metrics_wrong_schema_fails(self):
        m = self.write("m.json", metrics(schema="statpipe-metrics-v0"))
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--metrics", m)
        self.assertEqual(r.returncode, 1)
        self.assertIn("statpipe-metrics-v1", r.stdout)

    def test_metrics_missing_counter_fails(self):
        m = self.write("m.json", metrics(counters={"mc.samples": 1}))
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--metrics", m,
                           "--require-counter", "dist.commits")
        self.assertEqual(r.returncode, 1)
        self.assertIn("dist.commits", r.stdout)

    def test_metrics_bad_span_stat_shape_fails(self):
        m = self.write("m.json", metrics(
            spans={"mc.draw": {"count": 1, "total_ns": "x"}}))
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--metrics", m)
        self.assertEqual(r.returncode, 1)
        self.assertIn("stat shape", r.stdout)

    def test_require_counter_without_metrics_is_an_error(self):
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--require-counter", "x")
        self.assertEqual(r.returncode, 2)  # argparse usage error

    # ----------------------------------------------- counter minimums

    def test_counter_minimum_met_passes(self):
        m = self.write("m.json", metrics(
            counters={"dist.service.cache.hits": 3, "dist.commits": 4}))
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--metrics", m,
                           "--require-counter-min",
                           "dist.service.cache.hits=1",
                           "--require-counter-min", "dist.commits=4")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_counter_below_minimum_fails(self):
        m = self.write("m.json", metrics(
            counters={"dist.service.cache.hits": 0}))
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--metrics", m,
                           "--require-counter-min",
                           "dist.service.cache.hits=1")
        self.assertEqual(r.returncode, 1)
        self.assertIn("below the required minimum", r.stdout)

    def test_counter_minimum_on_absent_counter_fails(self):
        m = self.write("m.json", metrics(counters={"mc.samples": 1}))
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--metrics", m,
                           "--require-counter-min",
                           "dist.service.cache.hits=1")
        self.assertEqual(r.returncode, 1)
        self.assertIn("dist.service.cache.hits", r.stdout)
        self.assertIn("absent", r.stdout)

    def test_counter_minimum_bad_spec_is_a_usage_error(self):
        m = self.write("m.json", metrics())
        t = self.trace("ok.json", [])
        for spec in ("no-equals", "name=", "=3", "name=-1", "name=abc"):
            r = self.run_check(t, "--metrics", m,
                               "--require-counter-min", spec)
            self.assertEqual(r.returncode, 2, spec)

    def test_counter_minimum_without_metrics_is_an_error(self):
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--require-counter-min", "x=1")
        self.assertEqual(r.returncode, 2)

    # ----------------------------------------------- counter maximums

    def test_counter_maximum_bounds_the_value(self):
        m = self.write("m.json", metrics(
            counters={"dist.workload.builds": 2}))
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--metrics", m,
                           "--require-counter-max", "dist.workload.builds=2")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        r = self.run_check(t, "--metrics", m,
                           "--require-counter-max", "dist.workload.builds=1")
        self.assertEqual(r.returncode, 1)
        self.assertIn("above the allowed maximum", r.stdout)

    def test_counter_maximum_on_absent_counter_fails(self):
        m = self.write("m.json", metrics(counters={"mc.samples": 1}))
        t = self.trace("ok.json", [])
        r = self.run_check(t, "--metrics", m,
                           "--require-counter-max", "dist.workload.builds=2")
        self.assertEqual(r.returncode, 1)
        self.assertIn("dist.workload.builds", r.stdout)
        self.assertIn("absent", r.stdout)

    def test_counter_maximum_bad_spec_or_no_metrics_is_a_usage_error(self):
        m = self.write("m.json", metrics())
        t = self.trace("ok.json", [])
        for spec in ("no-equals", "name=", "=3", "name=-1", "name=abc"):
            r = self.run_check(t, "--metrics", m,
                               "--require-counter-max", spec)
            self.assertEqual(r.returncode, 2, spec)
        r = self.run_check(t, "--require-counter-max", "x=1")
        self.assertEqual(r.returncode, 2)

    # ------------------------------------------------------ end-to-end

    def test_real_export_from_statpipe(self):
        # When a build tree is present, validate a real trace produced by
        # the instrumented binary — the same invocation CI runs.
        run_bin = Path(__file__).resolve().parent.parent / "build" / \
            "statpipe-run"
        if not run_bin.exists():
            self.skipTest("build/statpipe-run not present")
        trace = self.dir / "trace-%p.json"
        m = self.dir / "metrics.json"
        r = subprocess.run(
            [str(run_bin), "--workload", "c432", "--samples", "512",
             "--sigma-systematic", "0.01", "--spawn", "2",
             "--metrics", str(m), "--quiet"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin",
                 "STATPIPE_TRACE": str(trace)})
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        traces = sorted(self.dir.glob("trace-*.json"))
        self.assertTrue(traces)
        # The MC spans live in the WORKER traces (the coordinator only
        # dispatches), so the union check needs all of them; the metrics
        # snapshot is the coordinator's, so require a dist counter there.
        check = self.run_check(
            *traces, "--require-span", "mc.draw", "--require-span",
            "mc.chol", "--require-span", "mc.walk", "--require-span",
            "mc.fold", "--require-span", "dist.range",
            "--metrics", m, "--require-counter", "dist.commits")
        self.assertEqual(check.returncode, 0, check.stdout + check.stderr)


if __name__ == "__main__":
    unittest.main()
