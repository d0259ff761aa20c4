#!/usr/bin/env python3
"""Build the statpipe benchmark and run one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library, statpipe-worker and the perfbench driver)
into .bench_build/perfbench with CMake, runs the driver with a pinned pool
width, and prints the driver's "# ..." lines followed by one JSON result
line:

  {"correct": b, "attempted": n, "failed": n, "metrics": {...}}

Before printing, it checks the driver's output against BENCHMARK.json: the
workload must be named there, and the metrics must be exactly the
`end_to_end` ones (--trace 0) or the `per_layer` ones (--trace 1), each
with its declared unit and a finite value.  A traced run's Chrome trace and
obs metrics snapshot are validated with tools/trace_check.py.  Every
failed check counts as a failed operation and makes the exit status 1.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# The driver's own limit, counted from the end of the build: a cold build
# has its own timeout and may take most of the first run's allowance.
RUN_LIMIT_S = 170.0
# Spans the traced run must contain: one per layer the benchmark calls.
REQUIRED_SPANS = [
    "netlist.build", "sta.analyze_ssta", "sta.characterize_grid",
    "opt.optimize_individually", "opt.size_stage", "opt.optimize",
    "sim.parallel_for", "process.sample_block", "mc.engine_ctor", "mc.run",
    "core.yield", "core.build_pipeline_ssta", "dist.fleet_ready",
    "dist.request", "dist.submit", "dist.wait", "dist.run_local_task",
]
# obs counters the traced run must have driven above zero.
REQUIRED_COUNTERS = ["mc.samples", "sim.pool.tasks", "opt.sizer.iterations",
                     "dist.service.cache.hits"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pool_threads():
    """The pinned pool width: half the machine's CPUs (at most 4 of them),
    so 2 on the 4-vCPU reference machine.  The spare CPUs absorb host
    noise: on a shared VM a pool as wide as the machine waits on every
    descheduled vCPU at each of the sizer's ~25k fan-outs per solve, and
    its ten-run spread measured 15-34% against 1-5% at half width."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus) // 2)


def build(jobs):
    """Configures and builds the driver (both no-ops when up to date);
    returns its path or None."""
    # (command, timeout [s]): with RUN_LIMIT_S, a first run ends within
    # 900 s however slow its build.
    steps = [(["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"], 120),
             (["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", str(jobs)], 600)]
    for cmd, limit in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=limit).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step {cmd[:2]} failed: {e}")
            return None
        if rc != 0:
            log(f"build step {' '.join(cmd[:3])} exited {rc}")
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def stop_group(proc):
    """Kills whatever is left of the driver's process group (nothing, after
    a clean run) and waits until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def self_check(spec, trace, metrics):
    """Problems with the printed metrics versus BENCHMARK.json."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} is named but not printed")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} printed with unit "
                            f"{m.get('unit')!r}, declared {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"metric {name} has no finite value")
    for name in metrics:
        if name not in declared:
            problems.append(f"metric {name} is printed but not named")
    return problems


def check_trace(trace_path, metrics_path):
    """Runs tools/trace_check.py on the traced run's outputs."""
    cmd = [sys.executable, os.path.join("tools", "trace_check.py"),
           trace_path, "--metrics", metrics_path]
    for s in REQUIRED_SPANS:
        cmd += ["--require-span", s]
    for c in REQUIRED_COUNTERS:
        cmd += ["--require-counter-min", f"{c}=1"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=60)
    return [] if r.returncode == 0 else \
        [f"trace_check: {line}" for line in r.stdout.splitlines()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"workload {args.workload!r} is not named in BENCHMARK.json")
        return 2

    threads = pool_threads()
    binary = build(threads)
    if binary is None:
        return 1

    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, STATPIPE_THREADS=str(threads))
    env.pop("STATPIPE_TRACE", None)  # the traced run writes its own trace
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    # Own process group: on a timeout, or when this script is terminated,
    # the driver and the worker processes it spawned are killed together,
    # and all of them are waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        stop_group(proc)
    if out is None:
        log("perfbench did not finish in time")
        return 1
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench exited {proc.returncode} without a result line")
        sys.stdout.write(out)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"# workload {args.workload} seed {args.seed} pool threads "
          f"{threads} (pinned), driver exit {proc.returncode}")

    problems = self_check(spec, args.trace == 1, result["metrics"])
    if args.trace == 1:
        stem = os.path.join(trace_dir,
                            f"trace-{args.workload}-{args.seed}")
        problems += check_trace(stem + ".json", stem + ".metrics.json")
    for p in problems:
        print(f"# SELF-CHECK FAILED: {p}")
    attempted = result["attempted"] + 1
    failed = result["failed"] + (1 if problems else 0)
    if proc.returncode != 0 and failed == 0:
        failed = 1
    correct = bool(result["correct"]) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
