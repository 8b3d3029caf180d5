#!/usr/bin/env python3
"""End-to-end benchmark of `ees online`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` binary (into
$CARGO_TARGET_DIR, default `.bench_build`), builds or reuses the workload's
fixture for the seed, then measures for S seconds:

* `--trace 0`: repeated untraced runs, each in a fresh process, plus
  set-up-only processes; prints every end-to-end metric.
* `--trace 1`: untraced and traced runs alternately; prints every
  per-layer metric and the tracing overhead.

Every run is checked against the batch reference; any mismatch makes the
result `"correct": false` and the exit code 1. The last stdout line is the
JSON result. See README.md in this directory for the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fileserver-binary", "cloudblock-restart")

END_TO_END = (
    ("events_per_s", "ev/s"),
    ("cpu_ns_per_event", "ns"),
    ("plan_latency_p50_ms", "ms"),
    ("plan_latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("avg_power_w", "W"),
    ("avg_response_ms", "ms"),
)

PER_LAYER = (
    ("ingest.wait_s", "s"),
    ("ingest.reader_s", "s"),
    ("ingest.batches", "count"),
    ("ingest.blocks", "count"),
    ("ingest.dropped", "count"),
    ("iotrace.decode_ns_per_event", "ns"),
    ("daemon.step_ns_per_event", "ns"),
    ("daemon.finish_ms", "ms"),
    ("online.observe_ns_per_event", "ns"),
    ("online.trigger_ns_per_event", "ns"),
    ("online.rollover_ms_p50", "ms"),
    ("online.rollover_ms_tail", "ms"),
    ("online.plans", "count"),
    ("online.trigger_cuts", "count"),
    ("replay.serve_ns_per_event", "ns"),
    ("replay.refresh_views_ms", "ms"),
    ("replay.apply_plan_ms", "ms"),
    ("sim.cache_hit_frac", "ratio"),
    ("sim.spin_ups", "count"),
    ("sim.migrated_bytes", "bytes"),
    ("plan.migrations", "count"),
    ("plan.preload_items", "count"),
    ("plan.write_delay_items", "count"),
    ("checkpoint.export_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.restore_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

MIN_RUNS = 3  # untraced runs (and traced runs) per measurement, at least
MAX_RUNS = 60
SETUPS_PER_RUN = 3  # set-up-only processes after each untraced run
KEEP_FIXTURES = 4  # trace directories kept in the fixture cache
STEP_TIMEOUT = 120  # seconds any one child process may take


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The 11th-largest sample: ten samples lie beyond it."""
    if not xs:
        return 0.0
    s = sorted(xs, reverse=True)
    return s[min(10, len(s) - 1)]


class ChildFailed(Exception):
    pass


def child(cmd):
    """Runs one child to completion and returns its last stdout line as JSON."""
    try:
        p = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=STEP_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{cmd[1]} timed out after {STEP_TIMEOUT} s")
    if p.returncode != 0:
        raise ChildFailed(f"{cmd[1]} exited {p.returncode}: {p.stderr.strip()}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{cmd[1]} printed nothing")
    return json.loads(lines[-1])


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    p = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(target, "release", "perfbench")


def evict(fixtures, current):
    """Keeps the current trace directory and the most recently used others."""
    os.utime(current)
    dirs = [os.path.join(fixtures, d) for d in os.listdir(fixtures)]
    dirs = [d for d in dirs if os.path.isdir(d) and os.path.abspath(d) != os.path.abspath(current)]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for d in dirs[KEEP_FIXTURES - 1 :]:
        shutil.rmtree(d, ignore_errors=True)


def tally(info, attempted_runs, runs):
    """(records attempted, records failed, problems) over the runs made."""
    attempted = info["records"] * attempted_runs
    failed = attempted - info["records"] * sum(1 for r in runs if r["ok"])
    return attempted, failed, [p for r in runs for p in r["problems"]]


def measure_end_to_end(base, info, deadline):
    runs, setups, failures, attempted_runs = [], [], [], 0
    while len(runs) < MAX_RUNS and (len(runs) < MIN_RUNS or time.monotonic() < deadline):
        attempted_runs += 1
        try:
            r = child(base("run"))
            runs.append(r)
            setups.append(r["setup_s"])
            for _ in range(SETUPS_PER_RUN):
                setups.append(child(base("setup"))["setup_s"])
        except ChildFailed as e:
            failures.append(str(e))
            break
    ok = [r for r in runs if r["ok"]]
    attempted, failed, problems = tally(info, attempted_runs, runs)
    failures.extend(problems)
    plan_counts = [len(r["plan_steps_ms"]) for r in ok]
    metrics = {
        "events_per_s": median([r["records"] / r["wall_s"] for r in ok]),
        "cpu_ns_per_event": median([r["cpu_s"] * 1e9 / r["records"] for r in ok]),
        "plan_latency_p50_ms": median([median(r["plan_steps_ms"]) for r in ok]),
        "plan_latency_tail_ms": median([tail(r["plan_steps_ms"]) for r in ok]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_bytes"] / 1e6 for r in ok]),
        "avg_power_w": median([r["avg_power_w"] for r in ok]),
        "avg_response_ms": median([r["avg_response_ms"] for r in ok]),
    }
    notes = [
        f"runs: {len(runs)} untraced, {len(setups)} set-ups",
        f"plan_latency_tail_ms is the 11th slowest of {median(plan_counts):.0f} plans per run",
        f"failed_frac: {failed / attempted:.6f} ratio ({failed} of {attempted} records)",
    ]
    return metrics, END_TO_END, attempted, failed, failures, notes


def measure_layers(base, info, deadline, spans):
    untraced, traced, failures, attempted_runs = [], [], [], 0
    while len(traced) < MAX_RUNS and (len(traced) < MIN_RUNS or time.monotonic() < deadline):
        try:
            attempted_runs += 1
            untraced.append(child(base("run")))
            attempted_runs += 1
            traced.append(child(base("trace") + ["--spans", spans]))
        except ChildFailed as e:
            failures.append(str(e))
            break
    attempted, failed, problems = tally(info, attempted_runs, untraced + traced)
    failures.extend(problems)
    u = [r for r in untraced if r["ok"]]
    t = [r for r in traced if r["ok"]]

    def mu(key):
        return median([r[key] for r in u])

    def mt(key):
        return median([r[key] for r in t])

    cp_source = u if info["resume_events"] else t
    metrics = {
        "ingest.wait_s": mu("wait_s"),
        "ingest.reader_s": mu("reader_s"),
        "ingest.batches": mu("batches"),
        "ingest.blocks": mu("blocks"),
        "ingest.dropped": mu("dropped"),
        "iotrace.decode_ns_per_event": mt("decode_ns_per_event"),
        "daemon.step_ns_per_event": mu("step_free_ns_per_event"),
        "daemon.finish_ms": mu("finish_ms"),
        "online.observe_ns_per_event": mt("observe_ns_per_event"),
        "online.trigger_ns_per_event": mt("trigger_ns_per_event"),
        "online.rollover_ms_p50": median([median(r["rollover_ms"]) for r in t]),
        "online.rollover_ms_tail": median([tail(r["rollover_ms"]) for r in t]),
        "online.plans": mt("plans"),
        "online.trigger_cuts": mt("trigger_cuts"),
        "replay.serve_ns_per_event": mt("serve_ns_per_event"),
        "replay.refresh_views_ms": median([median(r["refresh_views_ms"]) for r in t]),
        "replay.apply_plan_ms": median([median(r["apply_plan_ms"]) for r in t]),
        "sim.cache_hit_frac": mt("cache_hit_frac"),
        "sim.spin_ups": mt("spin_ups"),
        "sim.migrated_bytes": mt("migrated_bytes"),
        "plan.migrations": mt("plan_migrations"),
        "plan.preload_items": mt("plan_preload_items"),
        "plan.write_delay_items": mt("plan_write_delay_items"),
        "checkpoint.export_ms": median([median(r["cp_export_ms"]) for r in cp_source]),
        "checkpoint.write_ms": median([median(r["cp_write_ms"]) for r in cp_source]),
        "checkpoint.bytes": median([r["cp_bytes"] for r in cp_source]),
        "checkpoint.restore_ms": median([r["restore_ms"] for r in cp_source]),
        "trace.overhead_frac": mt("wall_s") / mu("wall_s") - 1 if u and t else 0.0,
    }
    notes = [
        f"runs: {len(untraced)} untraced, {len(traced)} traced; spans in {spans}",
        "checkpoint.*: "
        + (
            "the run's own per-plan checkpoints"
            if info["resume_events"]
            else "one probe of the final state after each traced run (this workload does not checkpoint)"
        ),
    ]
    return metrics, PER_LAYER, attempted, failed, failures, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target)
    fixtures = os.path.join(target, "perfbench-fixtures")

    def base(mode):
        return [binary, mode, "--workload", a.workload, "--seed", str(a.seed), "--root", fixtures]

    try:
        info = child(base("prepare"))
    except ChildFailed as e:
        log(f"perfbench: fixture, reference or cross-check failed: {e}")
        sys.exit(1)
    evict(fixtures, info["fixture"])
    log(f"fixture ready in {info['prepare_s']:.1f} s")

    deadline = time.monotonic() + a.seconds
    if a.trace:
        spans = os.path.join(info["fixture"], f"trace-{a.workload}.tsv")
        measured = measure_layers(base, info, deadline, spans)
    else:
        measured = measure_end_to_end(base, info, deadline)
    metrics, names, attempted, failed, failures, notes = measured

    print(f"host: nproc {info['nproc']}, scan ISA {info['scan_isa']}")
    print(
        f"workload {a.workload} seed {a.seed}: {info['records']} records, {info['items']} items, "
        f"{info['plans']} plans, {info['trace_bytes']} bytes"
        + (f", resumes after {info['resume_events']} records" if info["resume_events"] else "")
    )
    for name, unit in names:
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    for n in notes:
        print(f"  {n}")
    for f in failures:
        log(f"perfbench: {f}")
    correct = not failures and failed == 0
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
