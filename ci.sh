#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root; pass extra cargo args after `--` if needed.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== dependency policy (workspace crates only at run time) =="
# Every normal and build dependency must be a workspace (ees*) crate: the
# only external crates are the dev-dependencies proptest and criterion.
# A registry crate in the runtime graph fails here by name.
FOREIGN="$(cargo tree --workspace -e normal,build --prefix none \
    | awk 'NF { print $1 }' | grep -v '^ees' | sort -u || true)"
if [ -n "$FOREIGN" ]; then
    echo "external runtime dependencies:" $FOREIGN
    exit 1
fi

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo test (forced-SWAR scan kernels) =="
# The scan dispatch picks the widest ISA the host supports, so the
# portable SWAR fallback never runs on modern x86 unless forced. Pin it:
# the iotrace suite (scan/ndjson/chunk property tests included) must
# pass byte-for-byte with the fallback kernels selected.
EES_SCAN_ISA=swar cargo test -p ees-iotrace -q

echo "== cargo test --release (core, simulator, replay, ingest arithmetic) =="
# Release builds wrap integer overflow and compile out debug_assert!, so
# the storage simulator's index arithmetic (masked wrapping_sub probe
# distances, u32 slot ids), the replay harness on top of it, the
# planner's id-indexed period close (with the core proptests), the
# NDJSON fast path's digit folds (unchecked up to 19 digits, checked
# beyond; proptested against the general grammar and, through
# `parse_lines`, against the per-line path) and the ingest sink's
# delivery-cap arithmetic also run under the release profile.
cargo test --release -q -p ees-core -p ees-simstorage -p ees-replay -p ees-iotrace -p ees-online

echo "== cargo build --release =="
cargo build --release --workspace

echo "== online subsystem tests =="
cargo test -q -p ees-online

echo "== benchmark harness self-test (perfbench) =="
# perfbench/ is its own Cargo workspace with path dependencies on
# crates/*, so the workspace build above never compiles it: without this
# step an ees-online API change that breaks the benchmark would pass.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== ees online smoke (1k-event NDJSON stream) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run --release -q -p ees-cli --bin ees -- \
    gen fileserver --scale 0.002 --seed 7 --out "$SMOKE_DIR" >/dev/null
head -n 1000 "$SMOKE_DIR/fileserver.trace.jsonl" > "$SMOKE_DIR/events.ndjsonl"
cargo run --release -q -p ees-cli --bin ees -- \
    online "$SMOKE_DIR/events.ndjsonl" "$SMOKE_DIR/fileserver.items.json" \
    --period 1 --json > "$SMOKE_DIR/online.json"
grep -q '"mode": "online"' "$SMOKE_DIR/online.json"
grep -q '"reason":"boundary"' "$SMOKE_DIR/online.json" \
    || { echo "online smoke: no plan emitted"; exit 1; }
echo "online smoke OK"

echo "== sharded online byte-identity (cloud-block; 1, 2, 4 shards; fresh and resumed) =="
# A 60 s-period cloud-block trace dense enough that at 4 shards every
# shard ships at least three full 1,024-record batches in every period
# (850k records, 7 plans), so the shard hand-off, the supervision
# journal and the cut all run on full batches. `ees online --json
# --checkpoint` runs it at 1, 2 and 4 shards, fresh and resumed from
# the checkpoint a run over the trace's first third leaves. Every shard
# count must print the same plan lines and leave the same final
# checkpoint bytes; a resumed run must print the fresh run's last plans
# and end in its checkpoint.
ID_DIR="$SMOKE_DIR/identity"
mkdir -p "$ID_DIR"
ees() { cargo run --release -q -p ees-cli --bin ees -- "$@"; }
ees gen cloudblock --scale 0.03 --volumes 10000 --seed 1 --out "$ID_DIR" >/dev/null
TRACE="$ID_DIR/cloudblock.trace.jsonl"
ITEMS="$ID_DIR/cloudblock.items.json"
head -n "$(( $(wc -l < "$TRACE") / 3 ))" "$TRACE" > "$ID_DIR/prefix.jsonl"
for SHARDS in 1 2 4; do
    ees online "$TRACE" "$ITEMS" --period 60 --shards "$SHARDS" --json \
        --checkpoint "$ID_DIR/fresh-$SHARDS.ckpt" | grep '"reason"' > "$ID_DIR/fresh-$SHARDS.plans"
    ees online "$ID_DIR/prefix.jsonl" "$ITEMS" --period 60 --shards "$SHARDS" --json \
        --checkpoint "$ID_DIR/resumed-$SHARDS.ckpt" >/dev/null
    ees online "$TRACE" "$ITEMS" --period 60 --shards "$SHARDS" --json \
        --checkpoint "$ID_DIR/resumed-$SHARDS.ckpt" | grep '"reason"' > "$ID_DIR/resumed-$SHARDS.plans"
done
for RUN in fresh-2 fresh-4 resumed-1 resumed-2 resumed-4; do
    cmp "$ID_DIR/fresh-1.ckpt" "$ID_DIR/$RUN.ckpt"
done
cmp "$ID_DIR/fresh-1.plans" "$ID_DIR/fresh-2.plans"
cmp "$ID_DIR/fresh-1.plans" "$ID_DIR/fresh-4.plans"
RESUMED_PLANS="$(wc -l < "$ID_DIR/resumed-1.plans")"
[ "$RESUMED_PLANS" -gt 0 ] || { echo "byte-identity: the resumed run emitted no plan"; exit 1; }
for SHARDS in 1 2 4; do
    tail -n "$RESUMED_PLANS" "$ID_DIR/fresh-1.plans" | cmp - "$ID_DIR/resumed-$SHARDS.plans"
done
echo "sharded byte-identity OK ($(wc -l < "$ID_DIR/fresh-1.plans") plans, $RESUMED_PLANS after the resume)"

echo "== online throughput smoke (100k events -> BENCH_online.json) =="
# Times the serial monitor driver against the sharded one (parallel
# ingest front end: one reader per shard) on a fixed 100k-event stream,
# plus the same stream as a framed ees.event.v1 slice through the
# zero-copy binary front end (median of 3 runs per driver, after a
# warm-up). It also times the borrowed-line NDJSON parser alone
# (ndjson_parse_events_per_sec) — the figure the dispatched scan
# kernels move directly. With a checked-in baseline the run is a gate:
# >20% events/sec regression on any of the three drivers or on the raw
# parse rate fails, sharded p99
# rollover stall may not grow past 2x the baseline, scaling efficiency
# (scaling_efficiency_x1000 = sharded / (serial x shards)) may not drop
# below 80% of the baseline, and on >=4-CPU machines three absolute
# bars apply: scaling efficiency >= 70% (x1000 >= 700), sharded p99
# rollover stall <= 200 us, and framed-binary file ingest >= 1.5x the
# sharded NDJSON events/sec. The first run seeds the baseline.
BENCH_BASE="results/BENCH_online.baseline.json"
cargo run --release -q -p ees-bench --bin online_smoke -- \
    results/BENCH_online.json "$BENCH_BASE"
if [ ! -f "$BENCH_BASE" ]; then
    cp results/BENCH_online.json "$BENCH_BASE"
    echo "online bench: baseline seeded at $BENCH_BASE (check it in)"
fi
echo "online bench smoke OK"

echo "== net ingest smoke (1M events, 4 senders -> BENCH_net.json) =="
# Streams the same 1M-event set over a Unix socket from 4 concurrent
# senders — once as NDJSON, once as ees.event.v1 binary — through the
# k-way watermark merge (median of 3 runs per format, after a warm-up).
# Two absolute bars always apply: the merge must be lossless and binary
# ingest must run >= 1.5x the NDJSON events/sec. With a checked-in
# baseline the run is also a gate: >25% events/sec regression on either
# format fails, and peak RSS (VmHWM) may not grow past 1.5x the
# baseline. The first run seeds the baseline.
NET_BASE="results/BENCH_net.baseline.json"
cargo run --release -q -p ees-bench --bin net_smoke -- \
    results/BENCH_net.json "$NET_BASE"
if [ ! -f "$NET_BASE" ]; then
    cp results/BENCH_net.json "$NET_BASE"
    echo "net bench: baseline seeded at $NET_BASE (check it in)"
fi
echo "net bench smoke OK"

echo "== chaos gate (8 seeds x {1,2,4} shards) =="
# Differential fault-injection sweep (DESIGN.md §11): each seed runs the
# full hardened pipeline — malformed/truncated/duplicated/reordered
# input, reader stalls, worker panics, crash/restore through the
# checkpoint codec — and compares plans against a fault-free serial run.
# `ees chaos` exits non-zero on any plan divergence or escaped panic.
# At 1 shard the daemon runs the in-thread controller, which restores
# but has no workers to panic, so worker supervision stays in the gate
# at two shard counts, 2 and 4.
for CHAOS_SHARDS in 1 2 4; do
    cargo run --release -q -p ees-cli --bin ees -- \
        chaos --seed 1 --seeds 8 --shards "$CHAOS_SHARDS" --events 3000
done
echo "chaos gate OK"

echo "== endurance gate (50 periods x cloudblock -> BENCH_endure.json) =="
# Long-horizon soak in smoke form (DESIGN.md §16): a seeded 50-period
# cloud-block run through the sharded controller with worker panics and
# periodic checkpoint/restore cycles injected, plus a fault-free serial
# leg that must reproduce every per-period row byte for byte. Absolute
# bars: back-half savings drift within ±0.01/period, back-half savings
# >= 15%, and a 60 s wall-clock budget. With a checked-in baseline the
# seeded vitals (events, savings, drift, p99, trigger cuts) must match
# it exactly — the run is bit-reproducible, so any difference is a
# behaviour change, not noise. The first run seeds the baseline.
ENDURE_BASE="results/BENCH_endure.baseline.json"
cargo run --release -q -p ees-bench --bin endure_smoke -- \
    results/BENCH_endure.json "$ENDURE_BASE"
if [ ! -f "$ENDURE_BASE" ]; then
    cp results/BENCH_endure.json "$ENDURE_BASE"
    echo "endurance bench: baseline seeded at $ENDURE_BASE (check it in)"
fi
# The CLI surface of the same contract: `ees endure` must hold the
# drift bar itself (exits non-zero past it) at a different seed.
cargo run --release -q -p ees-cli --bin ees -- \
    endure --seed 11 --periods 50 --shards 4 --drift-bar 0.01 >/dev/null
echo "endurance gate OK"

echo "CI gate passed."
