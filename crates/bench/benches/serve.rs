//! Microbenchmark: `StreamHarness::serve`, the per-record storage stage
//! of the replay engine and of `ees online`, on a 1 % File Server trace
//! under a plan with live preload and write-delay sets, so every branch
//! of the serve path (preload hit, general-cache LRU, buffered write,
//! physical I/O) runs at the trace's own mix.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ees_iotrace::{DataItemId, IoKind, LogicalIoRecord, Micros};
use ees_policy::ManagementPlan;
use ees_replay::{CatalogItem, StreamHarness};
use ees_simstorage::StorageConfig;
use ees_workloads::{fileserver, FileServerParams};
use std::collections::BTreeMap;

/// Items ranked by how often `kind` touches them, most first.
fn ranked(trace: &[LogicalIoRecord], kind: IoKind) -> Vec<DataItemId> {
    let mut counts: BTreeMap<DataItemId, u64> = BTreeMap::new();
    for r in trace.iter().filter(|r| r.kind == kind) {
        *counts.entry(r.item).or_default() += 1;
    }
    let mut ids: Vec<(u64, DataItemId)> = counts.into_iter().map(|(id, n)| (n, id)).collect();
    ids.sort_by(|a, b| b.cmp(a));
    ids.into_iter().map(|(_, id)| id).collect()
}

fn bench_serve(c: &mut Criterion) {
    let w = fileserver::generate(1, &FileServerParams::scaled(0.01));
    let trace = w.trace.records();
    let catalog: Vec<CatalogItem> = w
        .items
        .iter()
        .map(|i| CatalogItem {
            id: i.id,
            size: i.size,
            enclosure: i.enclosure,
            access: i.access,
        })
        .collect();
    let cfg = StorageConfig::ams2500(w.num_enclosures);
    let mut harness = StreamHarness::new(&catalog, w.num_enclosures, &cfg);

    // Preload the most-read items that fit the partition; write-delay
    // the four most-written items not preloaded.
    let size: BTreeMap<DataItemId, u64> = w.items.iter().map(|i| (i.id, i.size)).collect();
    let mut plan = ManagementPlan::default();
    let mut budget = harness.preload_budget();
    for id in ranked(trace, IoKind::Read) {
        if size[&id] <= budget {
            budget -= size[&id];
            plan.preload.push((id, size[&id]));
        }
    }
    plan.write_delay = ranked(trace, IoKind::Write)
        .into_iter()
        .filter(|id| plan.preload.iter().all(|(p, _)| p != id))
        .take(4)
        .collect();
    assert!(!plan.preload.is_empty() && !plan.write_delay.is_empty());
    harness.apply_plan(Micros::ZERO, &plan);
    harness.begin_period();

    // One pass over the trace per iteration, reported per record (the
    // throughput); each pass is shifted past the previous one so
    // enclosure clocks only move forward, and the caches stay warm.
    let span = trace.last().map_or(Micros(1), |r| r.ts + Micros(1));
    let mut shift = Micros::ZERO;
    let mut group = c.benchmark_group("serve_fileserver_1pct");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function(BenchmarkId::new("records", trace.len()), |b| {
        b.iter(|| {
            for &rec in trace {
                let rec = LogicalIoRecord {
                    ts: rec.ts + shift,
                    ..rec
                };
                black_box(harness.serve(black_box(rec)));
            }
            shift += span;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
