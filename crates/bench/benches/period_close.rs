//! Microbenchmark: one period close of the single-shard online
//! controller — the classifier rollover plus `Planner::plan` — on
//! cloud-block catalogs of 2k, 8k and 32k volumes.
//!
//! Each size replays the cloud-block generator through the daemon's
//! per-record order (observe, serve, triggers) at a 60 s initial period
//! until `WARM_PLANS` plans have closed, so the planner carries previous
//! preload and write-delay sets, and captures the controller state at the
//! next scheduled boundary. The harness closure has to restore that state
//! before every close, so the restore is timed on its own beside it, and
//! the close alone is timed inside the closure and printed per item.
//!
//! ```bash
//! cargo bench -p ees-bench --bench period_close
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ees_core::ProposedConfig;
use ees_iotrace::{DataItemId, Micros};
use ees_online::{ControllerState, OnlineController, RolloverReason};
use ees_policy::EnclosureView;
use ees_replay::{CatalogItem, StreamHarness};
use ees_simstorage::{PlacementMap, StorageConfig};
use ees_workloads::{cloudblock, CloudBlockParams};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Plans closed before the captured boundary.
const WARM_PLANS: u64 = 8;

/// Everything one close reads: the controller state just before a
/// scheduled boundary and the storage side at that cut.
struct Boundary {
    cfg: ProposedConfig,
    state: ControllerState,
    t_end: Micros,
    placement: PlacementMap,
    sequential: BTreeSet<DataItemId>,
    views: Vec<EnclosureView>,
}

fn capture(volumes: u32) -> Boundary {
    let params = CloudBlockParams {
        num_volumes: volumes,
        ..CloudBlockParams::default()
    };
    let stream = cloudblock::stream(1, &params);
    let catalog: Vec<CatalogItem> = stream
        .items()
        .iter()
        .map(|i| CatalogItem {
            id: i.id,
            size: i.size,
            enclosure: i.enclosure,
            access: i.access,
        })
        .collect();
    let storage = StorageConfig::ams2500(params.num_enclosures);
    let mut harness = StreamHarness::new(&catalog, params.num_enclosures, &storage);
    let cfg = ProposedConfig {
        initial_period: Micros::from_secs(60),
        ..ProposedConfig::default()
    };
    let mut ctl = OnlineController::new(cfg, harness.break_even());
    let mut plans = 0u64;
    for rec in stream {
        while ctl.needs_rollover(rec.ts) {
            let t_end = ctl.boundary();
            if plans >= WARM_PLANS {
                harness.refresh_views();
                return Boundary {
                    cfg,
                    state: ctl.export_state(),
                    t_end,
                    placement: harness.placement().clone(),
                    sequential: harness.sequential().clone(),
                    views: harness.views().to_vec(),
                };
            }
            close(&mut ctl, &mut harness, t_end, RolloverReason::Boundary);
            plans += 1;
        }
        ctl.observe(&rec);
        let served = harness.serve(rec);
        let mut fired = false;
        if served.spun_up {
            fired |= ctl.observe_spin_up(rec.ts, served.enclosure);
        }
        fired |= ctl.observe_io_event(rec.ts, served.enclosure);
        if fired && rec.ts > ctl.period_start() {
            close(&mut ctl, &mut harness, rec.ts, RolloverReason::Trigger);
            plans += 1;
        }
    }
    panic!("the trace ended before plan {WARM_PLANS}");
}

fn close(
    ctl: &mut OnlineController,
    harness: &mut StreamHarness,
    t_end: Micros,
    reason: RolloverReason,
) {
    harness.refresh_views();
    let env = ctl.rollover(
        t_end,
        reason,
        harness.placement(),
        harness.sequential(),
        harness.views(),
    );
    harness.apply_plan(t_end, &env.plan);
    harness.begin_period();
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs.get(xs.len() / 2).copied().unwrap_or_default()
}

fn bench_period_close(c: &mut Criterion) {
    let mut group = c.benchmark_group("period_close");
    group.sample_size(10);
    for volumes in [2_000u32, 8_000, 32_000] {
        let b = capture(volumes);
        let items = b.placement.len();
        group.bench_function(BenchmarkId::new("restore", volumes), |bench| {
            bench.iter(|| OnlineController::from_state(b.cfg, black_box(b.state.clone())))
        });
        let mut closes = Vec::new();
        group.bench_function(BenchmarkId::new("restore_and_close", volumes), |bench| {
            bench.iter(|| {
                let mut ctl = OnlineController::from_state(b.cfg, b.state.clone());
                let t0 = Instant::now();
                let env = ctl.rollover(
                    b.t_end,
                    RolloverReason::Boundary,
                    &b.placement,
                    &b.sequential,
                    &b.views,
                );
                closes.push(t0.elapsed());
                black_box(env)
            })
        });
        let close = median(closes);
        println!(
            "period_close/{volumes}: {items} items, close {:.3} ms = {:.3} us per item",
            close.as_secs_f64() * 1e3,
            close.as_secs_f64() * 1e6 / items as f64
        );
    }
    group.finish();
}

criterion_group!(benches, bench_period_close);
criterion_main!(benches);
