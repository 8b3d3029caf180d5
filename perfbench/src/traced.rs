//! The traced run: the same fixture fed through the public layer calls
//! `ColocatedDaemon::step` makes, in its order, with a clock read at each
//! layer boundary.
//!
//! Per-record calls (`needs_rollover`, `observe`, `serve`, the trigger
//! observers) fold into an [`Agg`]: count, sum and a log2 histogram.
//! Per-batch and per-plan calls keep a full [`SpanRec`] in memory,
//! written out by [`write_spans`] when the run ends.

use crate::drive::{open_input, Checkpointing};
use crate::fixture::{catalog_interner, catalog_of, read_items, Fixture};
use ees_iotrace::{DataItemId, EnclosureId, LogicalIoRecord, Micros};
use ees_online::{
    read_checkpoint_file, write_checkpoint_file, ColocatedDaemon, ControllerCheckpoint,
    OnlineController, OnlineSummary, PlanEnvelope, RolloverReason, ShardedController,
};
use ees_policy::EnclosureView;
use ees_replay::StreamHarness;
use ees_simstorage::{PlacementMap, StorageConfig};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// A per-record layer call, aggregated.
#[derive(Debug, Clone)]
pub struct Agg {
    /// Calls.
    pub count: u64,
    /// Total time, ns.
    pub sum_ns: u64,
    /// Calls by duration: bucket `b` holds durations in `[2^(b-1), 2^b)` ns.
    pub hist: [u64; 64],
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            count: 0,
            sum_ns: 0,
            hist: [0; 64],
        }
    }
}

impl Agg {
    fn add(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.count += 1;
        self.sum_ns += ns;
        self.hist[(64 - ns.leading_zeros() as usize).min(63)] += 1;
    }

    /// Mean ns per call.
    pub fn ns_per_call(&self) -> f64 {
        self.sum_ns as f64 / self.count.max(1) as f64
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer call.
    pub name: &'static str,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Plans emitted before the span started: spans of one plan share it.
    pub plan: usize,
}

struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        plan: usize,
    ) -> usize {
        self.spans.push(SpanRec {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            plan,
        });
        self.spans.len() - 1
    }
}

/// Either controller flavour `ColocatedDaemon` wraps, called directly.
// One per run, so the variant size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum Ctl {
    Single(OnlineController),
    Sharded(ShardedController),
}

impl Ctl {
    fn needs_rollover(&self, ts: Micros) -> bool {
        match self {
            Ctl::Single(c) => c.needs_rollover(ts),
            Ctl::Sharded(c) => c.needs_rollover(ts),
        }
    }

    fn boundary(&self) -> Micros {
        match self {
            Ctl::Single(c) => c.boundary(),
            Ctl::Sharded(c) => c.boundary(),
        }
    }

    fn period_start(&self) -> Micros {
        match self {
            Ctl::Single(c) => c.period_start(),
            Ctl::Sharded(c) => c.period_start(),
        }
    }

    fn observe(&mut self, rec: &LogicalIoRecord) {
        match self {
            Ctl::Single(c) => c.observe(rec),
            Ctl::Sharded(c) => c.observe(rec),
        }
    }

    fn observe_spin_up(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        match self {
            Ctl::Single(c) => c.observe_spin_up(t, enclosure),
            Ctl::Sharded(c) => c.observe_spin_up(t, enclosure),
        }
    }

    fn observe_io_event(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        match self {
            Ctl::Single(c) => c.observe_io_event(t, enclosure),
            Ctl::Sharded(c) => c.observe_io_event(t, enclosure),
        }
    }

    fn rollover(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        views: &[EnclosureView],
    ) -> Result<PlanEnvelope, String> {
        match self {
            Ctl::Single(c) => Ok(c.rollover(t_end, reason, placement, sequential, views)),
            Ctl::Sharded(c) => c
                .rollover(t_end, reason, placement, sequential, views)
                .map_err(|e| e.to_string()),
        }
    }

    fn checkpoint(
        &mut self,
        events: u64,
        last_ts: Micros,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
    ) -> Result<ControllerCheckpoint, String> {
        match self {
            Ctl::Single(c) => Ok(ControllerCheckpoint {
                events,
                last_ts,
                placement: placement
                    .iter()
                    .map(|(id, pl)| (id, pl.enclosure, pl.size))
                    .collect(),
                sequential: sequential.iter().copied().collect(),
                names: Vec::new(),
                state: c.export_state(),
            }),
            Ctl::Sharded(c) => c
                .checkpoint(events, last_ts, placement, sequential)
                .map_err(|e| e.to_string()),
        }
    }

    fn sync(&mut self) -> Result<(), String> {
        match self {
            Ctl::Single(_) => Ok(()),
            Ctl::Sharded(c) => c.sync().map_err(|e| e.to_string()),
        }
    }

    fn periods(&self) -> u64 {
        match self {
            Ctl::Single(c) => c.periods(),
            Ctl::Sharded(c) => c.periods(),
        }
    }

    fn trigger_cuts(&self) -> u64 {
        match self {
            Ctl::Single(c) => c.trigger_cuts(),
            Ctl::Sharded(c) => c.trigger_cuts(),
        }
    }
}

/// What the traced run measured per layer, and what it produced.
#[derive(Debug)]
pub struct TraceOutcome {
    /// Reader spawned → summary built (the untraced run's `wall`).
    pub wall: Duration,
    /// Plans emitted.
    pub plans: Vec<PlanEnvelope>,
    /// The run's summary, built as `ColocatedDaemon::finish` builds it.
    pub summary: OnlineSummary,
    /// Records consumed, skipped prefix included.
    pub records: u64,
    /// Records the reader dropped.
    pub dropped: u64,
    /// `needs_rollover` checks of records that crossed no boundary.
    pub boundary_check: Agg,
    /// `observe`: classifier fold, or route + ring send when sharded.
    pub observe: Agg,
    /// `StreamHarness::serve`.
    pub serve: Agg,
    /// `observe_spin_up` + `observe_io_event`.
    pub trigger: Agg,
    /// Each controller `rollover` (barrier, merge, planner).
    pub rollover: Vec<Duration>,
    /// Each `refresh_views`.
    pub refresh_views: Vec<Duration>,
    /// Each `apply_plan`.
    pub apply_plan: Vec<Duration>,
    /// Serves answered from cache (`physical == false`).
    pub cache_hits: u64,
    /// Enclosure spin-ups over the run.
    pub spin_ups: u64,
    /// Bytes the storage unit migrated.
    pub migrated_bytes: u64,
    /// Plans cut short by a trigger.
    pub trigger_cuts: u64,
    /// Migrations, preload items and write-delay items over all plans.
    pub plan_counts: (u64, u64, u64),
    /// Every per-batch and per-plan span.
    pub spans: Vec<SpanRec>,
    /// Checkpoint export, write and restore of the final state, and the
    /// checkpoint's size: timed after the run, outside `wall`, when the
    /// workload does not checkpoint itself.
    pub probe: Option<(Duration, Duration, Duration, u64)>,
}

/// `ColocatedDaemon::invoke`, one span per layer call.
fn invoke(
    harness: &mut StreamHarness,
    ctl: &mut Ctl,
    out: &mut TraceOutcome,
    tr: &mut Tracer,
    t_end: Micros,
    reason: RolloverReason,
) -> Result<(), String> {
    let plan = out.plans.len();
    let t0 = Instant::now();
    harness.refresh_views();
    let t1 = Instant::now();
    let env = ctl.rollover(
        t_end,
        reason,
        harness.placement(),
        harness.sequential(),
        harness.views(),
    )?;
    let t2 = Instant::now();
    harness.apply_plan(t_end, &env.plan);
    let t3 = Instant::now();
    harness.begin_period();
    let t4 = Instant::now();
    let id = tr.record("plan", t0, t4, None, plan);
    tr.record("replay.refresh_views", t0, t1, Some(id), plan);
    tr.record("online.rollover", t1, t2, Some(id), plan);
    tr.record("replay.apply_plan", t2, t3, Some(id), plan);
    tr.record("replay.begin_period", t3, t4, Some(id), plan);
    out.refresh_views.push(t1 - t0);
    out.rollover.push(t2 - t1);
    out.apply_plan.push(t3 - t2);
    out.plans.push(env);
    Ok(())
}

/// One traced run of the workload.
pub fn run_traced(fx: &Fixture, checkpointing: &Checkpointing) -> Result<TraceOutcome, String> {
    let items = read_items(&fx.items_path())?;
    let (mut catalog, num_enclosures) = catalog_of(&items);
    let storage = StorageConfig::ams2500(num_enclosures);
    let policy = fx.spec.policy();
    let shards = fx.spec.shards;
    let mut names = Vec::new();
    // The controller and harness as `with_shard_options` or
    // `resume_with_options` build them.
    let (mut harness, mut ctl, mut events, mut last_ts, cp_path) = match checkpointing {
        Checkpointing::Resume(path) => {
            let cp = read_checkpoint_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
            names.clone_from(&cp.names);
            let homes: std::collections::BTreeMap<DataItemId, (EnclosureId, u64)> = cp
                .placement
                .iter()
                .map(|&(id, enc, size)| (id, (enc, size)))
                .collect();
            for it in &mut catalog {
                if let Some(&(enc, size)) = homes.get(&it.id) {
                    it.enclosure = enc;
                    it.size = size;
                }
            }
            let harness = StreamHarness::new(&catalog, num_enclosures, &storage);
            let ctl = if shards > 1 {
                Ctl::Sharded(
                    ShardedController::from_checkpoint(
                        policy,
                        shards,
                        fx.spec.shard_options(),
                        &cp,
                    )
                    .map_err(|e| e.to_string())?,
                )
            } else {
                Ctl::Single(OnlineController::from_state(policy, cp.state.clone()))
            };
            (harness, ctl, cp.events, cp.last_ts, Some(path.as_path()))
        }
        Checkpointing::Off => {
            let harness = StreamHarness::new(&catalog, num_enclosures, &storage);
            let break_even = harness.break_even();
            let ctl = if shards > 1 {
                Ctl::Sharded(ShardedController::with_options(
                    policy,
                    break_even,
                    shards,
                    fx.spec.shard_options(),
                ))
            } else {
                Ctl::Single(OnlineController::new(policy, break_even))
            };
            (harness, ctl, 0, Micros::ZERO, None)
        }
    };
    let interner = catalog_interner(&items, &names);
    let resume_skip = events;
    let input = open_input(fx)?;

    let start = Instant::now();
    let mut tr = Tracer {
        origin: start,
        spans: Vec::new(),
    };
    let mut out = TraceOutcome {
        wall: Duration::ZERO,
        plans: Vec::new(),
        summary: OnlineSummary {
            duration: Micros::ZERO,
            events: 0,
            periods: 0,
            trigger_cuts: 0,
            avg_power_watts: 0.0,
            spin_ups: 0,
            avg_response: Micros::ZERO,
        },
        records: 0,
        dropped: 0,
        boundary_check: Agg::default(),
        observe: Agg::default(),
        serve: Agg::default(),
        trigger: Agg::default(),
        rollover: Vec::new(),
        refresh_views: Vec::new(),
        apply_plan: Vec::new(),
        cache_hits: 0,
        spin_ups: 0,
        migrated_bytes: 0,
        trigger_cuts: 0,
        plan_counts: (0, 0, 0),
        spans: Vec::new(),
        probe: None,
    };
    let mut response_sum = 0.0f64;
    let mut skipped = 0u64;

    let checkpoint = |harness: &StreamHarness,
                      ctl: &mut Ctl,
                      tr: &mut Tracer,
                      events: u64,
                      last_ts: Micros,
                      plan: usize,
                      path: &Path|
     -> Result<(Duration, Duration), String> {
        let t0 = Instant::now();
        let mut cp = ctl.checkpoint(events, last_ts, harness.placement(), harness.sequential())?;
        let t1 = Instant::now();
        cp.names = interner.export();
        write_checkpoint_file(path, &cp).map_err(|e| format!("{}: {e}", path.display()))?;
        let t2 = Instant::now();
        tr.record("checkpoint.export", t0, t1, None, plan);
        tr.record("checkpoint.write", t1, t2, None, plan);
        Ok((t1 - t0, t2 - t1))
    };

    let mut t_prev = start;
    for mut batch in input.rx.iter() {
        let t_got = Instant::now();
        tr.record("ingest.recv", t_prev, t_got, None, out.plans.len());
        let mut last = t_got;
        for rec in batch.drain(..) {
            if skipped < resume_skip {
                skipped += 1;
                continue;
            }
            let plans_before = out.plans.len();
            // 1-2. Scheduled boundaries at or before this record.
            while ctl.needs_rollover(rec.ts) {
                let t_end = ctl.boundary();
                invoke(
                    &mut harness,
                    &mut ctl,
                    &mut out,
                    &mut tr,
                    t_end,
                    RolloverReason::Boundary,
                )?;
            }
            let t = Instant::now();
            if out.plans.len() == plans_before {
                out.boundary_check.add(t - last);
            }
            last = t;
            // 3. Classify.
            let ts = rec.ts;
            last_ts = last_ts.max(ts);
            events += 1;
            ctl.observe(&rec);
            let t = Instant::now();
            out.observe.add(t - last);
            last = t;
            // 4. Serve.
            let served = harness.serve(rec);
            let t = Instant::now();
            out.serve.add(t - last);
            last = t;
            out.cache_hits += u64::from(!served.physical);
            response_sum += served.response.as_secs_f64();
            // 5. Stream events for the §V.D triggers.
            let mut invoke_now = false;
            if served.spun_up {
                invoke_now |= ctl.observe_spin_up(ts, served.enclosure);
            }
            invoke_now |= ctl.observe_io_event(ts, served.enclosure);
            let t = Instant::now();
            out.trigger.add(t - last);
            last = t;
            // 6. Trigger rollover.
            if invoke_now && ts > ctl.period_start() {
                invoke(
                    &mut harness,
                    &mut ctl,
                    &mut out,
                    &mut tr,
                    ts,
                    RolloverReason::Trigger,
                )?;
            }
            if out.plans.len() > plans_before {
                if let Some(path) = cp_path {
                    checkpoint(
                        &harness,
                        &mut ctl,
                        &mut tr,
                        events,
                        last_ts,
                        out.plans.len(),
                        path,
                    )?;
                }
                last = Instant::now();
            }
        }
        input.pool.recycle(batch);
        let t_done = Instant::now();
        tr.record("batch", t_got, t_done, None, out.plans.len());
        t_prev = t_done;
    }
    input
        .reader
        .join()
        .map_err(|_| "ingest thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    ctl.sync()?;
    if let Some(path) = cp_path {
        checkpoint(
            &harness,
            &mut ctl,
            &mut tr,
            events,
            last_ts,
            out.plans.len(),
            path,
        )?;
    }
    out.dropped = input.live.snapshot().dropped;
    // `ColocatedDaemon::finish(None)`.
    harness.finish(last_ts);
    let unit = harness.controller();
    out.summary = OnlineSummary {
        duration: last_ts,
        events,
        periods: ctl.periods(),
        trigger_cuts: ctl.trigger_cuts(),
        avg_power_watts: unit.average_watts(last_ts),
        spin_ups: unit.total_spin_ups(),
        avg_response: Micros::from_secs_f64(response_sum / events.max(1) as f64),
    };
    let end = Instant::now();
    tr.record("finish", t0, end, None, out.plans.len());
    out.wall = end - start;
    out.records = skipped + events - resume_skip;
    out.spin_ups = unit.total_spin_ups();
    out.migrated_bytes = unit.migrated_bytes();
    out.trigger_cuts = out
        .plans
        .iter()
        .filter(|p| p.reason == RolloverReason::Trigger)
        .count() as u64;
    for p in &out.plans {
        out.plan_counts.0 += p.plan.migrations.len() as u64;
        out.plan_counts.1 += p.plan.preload.len() as u64;
        out.plan_counts.2 += p.plan.write_delay.len() as u64;
    }
    if cp_path.is_none() {
        let path = fx.dir.join(format!("probe-{}.ckpt", std::process::id()));
        let plan = out.plans.len();
        let (export, write) =
            checkpoint(&harness, &mut ctl, &mut tr, events, last_ts, plan, &path)?;
        let t2 = Instant::now();
        let back = read_checkpoint_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let resumed = ColocatedDaemon::resume_with_options(
            &catalog,
            num_enclosures,
            &storage,
            policy,
            shards,
            fx.spec.shard_options(),
            &back,
        )
        .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        drop(resumed);
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&path);
        out.probe = Some((export, write, t3 - t2, bytes));
    }
    out.spans = tr.spans;
    Ok(out)
}

impl TraceOutcome {
    /// Writes the trace as tab-separated lines: one `span name start_ns
    /// end_ns parent plan` line per span (`-` for no parent), then one
    /// `layer name count sum_ns h0 … h63` line per per-record layer.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "span\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.plan
            )?;
        }
        for (name, agg) in [
            ("online.needs_rollover", &self.boundary_check),
            ("online.observe", &self.observe),
            ("replay.serve", &self.serve),
            ("online.trigger", &self.trigger),
        ] {
            let hist: Vec<String> = agg.hist.iter().map(u64::to_string).collect();
            writeln!(
                w,
                "layer\t{name}\t{}\t{}\t{}",
                agg.count,
                agg.sum_ns,
                hist.join("\t")
            )?;
        }
        w.flush()
    }
}

/// One-core decode pass over the fixture bytes: `parse_event_borrowed`
/// per NDJSON line, or `decode_block` per framed block. Returns
/// (records decoded, time taken).
pub fn decode_pass(fx: &Fixture) -> Result<(u64, Duration), String> {
    let path = fx.trace_path();
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let t0 = Instant::now();
    let mut n = 0u64;
    if fx.spec.binary {
        let blocks = ees_iotrace::BlockSplitter::new(&bytes).map_err(|e| e.to_string())?;
        for block in blocks {
            let decoded = ees_iotrace::decode_block(block.map_err(|e| e.to_string())?);
            if let Some((rec, msg)) = decoded.error {
                return Err(format!("block record {rec}: {msg}"));
            }
            n += std::hint::black_box(decoded.events).len() as u64;
        }
    } else {
        let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
        for line in text.lines().filter(|l| !l.is_empty()) {
            let rec = ees_iotrace::ndjson::parse_event_borrowed(line)?;
            std::hint::black_box(rec);
            n += 1;
        }
    }
    Ok((n, t0.elapsed()))
}
