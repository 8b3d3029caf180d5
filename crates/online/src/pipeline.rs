//! Monitor-mode pipeline drivers: an event stream in, a plan sequence
//! out, with no per-record storage simulation — the shape of a controller
//! watching a real storage unit rather than replaying against the
//! simulator.
//!
//! Two drivers over identical plan semantics:
//!
//! * [`run_monitor_serial`] — the test oracle: the calling thread parses
//!   NDJSON with [`EventReader`] and folds every record into the
//!   single-threaded [`OnlineController`].
//! * [`run_monitor_sharded`] — the production shape: the parallel front
//!   end ([`ParallelScanner`] over a [`ScanSource`], DESIGN.md §13)
//!   parses NDJSON or `ees.event.v1` binary on
//!   [`ShardOptions::resolved_readers`] threads — one included — and this
//!   thread, the coordinator, walks the re-sequenced records in exact
//!   stream order: rollover sequencing,
//!   [`observe`](ShardedController::observe) routing into the shard
//!   channels, and the §V.D trigger sweep.
//!
//! Both return the same plans on the same input (property-tested by the
//! `sharded` suite); the throughput smoke in `ci.sh` times one against
//! the other to produce `BENCH_online.json`.
//!
//! The sharded driver overlaps rollover with ingest (DESIGN.md §12): at a
//! period cut it calls
//! [`rollover_begin`](ShardedController::rollover_begin), and while the
//! workers drain their queues and snapshot in parallel it parks on the
//! parser channel with a timeout ([`ParallelScanner::stage_one`]),
//! staging completed chunks in the reorder buffer; it then collects the
//! merge in [`rollover_finish`](ShardedController::rollover_finish).
//! Staged records are *not* routed or trigger-swept until the plan lands,
//! because routing feeds the next cut and the §V.D sweep depends on the
//! plan's placement and re-armed triggers — staging is what keeps the
//! plan sequence byte-identical to the serial controller.

use crate::controller::RolloverReason;
use crate::frontend::{ParallelScanner, ScanSource, CUT_PARK};
use crate::shard::{ShardOptions, ShardedController};
use crate::{OnlineController, PlanEnvelope};
use ees_core::ProposedConfig;
use ees_iotrace::ndjson::EventReader;
use ees_iotrace::parallel::threads;
use ees_iotrace::Micros;
use ees_replay::{CatalogItem, StreamHarness};
use ees_simstorage::StorageConfig;
use std::io::{BufRead, Read};
use std::time::Instant;

/// Records the sharded driver stages while a cut is in flight before it
/// stops reading ahead and blocks on the merge — bounds the read-ahead
/// at one period's worth, independent of how long the merge takes.
const READ_AHEAD_RECORDS: usize = 4096;

/// What a monitor run produced, with per-plan latency samples.
#[derive(Debug, Clone)]
pub struct MonitorOutcome {
    /// Logical records ingested.
    pub events: u64,
    /// The plan sequence, one envelope per period rollover.
    pub plans: Vec<PlanEnvelope>,
    /// Wall-clock ingest **stall** per rollover, in microseconds. For
    /// the serial driver this is the whole cut (classify + plan). For
    /// the sharded driver it is the time the driver thread was *blocked*
    /// on the cut — `rollover_begin` (flush + cut broadcast) plus
    /// `rollover_finish` (reply wait + merge + plan) — explicitly
    /// excluding the read-ahead staging loop in between, which is
    /// forward progress, not stall.
    pub rollover_micros: Vec<u64>,
}

impl MonitorOutcome {
    /// Nearest-rank p99 of the per-rollover ingest-to-plan latency, in
    /// microseconds (0 when no plan was emitted).
    pub fn p99_rollover_micros(&self) -> u64 {
        if self.rollover_micros.is_empty() {
            return 0;
        }
        let mut sorted = self.rollover_micros.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() as f64 * 0.99).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// Runs the monitor over NDJSON `input` as the serial oracle: the
/// calling thread parses each line and folds it into an
/// [`OnlineController`]. `break_even` defaults to the storage model's
/// own break-even time.
pub fn run_monitor_serial<R: BufRead>(
    input: R,
    items: &[CatalogItem],
    num_enclosures: u16,
    storage: &StorageConfig,
    policy: ProposedConfig,
    break_even: Option<Micros>,
) -> std::io::Result<MonitorOutcome> {
    let mut harness = StreamHarness::new(items, num_enclosures, storage);
    let break_even = break_even.unwrap_or_else(|| harness.break_even());
    let mut controller = OnlineController::new(policy, break_even);
    let mut events = 0u64;
    let mut plans = Vec::new();
    let mut rollover_micros = Vec::new();
    for rec in EventReader::new(input) {
        let rec = rec?;
        while controller.needs_rollover(rec.ts) {
            let t_end = controller.boundary();
            let started = Instant::now();
            harness.refresh_views();
            let env = controller.rollover(
                t_end,
                RolloverReason::Boundary,
                harness.placement(),
                harness.sequential(),
                harness.views(),
            );
            harness.apply_plan(t_end, &env.plan);
            harness.begin_period();
            rollover_micros.push(started.elapsed().as_micros() as u64);
            plans.push(env);
        }
        controller.observe(&rec);
        events += 1;
        // §V.D trigger (i): the idle-hot sweep runs on every I/O, resolved
        // to the enclosure the item currently lives on. Monitor mode has
        // no power simulation, so spin-up events (trigger ii) don't occur.
        let enclosure = harness.placement().enclosure_of(rec.item);
        if let Some(enclosure) = enclosure {
            if controller.observe_io_event(rec.ts, enclosure) && rec.ts > controller.period_start()
            {
                let started = Instant::now();
                harness.refresh_views();
                let env = controller.rollover(
                    rec.ts,
                    RolloverReason::Trigger,
                    harness.placement(),
                    harness.sequential(),
                    harness.views(),
                );
                harness.apply_plan(rec.ts, &env.plan);
                harness.begin_period();
                rollover_micros.push(started.elapsed().as_micros() as u64);
                plans.push(env);
            }
        }
    }
    Ok(MonitorOutcome {
        events,
        plans,
        rollover_micros,
    })
}

/// Cuts the period at `t_end` overlapped with ingest: the workers drain
/// and snapshot while the coordinator **parks** on the parser channel
/// ([`ParallelScanner::stage_one`], [`CUT_PARK`] at a time, never a
/// spin), staging completed chunks — bounded by [`READ_AHEAD_RECORDS`] —
/// into the reorder buffer. The recorded stall is begin plus finish wall
/// time; the park loop is read-ahead, not stall.
fn parallel_cut(
    scanner: &mut ParallelScanner<'_>,
    controller: &mut ShardedController,
    harness: &mut StreamHarness,
    plans: &mut Vec<PlanEnvelope>,
    rollover_micros: &mut Vec<u64>,
    t_end: Micros,
    reason: RolloverReason,
) -> std::io::Result<()> {
    let started = Instant::now();
    harness.refresh_views();
    controller.rollover_begin(
        t_end,
        reason,
        harness.placement(),
        harness.sequential(),
        harness.views(),
    )?;
    let begin_stall = started.elapsed();
    while !controller.rollover_ready() {
        scanner.stage_one(CUT_PARK, READ_AHEAD_RECORDS);
    }
    let finishing = Instant::now();
    let env = controller.rollover_finish()?;
    harness.apply_plan(t_end, &env.plan);
    harness.begin_period();
    rollover_micros.push((begin_stall + finishing.elapsed()).as_micros() as u64);
    plans.push(env);
    Ok(())
}

/// Runs the monitor over `source` with the sharded pipeline: `shards`
/// workers (`0` → [`threads()`], the `EES_THREADS` convention) fold in
/// parallel, fed by the parallel ingest front end on
/// [`ShardOptions::resolved_readers`] parser threads. The format —
/// NDJSON, or framed or unframed `ees.event.v1` — is sniffed from the
/// first bytes, and [`ScanSource::Slice`] hands an in-memory (typically
/// mmap'd) trace to the parsers zero-copy. Record order is what the plan
/// sequence depends on, so the plans are byte-identical to
/// [`run_monitor_serial`] on the same input by construction, and a
/// malformed line surfaces the serial reader's `line N:` error.
#[allow(clippy::too_many_arguments)]
pub fn run_monitor_sharded<R>(
    source: ScanSource<'_, R>,
    items: &[CatalogItem],
    num_enclosures: u16,
    storage: &StorageConfig,
    policy: ProposedConfig,
    break_even: Option<Micros>,
    shards: usize,
    options: ShardOptions,
) -> std::io::Result<MonitorOutcome>
where
    R: Read + Send,
{
    let mut harness = StreamHarness::new(items, num_enclosures, storage);
    let break_even = break_even.unwrap_or_else(|| harness.break_even());
    let shards = if shards == 0 { threads() } else { shards };
    let readers = options.resolved_readers(shards);
    let chunk_bytes = options.chunk_bytes;
    let mut controller = ShardedController::with_options(policy, break_even, shards, options);
    std::thread::scope(|scope| {
        let mut scanner = ParallelScanner::spawn_source(scope, source, readers, chunk_bytes);
        let mut events = 0u64;
        let mut plans = Vec::new();
        let mut rollover_micros = Vec::new();
        while let Some(chunk) = scanner.next_ordered()? {
            for rec in &chunk.records {
                while controller.needs_rollover(rec.ts) {
                    let t_end = controller.boundary();
                    parallel_cut(
                        &mut scanner,
                        &mut controller,
                        &mut harness,
                        &mut plans,
                        &mut rollover_micros,
                        t_end,
                        RolloverReason::Boundary,
                    )?;
                }
                controller.observe(rec);
                events += 1;
                // Same §V.D trigger (i) sweep as the serial driver; the
                // cut's shard flush covers the just-routed record.
                let enclosure = harness.placement().enclosure_of(rec.item);
                if let Some(enclosure) = enclosure {
                    if controller.observe_io_event(rec.ts, enclosure)
                        && rec.ts > controller.period_start()
                    {
                        parallel_cut(
                            &mut scanner,
                            &mut controller,
                            &mut harness,
                            &mut plans,
                            &mut rollover_micros,
                            rec.ts,
                            RolloverReason::Trigger,
                        )?;
                    }
                }
            }
            if let Some(err) = chunk.error {
                // In-band stream error, positioned after the chunk's good
                // records — the serial reader would abort exactly here.
                return Err(err.to_io_error());
            }
        }
        controller.sync()?;
        Ok(MonitorOutcome {
            events,
            plans,
            rollover_micros,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{DataItemId, EnclosureId};
    use ees_simstorage::Access;
    use std::io::Cursor;

    fn catalog(n: u32) -> Vec<CatalogItem> {
        (0..n)
            .map(|i| CatalogItem {
                id: DataItemId(i),
                size: 1 << 20,
                enclosure: EnclosureId((i % 4) as u16),
                access: Access::Random,
            })
            .collect()
    }

    fn trace(events: u64, items: u32) -> String {
        let mut s = String::from("# monitor pipeline fixture\n");
        for i in 0..events {
            s.push_str(&format!(
                "{{\"ts\":{},\"item\":{},\"offset\":0,\"len\":4096,\"kind\":\"{}\"}}\n",
                i * 500_000,
                i % items as u64,
                if i % 3 == 0 { "Write" } else { "Read" },
            ));
        }
        s
    }

    #[test]
    fn serial_and_sharded_agree_plan_for_plan() {
        let items = catalog(12);
        let storage = StorageConfig::ams2500(4);
        let input = trace(4000, 12);
        let serial = run_monitor_serial(
            Cursor::new(input.clone()),
            &items,
            4,
            &storage,
            ProposedConfig::default(),
            None,
        )
        .unwrap();
        for shards in [1usize, 2, 3, 8] {
            for readers in [1usize, 0] {
                let sharded = run_monitor_sharded(
                    ScanSource::Reader(Cursor::new(input.clone())),
                    &items,
                    4,
                    &storage,
                    ProposedConfig::default(),
                    None,
                    shards,
                    ShardOptions {
                        readers,
                        ..ShardOptions::default()
                    },
                )
                .unwrap();
                let ctx = format!("shards = {shards}, readers = {readers}");
                assert_eq!(serial.events, sharded.events, "{ctx}");
                assert_eq!(serial.plans.len(), sharded.plans.len(), "{ctx}");
                for (a, b) in serial.plans.iter().zip(&sharded.plans) {
                    assert_eq!(a.period, b.period, "{ctx}");
                    assert_eq!(a.plan, b.plan, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn sharded_reports_the_serial_error_line() {
        let items = catalog(4);
        let storage = StorageConfig::ams2500(4);
        let mut input = trace(50, 4);
        input
            .push_str("{\"ts\":26000000,\"item\":1,\"offset\":0,\"len\":4096,\"kind\":\"Nope\"}\n");
        let serial_err = run_monitor_serial(
            Cursor::new(input.clone()),
            &items,
            4,
            &storage,
            ProposedConfig::default(),
            None,
        )
        .unwrap_err();
        let sharded_err = run_monitor_sharded(
            ScanSource::<std::io::Empty>::Slice(input.as_bytes()),
            &items,
            4,
            &storage,
            ProposedConfig::default(),
            None,
            3,
            ShardOptions::default(),
        )
        .unwrap_err();
        assert_eq!(serial_err.to_string(), sharded_err.to_string());
    }

    #[test]
    fn p99_is_nearest_rank() {
        let outcome = MonitorOutcome {
            events: 0,
            plans: Vec::new(),
            rollover_micros: (1..=100).collect(),
        };
        assert_eq!(outcome.p99_rollover_micros(), 99);
        let empty = MonitorOutcome {
            events: 0,
            plans: Vec::new(),
            rollover_micros: Vec::new(),
        };
        assert_eq!(empty.p99_rollover_micros(), 0);
    }
}
