//! The end-to-end chaos harness behind `ees chaos` (DESIGN.md §11).
//!
//! One run is a *differential* experiment, fully determined by a u64
//! seed:
//!
//! 1. generate a synthetic workload (strictly increasing timestamps —
//!    the [`Sanitizer`]'s contract) and step it through a fault-free
//!    1-shard [`ColocatedDaemon`] (the in-thread controller) → the
//!    **baseline** plan sequence;
//! 2. drive the *same* workload, serialized to NDJSON, through the full
//!    hardened path: a [`FaultyReader`] injecting malformed/truncated
//!    lines, duplicates, transpositions, and reader stalls; a
//!    [`RetryingReader`] absorbing the stalls; the [`Sanitizer`]
//!    repairing order; an N-shard [`ColocatedDaemon`] whose workers
//!    panic on a seeded [`PanicSchedule`] and get respawned by the
//!    supervisor; and checkpoint → encode → decode → restore cycles at
//!    seeded crash points;
//! 3. compare the two plan sequences. Under the insert-or-transpose-only
//!    fault model the harness demands they be **identical** — any
//!    divergence is a bug, not noise.
//!
//! A separate overflow leg pushes the faulty byte stream through the
//! ingest queue (one parser thread) under [`OverflowPolicy::DropNewest`]
//! with a consumer that never drains, pinning the exact accepted/dropped
//! event accounting when a fault burst overflows mid-batch.

use crate::controller::PlanEnvelope;
use crate::daemon::ColocatedDaemon;
use crate::error::OnlineError;
use crate::fault::{silence_injected_panics, FaultSpec, FaultyReader, PanicSchedule, Sanitizer};
use crate::ingest::{spawn_reader_parallel, OverflowPolicy, RetryingReader};
use crate::shard::{ShardOptions, SupervisionPolicy};
use ees_core::ProposedConfig;
use ees_iotrace::ndjson::{parse_event_borrowed, write_events};
use ees_iotrace::{DataItemId, EnclosureId, IoKind, LogicalIoRecord, Micros};
use ees_replay::CatalogItem;
use ees_simstorage::{Access, StorageConfig};
use ees_workloads::SplitMix64;
use std::collections::BTreeSet;
use std::io::{BufRead, Cursor};

/// Everything one chaos run depends on. The seed determines the
/// workload, the fault schedule, the worker-panic points, and the crash
/// points — two runs with the same config are bit-for-bit identical.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed.
    pub seed: u64,
    /// Shard workers in the hardened run; 1 runs the in-thread
    /// controller, which restores but has no workers to panic. The
    /// baseline is always in-thread.
    pub shards: usize,
    /// Genuine events in the synthetic workload.
    pub events: u64,
    /// Distinct data items in the workload.
    pub items: u32,
    /// Fault mix injected into the NDJSON stream.
    pub spec: FaultSpec,
    /// Checkpoint → encode → decode → restore cycles mid-run.
    pub crash_points: usize,
    /// Injected worker panics (respawned by the supervisor).
    pub worker_panics: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            shards: 4,
            events: 4000,
            items: 24,
            spec: FaultSpec::default_mix(),
            crash_points: 2,
            worker_panics: 4,
        }
    }
}

/// What one chaos run observed. `divergence == None` is the pass
/// condition; everything else is evidence the schedule actually
/// exercised the machinery.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Master seed (echoed for reproduction).
    pub seed: u64,
    /// Shard workers used.
    pub shards: usize,
    /// Genuine events generated.
    pub events: u64,
    /// Malformed lines injected.
    pub malformed: u64,
    /// Truncated lines injected.
    pub truncated: u64,
    /// Duplicate lines injected.
    pub duplicated: u64,
    /// Adjacent transpositions injected.
    pub swapped: u64,
    /// Reader stalls injected (each absorbed by the retrying reader).
    pub stalls: u64,
    /// Unparseable lines skipped by the harness (injected garbage).
    pub parse_skips: u64,
    /// Duplicates dropped by the sanitizer.
    pub dup_drops: u64,
    /// Workers the supervisor respawned.
    pub respawns: u64,
    /// Checkpoint/restore cycles completed.
    pub crash_restores: usize,
    /// Plans emitted by the hardened run.
    pub plans: usize,
    /// First difference against the fault-free baseline, if any.
    pub divergence: Option<String>,
    /// Overflow leg: events accepted before the queue filled.
    pub overflow_accepted: u64,
    /// Overflow leg: events dropped, counted per event.
    pub overflow_dropped: u64,
}

impl ChaosReport {
    /// True when the run met the §11 bar: zero plan divergence and the
    /// overflow leg accounted for every event.
    pub fn passed(&self) -> bool {
        self.divergence.is_none()
    }
}

const NUM_ENCLOSURES: u16 = 4;

fn synth_catalog(items: u32) -> Vec<CatalogItem> {
    (0..items)
        .map(|i| CatalogItem {
            id: DataItemId(i),
            size: 1 << 20,
            enclosure: EnclosureId((i % NUM_ENCLOSURES as u32) as u16),
            access: Access::Random,
        })
        .collect()
}

/// Synthetic workload with strictly increasing timestamps (200ms–1.2s
/// apart), the invariant that lets the sanitizer identify injected
/// duplicates and heal transpositions exactly.
fn synth_records(seed: u64, events: u64, items: u32) -> Vec<LogicalIoRecord> {
    let mut rng = SplitMix64::new(seed ^ 0x0057_EA4D);
    let mut ts = 0u64;
    (0..events)
        .map(|_| {
            ts += rng.gen_range(200_000..=1_200_000u64);
            LogicalIoRecord {
                ts: Micros(ts),
                item: DataItemId(rng.gen_range(0..items.max(1))),
                offset: rng.gen_range(0..1u64 << 30),
                len: 4096 << rng.gen_range(0..4u32),
                kind: if rng.gen_bool(0.4) {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
            }
        })
        .collect()
}

/// Runs one seeded chaos experiment; see the module docs for the shape.
/// `Err` means the hardened pipeline itself failed (a fatal supervision
/// error or an I/O failure) — plan divergence is reported in the
/// [`ChaosReport`] instead, so the caller can print both runs' evidence.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, OnlineError> {
    silence_injected_panics();
    let catalog = synth_catalog(cfg.items.max(1));
    let storage = StorageConfig::ams2500(NUM_ENCLOSURES);
    let policy = ProposedConfig::default();
    let records = synth_records(cfg.seed, cfg.events, cfg.items.max(1));
    let mut ndjson = Vec::with_capacity(records.len() * 64);
    write_events(&records, &mut ndjson)?;

    let daemon = |shards: usize, options: ShardOptions| {
        ColocatedDaemon::with_shard_options(
            &catalog,
            NUM_ENCLOSURES,
            &storage,
            policy,
            None,
            shards,
            options,
        )
    };
    let mut clean = daemon(1, ShardOptions::default());
    let mut baseline = Vec::new();
    for &rec in &records {
        baseline.extend(clean.step(rec)?);
    }

    // Hardened run: faulty bytes -> retrying reader -> parse-or-skip ->
    // sanitizer -> N-shard daemon with panic schedule + crash points.
    let (faulty, tally) = FaultyReader::new(
        Cursor::new(ndjson.clone()),
        cfg.seed ^ 0x000F_A017_5EED,
        cfg.spec,
    );
    let mut reader = RetryingReader::new(faulty);
    let shards = cfg.shards.max(1);
    let options = ShardOptions {
        supervision: SupervisionPolicy::Respawn,
        panic_schedule: (cfg.worker_panics > 0)
            .then(|| PanicSchedule::seeded(cfg.seed, shards, cfg.events, cfg.worker_panics)),
        ..ShardOptions::default()
    };
    let mut crash_at = BTreeSet::new();
    if cfg.crash_points > 0 && cfg.events > 2 {
        let mut rng = SplitMix64::new(cfg.seed ^ 0x0C4A_5119);
        while crash_at.len() < cfg.crash_points {
            crash_at.insert(rng.gen_range(1..cfg.events));
        }
    }
    let mut hardened = daemon(shards, options);
    let mut plans = Vec::new();
    let mut crash_restores = 0usize;
    let mut deliver = |rec: LogicalIoRecord| -> Result<(), OnlineError> {
        plans.extend(hardened.step(rec)?);
        if crash_at.remove(&hardened.events()) {
            hardened.crash_restore()?;
            crash_restores += 1;
        }
        Ok(())
    };
    let mut sanitizer = Sanitizer::new(Sanitizer::DEFAULT_WINDOW);
    let mut parse_skips = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_event_borrowed(trimmed) {
            Ok(rec) => {
                if let Some(ready) = sanitizer.push(rec) {
                    deliver(ready)?;
                }
            }
            Err(_) => parse_skips += 1,
        }
    }
    for rec in sanitizer.drain() {
        deliver(rec)?;
    }
    hardened.sync()?;

    let divergence = diff_plans(&baseline, &plans);

    // Overflow leg: the same faulty bytes against a consumer that never
    // drains, pinning exact per-event drop accounting under DropNewest.
    // Stalls are excluded (a WouldBlock would abort this bare reader) —
    // the main leg already covers them.
    let mut overflow_spec = cfg.spec;
    overflow_spec.stall_per_mille = 0;
    overflow_spec.malformed_per_mille = 0;
    overflow_spec.truncated_per_mille = 0;
    let (overflow_faulty, _) =
        FaultyReader::new(Cursor::new(ndjson), cfg.seed ^ 0x0F10_0D5D, overflow_spec);
    let (rx, _pool, counters, handle) =
        spawn_reader_parallel(overflow_faulty, 2, 64, OverflowPolicy::DropNewest, 1, 0);
    // Hold the receiver without draining until the producer is done, so
    // the accepted count is exactly the queue capacity in batches.
    let stats = handle
        .join()
        .map_err(|_| OnlineError::Checkpoint("overflow reader panicked".to_string()))?
        .map_err(OnlineError::Io)?;
    drop(rx);
    let overflow_total = counters.accepted() + counters.dropped();

    let mut report = ChaosReport {
        seed: cfg.seed,
        shards,
        events: cfg.events,
        malformed: tally.malformed.load(std::sync::atomic::Ordering::Relaxed),
        truncated: tally.truncated.load(std::sync::atomic::Ordering::Relaxed),
        duplicated: tally.duplicated.load(std::sync::atomic::Ordering::Relaxed),
        swapped: tally.swapped.load(std::sync::atomic::Ordering::Relaxed),
        stalls: tally.stalls.load(std::sync::atomic::Ordering::Relaxed),
        parse_skips,
        dup_drops: sanitizer.dropped_dups,
        respawns: hardened.respawns(),
        crash_restores,
        plans: plans.len(),
        divergence,
        overflow_accepted: stats.accepted,
        overflow_dropped: stats.dropped,
    };
    // The hardened run must have folded every genuine event exactly once.
    if report.divergence.is_none() && hardened.events() != cfg.events {
        report.divergence = Some(format!(
            "hardened run folded {} events, workload has {}",
            hardened.events(),
            cfg.events
        ));
    }
    // The overflow leg must account for every genuine event (duplicates
    // injected by the overflow schedule inflate the total; it can never
    // undercount).
    if report.divergence.is_none() && overflow_total < cfg.events {
        report.divergence = Some(format!(
            "overflow leg accounted {overflow_total} of {} events",
            cfg.events
        ));
    }
    Ok(report)
}

/// First difference between the baseline and hardened plan sequences,
/// rendered for a human; `None` when byte-identical.
fn diff_plans(baseline: &[PlanEnvelope], hardened: &[PlanEnvelope]) -> Option<String> {
    if baseline.len() != hardened.len() {
        return Some(format!(
            "plan count differs: baseline {} vs hardened {}",
            baseline.len(),
            hardened.len()
        ));
    }
    for (i, (a, b)) in baseline.iter().zip(hardened).enumerate() {
        if a != b {
            return Some(format!(
                "plan {i} differs: baseline {:?} vs hardened {:?}",
                a.period, b.period
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_chaos_run_has_zero_divergence() {
        let cfg = ChaosConfig {
            seed: 1,
            events: 2500,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg).expect("chaos run must complete");
        assert!(report.passed(), "divergence: {:?}", report.divergence);
        assert!(
            report.malformed + report.truncated > 0,
            "garbage must have been injected"
        );
        assert_eq!(
            report.parse_skips,
            report.malformed + report.truncated,
            "every injected garbage line is skipped, nothing else"
        );
        assert!(report.dup_drops >= report.duplicated, "dups healed");
        assert!(report.crash_restores > 0, "crash points exercised");
        assert!(report.plans > 0);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let cfg = ChaosConfig {
            seed: 7,
            events: 1200,
            shards: 2,
            crash_points: 1,
            worker_panics: 2,
            ..ChaosConfig::default()
        };
        let a = run_chaos(&cfg).unwrap();
        let b = run_chaos(&cfg).unwrap();
        assert_eq!(a.parse_skips, b.parse_skips);
        assert_eq!(a.dup_drops, b.dup_drops);
        assert_eq!(a.plans, b.plans);
        assert_eq!(a.divergence, b.divergence);
        assert!(a.passed());
    }

    #[test]
    fn worker_panics_are_respawned_and_harmless() {
        let cfg = ChaosConfig {
            seed: 3,
            events: 3000,
            shards: 2,
            worker_panics: 6,
            crash_points: 0,
            spec: FaultSpec::none(),
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg).unwrap();
        assert!(report.respawns > 0, "panic schedule must have fired");
        assert!(report.passed(), "divergence: {:?}", report.divergence);
    }
}
