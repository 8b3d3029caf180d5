//! The untraced run: the calls `ees online <file> <items> [--checkpoint]`
//! makes (`crates/cli/src/commands.rs::online`), in the same order,
//! in-process. The only additions are clock reads: two per delivered
//! batch, two around each checkpoint call, and two around each `step`
//! whose record reaches the next reference plan's period end (the only
//! steps that can emit a plan).

use crate::fixture::{Fixture, PlanKey};
use crate::spec::BATCH;
use crate::util::process_cpu;
use ees_iotrace::{map_file, sniff_format_checked, ItemInterner, LogicalIoRecord};
use ees_online::{
    read_checkpoint_file, spawn_reader_parallel_mapped, write_checkpoint_file, BatchPool,
    ColocatedDaemon, IngestCounters, OnlineSummary, OverflowPolicy, PlanEnvelope,
};
use ees_simstorage::StorageConfig;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Whether a run checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum Checkpointing {
    /// No `--checkpoint`.
    Off,
    /// `--checkpoint PATH` on an existing file: resume from it, then
    /// rewrite it at every plan and at end of stream.
    Resume(PathBuf),
}

impl Checkpointing {
    fn path(&self) -> Option<&Path> {
        match self {
            Checkpointing::Off => None,
            Checkpointing::Resume(p) => Some(p),
        }
    }
}

/// The event stream `ees online` opens on a regular file: mapped, its
/// format strictly sniffed, parsed by the parallel front end.
pub struct Input {
    /// Batches in file order.
    pub rx: Receiver<Vec<LogicalIoRecord>>,
    /// Where drained batches go back for reuse.
    pub pool: BatchPool,
    /// Live producer counters.
    pub live: Arc<IngestCounters>,
    /// The reader thread.
    pub reader: JoinHandle<std::io::Result<ees_online::IngestStats>>,
}

/// Maps, sniffs and spawns the reader as `ees online` does for a file
/// argument, under its default queue, batch and `Block` backpressure.
pub fn open_input(fx: &Fixture) -> Result<Input, String> {
    let path = fx.trace_path();
    let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let map = map_file(&file)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .ok_or_else(|| format!("{}: cannot be memory-mapped here", path.display()))?;
    sniff_format_checked(&map).map_err(|e| format!("{}: {e}", path.display()))?;
    let (rx, pool, live, reader) = spawn_reader_parallel_mapped(
        map,
        fx.spec.capacity(),
        BATCH,
        OverflowPolicy::Block,
        fx.spec.readers(),
        0,
    );
    Ok(Input {
        rx,
        pool,
        live,
        reader,
    })
}

/// Everything a run measured and produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Items file read → reader spawned.
    pub setup: Duration,
    /// Checkpoint read + daemon resume (restart runs).
    pub restore: Option<Duration>,
    /// Reader spawned → `finish` returned.
    pub wall: Duration,
    /// Process CPU over `wall`.
    pub cpu: Duration,
    /// Records consumed, skipped prefix included.
    pub records: u64,
    /// Plans emitted.
    pub plans: Vec<PlanEnvelope>,
    /// Duration of each `step` that emitted at least one plan.
    pub plan_steps: Vec<Duration>,
    /// Plans emitted by a step the reference did not predict (never
    /// timed; a correct run has none).
    pub unprobed_plans: usize,
    /// The daemon's summary.
    pub summary: OnlineSummary,
    /// Records dropped by the reader.
    pub dropped: u64,
    /// Chunks or framed blocks the reader re-sequenced.
    pub blocks: u64,
    /// Batches the coordinator received.
    pub batches: u64,
    /// Coordinator time blocked in `recv`.
    pub wait: Duration,
    /// Reader spawned → its channel closed.
    pub reader: Duration,
    /// Time in batches of plan-free steps (no plan, no checkpoint, no
    /// skipped record in the batch).
    pub step_free: Duration,
    /// Records stepped in those batches.
    pub step_free_records: u64,
    /// `sync` + `finish`.
    pub finish: Duration,
    /// Each `checkpoint()` call.
    pub cp_export: Vec<Duration>,
    /// Each names export + `write_checkpoint_file`.
    pub cp_write: Vec<Duration>,
    /// Size of the last checkpoint written.
    pub cp_bytes: u64,
}

/// The daemon and input after set-up, before the first record.
struct Opened {
    daemon: ColocatedDaemon,
    interner: Arc<Mutex<ItemInterner>>,
    input: Input,
    resume_skip: u64,
    restore: Option<Duration>,
    setup: Duration,
}

/// `ees online`'s set-up, timed from reading the items file to the
/// reader thread running.
fn open(fx: &Fixture, checkpointing: &Checkpointing) -> Result<Opened, String> {
    let t0 = Instant::now();
    let items_path = fx.items_path();
    let items = crate::fixture::read_items(&items_path)?;
    if items.is_empty() {
        return Err(format!("{}: no items", items_path.display()));
    }
    let (catalog, num_enclosures) = crate::fixture::catalog_of(&items);
    let storage = StorageConfig::ams2500(num_enclosures);
    let policy = fx.spec.policy();
    let shard_options = fx.spec.shard_options();
    let mut names = Vec::new();
    let mut restore = None;
    let daemon = match checkpointing {
        Checkpointing::Resume(path) => {
            let t = Instant::now();
            let cp = read_checkpoint_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
            names.clone_from(&cp.names);
            let d = ColocatedDaemon::resume_with_options(
                &catalog,
                num_enclosures,
                &storage,
                policy,
                fx.spec.shards,
                shard_options,
                &cp,
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
            restore = Some(t.elapsed());
            d
        }
        Checkpointing::Off => ColocatedDaemon::with_shard_options(
            &catalog,
            num_enclosures,
            &storage,
            policy,
            None,
            fx.spec.shards,
            shard_options,
        ),
    };
    let resume_skip = if restore.is_some() {
        daemon.events()
    } else {
        0
    };
    let interner = Arc::new(Mutex::new(crate::fixture::catalog_interner(&items, &names)));
    let input = open_input(fx)?;
    Ok(Opened {
        daemon,
        interner,
        input,
        resume_skip,
        restore,
        setup: t0.elapsed(),
    })
}

/// Set-up alone: opens everything a run opens, then hangs up on the
/// reader and tears down. Returns the set-up time.
pub fn setup_only(fx: &Fixture, checkpointing: &Checkpointing) -> Result<Duration, String> {
    let opened = open(fx, checkpointing)?;
    let setup = opened.setup;
    let Input { rx, reader, .. } = opened.input;
    drop(rx);
    reader
        .join()
        .map_err(|_| "ingest thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    drop(opened.daemon);
    Ok(setup)
}

/// Writes one checkpoint as `ees online --checkpoint` does at a plan;
/// returns (export time, write time).
fn write_checkpoint(
    daemon: &mut ColocatedDaemon,
    interner: &Mutex<ItemInterner>,
    path: &Path,
) -> Result<(Duration, Duration), String> {
    let t0 = Instant::now();
    let mut cp = daemon.checkpoint().map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    cp.names = interner.lock().expect("interner lock poisoned").export();
    write_checkpoint_file(path, &cp).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((t1 - t0, t1.elapsed()))
}

/// One untraced run of the workload.
pub fn run_online(fx: &Fixture, checkpointing: &Checkpointing) -> Result<RunOutcome, String> {
    let Opened {
        mut daemon,
        interner,
        input,
        resume_skip,
        restore,
        setup,
    } = open(fx, checkpointing)?;
    let cp_path = checkpointing.path();
    let cpu0 = process_cpu();
    let start = Instant::now();

    // Period ends of the plans still to come: a step can emit a plan
    // only once its record's timestamp reaches the next one.
    let ends: Vec<u64> = fx.expected_plans().iter().map(|p| p.end).collect();
    let mut next_end = ends.first().copied().unwrap_or(u64::MAX);
    let mut plans: Vec<PlanEnvelope> = Vec::new();
    let mut plan_steps = Vec::new();
    let mut unprobed_plans = 0;
    let (mut cp_export, mut cp_write) = (Vec::new(), Vec::new());
    let (mut wait, mut step_free) = (Duration::ZERO, Duration::ZERO);
    let (mut batches, mut step_free_records, mut skipped) = (0u64, 0u64, 0u64);

    let mut t_prev = start;
    for mut batch in input.rx.iter() {
        let t_got = Instant::now();
        wait += t_got - t_prev;
        batches += 1;
        let mut clean = true;
        let n = batch.len() as u64;
        for rec in batch.drain(..) {
            if skipped < resume_skip {
                skipped += 1;
                clean = false;
                continue;
            }
            let stepped = if rec.ts.0 >= next_end {
                let t = Instant::now();
                let stepped = daemon.step(rec).map_err(|e| e.to_string())?;
                if !stepped.is_empty() {
                    plan_steps.push(t.elapsed());
                }
                stepped
            } else {
                let stepped = daemon.step(rec).map_err(|e| e.to_string())?;
                unprobed_plans += stepped.len();
                stepped
            };
            if !stepped.is_empty() {
                clean = false;
                if let Some(path) = cp_path {
                    let (e, w) = write_checkpoint(&mut daemon, &interner, path)?;
                    cp_export.push(e);
                    cp_write.push(w);
                }
            }
            plans.extend(stepped);
            next_end = ends.get(plans.len()).copied().unwrap_or(u64::MAX);
        }
        input.pool.recycle(batch);
        let t_done = Instant::now();
        if clean {
            step_free += t_done - t_got;
            step_free_records += n;
        }
        t_prev = t_done;
    }
    let reader_time = start.elapsed();
    input
        .reader
        .join()
        .map_err(|_| "ingest thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    let t_fin = Instant::now();
    daemon.sync().map_err(|e| e.to_string())?;
    let mut cp_bytes = 0;
    if let Some(path) = cp_path {
        let (e, w) = write_checkpoint(&mut daemon, &interner, path)?;
        cp_export.push(e);
        cp_write.push(w);
        cp_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    }
    let ingest = input.live.snapshot();
    let blocks = input.live.chunks();
    let summary = daemon.finish(None);
    let end = Instant::now();
    let cpu = process_cpu() - cpu0;
    Ok(RunOutcome {
        setup,
        restore,
        wall: end - start,
        cpu,
        records: skipped + summary.events - resume_skip,
        plans,
        plan_steps,
        unprobed_plans,
        summary,
        dropped: ingest.dropped,
        blocks,
        batches,
        wait,
        reader: reader_time,
        step_free,
        step_free_records,
        finish: end - t_fin,
        cp_export,
        cp_write,
        cp_bytes,
    })
}

/// Checks a run against the fixture: every record folded, none dropped,
/// the plan sequence equal to the batch reference (its suffix from the
/// checkpoint for a resumed run) and, when given, the summary equal to
/// the one `ees online` reported. Returns each mismatch found.
pub fn check(
    fx: &Fixture,
    plans: &[PlanEnvelope],
    records: u64,
    dropped: u64,
    summary: Option<&OnlineSummary>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if records != fx.records {
        problems.push(format!("consumed {records} of {} records", fx.records));
    }
    if dropped != 0 {
        problems.push(format!("{dropped} records dropped"));
    }
    let got: Vec<PlanKey> = plans.iter().map(PlanKey::of_envelope).collect();
    let want = fx.expected_plans();
    if got.len() != want.len() {
        problems.push(format!("{} plans, reference {}", got.len(), want.len()));
    }
    if let Some(i) = got.iter().zip(want).position(|(a, b)| a != b) {
        problems.push(format!(
            "plan {i} differs: {:?} vs reference {:?}",
            got[i], want[i]
        ));
    }
    if let Some(s) = summary {
        if *s != fx.expect {
            problems.push(format!("summary {s:?}, expected {:?}", fx.expect));
        }
    }
    problems
}
