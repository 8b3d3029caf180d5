//! Sharded streaming classification: N worker threads, each folding one
//! hash-partition of the data items through its own
//! [`IncrementalClassifier`], with a barrier at period rollover that
//! merges the per-shard verdicts into the single placement-ordered
//! report vector the planner expects.
//!
//! Correctness rests on two facts the `sharded` test suite
//! property-checks:
//!
//! 1. **Per-item independence** — every per-item statistic (Long
//!    Intervals, I/O Sequences, read ratio, IOPS buckets) is a fold over
//!    that item's records alone, so partitioning items across workers
//!    cannot change any item's state as long as each item's records stay
//!    in arrival order. Hash-routing by [`DataItemId`] over FIFO channels
//!    preserves exactly that order.
//! 2. **Placement-order merge** — each shard emits *its* items in
//!    placement order at rollover
//!    ([`IncrementalClassifier::rollover_filtered`]), and
//!    [`ees_core::merge_shard_reports`] interleaves the disjoint
//!    subsequences back into full placement order. The merged vector is
//!    byte-identical to what a single classifier would emit, so the
//!    downstream plan is too.
//!
//! Planning, §V.D trigger arming, and period bookkeeping stay on the
//! coordinator thread, in the same `PeriodCore` the single-threaded
//! [`OnlineController`](crate::OnlineController) embeds — only the
//! per-record fold is fanned out.
//!
//! **Supervision** (DESIGN.md §11): a worker thread that panics no longer
//! takes the whole pipeline down. The coordinator journals every batch it
//! ships (one period's worth, cleared at each rollover or checkpoint
//! barrier) and, on detecting a dead worker, either **respawns** it —
//! replaying the journal on top of the last barrier's base state, which
//! rebuilds the shard's classifier exactly — or **quarantines** the shard
//! and surfaces a fatal [`OnlineError::WorkerPanic`] at the next barrier,
//! per the configured [`SupervisionPolicy`]. Respawn keeps plans
//! byte-identical to a panic-free run (property-tested in
//! `tests/chaos.rs`) because the fold is deterministic in the records and
//! their order, both of which the journal preserves.
//!
//! **Overlapped rollover** (DESIGN.md §12): the period cut is split into
//! [`rollover_begin`](ShardedController::rollover_begin) — which flushes,
//! ships an in-band [`ShardMsg::Rollover`] to every shard, and returns
//! immediately — and [`rollover_finish`](ShardedController::rollover_finish),
//! which collects the per-shard reports, merges, and plans. Between the
//! two, every worker drains its queue and computes its period report *in
//! parallel with the others and with whatever the coordinator does* (the
//! monitor pipeline uses the window to read ahead). New-period input
//! must NOT be routed while a cut is in flight: a §V.D trigger evaluated
//! once the plan lands may still demand a cut *between* two of those
//! buffered records, and a cut message can only be appended after
//! records already shipped — the caller stages read-ahead on its side
//! until `finish` returns. So nothing is journaled mid-cut, and the
//! journal holds exactly the batches of the period being closed: a
//! worker that dies mid-cut is rebuilt from base + journal and re-sent
//! the cut, and plans stay byte-identical either way. The one-call
//! [`rollover`](ShardedController::rollover) is just `begin` + `finish`,
//! so every caller exercises the same path.

use crate::checkpoint::ControllerCheckpoint;
use crate::classify::{IncrementalClassifier, ItemCheckpoint};
use crate::controller::{seq_factor_of, PeriodCore, PlanEnvelope, RolloverReason};
use crate::error::{OnlineError, Severity};
use crate::fault::{PanicSchedule, INJECTED_PANIC_MARKER};
use ees_core::{merge_shard_reports_into, ItemReport, ProposedConfig};
use ees_iotrace::{DataItemId, EnclosureId, LogicalIoRecord, Micros};
use ees_policy::EnclosureView;
use ees_simstorage::PlacementMap;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SendError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Records buffered per shard before a batch is shipped: each batch
/// costs the worker one wake-up (DESIGN.md §12 has the sweep that
/// picked this size).
const RECORD_FLUSH: usize = 1024;
/// Default batches in flight per shard channel (bounds coordinator
/// run-ahead); override with [`ShardOptions::queue`].
pub const SHARD_QUEUE: usize = 8;
/// Barrier reply poll granularity: long enough to stay off the fast
/// path, short enough that a dead worker is noticed promptly.
const REPLY_POLL: Duration = Duration::from_millis(10);

/// The shard that owns `item` in an `n`-shard pool: a Fibonacci
/// multiplicative hash of the item id, so consecutive ids (the common
/// catalog layout) spread evenly instead of striding one shard.
pub fn shard_of(item: DataItemId, n: usize) -> usize {
    (((item.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n.max(1)
}

/// Work sent to a shard worker. Channel order is observation order.
enum ShardMsg {
    /// Parsed records to fold, in arrival order.
    Records(Vec<LogicalIoRecord>),
    /// Replace the classifier state outright: period start plus per-item
    /// checkpoints. Sent to a freshly (re)spawned worker before its
    /// journal replay, and at checkpoint restore.
    Load {
        period_start: Micros,
        items: Vec<ItemCheckpoint>,
    },
    /// Close the period at `end`: report owned items and reset.
    Rollover {
        end: Micros,
        placement: Arc<PlacementMap>,
        sequential: Arc<BTreeSet<DataItemId>>,
        seq_factor: f64,
        reply: SyncSender<ShardReply>,
    },
    /// Export the classifier's mid-period state without disturbing it
    /// (the checkpoint barrier).
    Snapshot { reply: SyncSender<ShardReply> },
    /// Flush point: answer once everything queued before it is folded,
    /// without closing the period (the end-of-stream health check).
    Ping { reply: SyncSender<ShardReply> },
}

/// A worker's answer at a barrier.
struct ShardReply {
    shard: usize,
    /// Owned-item reports in placement order (empty except for
    /// [`ShardMsg::Rollover`]).
    reports: Vec<ItemReport>,
    /// Mid-period item states (empty except for [`ShardMsg::Snapshot`]).
    states: Vec<ItemCheckpoint>,
}

fn worker(
    shard: usize,
    shards: usize,
    break_even: Micros,
    rx: Receiver<ShardMsg>,
    panic_schedule: Option<Arc<PanicSchedule>>,
) {
    let mut classifier = IncrementalClassifier::new(Micros::ZERO, break_even);
    // Records folded since this worker thread was spawned — the index the
    // injected-panic schedule keys on. A respawned worker restarts at 0
    // over the replayed journal; schedule points are one-shot, so replay
    // cannot re-fire the panic that killed the predecessor.
    let mut fold_idx: u64 = 0;
    let maybe_panic = |fold_idx: u64| {
        if let Some(sched) = &panic_schedule {
            if sched.should_fire(shard, fold_idx) {
                panic!("{INJECTED_PANIC_MARKER}: shard {shard} at fold {fold_idx}");
            }
        }
    };
    for msg in rx {
        match msg {
            ShardMsg::Records(batch) => {
                for rec in &batch {
                    maybe_panic(fold_idx);
                    fold_idx += 1;
                    classifier.observe(rec);
                }
            }
            ShardMsg::Load {
                period_start,
                items,
            } => {
                classifier = IncrementalClassifier::new(period_start, break_even);
                classifier.import_items(items);
            }
            ShardMsg::Rollover {
                end,
                placement,
                sequential,
                seq_factor,
                reply,
            } => {
                let reports =
                    classifier.rollover_filtered(end, &placement, &sequential, seq_factor, |id| {
                        shard_of(id, shards) == shard
                    });
                let _ = reply.send(ShardReply {
                    shard,
                    reports,
                    states: Vec::new(),
                });
            }
            ShardMsg::Snapshot { reply } => {
                let _ = reply.send(ShardReply {
                    shard,
                    reports: Vec::new(),
                    states: classifier.export_items(),
                });
            }
            ShardMsg::Ping { reply } => {
                let _ = reply.send(ShardReply {
                    shard,
                    reports: Vec::new(),
                    states: Vec::new(),
                });
            }
        }
    }
}

/// What the supervisor does when a shard worker thread dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupervisionPolicy {
    /// Respawn the worker and rebuild its classifier exactly: load the
    /// last barrier's base state, replay the journal. Plans stay
    /// byte-identical to a panic-free run; the incident is recorded as a
    /// recoverable [`OnlineError::WorkerPanic`].
    #[default]
    Respawn,
    /// Stop routing to the shard and surface a fatal
    /// [`OnlineError::WorkerPanic`] at the next barrier. For operators
    /// who prefer a crash-loop to silently eating CPU on rebuilds.
    Quarantine,
}

/// Construction options for [`ShardedController`] beyond the basics.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Dead-worker handling. Defaults to [`SupervisionPolicy::Respawn`].
    pub supervision: SupervisionPolicy,
    /// Injected worker-panic schedule (chaos testing only; `None` in
    /// production).
    pub panic_schedule: Option<Arc<PanicSchedule>>,
    /// Batches in flight per shard channel, exactly (at least 1); bounds
    /// coordinator run-ahead. Defaults to [`SHARD_QUEUE`].
    pub queue: usize,
    /// Parser threads for the parallel ingest front end: `0` (default)
    /// resolves to one reader per shard; `1` is a single parser thread.
    pub readers: usize,
    /// Chunk target in bytes for the parallel front end's newline-aligned
    /// splitter; `0` (default) selects
    /// [`DEFAULT_CHUNK_BYTES`](ees_iotrace::chunk::DEFAULT_CHUNK_BYTES).
    /// Tiny values force chunk-boundary stitching — a test lever, not a
    /// tuning knob.
    pub chunk_bytes: usize,
}

impl ShardOptions {
    /// The parser-thread count the ingest front end runs with:
    /// `readers == 0` means one per shard.
    pub fn resolved_readers(&self, shards: usize) -> usize {
        if self.readers == 0 {
            shards.max(1)
        } else {
            self.readers
        }
    }
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            supervision: SupervisionPolicy::default(),
            panic_schedule: None,
            queue: SHARD_QUEUE,
            readers: 0,
            chunk_bytes: 0,
        }
    }
}

/// Base state + journal for one shard: everything needed to rebuild its
/// worker from scratch.
#[derive(Default)]
struct ShardLedger {
    /// Classifier state at the last barrier that reset or refreshed it
    /// (rollover: empty at the new period start; checkpoint: the
    /// snapshot). `period_start` is carried by the controller.
    base: Vec<ItemCheckpoint>,
    /// Records shipped since `base`, in shipping order: every shipped
    /// batch appended whole. Nothing is shipped while a cut is in
    /// flight, so mid-cut this is exactly the closing period's input.
    journal: Vec<LogicalIoRecord>,
}

/// A rollover that has been cut ([`ShardedController::rollover_begin`])
/// but not yet merged/planned
/// ([`ShardedController::rollover_finish`]): everything `finish` needs,
/// plus the reply channel the in-flight workers answer on.
struct PendingCut {
    t_end: Micros,
    reason: RolloverReason,
    seq_factor: f64,
    placement: Arc<PlacementMap>,
    sequential: Arc<BTreeSet<DataItemId>>,
    views: Vec<EnclosureView>,
    reply_rx: Receiver<ShardReply>,
    replies: Vec<Option<ShardReply>>,
}

impl PendingCut {
    /// The in-band cut message, answered on `reply`.
    fn msg(&self, reply: SyncSender<ShardReply>) -> ShardMsg {
        ShardMsg::Rollover {
            end: self.t_end,
            placement: Arc::clone(&self.placement),
            sequential: Arc::clone(&self.sequential),
            seq_factor: self.seq_factor,
            reply,
        }
    }
}

/// Upper bound on revive rounds within one barrier. Injected panics are
/// one-shot, so a single retry per scheduled point converges; the bound
/// only guards against a worker that dies deterministically on the same
/// replayed input (a real bug, surfaced as fatal instead of a livelock).
const MAX_REVIVE_ROUNDS: usize = 64;

/// The sharded counterpart of [`OnlineController`](crate::OnlineController):
/// same public surface, same plans (byte-identical reports at every
/// rollover), but the per-record classification fold runs on a pool of
/// shard worker threads, fed parsed records by
/// [`observe`](Self::observe).
pub struct ShardedController {
    pub(crate) core: PeriodCore,
    shards: usize,
    options: ShardOptions,
    /// `None` marks a quarantined (or mid-revive) shard's empty slot.
    senders: Vec<Option<SyncSender<ShardMsg>>>,
    handles: Vec<Option<JoinHandle<()>>>,
    /// Per-shard records not yet shipped, flushed in arrival-order
    /// batches so channel traffic is batched, not per-record.
    pending: Vec<Vec<LogicalIoRecord>>,
    /// Base state + shipped-batch journal per shard, for worker rebuild.
    ledgers: Vec<ShardLedger>,
    /// Quarantined shards, with the panic detail that condemned them.
    quarantined: Vec<Option<String>>,
    /// Recoverable supervision incidents since the last drain.
    events: Vec<OnlineError>,
    /// Workers respawned over the controller's lifetime.
    respawns: u64,
    /// A supervision failure that must surface at the next barrier.
    fatal: Option<OnlineError>,
    /// The in-flight cut between `rollover_begin` and `rollover_finish`.
    pending_cut: Option<PendingCut>,
    /// Reused merged-report buffer (one allocation across rollovers).
    merge_scratch: Vec<ItemReport>,
}

impl ShardedController {
    /// Creates a controller with `shards` worker threads (`0` or `1`
    /// degenerate to a single worker — still off-thread, same plans).
    /// The first period starts at `t = 0`, like the single-threaded
    /// controller.
    pub fn new(cfg: ProposedConfig, break_even: Micros, shards: usize) -> Self {
        Self::with_options(cfg, break_even, shards, ShardOptions::default())
    }

    /// [`new`](Self::new) with explicit supervision options.
    pub fn with_options(
        cfg: ProposedConfig,
        break_even: Micros,
        shards: usize,
        options: ShardOptions,
    ) -> Self {
        Self::spawn(PeriodCore::new(cfg, break_even), shards, options)
    }

    /// Spawns `shards` workers (at least one) behind `core`.
    fn spawn(core: PeriodCore, shards: usize, options: ShardOptions) -> Self {
        let shards = shards.max(1);
        let mut ctl = ShardedController {
            core,
            shards,
            options,
            senders: (0..shards).map(|_| None).collect(),
            handles: (0..shards).map(|_| None).collect(),
            pending: (0..shards)
                .map(|_| Vec::with_capacity(RECORD_FLUSH))
                .collect(),
            ledgers: (0..shards).map(|_| ShardLedger::default()).collect(),
            quarantined: (0..shards).map(|_| None).collect(),
            events: Vec::new(),
            respawns: 0,
            fatal: None,
            pending_cut: None,
            merge_scratch: Vec::new(),
        };
        for shard in 0..shards {
            let (tx, handle) = ctl.spawn_worker(shard);
            ctl.senders[shard] = Some(tx);
            ctl.handles[shard] = Some(handle);
        }
        ctl
    }

    /// Restores a controller from a checkpoint, redistributing the
    /// checkpointed per-item states over `shards` workers by
    /// [`shard_of`] — the shard count need not match the one that took
    /// the checkpoint (a 1-shard checkpoint restores onto 4 workers and
    /// vice versa; plans are shard-count-independent either way).
    pub fn from_checkpoint(
        cfg: ProposedConfig,
        shards: usize,
        options: ShardOptions,
        cp: &ControllerCheckpoint,
    ) -> Result<Self, OnlineError> {
        let (core, items) = PeriodCore::from_state(cfg, cp.state.clone());
        let mut ctl = Self::spawn(core, shards, options);
        let mut per_shard: Vec<Vec<ItemCheckpoint>> = (0..ctl.shards).map(|_| Vec::new()).collect();
        for c in items {
            per_shard[shard_of(c.id, ctl.shards)].push(c);
        }
        let period_start = ctl.core.period_start();
        for (shard, items) in per_shard.into_iter().enumerate() {
            ctl.ledgers[shard].base = items.clone();
            ctl.send_supervised(
                shard,
                ShardMsg::Load {
                    period_start,
                    items,
                },
            )?;
        }
        Ok(ctl)
    }

    /// The controller a restart from `cp` yields — same shard count and
    /// options — carrying over this one's supervision record (respawn
    /// count and undrained incidents), which a checkpoint does not hold.
    pub(crate) fn successor(&mut self, cp: &ControllerCheckpoint) -> Result<Self, OnlineError> {
        let mut next =
            Self::from_checkpoint(self.core.config(), self.shards, self.options.clone(), cp)?;
        next.respawns += self.respawns;
        next.events.splice(0..0, self.events.drain(..));
        Ok(next)
    }

    fn spawn_worker(&self, shard: usize) -> (SyncSender<ShardMsg>, JoinHandle<()>) {
        let shards = self.shards;
        let break_even = self.core.break_even();
        let schedule = self.options.panic_schedule.clone();
        let (tx, rx) = sync_channel::<ShardMsg>(self.options.queue.max(1));
        let handle = std::thread::spawn(move || worker(shard, shards, break_even, rx, schedule));
        (tx, handle)
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Start of the running period.
    pub fn period_start(&self) -> Micros {
        self.core.period_start()
    }

    /// Scheduled end of the running period.
    pub fn boundary(&self) -> Micros {
        self.core.boundary()
    }

    /// Whether a record at `ts` lies at or past the scheduled boundary.
    pub fn needs_rollover(&self, ts: Micros) -> bool {
        self.core.needs_rollover(ts)
    }

    /// Periods closed so far.
    pub fn periods(&self) -> u64 {
        self.core.periods()
    }

    /// How many of those were cut short by a trigger.
    pub fn trigger_cuts(&self) -> u64 {
        self.core.trigger_cuts()
    }

    /// The accumulated monitoring history.
    pub fn history(&self) -> &ees_core::MonitorHistory {
        self.core.history()
    }

    /// Workers respawned so far (supervision incidents absorbed).
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Drains the recoverable supervision incidents recorded since the
    /// last call (worker panics that were absorbed by a respawn).
    pub fn drain_worker_events(&mut self) -> Vec<OnlineError> {
        std::mem::take(&mut self.events)
    }

    /// The fatal error a quarantined shard (or a failed revive) will
    /// raise at the next barrier, if any.
    fn pending_fatal(&mut self) -> Option<OnlineError> {
        if let Some(e) = self.fatal.take() {
            return Some(e);
        }
        self.quarantined.iter().enumerate().find_map(|(s, q)| {
            q.as_ref().map(|d| OnlineError::WorkerPanic {
                shard: s,
                detail: d.clone(),
                severity: Severity::Fatal,
            })
        })
    }

    /// Joins the dead worker in `shard`'s slot and returns its panic
    /// payload (or a placeholder for a clean-but-early exit).
    fn reap_shard(&mut self, shard: usize) -> String {
        self.senders[shard] = None;
        match self.handles[shard].take() {
            Some(h) => match h.join() {
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string()),
                Ok(()) => "worker exited unexpectedly".to_string(),
            },
            None => "worker already reaped".to_string(),
        }
    }

    /// Loads the shard's base state and replays its journal, in
    /// batch-sized chunks, into a freshly spawned worker. While a cut is
    /// in flight the caller re-sends the cut message *after* this
    /// returns; nothing is routed mid-cut, so the replay order matches
    /// the original shipping order exactly. `Err(())` when the worker
    /// died mid-replay.
    fn replay_into(&self, shard: usize) -> Result<(), ()> {
        let ledger = &self.ledgers[shard];
        let Some(tx) = self.senders[shard].as_ref() else {
            return Err(());
        };
        let load = ShardMsg::Load {
            period_start: self.core.period_start(),
            items: ledger.base.clone(),
        };
        tx.send(load).map_err(|_| ())?;
        for batch in ledger.journal.chunks(RECORD_FLUSH) {
            tx.send(ShardMsg::Records(batch.to_vec())).map_err(|_| ())?;
        }
        Ok(())
    }

    /// Handles an observed worker death per the supervision policy.
    /// `Ok(())` means the shard is live again (respawned + rebuilt);
    /// `Err` means it is quarantined or revival gave up.
    fn revive_shard(&mut self, shard: usize) -> Result<(), OnlineError> {
        let detail = self.reap_shard(shard);
        if self.options.supervision == SupervisionPolicy::Quarantine {
            self.quarantined[shard] = Some(detail.clone());
            return Err(OnlineError::WorkerPanic {
                shard,
                detail,
                severity: Severity::Fatal,
            });
        }
        self.events.push(OnlineError::WorkerPanic {
            shard,
            detail,
            severity: Severity::Recoverable,
        });
        for _ in 0..MAX_REVIVE_ROUNDS {
            self.respawns += 1;
            let (tx, handle) = self.spawn_worker(shard);
            self.senders[shard] = Some(tx);
            self.handles[shard] = Some(handle);
            if self.replay_into(shard).is_ok() {
                return Ok(());
            }
            // Died again mid-replay (a scheduled point past the
            // predecessor's fold count). Points are one-shot, so each
            // round burns at least one; a bounded loop converges unless
            // the worker dies deterministically on real input.
            let detail = self.reap_shard(shard);
            self.events.push(OnlineError::WorkerPanic {
                shard,
                detail,
                severity: Severity::Recoverable,
            });
        }
        let err = OnlineError::WorkerPanic {
            shard,
            detail: format!("shard {shard} died {MAX_REVIVE_ROUNDS} times during revival"),
            severity: Severity::Fatal,
        };
        self.quarantined[shard] = Some("revival gave up".to_string());
        Err(err)
    }

    /// Sends `msg` to `shard`, reviving a dead worker per the
    /// supervision policy. Quarantined shards swallow the message (their
    /// fatal error surfaces at the next barrier instead).
    fn send_supervised(&mut self, shard: usize, msg: ShardMsg) -> Result<(), OnlineError> {
        if self.quarantined[shard].is_some() {
            return Ok(());
        }
        let mut msg = msg;
        for _ in 0..MAX_REVIVE_ROUNDS {
            let Some(tx) = self.senders[shard].as_ref() else {
                return Ok(());
            };
            match tx.send(msg) {
                Ok(()) => return Ok(()),
                Err(SendError(returned)) => {
                    msg = returned;
                    self.revive_shard(shard)?;
                }
            }
        }
        Err(OnlineError::WorkerPanic {
            shard,
            detail: "send retries exhausted".to_string(),
            severity: Severity::Fatal,
        })
    }

    /// Sends an already-journaled data batch on the per-record hot path.
    /// When the send fails because the worker died, revival's journal
    /// replay re-delivers this batch (it was journaled before the send),
    /// so the message must NOT be re-sent afterwards — that would fold
    /// it twice and corrupt the rebuilt shard. A fatal revival outcome
    /// is parked and surfaced at the next barrier.
    fn send_journaled_or_park(&mut self, shard: usize, msg: ShardMsg) {
        if self.quarantined[shard].is_some() {
            return;
        }
        let Some(tx) = self.senders[shard].as_ref() else {
            return;
        };
        if tx.send(msg).is_err() {
            if let Err(e) = self.revive_shard(shard) {
                if self.fatal.is_none() {
                    self.fatal = Some(e);
                }
            }
        }
    }

    fn flush_shard(&mut self, shard: usize) {
        if self.pending[shard].is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.pending[shard], Vec::with_capacity(RECORD_FLUSH));
        // Journal before sending, so a send that fails because the
        // worker just died still replays this batch.
        self.ledgers[shard].journal.extend_from_slice(&batch);
        self.send_journaled_or_park(shard, ShardMsg::Records(batch));
    }

    /// Routes one pre-parsed record to its owning shard (batched; a
    /// partial batch is flushed at the next barrier).
    pub fn observe(&mut self, rec: &LogicalIoRecord) {
        debug_assert!(
            self.pending_cut.is_none(),
            "observe while a cut is in flight; stage records until rollover_finish"
        );
        let shard = shard_of(rec.item, self.shards);
        self.pending[shard].push(*rec);
        if self.pending[shard].len() >= RECORD_FLUSH {
            self.flush_shard(shard);
        }
    }

    /// Feeds the served record's enclosure to the §V.D triggers (which
    /// stay on the coordinator); `true` means a trigger fired.
    pub fn observe_io_event(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        self.core.observe_io_event(t, enclosure)
    }

    /// Feeds a spin-up to the §V.D triggers; `true` as above.
    pub fn observe_spin_up(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        self.core.observe_spin_up(t, enclosure)
    }

    /// Whether `shard`'s worker thread has exited (or was reaped).
    fn worker_dead(&self, shard: usize) -> bool {
        match self.handles[shard].as_ref() {
            Some(h) => h.is_finished(),
            None => true,
        }
    }

    /// Drains barrier replies from `rx` into `replies`, returning once
    /// every live shard has answered or every shard still missing is
    /// provably dead (its thread finished, or the reply channel closed —
    /// a worker cannot process a barrier message without holding a live
    /// reply sender, so closure means the message died with it). Dead
    /// workers are left for the caller to revive and re-ask.
    fn collect_replies(&self, rx: &Receiver<ShardReply>, replies: &mut [Option<ShardReply>]) {
        loop {
            let mut outstanding = 0usize;
            let mut all_dead = true;
            for (s, slot) in replies.iter().enumerate().take(self.shards) {
                if slot.is_none() && self.quarantined[s].is_none() {
                    outstanding += 1;
                    all_dead &= self.worker_dead(s);
                }
            }
            if outstanding == 0 {
                return;
            }
            match rx.recv_timeout(REPLY_POLL) {
                Ok(reply) => {
                    let shard = reply.shard;
                    replies[shard] = Some(reply);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if all_dead {
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Runs a barrier: completes `replies` (one slot per shard; shorter
    /// means "none yet") with one reply per live shard and returns them
    /// in shard order. Each round sends `make_msg`'s message to every
    /// shard still missing a reply and collects the answers, so a shard
    /// whose worker died before replying is revived (by
    /// [`send_supervised`](Self::send_supervised)) and re-asked next
    /// round. Death is detected by
    /// [`collect_replies`](Self::collect_replies). `Err` when a shard is
    /// quarantined, revival failed, or a shard never answered.
    fn barrier<F>(
        &mut self,
        mut replies: Vec<Option<ShardReply>>,
        make_msg: F,
    ) -> Result<Vec<ShardReply>, OnlineError>
    where
        F: Fn(SyncSender<ShardReply>) -> ShardMsg,
    {
        replies.resize_with(self.shards, || None);
        for _ in 0..MAX_REVIVE_ROUNDS {
            let missing: Vec<usize> = (0..self.shards)
                .filter(|&s| replies[s].is_none() && self.quarantined[s].is_none())
                .collect();
            if missing.is_empty() {
                break;
            }
            let (reply_tx, reply_rx) = sync_channel(self.shards);
            for &shard in &missing {
                self.send_supervised(shard, make_msg(reply_tx.clone()))?;
            }
            drop(reply_tx);
            self.collect_replies(&reply_rx, &mut replies);
        }
        if let Some(e) = self.pending_fatal() {
            return Err(e);
        }
        if let Some(shard) =
            (0..self.shards).find(|&s| replies[s].is_none() && self.quarantined[s].is_none())
        {
            return Err(OnlineError::WorkerPanic {
                shard,
                detail: "barrier retries exhausted".to_string(),
                severity: Severity::Fatal,
            });
        }
        Ok(replies.into_iter().flatten().collect())
    }

    /// Flushes every shard and waits for all of them to drain, without
    /// closing the period — the end-of-stream health check. `Err` when a
    /// shard is quarantined or revival failed.
    pub fn sync(&mut self) -> Result<(), OnlineError> {
        assert!(
            self.pending_cut.is_none(),
            "sync while a cut is in flight; call rollover_finish first"
        );
        for shard in 0..self.shards {
            self.flush_shard(shard);
        }
        self.barrier(Vec::new(), |reply| ShardMsg::Ping { reply })?;
        Ok(())
    }

    /// Snapshots the controller's full dynamic state mid-period into a
    /// [`ControllerCheckpoint`] without disturbing the fold: flushes,
    /// barriers the shards with [`ShardMsg::Snapshot`], and merges the
    /// per-shard item states in id order. Also refreshes each shard's
    /// supervision base to the snapshot (journals restart empty), so a
    /// later worker rebuild replays only post-checkpoint batches.
    ///
    /// `events` / `last_ts` / `placement` / `sequential` describe the
    /// ingest position and storage view, which the controller does not
    /// track itself.
    pub fn checkpoint(
        &mut self,
        events: u64,
        last_ts: Micros,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
    ) -> Result<ControllerCheckpoint, OnlineError> {
        assert!(
            self.pending_cut.is_none(),
            "checkpoint while a cut is in flight; call rollover_finish first"
        );
        for shard in 0..self.shards {
            self.flush_shard(shard);
        }
        let replies = self.barrier(Vec::new(), |reply| ShardMsg::Snapshot { reply })?;
        let mut items: BTreeMap<DataItemId, ItemCheckpoint> = BTreeMap::new();
        for reply in replies {
            self.ledgers[reply.shard].base = reply.states.clone();
            self.ledgers[reply.shard].journal.clear();
            for c in reply.states {
                items.insert(c.id, c);
            }
        }
        let state = self.core.export_state(items.into_values().collect());
        Ok(ControllerCheckpoint::capture(
            events, last_ts, placement, sequential, state,
        ))
    }

    /// Closes the period at `t_end`: barriers the shards, merges their
    /// reports into placement order, plans, re-arms the triggers, and
    /// starts the next period — the same contract (and byte-identical
    /// output) as [`OnlineController::rollover`](crate::OnlineController::rollover).
    /// `Err` when a shard is quarantined or revival failed — the merged
    /// reports would be incomplete, so no plan is produced.
    ///
    /// Implemented as [`rollover_begin`](Self::rollover_begin) +
    /// [`rollover_finish`](Self::rollover_finish), so even the
    /// synchronous callers exercise the overlapped-cut path.
    pub fn rollover(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        views: &[EnclosureView],
    ) -> Result<PlanEnvelope, OnlineError> {
        self.rollover_begin(t_end, reason, placement, sequential, views)?;
        self.rollover_finish()
    }

    /// Starts an overlapped rollover: flushes every shard and ships the
    /// in-band cut message — then returns without waiting. Each worker
    /// reports and resets its classifier (a take-and-swap of the period
    /// accumulators) as soon as the cut reaches the front of its queue,
    /// all shards in parallel, while the coordinator is free to read
    /// ahead. Call [`rollover_finish`](Self::rollover_finish) to collect
    /// the reports and produce the plan; poll
    /// [`rollover_ready`](Self::rollover_ready) to overlap useful work.
    ///
    /// Until `finish` returns, the controller must not be fed —
    /// [`observe`](Self::observe) (under debug assertions) /
    /// [`sync`](Self::sync) / [`checkpoint`](Self::checkpoint) panic by
    /// contract. The plan
    /// decides trigger re-arming, placement, and the next boundary, so
    /// records past the cut cannot be routed (a trigger may still cut
    /// between two of them); the caller stages them and drains after
    /// `finish`.
    pub fn rollover_begin(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        views: &[EnclosureView],
    ) -> Result<(), OnlineError> {
        assert!(
            self.pending_cut.is_none(),
            "rollover_begin while a cut is already in flight"
        );
        for shard in 0..self.shards {
            self.flush_shard(shard);
        }
        let (reply_tx, reply_rx) = sync_channel(self.shards);
        let cut = PendingCut {
            t_end,
            reason,
            seq_factor: seq_factor_of(views),
            placement: Arc::new(placement.clone()),
            sequential: Arc::new(sequential.clone()),
            views: views.to_vec(),
            reply_rx,
            replies: (0..self.shards).map(|_| None).collect(),
        };
        for shard in 0..self.shards {
            self.send_supervised(shard, cut.msg(reply_tx.clone()))?;
        }
        self.pending_cut = Some(cut);
        Ok(())
    }

    /// Whether every shard has answered the in-flight cut (or provably
    /// never will — a dead worker is picked up by
    /// [`rollover_finish`](Self::rollover_finish)'s revival). `true`
    /// with no cut in flight. Non-blocking.
    pub fn rollover_ready(&mut self) -> bool {
        let Some(mut cut) = self.pending_cut.take() else {
            return true;
        };
        while let Ok(reply) = cut.reply_rx.try_recv() {
            let shard = reply.shard;
            cut.replies[shard] = Some(reply);
        }
        let ready = (0..self.shards).all(|s| {
            cut.replies[s].is_some() || self.quarantined[s].is_some() || self.worker_dead(s)
        });
        self.pending_cut = Some(cut);
        ready
    }

    /// Completes the in-flight rollover: waits for the remaining shard
    /// reports (reviving + re-asking workers that died mid-cut, exactly
    /// like a synchronous barrier), merges them into placement order,
    /// plans, re-arms the triggers, and starts the next period.
    ///
    /// # Panics
    /// Panics when no cut is in flight.
    pub fn rollover_finish(&mut self) -> Result<PlanEnvelope, OnlineError> {
        let mut cut = self
            .pending_cut
            .take()
            .expect("rollover_finish without rollover_begin");
        // Drain the replies to the cut `rollover_begin` sent, then re-ask
        // any worker that died mid-cut (revival has replayed base +
        // journal, so the re-sent cut lands in order).
        let mut replies = std::mem::take(&mut cut.replies);
        self.collect_replies(&cut.reply_rx, &mut replies);
        let replies = self.barrier(replies, |reply| cut.msg(reply))?;
        let mut per_shard: Vec<Vec<ItemReport>> = (0..self.shards).map(|_| Vec::new()).collect();
        for reply in replies {
            per_shard[reply.shard] = reply.reports;
        }
        let shards = self.shards;
        let mut reports = std::mem::take(&mut self.merge_scratch);
        merge_shard_reports_into(
            &cut.placement,
            &mut per_shard,
            |id| shard_of(id, shards),
            &mut reports,
        );
        let envelope = self
            .core
            .close(cut.t_end, cut.reason, &mut reports, &cut.views);
        reports.clear();
        self.merge_scratch = reports;
        // The workers' classifiers reset at the cut, so each shard's
        // rebuild base is now "empty at the new period start" and the
        // journal starts over.
        for ledger in &mut self.ledgers {
            ledger.base = Vec::new();
            ledger.journal.clear();
        }
        Ok(envelope)
    }
}

impl Drop for ShardedController {
    fn drop(&mut self) {
        // Hang up the channels so the workers' receive loops end, then
        // reap them.
        self.senders.clear();
        for handle in self.handles.drain(..).flatten() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnlineController;
    use ees_iotrace::IoKind;
    use ees_policy::NO_SEQUENTIAL;

    fn cfg() -> ProposedConfig {
        ProposedConfig::default()
    }

    fn rec(ts_s: f64, item: u32) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros::from_secs_f64(ts_s),
            item: DataItemId(item),
            offset: 0,
            len: 4096,
            kind: IoKind::Read,
        }
    }

    fn placement(items: u32) -> PlacementMap {
        let mut p = PlacementMap::new();
        for i in 0..items {
            p.insert(DataItemId(i), EnclosureId((i % 3) as u16), 1 << 20);
        }
        p
    }

    fn views(placement: &PlacementMap) -> Vec<EnclosureView> {
        let mut used = std::collections::BTreeMap::new();
        for (_id, pl) in placement.iter() {
            *used.entry(pl.enclosure).or_insert(0u64) += pl.size;
        }
        (0..3u16)
            .map(|e| EnclosureView {
                id: EnclosureId(e),
                capacity: 1 << 40,
                used: used.get(&EnclosureId(e)).copied().unwrap_or(0),
                max_iops: 900.0,
                max_seq_iops: 2800.0,
                served_ios: 0,
                spin_ups: 0,
            })
            .collect()
    }

    /// The supervisor's death detector: a send to a dead worker's channel
    /// hands the message back, so the batch is not lost.
    #[test]
    fn send_returns_the_message_once_the_receiver_is_gone() {
        let (tx, rx) = sync_channel::<ShardMsg>(2);
        tx.send(ShardMsg::Records(vec![rec(1.0, 0)])).unwrap();
        drop(rx);
        let SendError(back) = tx.send(ShardMsg::Records(vec![rec(2.0, 1)])).unwrap_err();
        assert!(matches!(back, ShardMsg::Records(batch) if batch == [rec(2.0, 1)]));
    }

    /// A worker that dies with a barrier message queued must not keep the
    /// barrier waiting: dropping its receiver drops the queued reply
    /// sender, so the reply channel disconnects.
    #[test]
    fn dropping_the_receiver_releases_queued_reply_senders() {
        let (reply_tx, reply_rx) = sync_channel::<ShardReply>(1);
        let (tx, rx) = sync_channel::<ShardMsg>(2);
        tx.send(ShardMsg::Ping { reply: reply_tx }).unwrap();
        drop(rx);
        assert!(reply_rx.recv().is_err());
    }

    #[test]
    fn shard_owner_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 8] {
            for id in 0..1000u32 {
                let s = shard_of(DataItemId(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(DataItemId(id), n));
            }
        }
    }

    #[test]
    fn parsed_records_give_single_controller_plans() {
        let placement = placement(16);
        let v = views(&placement);
        let break_even = Micros::from_secs(52);
        for shards in [1usize, 2, 3, 8] {
            let mut single = OnlineController::new(cfg(), break_even);
            let mut sharded = ShardedController::new(cfg(), break_even, shards);
            let mut plans_single = Vec::new();
            let mut plans_sharded = Vec::new();
            for i in 0..2000u32 {
                let r = rec(i as f64, i % 16);
                while single.needs_rollover(r.ts) {
                    let t = single.boundary();
                    plans_single.push(single.rollover(
                        t,
                        RolloverReason::Boundary,
                        &placement,
                        &NO_SEQUENTIAL,
                        &v,
                    ));
                }
                single.observe(&r);
                while sharded.needs_rollover(r.ts) {
                    let t = sharded.boundary();
                    plans_sharded.push(
                        sharded
                            .rollover(t, RolloverReason::Boundary, &placement, &NO_SEQUENTIAL, &v)
                            .expect("no worker faults injected"),
                    );
                }
                sharded.observe(&r);
            }
            assert_eq!(plans_single.len(), plans_sharded.len(), "shards = {shards}");
            for (a, b) in plans_single.iter().zip(&plans_sharded) {
                assert_eq!(a.period, b.period, "shards = {shards}");
                assert_eq!(a.plan, b.plan, "shards = {shards}");
            }
        }
    }

    fn run_to_plans(
        ctl: &mut ShardedController,
        placement: &PlacementMap,
        v: &[EnclosureView],
        records: &[LogicalIoRecord],
    ) -> Vec<PlanEnvelope> {
        let mut plans = Vec::new();
        for r in records {
            while ctl.needs_rollover(r.ts) {
                let t = ctl.boundary();
                plans.push(
                    ctl.rollover(t, RolloverReason::Boundary, placement, &NO_SEQUENTIAL, v)
                        .expect("rollover under respawn supervision"),
                );
            }
            ctl.observe(r);
        }
        plans
    }

    #[test]
    fn respawned_workers_keep_plans_byte_identical() {
        use crate::fault::PanicSchedule;
        let placement = placement(16);
        let v = views(&placement);
        let break_even = Micros::from_secs(52);
        let records: Vec<LogicalIoRecord> =
            (0..3000u32).map(|i| rec(i as f64 * 0.9, i % 16)).collect();
        let mut clean = ShardedController::new(cfg(), break_even, 3);
        let clean_plans = run_to_plans(&mut clean, &placement, &v, &records);
        assert!(!clean_plans.is_empty());

        // Inject panics at seeded fold points on every shard; the
        // supervisor must rebuild each dead worker and keep the plan
        // sequence byte-identical.
        crate::fault::silence_injected_panics();
        let schedule = PanicSchedule::seeded(0xDEAD_BEEF, 3, 3000, 5);
        let opts = ShardOptions {
            supervision: SupervisionPolicy::Respawn,
            panic_schedule: Some(Arc::clone(&schedule)),
            ..ShardOptions::default()
        };
        let mut chaotic = ShardedController::with_options(cfg(), break_even, 3, opts);
        let chaotic_plans = run_to_plans(&mut chaotic, &placement, &v, &records);
        assert!(chaotic.respawns() > 0, "schedule must have fired");
        let incidents = chaotic.drain_worker_events();
        assert!(!incidents.is_empty());
        assert!(incidents
            .iter()
            .all(|e| e.severity() == Severity::Recoverable));
        assert_eq!(clean_plans, chaotic_plans);
    }

    /// A worker that dies between two shipped batches of one period is
    /// found by the next batch's send on the hot path, not by a barrier,
    /// and rebuilt from the journal: the plans match a clean run's.
    #[test]
    fn hot_path_send_revives_a_worker_dead_between_batches() {
        use crate::fault::PanicSchedule;
        use std::time::Instant;
        let placement = placement(16);
        let v = views(&placement);
        let break_even = Micros::from_secs(52);
        // 50 records a second: several batches per shard per period.
        let records: Vec<LogicalIoRecord> = (0..80_000u32)
            .map(|i| rec(i as f64 * 0.02, i % 16))
            .collect();
        let mut clean = ShardedController::new(cfg(), break_even, 2);
        let clean_plans = run_to_plans(&mut clean, &placement, &v, &records);
        assert!(clean_plans.len() >= 2);

        // Shard 0 dies folding the last record of its first batch.
        crate::fault::silence_injected_panics();
        let schedule = PanicSchedule::new([(0usize, RECORD_FLUSH as u64 - 1)]);
        let opts = ShardOptions {
            panic_schedule: Some(schedule),
            ..ShardOptions::default()
        };
        let mut ctl = ShardedController::with_options(cfg(), break_even, 2, opts);
        // Stream positions just past shard 0's first and second batch.
        let shard0: Vec<usize> = (0..records.len())
            .filter(|&i| shard_of(records[i].item, 2) == 0)
            .collect();
        let first = shard0[RECORD_FLUSH - 1] + 1;
        let second = shard0[2 * RECORD_FLUSH - 1] + 1;
        let mut plans = run_to_plans(&mut ctl, &placement, &v, &records[..first]);
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ctl.worker_dead(0) {
            assert!(Instant::now() < deadline, "the panic never fired");
            std::thread::yield_now();
        }
        assert_eq!(
            ctl.respawns(),
            0,
            "nothing has been sent to the dead worker"
        );
        plans.extend(run_to_plans(
            &mut ctl,
            &placement,
            &v,
            &records[first..second],
        ));
        assert_eq!(ctl.periods(), 0, "both batches belong to the first period");
        assert_eq!(ctl.respawns(), 1, "the second batch's send found the death");
        assert_eq!(ctl.ledgers[0].journal.len(), 2 * RECORD_FLUSH);
        plans.extend(run_to_plans(&mut ctl, &placement, &v, &records[second..]));
        assert_eq!(ctl.respawns(), 1);
        assert_eq!(plans, clean_plans);
    }

    #[test]
    fn quarantine_surfaces_fatal_error_at_barrier() {
        use crate::fault::PanicSchedule;
        crate::fault::silence_injected_panics();
        let placement = placement(8);
        let v = views(&placement);
        // One guaranteed panic on every shard, early in the stream.
        let schedule = PanicSchedule::new((0..2).map(|s| (s, 1u64)));
        let opts = ShardOptions {
            supervision: SupervisionPolicy::Quarantine,
            panic_schedule: Some(schedule),
            ..ShardOptions::default()
        };
        let mut ctl = ShardedController::with_options(cfg(), Micros::from_secs(52), 2, opts);
        for i in 0..2000u32 {
            ctl.observe(&rec(i as f64, i % 8));
        }
        let err = ctl
            .rollover(
                Micros::from_secs(2000),
                RolloverReason::Boundary,
                &placement,
                &NO_SEQUENTIAL,
                &v,
            )
            .expect_err("quarantined shard must fail the barrier");
        assert_eq!(err.severity(), Severity::Fatal);
        assert!(matches!(err, OnlineError::WorkerPanic { .. }));
    }

    // `observe` guards the no-journaling-mid-cut invariant with a
    // `debug_assert!` (it runs per record), so this test exists only
    // where debug assertions do — the test profile keeps them on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "observe while a cut is in flight")]
    fn observe_between_rollover_begin_and_finish_panics() {
        let placement = placement(4);
        let v = views(&placement);
        let mut ctl = ShardedController::new(cfg(), Micros::from_secs(52), 2);
        ctl.observe(&rec(1.0, 0));
        ctl.rollover_begin(
            Micros::from_secs(2),
            RolloverReason::Boundary,
            &placement,
            &NO_SEQUENTIAL,
            &v,
        )
        .unwrap();
        ctl.observe(&rec(3.0, 1));
    }

    #[test]
    fn checkpoint_restores_across_shard_counts() {
        let placement = placement(12);
        let v = views(&placement);
        let break_even = Micros::from_secs(52);
        let records: Vec<LogicalIoRecord> =
            (0..4000u32).map(|i| rec(i as f64 * 0.7, i % 12)).collect();
        let cut = 1700usize;

        let mut reference = ShardedController::new(cfg(), break_even, 2);
        let want = run_to_plans(&mut reference, &placement, &v, &records);

        // Run the first half on 1 shard, checkpoint, restore onto 4.
        let mut first = ShardedController::new(cfg(), break_even, 1);
        let mut got = run_to_plans(&mut first, &placement, &v, &records[..cut]);
        let cp = first
            .checkpoint(cut as u64, records[cut - 1].ts, &placement, &NO_SEQUENTIAL)
            .unwrap();
        drop(first);
        let mut restored =
            ShardedController::from_checkpoint(cfg(), 4, ShardOptions::default(), &cp).unwrap();
        assert_eq!(restored.periods(), cp.state.periods);
        got.extend(run_to_plans(&mut restored, &placement, &v, &records[cut..]));
        assert_eq!(want, got);
    }
}
