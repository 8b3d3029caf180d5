//! The colocated daemon: the online controller driving the same
//! storage-side harness the batch replay engine uses.
//!
//! [`ColocatedDaemon::step`] mirrors the replay engine's per-record flow
//! exactly — boundary rollovers *before* the record, classification
//! *before* serving, trigger events *after* serving (spin-up first), a
//! trigger cut only when `t` is strictly past the period start — so a
//! daemon fed a workload's NDJSON stream produces the same plan sequence,
//! period for period, as `ees_replay::run` over the same workload. The
//! `equivalence` test suite asserts this plan-for-plan.
//!
//! It is the crate's one serve-mode driver: `ees online`, the chaos
//! harness ([`crate::chaos`]) and the endurance harness
//! ([`crate::endure`]) all step it. The endurance harness watches the
//! loop through a crate-private hook; the public `step` passes one that
//! does nothing.

use crate::checkpoint::{decode_checkpoint, encode_checkpoint, ControllerCheckpoint};
use crate::controller::{OnlineController, PeriodCore, PlanEnvelope, RolloverReason};
use crate::error::OnlineError;
use crate::shard::{ShardOptions, ShardedController};
use ees_core::{MonitorHistory, ProposedConfig};
use ees_iotrace::{DataItemId, EnclosureId, LogicalIoRecord, Micros};
use ees_policy::EnclosureView;
use ees_replay::{CatalogItem, ServedIo, StreamHarness};
use ees_simstorage::PlacementMap;
use ees_simstorage::StorageConfig;
use std::collections::BTreeSet;

/// Either controller flavor behind one dispatch point: the daemon's flow
/// is identical for both, and the sharded flavor is plan-for-plan
/// identical to the single-threaded one by construction.
// Exactly one instance lives per daemon, so the variant size gap
// costs nothing.
#[allow(clippy::large_enum_variant)]
enum DaemonController {
    Single(OnlineController),
    Sharded(ShardedController),
}

impl DaemonController {
    /// The period clock and §V.D triggers, shared by both flavors.
    fn core(&self) -> &PeriodCore {
        match self {
            DaemonController::Single(c) => &c.core,
            DaemonController::Sharded(c) => &c.core,
        }
    }

    fn core_mut(&mut self) -> &mut PeriodCore {
        match self {
            DaemonController::Single(c) => &mut c.core,
            DaemonController::Sharded(c) => &mut c.core,
        }
    }

    fn observe(&mut self, rec: &LogicalIoRecord) {
        match self {
            DaemonController::Single(c) => c.observe(rec),
            DaemonController::Sharded(c) => c.observe(rec),
        }
    }

    fn rollover(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        views: &[EnclosureView],
    ) -> Result<PlanEnvelope, OnlineError> {
        match self {
            DaemonController::Single(c) => {
                Ok(c.rollover(t_end, reason, placement, sequential, views))
            }
            DaemonController::Sharded(c) => c.rollover(t_end, reason, placement, sequential, views),
        }
    }

    fn checkpoint(
        &mut self,
        events: u64,
        last_ts: Micros,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
    ) -> Result<ControllerCheckpoint, OnlineError> {
        match self {
            DaemonController::Single(c) => Ok(ControllerCheckpoint::capture(
                events,
                last_ts,
                placement,
                sequential,
                c.export_state(),
            )),
            DaemonController::Sharded(c) => c.checkpoint(events, last_ts, placement, sequential),
        }
    }
}

/// What the daemon does after a cut, as its [`StepHook`] decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterCut {
    /// Carry on with the record.
    Continue,
    /// Crash and restore the controller
    /// ([`ColocatedDaemon::crash_restore`]), then carry on.
    CrashRestore,
    /// End the run: the step makes no further cut, and a record not yet
    /// served is dropped.
    Stop,
}

/// Observation points inside [`ColocatedDaemon::step`]. The endurance
/// harness hangs its never-managed baseline and its per-period rows
/// here. Every default does nothing, so the public `step` runs the bare
/// loop.
pub(crate) trait StepHook {
    /// Before the cut at `t_end` is planned, with the managed harness.
    fn before_cut(&mut self, _harness: &mut StreamHarness, _t_end: Micros) {}

    /// After the cut's plan is applied; `history` includes the period it
    /// closed.
    fn after_cut(&mut self, _env: &PlanEnvelope, _history: &MonitorHistory) -> AfterCut {
        AfterCut::Continue
    }

    /// After `rec` is served, before its trigger events.
    fn served(&mut self, _rec: &LogicalIoRecord, _io: &ServedIo) {}
}

/// The hook of the public [`ColocatedDaemon::step`].
struct NoHook;

impl StepHook for NoHook {}

/// Run-level counters reported when the stream ends.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSummary {
    /// Stream end (time the meters were settled at).
    pub duration: Micros,
    /// Logical records processed.
    pub events: u64,
    /// Management invocations (scheduled + trigger cuts).
    pub periods: u64,
    /// How many invocations were §V.D trigger cuts.
    pub trigger_cuts: u64,
    /// Mean storage-unit power over the run, in watts.
    pub avg_power_watts: f64,
    /// Enclosure spin-ups over the run.
    pub spin_ups: u64,
    /// Mean response time across all served records.
    pub avg_response: Micros,
}

/// The online controller colocated with (a simulation of) the storage
/// unit it manages: events in, plans out, applied in place.
pub struct ColocatedDaemon {
    harness: StreamHarness,
    controller: DaemonController,
    events: u64,
    response_sum: f64,
    last_ts: Micros,
}

impl ColocatedDaemon {
    /// Builds the daemon over `items` on a storage unit from `storage`
    /// with `num_enclosures` enclosures. `break_even` overrides the
    /// storage model's own break-even time (`ees online --break-even`;
    /// `None` keeps the model's). With `shards > 1` classification runs
    /// on that many worker threads behind a [`ShardedController`] — same
    /// plans, period for period, as the single-threaded daemon — built
    /// with `options` (supervision policy, per-shard transport queue
    /// depth: the `ees online --queue` knob reaches the workers through
    /// here); `shards <= 1` stays single-threaded and ignores `options`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_shard_options(
        items: &[CatalogItem],
        num_enclosures: u16,
        storage: &StorageConfig,
        policy: ProposedConfig,
        break_even: Option<Micros>,
        shards: usize,
        options: ShardOptions,
    ) -> Self {
        let harness = StreamHarness::new(items, num_enclosures, storage);
        let break_even = break_even.unwrap_or_else(|| harness.break_even());
        let controller = if shards > 1 {
            DaemonController::Sharded(ShardedController::with_options(
                policy, break_even, shards, options,
            ))
        } else {
            DaemonController::Single(OnlineController::new(policy, break_even))
        };
        ColocatedDaemon {
            harness,
            controller,
            events: 0,
            response_sum: 0.0,
            last_ts: Micros::ZERO,
        }
    }

    /// Rebuilds a daemon from a checkpoint taken by
    /// [`checkpoint`](Self::checkpoint). Every item is re-pinned to its
    /// checkpointed enclosure, the controller's dynamic state (planner
    /// history, trigger arming, mid-period classification) is restored,
    /// and the event counter resumes at `cp.events` — the caller skips
    /// that many already-folded events before feeding the rest of the
    /// stream. The storage-side power meters restart at zero: plan
    /// equivalence is a controller property (property-tested in
    /// `tests/chaos.rs`), while run-level power/response summaries cover
    /// only the post-restart tail. `options` configures the rebuilt
    /// sharded controller (ignored when `shards <= 1`). A checkpointed
    /// placement the unit cannot hold (a home past its enclosures, or
    /// more bytes than an enclosure's capacity) is refused with
    /// [`OnlineError::Placement`].
    #[allow(clippy::too_many_arguments)]
    pub fn resume_with_options(
        items: &[CatalogItem],
        num_enclosures: u16,
        storage: &StorageConfig,
        policy: ProposedConfig,
        shards: usize,
        options: ShardOptions,
        cp: &ControllerCheckpoint,
    ) -> Result<Self, OnlineError> {
        let by_id: std::collections::BTreeMap<DataItemId, (EnclosureId, u64)> = cp
            .placement
            .iter()
            .map(|&(id, enc, size)| (id, (enc, size)))
            .collect();
        let mut catalog: Vec<CatalogItem> = items.to_vec();
        for it in &mut catalog {
            if let Some(&(enc, size)) = by_id.get(&it.id) {
                it.enclosure = enc;
                it.size = size;
            }
        }
        StreamHarness::check_catalog(&catalog, num_enclosures, storage)
            .map_err(OnlineError::Placement)?;
        let harness = StreamHarness::new(&catalog, num_enclosures, storage);
        let controller = if shards > 1 {
            DaemonController::Sharded(ShardedController::from_checkpoint(
                policy, shards, options, cp,
            )?)
        } else {
            DaemonController::Single(OnlineController::from_state(policy, cp.state.clone()))
        };
        Ok(ColocatedDaemon {
            harness,
            controller,
            events: cp.events,
            response_sum: 0.0,
            last_ts: cp.last_ts,
        })
    }

    /// Snapshots the daemon into a versioned [`ControllerCheckpoint`]:
    /// controller dynamic state plus the current placement view and
    /// ingest position. Pair with
    /// [`resume_with_options`](Self::resume_with_options).
    pub fn checkpoint(&mut self) -> Result<ControllerCheckpoint, OnlineError> {
        self.controller.checkpoint(
            self.events,
            self.last_ts,
            self.harness.placement(),
            self.harness.sequential(),
        )
    }

    /// Events processed so far (resumes from the checkpointed count
    /// after [`resume_with_options`](Self::resume_with_options)).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Checkpoints the controller through the full `ees.checkpoint.v1`
    /// codec, drops it (workers and all), and rebuilds the same flavour
    /// from the decoded bytes — the crash/restore cycle the chaos and
    /// endurance harnesses inject. The storage harness and the daemon's
    /// counters survive, as a controller restart does not reset the
    /// storage unit; so does a sharded controller's supervision record
    /// (respawn count and undrained incidents).
    pub(crate) fn crash_restore(&mut self) -> Result<(), OnlineError> {
        let cp = self.checkpoint()?;
        let decoded = decode_checkpoint(&encode_checkpoint(&cp))?;
        if decoded != cp {
            return Err(OnlineError::Checkpoint(
                "codec roundtrip altered the checkpoint".to_string(),
            ));
        }
        let policy = self.controller.core().config();
        let restored = match &mut self.controller {
            DaemonController::Single(_) => {
                DaemonController::Single(OnlineController::from_state(policy, decoded.state))
            }
            DaemonController::Sharded(c) => DaemonController::Sharded(c.successor(&decoded)?),
        };
        self.controller = restored;
        Ok(())
    }

    /// Shard workers respawned so far, across crash/restores (0 for the
    /// in-thread controller).
    pub(crate) fn respawns(&self) -> u64 {
        match &self.controller {
            DaemonController::Single(_) => 0,
            DaemonController::Sharded(c) => c.respawns(),
        }
    }

    /// The controller's monitoring history.
    pub(crate) fn history(&self) -> &MonitorHistory {
        self.controller.core().history()
    }

    /// Classification shard workers behind the controller (1 when
    /// single-threaded).
    pub fn shards(&self) -> usize {
        match &self.controller {
            DaemonController::Single(_) => 1,
            DaemonController::Sharded(c) => c.shards(),
        }
    }

    /// The storage-side harness (placement, power meters).
    pub fn harness(&self) -> &StreamHarness {
        &self.harness
    }

    /// Flushes the classification shards and surfaces any fatal
    /// supervision failure (a quarantined shard). Rollover barriers run
    /// this health check implicitly; call it after the *last* record too
    /// — a stream that ends mid-period never reaches another barrier, so
    /// without this check a quarantine in the final period would report
    /// success. No-op for the single-threaded controller.
    pub fn sync(&mut self) -> Result<(), OnlineError> {
        match &mut self.controller {
            DaemonController::Single(_) => Ok(()),
            DaemonController::Sharded(c) => c.sync(),
        }
    }

    /// Closes the period at `t_end`, applies its plan, and appends it to
    /// `plans`; `hook` sees both sides of the cut.
    fn invoke<H: StepHook>(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        hook: &mut H,
        plans: &mut Vec<PlanEnvelope>,
    ) -> Result<AfterCut, OnlineError> {
        hook.before_cut(&mut self.harness, t_end);
        self.harness.refresh_views();
        let envelope = self.controller.rollover(
            t_end,
            reason,
            self.harness.placement(),
            self.harness.sequential(),
            self.harness.views(),
        )?;
        self.harness.apply_plan(t_end, &envelope.plan);
        self.harness.begin_period();
        let next = hook.after_cut(&envelope, self.controller.core().history());
        plans.push(envelope);
        if next == AfterCut::CrashRestore {
            self.crash_restore()?;
        }
        Ok(next)
    }

    /// Processes one logical record; returns the plans this record caused
    /// (zero or more scheduled boundaries it crossed, plus at most one
    /// trigger cut). `Err` for a record whose item the storage side does
    /// not place ([`OnlineError::UnplacedItem`], rejected before any
    /// state changes) and for fatal supervision failures (a quarantined
    /// shard, or a worker the supervisor could not rebuild) —
    /// recoverable incidents are absorbed and the fold continues.
    pub fn step(&mut self, rec: LogicalIoRecord) -> Result<Vec<PlanEnvelope>, OnlineError> {
        self.step_with(rec, &mut NoHook)
    }

    /// [`step`](Self::step) with `hook` watching each cut and serve.
    #[inline]
    pub(crate) fn step_with<H: StepHook>(
        &mut self,
        rec: LogicalIoRecord,
        hook: &mut H,
    ) -> Result<Vec<PlanEnvelope>, OnlineError> {
        if !self.harness.is_placed(rec.item) {
            return Err(OnlineError::UnplacedItem {
                item: rec.item,
                record: self.events + 1,
            });
        }
        let mut plans = Vec::new();
        // Period boundaries at or before this record.
        while self.controller.core().needs_rollover(rec.ts) {
            let t_end = self.controller.core().boundary();
            if self.invoke(t_end, RolloverReason::Boundary, hook, &mut plans)? == AfterCut::Stop {
                return Ok(plans);
            }
        }

        let t = rec.ts;
        self.last_ts = self.last_ts.max(t);
        self.events += 1;
        self.controller.observe(&rec);
        let served = self.harness.serve(rec);
        self.response_sum += served.response.as_secs_f64();
        hook.served(&rec, &served);

        // Stream events; either may cut the period short (§V.D).
        let core = self.controller.core_mut();
        let mut invoke_now = false;
        if served.spun_up {
            invoke_now |= core.observe_spin_up(t, served.enclosure);
        }
        invoke_now |= core.observe_io_event(t, served.enclosure);
        if invoke_now && t > core.period_start() {
            self.invoke(t, RolloverReason::Trigger, hook, &mut plans)?;
        }
        Ok(plans)
    }

    /// Ends the stream at `end` (defaults to the last record's timestamp
    /// when `None`), settles the power meters, and reports the run.
    pub fn finish(mut self, end: Option<Micros>) -> OnlineSummary {
        let end = end.unwrap_or(self.last_ts);
        self.harness.finish(end);
        let controller = self.harness.controller();
        OnlineSummary {
            duration: end,
            events: self.events,
            periods: self.controller.core().periods(),
            trigger_cuts: self.controller.core().trigger_cuts(),
            avg_power_watts: controller.average_watts(end),
            spin_ups: controller.total_spin_ups(),
            avg_response: Micros::from_secs_f64(self.response_sum / self.events.max(1) as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::IoKind;
    use ees_simstorage::Access;

    fn rec(ts_s: u64, item: u32) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros::from_secs(ts_s),
            item: DataItemId(item),
            offset: 0,
            len: 4096,
            kind: IoKind::Read,
        }
    }

    #[test]
    fn unplaced_item_is_rejected_before_any_state_changes() {
        // Ids 0, 1, 3: id 2 is a hole in the dense mirror, id 4 lies
        // past its end, 4_000_000 far past it.
        let items: Vec<CatalogItem> = [0u32, 1, 3]
            .iter()
            .map(|&i| CatalogItem {
                id: DataItemId(i),
                size: 1 << 20,
                enclosure: EnclosureId((i % 2) as u16),
                access: Access::Random,
            })
            .collect();
        let storage = StorageConfig::ams2500(2);
        for shards in [1usize, 2] {
            let mut daemon = ColocatedDaemon::with_shard_options(
                &items,
                2,
                &storage,
                ProposedConfig::default(),
                None,
                shards,
                ShardOptions::default(),
            );
            for i in 0..10u64 {
                daemon.step(rec(i, [0, 1, 3][i as usize % 3])).unwrap();
            }
            // Far past the first boundary: a placed record this late
            // would roll periods over before being served.
            for bad in [2u32, 4, 4_000_000] {
                let err = daemon.step(rec(1_000_000, bad)).unwrap_err();
                assert!(
                    matches!(err, OnlineError::UnplacedItem { item, record: 11 } if item.0 == bad),
                    "shards = {shards}: {err}"
                );
                let msg = err.to_string();
                assert!(msg.contains(&format!("item {bad} ")), "{msg}");
                assert!(msg.contains("record 11"), "{msg}");
            }
            assert_eq!(daemon.events(), 10);
            daemon.sync().unwrap();
            let summary = daemon.finish(None);
            assert_eq!(summary.events, 10);
            assert_eq!(summary.periods, 0, "the rejected record closed no period");
            assert_eq!(summary.duration, Micros::from_secs(9));
        }
    }

    /// The in-thread and the sharded controller both restart through the
    /// checkpoint codec unnoticed: crash/restores after any record count
    /// give the uninterrupted run's plans and final checkpoint.
    #[test]
    fn crash_restore_keeps_plans_and_the_final_checkpoint() {
        let items: Vec<CatalogItem> = (0..6u32)
            .map(|i| CatalogItem {
                id: DataItemId(i),
                size: 1 << 20,
                enclosure: EnclosureId((i % 3) as u16),
                access: Access::Random,
            })
            .collect();
        let storage = StorageConfig::ams2500(3);
        let policy = ProposedConfig {
            initial_period: Micros::from_secs(60),
            ..ProposedConfig::default()
        };
        // Items 0–2 busy throughout, 3–5 only in bursts: several periods,
        // mixed patterns.
        let recs: Vec<LogicalIoRecord> = (0..900u64)
            .filter(|i| i % 6 < 3 || (i / 120) % 2 == 0)
            .map(|i| LogicalIoRecord {
                kind: if i % 5 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
                ..rec(i, (i % 6) as u32)
            })
            .collect();
        let run = |shards: usize, crash_after: &[u64]| {
            let mut daemon = ColocatedDaemon::with_shard_options(
                &items,
                3,
                &storage,
                policy,
                None,
                shards,
                ShardOptions::default(),
            );
            let mut plans = Vec::new();
            for &r in &recs {
                plans.extend(daemon.step(r).unwrap());
                if crash_after.contains(&daemon.events()) {
                    daemon.crash_restore().unwrap();
                }
            }
            (plans, encode_checkpoint(&daemon.checkpoint().unwrap()))
        };
        for shards in [1usize, 2] {
            let (want_plans, want_cp) = run(shards, &[]);
            assert!(want_plans.len() >= 5, "{} plans", want_plans.len());
            for crashes in [&[1u64][..], &[59, 60, 61], &[100, 333, 500, 640]] {
                let (plans, cp) = run(shards, crashes);
                assert_eq!(plans, want_plans, "shards = {shards}, crashes {crashes:?}");
                assert_eq!(cp, want_cp, "shards = {shards}, crashes {crashes:?}");
            }
        }
    }

    #[test]
    fn resume_refuses_a_placement_the_unit_cannot_hold() {
        let items: Vec<CatalogItem> = (0..4u32)
            .map(|i| CatalogItem {
                id: DataItemId(i),
                size: 1 << 20,
                enclosure: EnclosureId((i % 2) as u16),
                access: Access::Random,
            })
            .collect();
        let storage = StorageConfig::ams2500(2);
        let capacity = storage.enclosure.capacity_bytes;
        let mut daemon = ColocatedDaemon::with_shard_options(
            &items,
            2,
            &storage,
            ProposedConfig::default(),
            None,
            1,
            ShardOptions::default(),
        );
        for i in 0..8u64 {
            daemon.step(rec(i, (i % 4) as u32)).unwrap();
        }
        let cp = daemon.checkpoint().unwrap();
        // Item 0 re-pinned past the unit's two enclosures, then grown
        // past its enclosure's capacity.
        let moved = |enclosure: u16, size: u64| {
            let mut cp = cp.clone();
            cp.placement[0] = (DataItemId(0), EnclosureId(enclosure), size);
            cp
        };
        for shards in [1usize, 2] {
            let resume = |cp: &ControllerCheckpoint| {
                ColocatedDaemon::resume_with_options(
                    &items,
                    2,
                    &storage,
                    ProposedConfig::default(),
                    shards,
                    ShardOptions::default(),
                    cp,
                )
            };
            assert!(resume(&cp).is_ok(), "shards = {shards}");
            for (bad, want) in [
                (moved(2, 1 << 20), "enclosure 2, but the unit has 2"),
                (moved(99, 1 << 20), "enclosure 99, but the unit has 2"),
                (moved(0, capacity + 1), "does not fit on enclosure 0"),
            ] {
                let err = resume(&bad).err().expect("refused");
                let msg = err.to_string();
                assert!(matches!(err, OnlineError::Placement(_)), "{msg}");
                assert!(msg.contains("item 0 ") && msg.contains(want), "{msg}");
            }
            // A catalog id past the cap is refused before the harness
            // sizes its dense per-item tables by it.
            let mut past_cap = items.clone();
            past_cap[3].id = DataItemId(u32::MAX);
            let err = ColocatedDaemon::resume_with_options(
                &past_cap,
                2,
                &storage,
                ProposedConfig::default(),
                shards,
                ShardOptions::default(),
                &cp,
            )
            .err()
            .expect("refused");
            let msg = err.to_string();
            assert!(matches!(err, OnlineError::Placement(_)), "{msg}");
            assert!(msg.contains("item id 4294967295 is too large"), "{msg}");
        }
    }
}
