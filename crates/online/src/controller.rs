//! The streaming management controller: period rollover and §V.D
//! mid-period re-planning without a full-period trace buffer.
//!
//! Wraps the shared planning core ([`ees_core::Planner`]) and trigger
//! arming ([`ees_core::ArmedTriggers`]) around the
//! [`IncrementalClassifier`], mirroring the decision flow of the batch
//! [`EnergyEfficientPolicy`](ees_core::EnergyEfficientPolicy) inside the
//! replay engine — same classification, same plans, same re-arm points.
//!
//! The period-closing bookkeeping lives in the crate-private
//! `PeriodCore`, which the sharded controller embeds too: the two
//! controllers differ only in how they fold records into reports.

use crate::classify::{IncrementalClassifier, ItemCheckpoint};
use ees_core::{
    snapshot_guard, ArmedTriggers, ArmedTriggersState, ItemReport, Planner, PlannerState,
    ProposedConfig,
};
use ees_iotrace::{DataItemId, EnclosureId, LogicalIoRecord, Micros, Span};
use ees_policy::{EnclosureView, ManagementPlan};
use ees_simstorage::PlacementMap;
use std::collections::BTreeSet;

/// Why a monitoring period ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloverReason {
    /// The monitoring period ran to its scheduled end.
    Boundary,
    /// A §V.D pattern-change trigger cut it short.
    Trigger,
}

/// One management invocation's output, stamped with its period.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEnvelope {
    /// The monitoring period the plan was derived from.
    pub period: Span,
    /// Scheduled boundary or trigger cut.
    pub reason: RolloverReason,
    /// The plan to execute.
    pub plan: ManagementPlan,
}

/// The management function's state between cuts, shared by
/// [`OnlineController`] and [`ShardedController`](crate::ShardedController):
/// the planner, the armed §V.D triggers, and the period clock. At each
/// period end or trigger cut, [`close`](Self::close) turns the period's
/// P0–P3 reports into a plan, re-arms the triggers, and starts the next
/// period at the planner's α-adapted length (§IV.H).
pub(crate) struct PeriodCore {
    planner: Planner,
    triggers: ArmedTriggers,
    break_even: Micros,
    period_start: Micros,
    period_len: Micros,
    periods: u64,
    trigger_cuts: u64,
}

impl PeriodCore {
    /// A fresh core whose first period starts at `t = 0`.
    pub(crate) fn new(cfg: ProposedConfig, break_even: Micros) -> Self {
        PeriodCore {
            triggers: ArmedTriggers::new(snapshot_guard(cfg.initial_period)),
            period_len: cfg.initial_period.max(Micros(1)),
            planner: Planner::new(cfg),
            break_even,
            period_start: Micros::ZERO,
            periods: 0,
            trigger_cuts: 0,
        }
    }

    /// Restores a core from checkpointed state, handing back the
    /// per-item classification for the caller's classifier(s).
    pub(crate) fn from_state(
        cfg: ProposedConfig,
        s: ControllerState,
    ) -> (Self, Vec<ItemCheckpoint>) {
        let core = PeriodCore {
            planner: Planner::from_state(cfg, s.planner),
            triggers: ArmedTriggers::from_state(s.triggers),
            break_even: s.break_even,
            period_start: s.period_start,
            period_len: s.period_len.max(Micros(1)),
            periods: s.periods,
            trigger_cuts: s.trigger_cuts,
        };
        (core, s.items)
    }

    /// The state a checkpoint captures, with `items` as the mid-period
    /// classification.
    pub(crate) fn export_state(&self, items: Vec<ItemCheckpoint>) -> ControllerState {
        ControllerState {
            break_even: self.break_even,
            period_start: self.period_start,
            period_len: self.period_len,
            periods: self.periods,
            trigger_cuts: self.trigger_cuts,
            planner: self.planner.export_state(),
            triggers: self.triggers.export_state(),
            items,
        }
    }

    pub(crate) fn config(&self) -> ProposedConfig {
        *self.planner.config()
    }

    pub(crate) fn break_even(&self) -> Micros {
        self.break_even
    }

    pub(crate) fn period_start(&self) -> Micros {
        self.period_start
    }

    pub(crate) fn boundary(&self) -> Micros {
        self.period_start + self.period_len
    }

    pub(crate) fn needs_rollover(&self, ts: Micros) -> bool {
        ts >= self.boundary()
    }

    pub(crate) fn periods(&self) -> u64 {
        self.periods
    }

    pub(crate) fn trigger_cuts(&self) -> u64 {
        self.trigger_cuts
    }

    pub(crate) fn history(&self) -> &ees_core::MonitorHistory {
        self.planner.history()
    }

    pub(crate) fn observe_io_event(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        self.triggers.observe_io(t, enclosure)
    }

    pub(crate) fn observe_spin_up(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        self.triggers.observe_spin_up(t, enclosure)
    }

    /// Closes the running period at `t_end` with its classified
    /// `reports` (placement order): plans (Algorithms 2–3, preload and
    /// write-delay picks), re-arms the triggers, adopts the plan's next
    /// period length, and starts the next period at `t_end`.
    pub(crate) fn close(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        reports: &mut [ItemReport],
        views: &[EnclosureView],
    ) -> PlanEnvelope {
        let period = Span {
            start: self.period_start,
            end: t_end,
        };
        let outcome = self.planner.plan(period, self.break_even, reports, views);
        self.triggers.rearm(
            self.break_even,
            t_end,
            outcome.hot_with_p3,
            outcome.cold_count,
        );
        if let Some(next) = outcome.plan.next_period {
            self.period_len = next.max(Micros(1));
        }
        self.period_start = t_end;
        self.periods += 1;
        if reason == RolloverReason::Trigger {
            self.trigger_cuts += 1;
        }
        PlanEnvelope {
            period,
            reason,
            plan: outcome.plan,
        }
    }
}

/// The online controller: classifies incrementally, plans at rollover,
/// and watches the §V.D triggers in between.
pub struct OnlineController {
    pub(crate) core: PeriodCore,
    classifier: IncrementalClassifier,
}

impl OnlineController {
    /// Creates a controller with the given policy configuration on a
    /// storage unit with the given break-even time. The first period
    /// starts at `t = 0`.
    pub fn new(cfg: ProposedConfig, break_even: Micros) -> Self {
        OnlineController {
            core: PeriodCore::new(cfg, break_even),
            classifier: IncrementalClassifier::new(Micros::ZERO, break_even),
        }
    }

    /// Start of the running period.
    pub fn period_start(&self) -> Micros {
        self.core.period_start()
    }

    /// Scheduled end of the running period.
    pub fn boundary(&self) -> Micros {
        self.core.boundary()
    }

    /// Whether a record at `ts` lies at or past the scheduled boundary —
    /// call [`rollover`](Self::rollover) (possibly repeatedly) until this
    /// is false before observing the record.
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

    /// The accumulated monitoring history (pattern mixes, §VI.C
    /// stability).
    pub fn history(&self) -> &ees_core::MonitorHistory {
        self.core.history()
    }

    /// Folds one logical record into the running classification. Call
    /// before serving the record, exactly as the batch engine buffers a
    /// record before routing it.
    pub fn observe(&mut self, rec: &LogicalIoRecord) {
        self.classifier.observe(rec);
    }

    /// Copies the controller's full dynamic state out for checkpointing:
    /// planner history, trigger arming, mid-period per-item
    /// classification, and period bookkeeping. The controller keeps
    /// running — exporting is a read.
    pub fn export_state(&self) -> ControllerState {
        self.core.export_state(self.classifier.export_items())
    }

    /// Rebuilds a controller from a configuration plus checkpointed
    /// state. Feeding the restored controller the records the original
    /// had not yet seen yields exactly the plans the original would have
    /// produced — the crash-safety invariant the `chaos` test suite
    /// property-checks.
    pub fn from_state(cfg: ProposedConfig, s: ControllerState) -> Self {
        let (core, items) = PeriodCore::from_state(cfg, s);
        let mut classifier = IncrementalClassifier::new(core.period_start(), core.break_even());
        classifier.import_items(items);
        OnlineController { core, classifier }
    }

    /// Feeds the served record's enclosure to the §V.D triggers; `true`
    /// means a trigger fired and the caller should invoke
    /// [`rollover`](Self::rollover) at `t` (if `t` is past the period
    /// start).
    pub fn observe_io_event(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        self.core.observe_io_event(t, enclosure)
    }

    /// Feeds a spin-up to the §V.D triggers; `true` as above.
    pub fn observe_spin_up(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        self.core.observe_spin_up(t, enclosure)
    }

    /// Closes the period at `t_end`: emits reports from the running
    /// classification, plans, re-arms the triggers, and starts the next
    /// period. `placement`, `sequential`, and `views` describe the storage
    /// side at the cut (the views must cover the closing period).
    pub fn rollover(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        views: &[EnclosureView],
    ) -> PlanEnvelope {
        let mut reports =
            self.classifier
                .rollover(t_end, placement, sequential, seq_factor_of(views));
        self.core.close(t_end, reason, &mut reports, views)
    }
}

/// The random-equivalence factor the batch analysis derives from the
/// first enclosure view — shared by the serial and sharded rollover
/// paths so their reports agree bit-for-bit.
pub(crate) fn seq_factor_of(views: &[EnclosureView]) -> f64 {
    views
        .first()
        .map(|e| {
            if e.max_seq_iops > 0.0 {
                e.max_iops / e.max_seq_iops
            } else {
                1.0
            }
        })
        .unwrap_or(1.0)
}

/// Checkpointable snapshot of an [`OnlineController`]'s dynamic state.
/// The policy configuration is supplied at restore time, not stored —
/// see [`Planner::export_state`](ees_core::Planner::export_state).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// Break-even time of the managed storage unit.
    pub break_even: Micros,
    /// Start of the running period.
    pub period_start: Micros,
    /// Scheduled length of the running period.
    pub period_len: Micros,
    /// Periods closed so far.
    pub periods: u64,
    /// How many of those were trigger cuts.
    pub trigger_cuts: u64,
    /// Planner history + §V.C retention sets + smoothed peak.
    pub planner: PlannerState,
    /// §V.D trigger arming state.
    pub triggers: ArmedTriggersState,
    /// Mid-period per-item classification state, in item order.
    pub items: Vec<ItemCheckpoint>,
}
