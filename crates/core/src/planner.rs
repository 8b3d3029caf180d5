//! The planning core of Algorithm 1, decoupled from the
//! [`MonitorSnapshot`](ees_policy::MonitorSnapshot) it is fed from.
//!
//! [`EnergyEfficientPolicy`](crate::EnergyEfficientPolicy) runs this over
//! reports derived from a full-period trace
//! ([`analyze_snapshot`](crate::analyze_snapshot)); the streaming
//! controller of `ees-online` runs the *same* planner over reports folded
//! up incrementally — so a batch replay and an online run that classify
//! items identically also plan identically.

use crate::analysis::{p3_peak_iops, ItemReport};
use crate::cache_select::{select_preload, select_write_delay};
use crate::config::ProposedConfig;
use crate::hotcold::determine_hot_cold;
use crate::monitor::{MonitorHistory, MonitorHistoryState};
use crate::period::next_period;
use crate::placement::plan_placement_with_floor;
use ees_iotrace::{DataItemId, EnclosureId, Micros, Span};
use ees_policy::{EnclosureView, ManagementPlan};
use std::collections::BTreeSet;

/// A management plan plus the §V.D re-arm parameters derived with it.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The plan to execute.
    pub plan: ManagementPlan,
    /// Hot enclosures that actually hold P3 data after the planned
    /// migrations — the set trigger (i) should watch. A freshly promoted
    /// (still empty) hot enclosure receives no I/O at all, and treating
    /// its silence as a pattern change would cut every period short.
    pub hot_with_p3: Vec<EnclosureId>,
    /// Size of the cold set, for the storm reading of trigger (ii).
    pub cold_count: usize,
}

/// Steps 1–7 of Algorithm 1 over per-item reports: pattern bookkeeping,
/// hot/cold split, placement, cache selection with the §V.C retention
/// rule, power-off eligibility, and the next monitoring period.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: ProposedConfig,
    history: MonitorHistory,
    /// Previous preload set, for the §V.C retention rule ("keeps data
    /// items that are already preloaded into the cache"): an item that
    /// went quiet (P0) keeps its cache residency while budget remains,
    /// so its next burst still hits.
    last_preload: Vec<(DataItemId, u64)>,
    /// Previous write-delay set, retained for P0 items for the same
    /// reason: dropping an idle item would only force a flush and make
    /// its next trickle write wake a powered-off enclosure.
    last_write_delay: Vec<DataItemId>,
    /// Decayed running maximum of the measured `I_max`: a single
    /// monitoring period under-samples the one-second peak (short periods
    /// may not contain a load spike at all), and sizing the hot set from
    /// the raw value drains and re-promotes enclosures on pure noise.
    /// The smoothed peak decays 10 % per period, so a genuine load drop
    /// still shrinks the hot set within a few periods.
    imax_smooth: f64,
}

impl Planner {
    /// Creates a planner with the given configuration.
    pub fn new(cfg: ProposedConfig) -> Self {
        Planner {
            cfg,
            history: MonitorHistory::new(),
            last_preload: Vec::new(),
            last_write_delay: Vec::new(),
            imax_smooth: 0.0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ProposedConfig {
        &self.cfg
    }

    /// The monitoring history accumulated so far (for the §VI.C stability
    /// analysis and the experiment harness).
    pub fn history(&self) -> &MonitorHistory {
        &self.history
    }

    /// Copies the planner's dynamic state out for checkpointing. The
    /// configuration is *not* part of the state: a restored controller is
    /// constructed with its own (identical) configuration, and keeping it
    /// out of the checkpoint means a config typo cannot silently override
    /// the running deployment's settings.
    pub fn export_state(&self) -> PlannerState {
        PlannerState {
            history: self.history.export_state(),
            last_preload: self.last_preload.clone(),
            last_write_delay: self.last_write_delay.clone(),
            imax_smooth: self.imax_smooth,
        }
    }

    /// Rebuilds a planner from a configuration plus checkpointed dynamic
    /// state; subsequent [`plan`](Self::plan) calls produce exactly what
    /// the original planner would have produced.
    pub fn from_state(cfg: ProposedConfig, s: PlannerState) -> Self {
        Planner {
            cfg,
            history: MonitorHistory::from_state(s.history),
            last_preload: s.last_preload,
            last_write_delay: s.last_write_delay,
            imax_smooth: s.imax_smooth,
        }
    }
}

/// Checkpointable snapshot of a [`Planner`]'s dynamic state — everything
/// `plan` reads besides its inputs and the (externally supplied)
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerState {
    /// Monitoring history (periods + last pattern per item).
    pub history: MonitorHistoryState,
    /// Previous preload set for the §V.C retention rule.
    pub last_preload: Vec<(DataItemId, u64)>,
    /// Previous write-delay set for the §V.C retention rule.
    pub last_write_delay: Vec<DataItemId>,
    /// Decayed running maximum of the measured `I_max`.
    pub imax_smooth: f64,
}

impl Planner {
    /// Plans one period from its per-item reports and enclosure views.
    /// `reports` is taken by mutable reference because cache selection
    /// must see the *post-migration* placement: an item evicted from a
    /// hot enclosure becomes a cold-enclosure resident and is then a
    /// legitimate preload / write-delay candidate.
    pub fn plan(
        &mut self,
        period: Span,
        break_even: Micros,
        reports: &mut [ItemReport],
        enclosures: &[EnclosureView],
    ) -> PlanOutcome {
        // Step 1: logical I/O patterns (already classified into reports).
        self.history.record(period, reports);

        // Steps 2–3: hot/cold and placement. The hot-set size is floored
        // by the decayed running maximum of I_max (see `imax_smooth`).
        let (_, computed) = determine_hot_cold(reports, enclosures, period.start);
        let imax = p3_peak_iops(reports, period.start);
        // Wall-time decay (half-life ≈ 20 min): short, trigger-cut periods
        // must not bleed the running peak away faster than long ones.
        let dt = period.len().as_secs_f64();
        let decay = (-dt / 1800.0).exp();
        self.imax_smooth = imax.max(self.imax_smooth * decay);
        if computed == 0 {
            // No P3 items at all: the load that justified the hot set is
            // gone outright (a finished scan, not peak wobble). Release
            // the smoothed floor so every enclosure can power off.
            self.imax_smooth = 0.0;
        }
        let o = enclosures
            .first()
            .map(|e| e.max_iops)
            .unwrap_or(1.0)
            .max(1.0);
        let floor = ((self.imax_smooth / o).ceil() as usize).max(computed);
        let mut placement = plan_placement_with_floor(reports, enclosures, period.start, floor);
        if !self.cfg.enable_placement {
            // Ablation: keep the hot/cold split but move nothing.
            placement.migrations.clear();
        }
        let split = placement.split;
        if std::env::var_os("EES_DEBUG_PLAN").is_some() {
            eprintln!(
                "PLAN period=[{}..{}] imax={:.0} smooth={:.0} computed={} floor={} hot={:?} migrations={}",
                period.start,
                period.end,
                imax,
                self.imax_smooth,
                computed,
                floor,
                split.hot,
                placement.migrations.len()
            );
        }

        // Cache selection must see the *post-migration* placement.
        for m in &placement.migrations {
            if let Some(r) = reports.iter_mut().find(|r| r.id == m.item) {
                r.enclosure = m.to;
            }
        }

        // Steps 4–5: write delay first, then preload (§IV.A ordering).
        let cold: BTreeSet<EnclosureId> = split.cold.iter().copied().collect();
        let is_cold = |e: EnclosureId| cold.contains(&e);
        let mut write_delay = if self.cfg.enable_write_delay {
            select_write_delay(reports, is_cold, self.cfg.write_delay_budget)
        } else {
            Vec::new()
        };
        let preload = if self.cfg.enable_preload {
            select_preload(reports, is_cold, self.cfg.preload_budget)
        } else {
            Vec::new()
        };

        // §V.C retention ("keeps data items that are already preloaded
        // into the cache"): items from the previous sets that still live
        // on cold enclosures keep their slots *first*; fresh selections
        // fill whatever budget remains. Without this, per-period
        // classification flapping (P1 ↔ P0 ↔ P3) reshuffles the sets, and
        // every reshuffle is a bulk cache load that wakes a sleeping
        // enclosure — costing more than the preload ever saves.
        let is_cold_resident = |id: DataItemId| {
            reports
                .iter()
                .any(|r| r.id == id && cold.contains(&r.enclosure))
        };
        let mut merged: Vec<(DataItemId, u64)> = Vec::new();
        let mut spent: u64 = 0;
        for &(id, size) in &self.last_preload {
            if is_cold_resident(id) && spent + size <= self.cfg.preload_budget {
                spent += size;
                merged.push((id, size));
            }
        }
        for &(id, size) in &preload {
            if merged.iter().any(|(m, _)| *m == id) {
                continue;
            }
            if spent + size <= self.cfg.preload_budget {
                spent += size;
                merged.push((id, size));
            }
        }
        let preload = merged;
        // Membership through a set: write-delay sets reach thousands of
        // items (cloud-block), where a scan per retained item is
        // quadratic. `write_delay` keeps its order.
        let mut selected: BTreeSet<DataItemId> = write_delay.iter().copied().collect();
        for &id in &self.last_write_delay {
            if !selected.contains(&id) && is_cold_resident(id) {
                selected.insert(id);
                write_delay.push(id);
            }
        }
        self.last_preload = preload.clone();
        self.last_write_delay = write_delay.clone();

        // Step 6: power control — only cold enclosures may power off.
        let power_off_eligible = enclosures
            .iter()
            .map(|e| (e.id, cold.contains(&e.id)))
            .collect();

        // Step 7: next monitoring period. Floored at the configured
        // initial period: observed Long Intervals are bounded above by the
        // period that contains them, so an unfloored `avg(LI) × α` ratchets
        // down to the break-even time and sticks there (no interval longer
        // than a 52 s window fits inside one).
        let next = next_period(
            reports,
            self.cfg.alpha,
            self.cfg.initial_period.max(break_even),
            self.cfg.max_period,
        );

        let hot_with_p3: Vec<EnclosureId> = split
            .hot
            .iter()
            .copied()
            .filter(|&h| {
                reports
                    .iter()
                    .any(|r| r.is_placement_p3() && r.enclosure == h)
            })
            .collect();

        PlanOutcome {
            plan: ManagementPlan {
                migrations: placement.migrations,
                extent_redirects: Vec::new(),
                preload,
                write_delay,
                power_off_eligible,
                next_period: next,
                determinations: 1,
            },
            hot_with_p3,
            cold_count: split.cold.len(),
        }
    }
}
