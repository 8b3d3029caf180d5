//! The planning core of Algorithm 1, decoupled from the
//! [`MonitorSnapshot`](ees_policy::MonitorSnapshot) it is fed from.
//!
//! [`EnergyEfficientPolicy`](crate::EnergyEfficientPolicy) runs this over
//! reports derived from a full-period trace
//! ([`analyze_snapshot`](crate::analyze_snapshot)); the streaming
//! controller of `ees-online` runs the *same* planner over reports folded
//! up incrementally — so a batch replay and an online run that classify
//! items identically also plan identically.

use crate::analysis::ItemReport;
use crate::cache_select::{select_preload, select_write_delay};
use crate::config::ProposedConfig;
use crate::hotcold::hot_demand;
use crate::monitor::{MonitorHistory, MonitorHistoryState};
use crate::period::next_period;
use crate::placement::plan_placement_with_floor;
use ees_iotrace::{DataItemId, DenseItemMap, EnclosureId, Micros, Span};
use ees_policy::{EnclosureView, ManagementPlan};

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

        // Steps 2–3: hot/cold and placement. I_max and N_hot are computed
        // once here; the hot-set size is floored by the decayed running
        // maximum of I_max (see `imax_smooth`).
        let (imax, computed) = hot_demand(reports, enclosures);
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
        let mut placement = plan_placement_with_floor(reports, enclosures, computed, floor);
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

        // One id → report index for every lookup below: reports cover
        // each placed item once, so an item absent from it has left
        // placement.
        let mut index: DenseItemMap<usize> = DenseItemMap::new();
        for (i, r) in reports.iter().enumerate() {
            index.insert(r.id, i);
        }

        // Cache selection must see the *post-migration* placement.
        for m in &placement.migrations {
            if let Some(&i) = index.get(m.item) {
                reports[i].enclosure = m.to;
            }
        }

        // Steps 4–5: write delay first, then preload (§IV.A ordering).
        let width = enclosures
            .iter()
            .map(|e| usize::from(e.id.0) + 1)
            .max()
            .unwrap_or(0);
        let mut cold = vec![false; width];
        for e in &split.cold {
            cold[usize::from(e.0)] = true;
        }
        let is_cold = |e: EnclosureId| cold.get(usize::from(e.0)).copied().unwrap_or(false);
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
        // Membership is a flag per report: both sets draw only from
        // reported items.
        let slot = |id: DataItemId| *index.get(id).expect("fresh picks come from the reports");
        let cold_resident = |id: DataItemId| {
            index
                .get(id)
                .copied()
                .filter(|&i| is_cold(reports[i].enclosure))
        };
        let mut taken = vec![false; reports.len()];
        let mut merged: Vec<(DataItemId, u64)> = Vec::new();
        let mut spent: u64 = 0;
        for &(id, size) in &self.last_preload {
            if let Some(i) = cold_resident(id) {
                if spent + size <= self.cfg.preload_budget {
                    spent += size;
                    taken[i] = true;
                    merged.push((id, size));
                }
            }
        }
        for &(id, size) in &preload {
            let i = slot(id);
            if taken[i] {
                continue;
            }
            if spent + size <= self.cfg.preload_budget {
                spent += size;
                taken[i] = true;
                merged.push((id, size));
            }
        }
        let preload = merged;
        taken.fill(false);
        for &id in &write_delay {
            taken[slot(id)] = true;
        }
        for &id in &self.last_write_delay {
            if let Some(i) = cold_resident(id) {
                if !taken[i] {
                    taken[i] = true;
                    write_delay.push(id);
                }
            }
        }
        self.last_preload = preload.clone();
        self.last_write_delay = write_delay.clone();

        // Step 6: power control — only cold enclosures may power off.
        let power_off_eligible = enclosures.iter().map(|e| (e.id, is_cold(e.id))).collect();

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

        let mut holds_p3 = vec![false; width];
        for r in reports.iter().filter(|r| r.is_placement_p3()) {
            if let Some(flag) = holds_p3.get_mut(usize::from(r.enclosure.0)) {
                *flag = true;
            }
        }
        let hot_with_p3: Vec<EnclosureId> = split
            .hot
            .iter()
            .copied()
            .filter(|h| holds_p3[usize::from(h.0)])
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

#[cfg(test)]
mod tests {
    //! The §V.C retention rule, driven through two consecutive plans: the
    //! first seeds the previous preload and write-delay sets, the second
    //! shows which of them survive.

    use super::*;
    use crate::pattern::LogicalIoPattern;
    use ees_iotrace::{IopsSeries, ItemIntervalStats};

    const SECS: u64 = 100;

    fn view(id: u16) -> EnclosureView {
        EnclosureView {
            id: EnclosureId(id),
            capacity: 1_000_000,
            used: 0,
            max_iops: 900.0,
            max_seq_iops: 2800.0,
            served_ios: 0,
            spin_ups: 0,
        }
    }

    fn views() -> Vec<EnclosureView> {
        (0..3).map(view).collect()
    }

    fn period(k: u64) -> Span {
        Span {
            start: Micros::from_secs(k * SECS),
            end: Micros::from_secs((k + 1) * SECS),
        }
    }

    /// A report in period `k`. P3 reports carry a flat series at their
    /// average rate, which puts them over the placement floor; every
    /// other report carries an empty series.
    fn report(
        k: u64,
        item: u32,
        enc: u16,
        size: u64,
        pattern: LogicalIoPattern,
        reads: u64,
        writes: u64,
    ) -> ItemReport {
        let span = period(k);
        let buckets = if pattern == LogicalIoPattern::P3 {
            vec![((reads + writes) / SECS) as u32; SECS as usize]
        } else {
            Vec::new()
        };
        ItemReport {
            id: DataItemId(item),
            enclosure: EnclosureId(enc),
            size,
            pattern,
            stats: ItemIntervalStats {
                item: DataItemId(item),
                period: span,
                long_intervals: Vec::new(),
                sequences: Vec::new(),
                reads,
                writes,
                bytes_read: reads * 4096,
                bytes_written: writes * 4096,
            },
            iops: IopsSeries {
                start: span.start,
                buckets,
            },
            sequential: false,
            seq_factor: 900.0 / 2800.0,
        }
    }

    fn plan(planner: &mut Planner, k: u64, mut reports: Vec<ItemReport>) -> ManagementPlan {
        planner
            .plan(period(k), Micros::from_secs(52), &mut reports, &views())
            .plan
    }

    #[test]
    fn retained_preload_keeps_its_slot_ahead_of_a_better_fresh_pick() {
        let mut planner = Planner::new(ProposedConfig {
            preload_budget: 100,
            ..ProposedConfig::default()
        });
        let first = plan(
            &mut planner,
            0,
            vec![report(0, 1, 1, 100, LogicalIoPattern::P1, 10, 0)],
        );
        assert_eq!(first.preload, vec![(DataItemId(1), 100)]);
        // Item 2 now reads ten times more per byte, so it ranks first
        // among the fresh picks; the budget fits one of the two, and the
        // previously preloaded item 1 (still cold-resident) keeps it.
        let second = plan(
            &mut planner,
            1,
            vec![
                report(1, 1, 1, 100, LogicalIoPattern::P1, 10, 0),
                report(1, 2, 2, 100, LogicalIoPattern::P1, 100, 0),
            ],
        );
        assert_eq!(second.preload, vec![(DataItemId(1), 100)]);
        assert_eq!(planner.export_state().last_preload, second.preload);
    }

    #[test]
    fn quiet_write_delay_items_follow_the_fresh_picks_once_in_previous_order() {
        let mut planner = Planner::new(ProposedConfig::default());
        let first = plan(
            &mut planner,
            0,
            vec![
                report(0, 4, 1, 100, LogicalIoPattern::P2, 0, 1),
                report(0, 5, 1, 100, LogicalIoPattern::P2, 0, 2),
                report(0, 7, 2, 100, LogicalIoPattern::P2, 0, 3),
            ],
        );
        assert_eq!(
            first.write_delay,
            vec![DataItemId(7), DataItemId(5), DataItemId(4)]
        );
        // Items 4 and 5 went quiet (P0); item 7 is picked again, behind
        // the fresh item 6 that wrote more this period.
        let second = plan(
            &mut planner,
            1,
            vec![
                report(1, 4, 1, 100, LogicalIoPattern::P0, 0, 0),
                report(1, 5, 1, 100, LogicalIoPattern::P0, 0, 0),
                report(1, 6, 2, 100, LogicalIoPattern::P2, 0, 8),
                report(1, 7, 2, 100, LogicalIoPattern::P2, 0, 5),
            ],
        );
        assert_eq!(
            second.write_delay,
            vec![DataItemId(6), DataItemId(7), DataItemId(5), DataItemId(4)]
        );
        assert_eq!(planner.export_state().last_write_delay, second.write_delay);
    }

    #[test]
    fn items_now_on_a_hot_enclosure_leave_both_sets() {
        let mut planner = Planner::new(ProposedConfig::default());
        // No P3 load yet: every enclosure is cold, and every candidate
        // is picked.
        let first = plan(
            &mut planner,
            0,
            vec![
                report(0, 1, 1, 100, LogicalIoPattern::P1, 10, 0),
                report(0, 2, 0, 100, LogicalIoPattern::P2, 0, 10),
                report(0, 3, 1, 100, LogicalIoPattern::P2, 0, 20),
                report(0, 4, 0, 100, LogicalIoPattern::P1, 20, 0),
                report(0, 9, 0, 1000, LogicalIoPattern::P0, 0, 0),
            ],
        );
        assert!(first.power_off_eligible.iter().all(|&(_, cold)| cold));
        assert_eq!(
            first.preload,
            vec![(DataItemId(4), 100), (DataItemId(1), 100)]
        );
        assert_eq!(first.write_delay, vec![DataItemId(3), DataItemId(2)]);
        // Item 9 turns P3 and makes enclosure 0 hot. Items 2 and 4 went
        // quiet there; items 1 and 3 turn P3 on cold enclosure 1, and
        // Algorithm 2 migrates them onto enclosure 0 in this same plan.
        let second = plan(
            &mut planner,
            1,
            vec![
                report(1, 1, 1, 100, LogicalIoPattern::P3, 1000, 0),
                report(1, 2, 0, 100, LogicalIoPattern::P0, 0, 0),
                report(1, 3, 1, 100, LogicalIoPattern::P3, 0, 1000),
                report(1, 4, 0, 100, LogicalIoPattern::P0, 0, 0),
                report(1, 9, 0, 1000, LogicalIoPattern::P3, 1000, 0),
            ],
        );
        assert!(second.power_off_eligible.contains(&(EnclosureId(0), false)));
        let mut moved: Vec<(DataItemId, EnclosureId)> =
            second.migrations.iter().map(|m| (m.item, m.to)).collect();
        moved.sort();
        assert_eq!(
            moved,
            vec![
                (DataItemId(1), EnclosureId(0)),
                (DataItemId(3), EnclosureId(0))
            ]
        );
        assert!(second.preload.is_empty(), "{:?}", second.preload);
        assert!(second.write_delay.is_empty(), "{:?}", second.write_delay);
    }

    #[test]
    fn items_that_left_placement_leave_both_sets() {
        let mut planner = Planner::new(ProposedConfig::default());
        let first = plan(
            &mut planner,
            0,
            vec![
                report(0, 1, 1, 100, LogicalIoPattern::P1, 10, 0),
                report(0, 2, 1, 100, LogicalIoPattern::P2, 0, 10),
            ],
        );
        assert_eq!(first.preload, vec![(DataItemId(1), 100)]);
        assert_eq!(first.write_delay, vec![DataItemId(2)]);
        // Both items left the placement map: no report, no slot.
        let second = plan(
            &mut planner,
            1,
            vec![report(1, 3, 1, 100, LogicalIoPattern::P0, 0, 0)],
        );
        assert!(second.preload.is_empty());
        assert!(second.write_delay.is_empty());
        let state = planner.export_state();
        assert!(state.last_preload.is_empty() && state.last_write_delay.is_empty());
    }
}
