//! The management function's output: what the run-time power-saving
//! method executes after each monitoring period (paper §IV–§V).

use ees_iotrace::{DataItemId, EnclosureId, Micros};

/// One data-item migration: move `item` to enclosure `to`. The source is
/// wherever the placement map says the item currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The item to move.
    pub item: DataItemId,
    /// The target enclosure.
    pub to: EnclosureId,
}

/// Granularity of extent-level redirects: the physical-block unit that
/// block-granular methods like DDR move (64 MiB).
pub const REDIRECT_EXTENT_BYTES: u64 = 64 * 1024 * 1024;

/// A physical-extent relocation, the move unit of block-level methods
/// (DDR): one [`REDIRECT_EXTENT_BYTES`]-sized extent of `item` is re-homed
/// onto `to` without moving the rest of the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentRedirect {
    /// The item owning the extent.
    pub item: DataItemId,
    /// Extent index within the item (`offset / REDIRECT_EXTENT_BYTES`).
    pub extent: u64,
    /// The enclosure the extent moves to.
    pub to: EnclosureId,
    /// Bytes actually moved (≤ `REDIRECT_EXTENT_BYTES`; the last extent of
    /// an item may be short).
    pub bytes: u64,
}

/// A full management plan for the next period.
///
/// The `migrations` list is ordered: the run-time method executes it
/// front-to-back, one item at a time (§V.A — P0/P1/P2 evictions from hot
/// enclosures come first to make room for inbound P3 items).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManagementPlan {
    /// Ordered item migrations.
    pub migrations: Vec<Migration>,
    /// Extent-level relocations (used by block-granular baselines; empty
    /// for item-granular methods).
    pub extent_redirects: Vec<ExtentRedirect>,
    /// The desired preload set: `(item, size)`, budgeted against the
    /// preload cache partition (§IV.F). Replaces the previous set.
    pub preload: Vec<(DataItemId, u64)>,
    /// The desired write-delay set (§IV.E). Replaces the previous set.
    pub write_delay: Vec<DataItemId>,
    /// Power-off eligibility changes: `(enclosure, eligible)`. Enclosures
    /// not listed keep their previous eligibility.
    pub power_off_eligible: Vec<(EnclosureId, bool)>,
    /// Length of the next monitoring period, or `None` to keep the
    /// current one (§IV.H).
    pub next_period: Option<Micros>,
    /// How many data-placement determinations this invocation performed —
    /// the count the paper reports per method (§VII.D: 5–10 for the
    /// proposed method, ~10⁵ for DDR).
    pub determinations: u64,
}

/// A defect found by [`ManagementPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDefect {
    /// A migration references an item absent from the placement map.
    UnknownItem(DataItemId),
    /// A migration targets an enclosure outside the snapshot.
    UnknownEnclosure(EnclosureId),
    /// The same item is migrated twice in one plan.
    DuplicateMigration(DataItemId),
    /// The preload selection exceeds the given budget.
    PreloadOverBudget {
        /// Total bytes selected.
        selected: u64,
        /// The budget it exceeds.
        budget: u64,
    },
    /// The same item appears twice in the preload set.
    DuplicatePreload(DataItemId),
    /// The same item appears twice in the write-delay set.
    DuplicateWriteDelay(DataItemId),
}

impl ManagementPlan {
    /// An empty plan that changes nothing (but still counts as one
    /// placement determination).
    pub fn empty() -> Self {
        ManagementPlan {
            determinations: 1,
            ..Default::default()
        }
    }

    /// Checks a plan's internal consistency against the snapshot it was
    /// produced from. The engine debug-asserts this on every plan, so a
    /// buggy policy fails loudly in tests instead of corrupting a run.
    pub fn validate(
        &self,
        snapshot: &crate::MonitorSnapshot<'_>,
        preload_budget: u64,
    ) -> Vec<PlanDefect> {
        let mut defects = Vec::new();
        let known_enclosure = |id: EnclosureId| snapshot.enclosures.iter().any(|e| e.id == id);

        let mut seen = std::collections::BTreeSet::new();
        for m in &self.migrations {
            if snapshot.placement.get(m.item).is_none() {
                defects.push(PlanDefect::UnknownItem(m.item));
            }
            if !known_enclosure(m.to) {
                defects.push(PlanDefect::UnknownEnclosure(m.to));
            }
            if !seen.insert(m.item) {
                defects.push(PlanDefect::DuplicateMigration(m.item));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0u64;
        for &(id, size) in &self.preload {
            total += size;
            if !seen.insert(id) {
                defects.push(PlanDefect::DuplicatePreload(id));
            }
        }
        if total > preload_budget {
            defects.push(PlanDefect::PreloadOverBudget {
                selected: total,
                budget: preload_budget,
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for &id in &self.write_delay {
            if !seen.insert(id) {
                defects.push(PlanDefect::DuplicateWriteDelay(id));
            }
        }
        for &(id, _) in &self.power_off_eligible {
            if !known_enclosure(id) {
                defects.push(PlanDefect::UnknownEnclosure(id));
            }
        }
        defects
    }

    /// Total bytes this plan would migrate, given item sizes from the
    /// placement map lookup function.
    pub fn migration_bytes(&self, size_of: impl Fn(DataItemId) -> u64) -> u64 {
        self.migrations.iter().map(|m| size_of(m.item)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnclosureView, MonitorSnapshot};
    use ees_iotrace::Span;
    use ees_simstorage::PlacementMap;

    static FIXTURE_VIEWS: [EnclosureView; 1] = [EnclosureView {
        id: EnclosureId(0),
        capacity: 1 << 40,
        used: 0,
        max_iops: 900.0,
        max_seq_iops: 2800.0,
        served_ios: 0,
        spin_ups: 0,
    }];

    fn snapshot_fixture(placement: &PlacementMap) -> MonitorSnapshot<'_> {
        MonitorSnapshot {
            period: Span {
                start: Micros::ZERO,
                end: Micros::from_secs(1),
            },
            break_even: Micros::from_secs(52),
            logical: &[],
            physical: &[],
            placement,
            enclosures: &FIXTURE_VIEWS,
            sequential: &crate::NO_SEQUENTIAL,
        }
    }

    #[test]
    fn validate_accepts_a_clean_plan() {
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 100);
        let snap = snapshot_fixture(&placement);
        let plan = ManagementPlan {
            preload: vec![(DataItemId(1), 100)],
            write_delay: vec![DataItemId(1)],
            power_off_eligible: vec![(EnclosureId(0), true)],
            determinations: 1,
            ..Default::default()
        };
        assert!(plan.validate(&snap, 1000).is_empty());
    }

    #[test]
    fn validate_finds_every_defect_kind() {
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 100);
        let snap = snapshot_fixture(&placement);
        let plan = ManagementPlan {
            migrations: vec![
                Migration {
                    item: DataItemId(9),
                    to: EnclosureId(7),
                },
                Migration {
                    item: DataItemId(9),
                    to: EnclosureId(0),
                },
            ],
            preload: vec![(DataItemId(1), 800), (DataItemId(1), 800)],
            write_delay: vec![DataItemId(1), DataItemId(1)],
            power_off_eligible: vec![(EnclosureId(5), true)],
            determinations: 1,
            ..Default::default()
        };
        let defects = plan.validate(&snap, 1000);
        assert!(defects.contains(&PlanDefect::UnknownItem(DataItemId(9))));
        assert!(defects.contains(&PlanDefect::UnknownEnclosure(EnclosureId(7))));
        assert!(defects.contains(&PlanDefect::DuplicateMigration(DataItemId(9))));
        assert!(defects.contains(&PlanDefect::DuplicatePreload(DataItemId(1))));
        assert!(defects.contains(&PlanDefect::DuplicateWriteDelay(DataItemId(1))));
        assert!(defects.contains(&PlanDefect::PreloadOverBudget {
            selected: 1600,
            budget: 1000
        }));
        assert!(defects.contains(&PlanDefect::UnknownEnclosure(EnclosureId(5))));
    }

    #[test]
    fn empty_plan_counts_one_determination() {
        let p = ManagementPlan::empty();
        assert_eq!(p.determinations, 1);
        assert!(p.migrations.is_empty());
        assert_eq!(p.next_period, None);
    }

    #[test]
    fn migration_bytes_sums_item_sizes() {
        let p = ManagementPlan {
            migrations: vec![
                Migration {
                    item: DataItemId(1),
                    to: EnclosureId(0),
                },
                Migration {
                    item: DataItemId(2),
                    to: EnclosureId(0),
                },
            ],
            ..Default::default()
        };
        let bytes = p.migration_bytes(|id| if id == DataItemId(1) { 100 } else { 50 });
        assert_eq!(bytes, 150);
    }
}
