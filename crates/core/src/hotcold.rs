//! Separating disk enclosures into **hot** and **cold** (paper §IV.C).
//!
//! Hot enclosures absorb the P3 data items — the continuously accessed
//! data that would defeat any power-off attempt — and are never powered
//! down. Everything else becomes a cold enclosure, the population the
//! power-saving functions then work on.
//!
//! The number of hot enclosures is sized so they can both *serve* the
//! peak P3 IOPS and *store* all P3 bytes:
//!
//! ```text
//! N_hot = max( ceil(I_max / O), ceil(Σ sᵢ / S) )
//! ```
//!
//! and the actual hot set is the top-`N_hot` enclosures by resident P3
//! bytes, which minimizes the volume of P3 data that must migrate
//! (§IV.C step 3).

use crate::analysis::{p3_peak_iops, ItemReport};
use ees_iotrace::{EnclosureId, Micros};
use ees_policy::EnclosureView;
use std::collections::BTreeMap;

/// The hot/cold partition of the enclosures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotColdSplit {
    /// Enclosures that will host P3 items and stay powered.
    pub hot: Vec<EnclosureId>,
    /// Enclosures eligible for power-off.
    pub cold: Vec<EnclosureId>,
}

impl HotColdSplit {
    /// Whether `id` is in the hot set.
    pub fn is_hot(&self, id: EnclosureId) -> bool {
        self.hot.contains(&id)
    }
}

/// Computes `N_hot` (§IV.C step 2).
///
/// * `i_max` — peak total IOPS of the P3 items (step 1);
/// * `p3_bytes` — total size of the P3 items;
/// * `o` — max IOPS one enclosure serves;
/// * `s` — capacity of one enclosure.
///
/// Degenerate `o` (≤ 0, from a mis-calibrated service model) or `s`
/// (0-capacity enclosures) cannot silently produce an empty hot set:
/// with P3 demand present the corresponding constraint demands at least
/// one hot enclosure instead of the `inf`/`NaN → as usize → 0` the
/// naive float division yields.
pub fn n_hot(i_max: f64, p3_bytes: u64, o: f64, s: u64) -> usize {
    let by_iops = if i_max <= 0.0 {
        0
    } else if o > 0.0 {
        (i_max / o).ceil() as usize
    } else {
        1
    };
    let by_size = if p3_bytes == 0 {
        0
    } else if s > 0 {
        p3_bytes.div_ceil(s) as usize
    } else {
        1
    };
    by_iops.max(by_size)
}

/// Total P3 bytes per enclosure under the current placement.
pub fn p3_bytes_per_enclosure(reports: &[ItemReport]) -> BTreeMap<EnclosureId, u64> {
    let mut map = BTreeMap::new();
    for r in reports {
        if r.is_placement_p3() {
            *map.entry(r.enclosure).or_insert(0u64) += r.size;
        }
    }
    map
}

/// Chooses the hot/cold split for a given `n_hot` (§IV.C step 3): sort the
/// enclosures by resident P3 bytes descending (ties by id for determinism)
/// and take the top `n_hot`. If `n_hot` exceeds the enclosure count, every
/// enclosure is hot.
pub fn split_hot_cold(
    reports: &[ItemReport],
    enclosures: &[EnclosureView],
    n_hot: usize,
) -> HotColdSplit {
    let p3 = p3_bytes_per_enclosure(reports);
    let mut order: Vec<EnclosureId> = enclosures.iter().map(|e| e.id).collect();
    order.sort_by_key(|id| (std::cmp::Reverse(p3.get(id).copied().unwrap_or(0)), *id));
    let n = n_hot.min(order.len());
    HotColdSplit {
        hot: order[..n].to_vec(),
        cold: order[n..].to_vec(),
    }
}

/// `I_max` and `N_hot` of §IV.C steps 1–2 from the period's reports: one
/// pass over the P3 series, which the planner takes once per plan.
pub(crate) fn hot_demand(reports: &[ItemReport], enclosures: &[EnclosureView]) -> (f64, usize) {
    let i_max = p3_peak_iops(reports, Micros::ZERO);
    let p3_bytes: u64 = reports
        .iter()
        .filter(|r| r.is_placement_p3())
        .map(|r| r.size)
        .sum();
    // O and S are uniform across the array; take them from any enclosure.
    let (o, s) = enclosures
        .first()
        .map(|e| (e.max_iops, e.capacity))
        .unwrap_or((1.0, 1));
    (i_max, n_hot(i_max, p3_bytes, o, s))
}

/// One-call hot/cold determination from the period's reports
/// (steps 1–3 of §IV.C).
pub fn determine_hot_cold(
    reports: &[ItemReport],
    enclosures: &[EnclosureView],
    _period_start: Micros,
) -> (HotColdSplit, usize) {
    let (_, n) = hot_demand(reports, enclosures);
    (split_hot_cold(reports, enclosures, n), n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::LogicalIoPattern;
    use ees_iotrace::{DataItemId, IopsSeries, ItemIntervalStats, Span};

    fn view(id: u16, capacity: u64) -> EnclosureView {
        EnclosureView {
            id: EnclosureId(id),
            capacity,
            used: 0,
            max_iops: 900.0,
            max_seq_iops: 2800.0,
            served_ios: 0,
            spin_ups: 0,
        }
    }

    fn report(item: u32, enc: u16, size: u64, pattern: LogicalIoPattern) -> ItemReport {
        let period = Span {
            start: Micros::ZERO,
            end: Micros::from_secs(10),
        };
        ItemReport {
            id: DataItemId(item),
            enclosure: EnclosureId(enc),
            size,
            pattern,
            stats: ItemIntervalStats {
                item: DataItemId(item),
                period,
                long_intervals: Vec::new(),
                sequences: Vec::new(),
                // 100 IOPS over the 10 s period: well above the
                // de-minimis placement floor.
                reads: 1000,
                writes: 0,
                bytes_read: 1000 * 4096,
                bytes_written: 0,
            },
            iops: IopsSeries::from_timestamps(Vec::new(), period),
            sequential: false,
            seq_factor: 900.0 / 2800.0,
        }
    }

    #[test]
    fn n_hot_takes_the_binding_constraint() {
        // IOPS-bound: 2000 peak IOPS / 900 per enclosure → 3.
        assert_eq!(n_hot(2000.0, 100, 900.0, 1000), 3);
        // Size-bound: 2500 bytes / 1000 per enclosure → 3.
        assert_eq!(n_hot(100.0, 2500, 900.0, 1000), 3);
        // No P3 at all → no hot enclosures needed.
        assert_eq!(n_hot(0.0, 0, 900.0, 1000), 0);
    }

    #[test]
    fn n_hot_guards_degenerate_service_rate_and_capacity() {
        // o = 0 would be inf/900-NaN territory; with live P3 IOPS the
        // IOPS constraint must still demand a hot enclosure.
        assert_eq!(n_hot(500.0, 0, 0.0, 1000), 1);
        assert_eq!(n_hot(500.0, 0, -1.0, 1000), 1);
        // s = 0 likewise for the size constraint.
        assert_eq!(n_hot(0.0, 4096, 900.0, 0), 1);
        // Both degenerate at once still yields a non-empty hot set.
        assert_eq!(n_hot(500.0, 4096, 0.0, 0), 1);
        // Degenerate divisors with no P3 demand at all stay at zero.
        assert_eq!(n_hot(0.0, 0, 0.0, 0), 0);
    }

    #[test]
    fn n_hot_size_bound_is_exact_for_large_byte_counts() {
        // div_ceil instead of float division: no precision loss near
        // multiples of the capacity.
        let s = 1_700_000_000_000u64;
        assert_eq!(n_hot(0.0, s, 900.0, s), 1);
        assert_eq!(n_hot(0.0, s + 1, 900.0, s), 2);
        assert_eq!(n_hot(0.0, 5 * s, 900.0, s), 5);
    }

    #[test]
    fn split_prefers_enclosures_rich_in_p3() {
        let reports = vec![
            report(1, 0, 100, LogicalIoPattern::P3),
            report(2, 1, 500, LogicalIoPattern::P3),
            report(3, 2, 900, LogicalIoPattern::P1), // P1 doesn't count
        ];
        let views = vec![view(0, 10_000), view(1, 10_000), view(2, 10_000)];
        let split = split_hot_cold(&reports, &views, 1);
        assert_eq!(split.hot, vec![EnclosureId(1)], "most P3 bytes wins");
        assert_eq!(split.cold, vec![EnclosureId(0), EnclosureId(2)]);
        assert!(split.is_hot(EnclosureId(1)));
        assert!(!split.is_hot(EnclosureId(0)));
    }

    #[test]
    fn split_ties_break_by_id() {
        let reports: Vec<ItemReport> = Vec::new();
        let views = vec![view(1, 10), view(0, 10), view(2, 10)];
        let split = split_hot_cold(&reports, &views, 2);
        assert_eq!(split.hot, vec![EnclosureId(0), EnclosureId(1)]);
    }

    #[test]
    fn oversized_n_hot_makes_everything_hot() {
        let views = vec![view(0, 10), view(1, 10)];
        let split = split_hot_cold(&[], &views, 99);
        assert_eq!(split.hot.len(), 2);
        assert!(split.cold.is_empty());
    }

    #[test]
    fn determine_hot_cold_size_bound() {
        // Three P3 items of 800 bytes on enclosure capacity 1000 → size
        // demands ceil(2400/1000) = 3 hot enclosures.
        let reports = vec![
            report(1, 0, 800, LogicalIoPattern::P3),
            report(2, 1, 800, LogicalIoPattern::P3),
            report(3, 2, 800, LogicalIoPattern::P3),
        ];
        let views = vec![view(0, 1000), view(1, 1000), view(2, 1000), view(3, 1000)];
        let (split, n) = determine_hot_cold(&reports, &views, Micros::ZERO);
        assert_eq!(n, 3);
        assert_eq!(split.hot.len(), 3);
        assert_eq!(split.cold, vec![EnclosureId(3)]);
    }

    #[test]
    fn no_p3_means_all_cold() {
        let reports = vec![report(1, 0, 800, LogicalIoPattern::P1)];
        let views = vec![view(0, 1000), view(1, 1000)];
        let (split, n) = determine_hot_cold(&reports, &views, Micros::ZERO);
        assert_eq!(n, 0);
        assert!(split.hot.is_empty());
        assert_eq!(split.cold.len(), 2);
    }

    #[test]
    fn p3_bytes_accumulate_per_enclosure() {
        let reports = vec![
            report(1, 0, 100, LogicalIoPattern::P3),
            report(2, 0, 150, LogicalIoPattern::P3),
            report(3, 1, 70, LogicalIoPattern::P0),
        ];
        let map = p3_bytes_per_enclosure(&reports);
        assert_eq!(map.get(&EnclosureId(0)), Some(&250));
        assert_eq!(map.get(&EnclosureId(1)), None);
    }
}
