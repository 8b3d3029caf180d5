//! Turning a monitor snapshot into per-item reports: the "Determine
//! Logical I/O pattern of data items" step of Algorithm 1.
//!
//! Every item registered in the placement map gets a report — items with
//! no I/O in the period are the P0 population, so they must not silently
//! drop out of the analysis.

use crate::pattern::{classify, LogicalIoPattern};
use ees_iotrace::{
    analyze_item_period, split_by_item_dense, DataItemId, EnclosureId, IopsSeries,
    ItemIntervalStats, Micros,
};
use ees_policy::MonitorSnapshot;

/// Everything the management function knows about one data item after a
/// monitoring period.
#[derive(Debug, Clone)]
pub struct ItemReport {
    /// The item.
    pub id: DataItemId,
    /// Where the item currently lives.
    pub enclosure: EnclosureId,
    /// Item size in bytes.
    pub size: u64,
    /// The classified logical I/O pattern.
    pub pattern: LogicalIoPattern,
    /// Interval structure of the period.
    pub stats: ItemIntervalStats,
    /// Per-second IOPS series over the period. Only P3 reports carry one:
    /// a P3 item gets one bucket per started second of the period, every
    /// other pattern an empty `buckets`. `I_max` (§IV.C step 1), the peak
    /// of the summed P3 series, is the series' only reader, so building
    /// and shipping one per placed item would be pure period-close cost.
    pub iops: IopsSeries,
    /// Whether the Storage Monitor observed this item streaming
    /// sequentially. A sequential request occupies the enclosure for a
    /// fraction `O_random / O_sequential` of a random one, so placement
    /// weighs it accordingly.
    pub sequential: bool,
    /// `O_random / O_sequential` of the array (≈ 900/2800 on the test
    /// bed): the random-equivalence factor for sequential IOPS.
    pub seq_factor: f64,
}

/// Load floor below which a P3 classification is ignored for *placement*
/// purposes (hot-set sizing, Algorithm 2's migration list): an item whose
/// "continuous" access is a trickle of a few I/Os per minute only looks
/// P3 because the monitoring window happened to contain no long gap, and
/// dedicating (or keeping awake) a hot enclosure for it costs far more
/// than it serves. Classification itself (Fig. 6) is unaffected.
pub const PLACEMENT_P3_MIN_IOPS: f64 = 5.0;

impl ItemReport {
    /// Average IOPS over the period.
    pub fn avg_iops(&self) -> f64 {
        self.stats.avg_iops()
    }

    /// Whether this item is P3 *for placement*: continuously accessed and
    /// carrying real load (see [`PLACEMENT_P3_MIN_IOPS`]).
    pub fn is_placement_p3(&self) -> bool {
        self.pattern == LogicalIoPattern::P3 && self.rand_equiv_iops() >= PLACEMENT_P3_MIN_IOPS
    }

    /// Average IOPS expressed in random-I/O equivalents: what the item
    /// costs an enclosure against the `O` (random) budget of §IV.C–D.
    pub fn rand_equiv_iops(&self) -> f64 {
        if self.sequential {
            self.stats.avg_iops() * self.seq_factor
        } else {
            self.stats.avg_iops()
        }
    }

    /// Read I/Os per byte of item size — the preload ranking key (§IV.F).
    pub fn reads_per_byte(&self) -> f64 {
        if self.size == 0 {
            0.0
        } else {
            self.stats.reads as f64 / self.size as f64
        }
    }
}

/// Builds a report for every registered item from the period's logical
/// trace.
pub fn analyze_snapshot(snapshot: &MonitorSnapshot<'_>) -> Vec<ItemReport> {
    // Group per item through the flat id-indexed map: with dense
    // (interned) ids this is a vector index per record, and groups are
    // identical to the ordered-map split it replaces.
    let by_item = split_by_item_dense(snapshot.logical);
    let empty: Vec<ees_iotrace::LogicalIoRecord> = Vec::new();
    let seq_factor = snapshot
        .enclosures
        .first()
        .map(|e| {
            if e.max_seq_iops > 0.0 {
                e.max_iops / e.max_seq_iops
            } else {
                1.0
            }
        })
        .unwrap_or(1.0);
    snapshot
        .placement
        .iter()
        .map(|(id, placement)| {
            let ios = by_item.get(id).unwrap_or(&empty);
            let stats = analyze_item_period(id, ios, snapshot.period, snapshot.break_even);
            let pattern = classify(&stats);
            let iops = if pattern == LogicalIoPattern::P3 {
                IopsSeries::from_timestamps(ios.iter().map(|r| r.ts), snapshot.period)
            } else {
                IopsSeries {
                    start: snapshot.period.start,
                    buckets: Vec::new(),
                }
            };
            ItemReport {
                id,
                enclosure: placement.enclosure,
                size: placement.size,
                pattern,
                stats,
                iops,
                sequential: snapshot.sequential.contains(&id),
                seq_factor,
            }
        })
        .collect()
}

/// Merges per-shard report subsequences back into the single placement
/// order [`analyze_snapshot`] emits.
///
/// A sharded classifier partitions items across workers with `owner`
/// (item → shard index) and each worker reports *its* items in placement
/// order. Because the partition is disjoint and each shard preserves the
/// placement order of its own subset, interleaving by placement order is
/// a stable k-way merge: the result is byte-identical to the report
/// vector a single classifier would emit — the property the online
/// subsystem's sharded/single-thread equivalence proptests pin down.
/// Verdict order independence follows: each item's report is computed
/// from that item's records alone, so *which* shard folded it cannot
/// change the row, and the merge fixes *where* the row lands.
///
/// # Panics
/// Panics if a shard is missing a report for an item it owns (a shard
/// must report every placed item it owns, silent ones as P0).
pub fn merge_shard_reports(
    placement: &ees_simstorage::PlacementMap,
    mut shards: Vec<Vec<ItemReport>>,
    owner: impl Fn(DataItemId) -> usize,
) -> Vec<ItemReport> {
    let mut out = Vec::new();
    merge_shard_reports_into(placement, &mut shards, owner, &mut out);
    out
}

/// [`merge_shard_reports`] writing into a caller-provided buffer, so the
/// per-rollover merge on the online hot path can reuse one allocation
/// across periods. Clears `out`, then drains each shard's reports into
/// it in placement order; the per-shard vectors are left empty.
///
/// # Panics
/// Same contract as [`merge_shard_reports`]: panics on a missing or
/// out-of-order report.
pub fn merge_shard_reports_into(
    placement: &ees_simstorage::PlacementMap,
    shards: &mut [Vec<ItemReport>],
    owner: impl Fn(DataItemId) -> usize,
    out: &mut Vec<ItemReport>,
) {
    out.clear();
    let mut cursors: Vec<std::vec::Drain<'_, ItemReport>> =
        shards.iter_mut().map(|v| v.drain(..)).collect();
    out.extend(placement.iter().map(|(id, _)| {
        let shard = owner(id);
        let report = cursors[shard]
            .next()
            .unwrap_or_else(|| panic!("shard {shard} is missing the report for {id}"));
        assert_eq!(report.id, id, "shard {shard} reported out of order");
        report
    }));
}

/// `I_max` of §IV.C step 1: the peak one-second total IOPS of all P3
/// items, in random-I/O equivalents — the load the hot enclosures must
/// absorb against their random cap `O`.
pub fn p3_peak_iops(reports: &[ItemReport], _period_start: Micros) -> f64 {
    let mut buckets: Vec<f64> = Vec::new();
    for r in reports {
        if !r.is_placement_p3() {
            continue;
        }
        let factor = if r.sequential { r.seq_factor } else { 1.0 };
        if r.iops.buckets.len() > buckets.len() {
            buckets.resize(r.iops.buckets.len(), 0.0);
        }
        for (acc, &b) in buckets.iter_mut().zip(r.iops.buckets.iter()) {
            *acc += b as f64 * factor;
        }
    }
    buckets.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{IoKind, LogicalIoRecord, Span};
    use ees_policy::MonitorSnapshot;
    use ees_simstorage::PlacementMap;

    fn snapshot_fixture(
        placement: &PlacementMap,
        logical: &[LogicalIoRecord],
        period_s: u64,
    ) -> Vec<ItemReport> {
        let snap = MonitorSnapshot {
            period: Span {
                start: Micros::ZERO,
                end: Micros::from_secs(period_s),
            },
            break_even: Micros::from_secs(52),
            logical,
            physical: &[],
            placement,
            enclosures: &[],
            sequential: &ees_policy::NO_SEQUENTIAL,
        };
        analyze_snapshot(&snap)
    }

    fn io(ts_s: f64, item: u32, kind: IoKind) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros::from_secs_f64(ts_s),
            item: DataItemId(item),
            offset: 0,
            len: 4096,
            kind,
        }
    }

    #[test]
    fn silent_items_are_reported_as_p0() {
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 100);
        placement.insert(DataItemId(2), EnclosureId(1), 200);
        let logical = vec![io(1.0, 1, IoKind::Read)];
        let reports = snapshot_fixture(&placement, &logical, 520);
        assert_eq!(reports.len(), 2, "every registered item gets a report");
        let r2 = reports.iter().find(|r| r.id == DataItemId(2)).unwrap();
        assert_eq!(r2.pattern, LogicalIoPattern::P0);
        assert_eq!(r2.enclosure, EnclosureId(1));
        assert_eq!(r2.size, 200);
    }

    #[test]
    fn patterns_and_derived_metrics() {
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 1000);
        // Two read bursts with a long gap: P1.
        let logical = vec![
            io(0.0, 1, IoKind::Read),
            io(0.5, 1, IoKind::Read),
            io(300.0, 1, IoKind::Read),
        ];
        let reports = snapshot_fixture(&placement, &logical, 520);
        let r = &reports[0];
        assert_eq!(r.pattern, LogicalIoPattern::P1);
        assert!((r.reads_per_byte() - 3.0 / 1000.0).abs() < 1e-12);
        assert!(r.iops.buckets.is_empty(), "only P3 reports carry a series");
        assert!((r.avg_iops() - 3.0 / 520.0).abs() < 1e-12);
    }

    #[test]
    fn p3_peak_sums_concurrent_items() {
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 10);
        placement.insert(DataItemId(2), EnclosureId(0), 10);
        // Both items are accessed continuously (ten I/Os per second for a
        // 10 s period): P3 each — and above the de-minimis placement
        // floor — with peaks overlapping at t = 0..10.
        let mut logical = Vec::new();
        for s in 0..10 {
            for k in 0..10 {
                logical.push(io(s as f64 + 0.01 * k as f64 + 0.001, 1, IoKind::Read));
                logical.push(io(s as f64 + 0.01 * k as f64 + 0.002, 2, IoKind::Write));
            }
        }
        logical.sort_by_key(|r| r.ts);
        let reports = snapshot_fixture(&placement, &logical, 10);
        assert!(reports.iter().all(|r| r.pattern == LogicalIoPattern::P3));
        let peak = p3_peak_iops(&reports, Micros::ZERO);
        assert_eq!(peak, 20.0, "ten I/Os per item per second → 20 IOPS peak");
    }

    #[test]
    fn p3_peak_is_zero_without_p3_items() {
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 10);
        let reports = snapshot_fixture(&placement, &[], 520);
        assert_eq!(p3_peak_iops(&reports, Micros::ZERO), 0.0);
    }

    /// Four items round-robined over two shards plus a third shard that
    /// owns nothing: the placement-order partition of a serial analysis.
    fn split_for_merge(
        owner: impl Fn(DataItemId) -> usize + Copy,
    ) -> (PlacementMap, Vec<Vec<ItemReport>>, Vec<DataItemId>) {
        let mut placement = PlacementMap::new();
        for i in 1..=4u32 {
            placement.insert(DataItemId(i), EnclosureId(0), 100);
        }
        let logical = vec![io(1.0, 1, IoKind::Read), io(2.0, 3, IoKind::Write)];
        let serial = snapshot_fixture(&placement, &logical, 520);
        let order: Vec<DataItemId> = serial.iter().map(|r| r.id).collect();
        let mut shards: Vec<Vec<ItemReport>> = vec![Vec::new(); 3];
        for r in serial {
            shards[owner(r.id)].push(r);
        }
        (placement, shards, order)
    }

    #[test]
    fn merge_interleaves_shards_and_tolerates_unowned_empty_shard() {
        let owner = |id: DataItemId| (id.0 % 2) as usize;
        let (placement, shards, order) = split_for_merge(owner);
        assert!(shards[2].is_empty(), "shard 2 owns nothing");
        let merged = merge_shard_reports(&placement, shards, owner);
        let got: Vec<DataItemId> = merged.iter().map(|r| r.id).collect();
        assert_eq!(got, order, "merge restores serial placement order");
    }

    /// A shard whose entire input was discarded by sanitization (every
    /// line a parse error) still owes a P0 row for each item it owns —
    /// "no records seen" and "no I/O happened" are the same verdict, and
    /// the merge must pass such rows through untouched.
    #[test]
    fn merge_accepts_parse_error_only_shard_reporting_p0() {
        let owner = |id: DataItemId| (id.0 % 2) as usize;
        let (placement, mut shards, _) = split_for_merge(owner);
        // Shard 0 (items 2 and 4) saw only parse errors: its fold state
        // is empty, so its report rows come out as silent P0 items.
        for r in &mut shards[0] {
            assert_eq!(
                r.pattern,
                LogicalIoPattern::P0,
                "fixture: no I/O on shard 0"
            );
        }
        let merged = merge_shard_reports(&placement, shards, owner);
        assert!(merged
            .iter()
            .filter(|r| owner(r.id) == 0)
            .all(|r| r.pattern == LogicalIoPattern::P0));
        assert_eq!(merged.len(), 4);
    }

    #[test]
    #[should_panic(expected = "missing the report")]
    fn merge_panics_when_shard_omits_an_owned_item() {
        let owner = |id: DataItemId| (id.0 % 2) as usize;
        let (placement, mut shards, _) = split_for_merge(owner);
        shards[1].clear(); // owns items 1 and 3, reports neither
        merge_shard_reports(&placement, shards, owner);
    }

    #[test]
    #[should_panic(expected = "reported out of order")]
    fn merge_panics_on_duplicate_item_collision() {
        let owner = |id: DataItemId| (id.0 % 2) as usize;
        let (placement, mut shards, _) = split_for_merge(owner);
        // Shard 1 reports item 1 twice (a duplicate that survived an
        // upstream dedup bug); the collision displaces item 3's slot.
        let dup = shards[1][0].clone();
        shards[1].insert(1, dup);
        merge_shard_reports(&placement, shards, owner);
    }
}
