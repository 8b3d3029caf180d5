//! Incremental P0–P3 classification: one
//! [`LogicalIoRecord`](ees_iotrace::LogicalIoRecord) at a time, no
//! full-period buffer.
//!
//! The batch path ([`ees_core::analyze_snapshot`]) splits a buffered
//! period by item and folds each item's records through an
//! [`IntervalBuilder`]; this classifier folds the *same* builder as
//! records arrive, so rollover emits byte-for-byte identical
//! [`ItemReport`]s — the equivalence the `equivalence` test suite
//! proptest-enforces.

use ees_core::{classify, ItemReport, LogicalIoPattern};
use ees_iotrace::{
    DataItemId, DenseItemMap, IntervalBuilder, IntervalBuilderState, IopsSeries, LogicalIoRecord,
    Micros, Span,
};
use ees_simstorage::PlacementMap;

/// Checkpointable snapshot of one item's mid-period classification state.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemCheckpoint {
    /// The item this state belongs to.
    pub id: DataItemId,
    /// Streaming interval-statistics fold.
    pub builder: IntervalBuilderState,
    /// One-second I/O counts since period start.
    pub buckets: Vec<u32>,
    /// Timestamp of the latest record observed.
    pub last_ts: Micros,
    /// How many records share that latest timestamp.
    pub count_at_last_ts: u32,
}

/// Per-item running state for the current monitoring period.
struct ItemState {
    builder: IntervalBuilder,
    /// One-second I/O counts since period start, grown on demand.
    buckets: Vec<u32>,
    /// Timestamp of the latest record and how many records share it —
    /// needed at rollover because a trigger-cut period ends *at* the
    /// record that fired it: interval statistics include that record,
    /// but the IOPS series (`ts < period.end`) excludes it.
    last_ts: Micros,
    count_at_last_ts: u32,
}

impl ItemState {
    fn new(item: DataItemId, period_start: Micros, break_even: Micros) -> Self {
        ItemState {
            builder: IntervalBuilder::new(item, period_start, break_even),
            buckets: Vec::new(),
            last_ts: period_start,
            count_at_last_ts: 0,
        }
    }
}

/// Streaming replacement for the batch "Determine Logical I/O pattern"
/// step: feed it every logical record of the running period with
/// [`observe`](Self::observe), then close the period with
/// [`rollover`](Self::rollover) to get the same per-item reports the
/// batch analysis would produce from a buffered trace.
pub struct IncrementalClassifier {
    period_start: Micros,
    break_even: Micros,
    /// Flat id-indexed per-item state: interned ids are dense, so the
    /// hot fold is a vector index, not a tree walk. Iteration stays in
    /// ascending id order, which keeps checkpoint export byte-stable.
    items: DenseItemMap<ItemState>,
}

impl IncrementalClassifier {
    /// Starts a classifier for a period beginning at `period_start`.
    pub fn new(period_start: Micros, break_even: Micros) -> Self {
        IncrementalClassifier {
            period_start,
            break_even,
            items: DenseItemMap::new(),
        }
    }

    /// The running period's start.
    pub fn period_start(&self) -> Micros {
        self.period_start
    }

    /// Copies every item's mid-period state out for checkpointing, in
    /// item order. The classifier keeps running — exporting is a read.
    pub fn export_items(&self) -> Vec<ItemCheckpoint> {
        self.items
            .iter()
            .map(|(id, s)| ItemCheckpoint {
                id,
                builder: s.builder.export_state(),
                buckets: s.buckets.clone(),
                last_ts: s.last_ts,
                count_at_last_ts: s.count_at_last_ts,
            })
            .collect()
    }

    /// Replaces the running per-item state with checkpointed state —
    /// the restore half of [`export_items`](Self::export_items). The
    /// caller constructs the classifier with the checkpointed period
    /// start and break-even first.
    pub fn import_items(&mut self, items: Vec<ItemCheckpoint>) {
        self.items.clear();
        for c in items {
            self.items.insert(
                c.id,
                ItemState {
                    builder: IntervalBuilder::from_state(c.builder),
                    buckets: c.buckets,
                    last_ts: c.last_ts,
                    count_at_last_ts: c.count_at_last_ts,
                },
            );
        }
    }

    /// Folds one record into the running state. Records must arrive in
    /// timestamp order, at or after the period start.
    pub fn observe(&mut self, rec: &LogicalIoRecord) {
        debug_assert!(rec.ts >= self.period_start);
        let (period_start, break_even) = (self.period_start, self.break_even);
        let state = self.items.get_or_insert_with(rec.item, || {
            ItemState::new(rec.item, period_start, break_even)
        });
        state.builder.observe(rec.ts, rec.kind, rec.len);
        let idx = ((rec.ts - self.period_start).0 / 1_000_000) as usize;
        if idx >= state.buckets.len() {
            state.buckets.resize(idx + 1, 0);
        }
        state.buckets[idx] = state.buckets[idx].saturating_add(1);
        if rec.ts == state.last_ts {
            state.count_at_last_ts += 1;
        } else {
            state.last_ts = rec.ts;
            state.count_at_last_ts = 1;
        }
    }

    /// Closes the period at `end` and emits one report per *placed* item
    /// (silent items are the P0 population), in placement order — exactly
    /// the rows [`ees_core::analyze_snapshot`] would produce. Resets the
    /// running state for the next period, which starts at `end`.
    pub fn rollover(
        &mut self,
        end: Micros,
        placement: &PlacementMap,
        sequential: &std::collections::BTreeSet<DataItemId>,
        seq_factor: f64,
    ) -> Vec<ItemReport> {
        self.rollover_filtered(end, placement, sequential, seq_factor, |_| true)
    }

    /// [`rollover`](Self::rollover) restricted to the placed items for
    /// which `owned` returns `true` — one shard's share of the period.
    ///
    /// A sharded classifier gives each worker the same placement map but
    /// a disjoint ownership predicate; each worker emits its items in
    /// placement order (silent owned items still report, as P0) and the
    /// coordinator reassembles the full placement-ordered vector with
    /// [`ees_core::merge_shard_reports`]. Always resets the running state
    /// and advances the period, exactly like the unfiltered rollover.
    pub fn rollover_filtered(
        &mut self,
        end: Micros,
        placement: &PlacementMap,
        sequential: &std::collections::BTreeSet<DataItemId>,
        seq_factor: f64,
        owned: impl Fn(DataItemId) -> bool,
    ) -> Vec<ItemReport> {
        let period = Span {
            start: self.period_start,
            end,
        };
        let n = (period.len().0 as usize).div_ceil(1_000_000).max(1);
        let reports = placement
            .iter()
            .filter(|(id, _)| owned(*id))
            .map(|(id, pl)| {
                let (stats, fold) = match self.items.remove(id) {
                    Some(s) => (
                        s.builder.finish(end),
                        Some((s.buckets, s.last_ts, s.count_at_last_ts)),
                    ),
                    None => (
                        IntervalBuilder::new(id, period.start, self.break_even).finish(end),
                        None,
                    ),
                };
                let pattern = classify(&stats);
                // Only P3 reports carry a series (`ItemReport::iops`); a
                // silent item is P0. The batch series has exactly n
                // buckets and drops records at `ts == end`; mirror both.
                let buckets = match fold {
                    Some((mut buckets, last_ts, count_at_last_ts))
                        if pattern == LogicalIoPattern::P3 =>
                    {
                        buckets.resize(n, 0);
                        if last_ts == end {
                            let idx = ((end - period.start).0 / 1_000_000) as usize;
                            if idx < n {
                                buckets[idx] = buckets[idx].saturating_sub(count_at_last_ts);
                            }
                        }
                        buckets
                    }
                    _ => Vec::new(),
                };
                ItemReport {
                    id,
                    enclosure: pl.enclosure,
                    size: pl.size,
                    pattern,
                    stats,
                    iops: IopsSeries {
                        start: period.start,
                        buckets,
                    },
                    sequential: sequential.contains(&id),
                    seq_factor,
                }
            })
            .collect();
        // Items observed this period but no longer placed get no report —
        // the batch analysis only reports placed items.
        self.items.clear();
        self.period_start = end;
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_core::analyze_snapshot;
    use ees_iotrace::{EnclosureId, IoKind};
    use ees_policy::MonitorSnapshot;

    fn io(ts_s: f64, item: u32, kind: IoKind) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros::from_secs_f64(ts_s),
            item: DataItemId(item),
            offset: 0,
            len: 4096,
            kind,
        }
    }

    fn batch_reports(
        placement: &PlacementMap,
        logical: &[LogicalIoRecord],
        period: Span,
    ) -> Vec<ItemReport> {
        analyze_snapshot(&MonitorSnapshot {
            period,
            break_even: Micros::from_secs(52),
            logical,
            physical: &[],
            placement,
            enclosures: &[],
            sequential: &ees_policy::NO_SEQUENTIAL,
        })
    }

    fn assert_same_reports(a: &[ItemReport], b: &[ItemReport]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.pattern, y.pattern, "item {}", x.id);
            assert_eq!(x.stats, y.stats, "item {}", x.id);
            assert_eq!(x.iops.buckets, y.iops.buckets, "item {}", x.id);
        }
    }

    #[test]
    fn matches_batch_on_mixed_period() {
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 100);
        placement.insert(DataItemId(2), EnclosureId(1), 200);
        placement.insert(DataItemId(3), EnclosureId(1), 300);
        let mut logical = vec![
            io(1.0, 1, IoKind::Read),
            io(2.0, 1, IoKind::Read),
            io(300.0, 1, IoKind::Read),
            io(10.0, 2, IoKind::Write),
            io(450.0, 2, IoKind::Write),
        ];
        logical.sort_by_key(|r| r.ts);
        let period = Span {
            start: Micros::ZERO,
            end: Micros::from_secs(520),
        };

        let mut inc = IncrementalClassifier::new(period.start, Micros::from_secs(52));
        for rec in &logical {
            inc.observe(rec);
        }
        let ours = inc.rollover(period.end, &placement, &ees_policy::NO_SEQUENTIAL, 1.0);
        let batch = batch_reports(&placement, &logical, period);
        assert_same_reports(&ours, &batch);
        // Item 3 never appeared: still reported, as P0.
        assert_eq!(ours[2].pattern, ees_core::LogicalIoPattern::P0);
    }

    #[test]
    fn record_at_trigger_cut_boundary_matches_batch() {
        // A trigger-cut period ends exactly at the firing record's
        // timestamp: the record belongs to the period's interval stats but
        // not its IOPS series.
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 100);
        let logical = vec![
            io(1.0, 1, IoKind::Read),
            io(90.5, 1, IoKind::Read),
            io(90.5, 1, IoKind::Read),
        ];
        let period = Span {
            start: Micros::ZERO,
            end: Micros::from_secs_f64(90.5),
        };
        let mut inc = IncrementalClassifier::new(period.start, Micros::from_secs(52));
        for rec in &logical {
            inc.observe(rec);
        }
        let ours = inc.rollover(period.end, &placement, &ees_policy::NO_SEQUENTIAL, 1.0);
        let batch = batch_reports(&placement, &logical, period);
        assert_same_reports(&ours, &batch);
    }

    #[test]
    fn consecutive_periods_reset_state() {
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(1), EnclosureId(0), 100);
        let mut inc = IncrementalClassifier::new(Micros::ZERO, Micros::from_secs(52));
        inc.observe(&io(5.0, 1, IoKind::Read));
        let first = inc.rollover(
            Micros::from_secs(100),
            &placement,
            &ees_policy::NO_SEQUENTIAL,
            1.0,
        );
        assert_eq!(first[0].stats.reads, 1);
        // Second period: silent, so P0 — no leakage from the first.
        let second = inc.rollover(
            Micros::from_secs(200),
            &placement,
            &ees_policy::NO_SEQUENTIAL,
            1.0,
        );
        assert_eq!(second[0].pattern, ees_core::LogicalIoPattern::P0);
        assert_eq!(second[0].stats.period.start, Micros::from_secs(100));
    }
}
