//! Monitoring repositories (paper §III).
//!
//! In the paper the Application Monitor and Storage Monitor capture traces
//! at run time; in this reproduction the replay engine plays that capture
//! role and hands each period's data over as a `MonitorSnapshot`. What
//! remains of the monitors in the management layer is the **repository**:
//! the per-period classification history that the analysis of §VI.C
//! ("the I/O patterns of all applications are stable during the running
//! of the application") and the experiment harness read back.
//!
//! A long-horizon daemon rolls over millions of periods, so the
//! repository is a **ring**: only the newest [`period_cap`] records are
//! retained verbatim (default [`DEFAULT_PERIOD_CAP`]), while the
//! aggregates that §VI.C stability needs are carried forward exactly when
//! older records are pruned. Item classifications are tagged with the
//! *absolute* period index (counting from the first period ever recorded)
//! so retention pruning of `last_pattern` is unaffected by period-ring
//! pruning.

use crate::analysis::ItemReport;
use crate::pattern::{LogicalIoPattern, PatternMix};
use ees_iotrace::{DataItemId, DenseItemMap, Span};

/// One monitoring period's classification summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRecord {
    /// The period covered.
    pub period: Span,
    /// Pattern counts over all items.
    pub mix: PatternMix,
    /// Number of items that changed pattern relative to the previous
    /// period (0 for the first period).
    pub changed: usize,
}

/// How many periods an item may be absent from the reports before its
/// remembered pattern is dropped. Reports normally cover every placed
/// item, so absence means the item left the placement map (dropped table,
/// deleted file); the grace window only exists so a transient gap — an
/// item momentarily out of placement mid-migration — does not register as
/// a spurious pattern change when it returns.
const DEFAULT_RETENTION_PERIODS: usize = 8;

/// How many period records the history retains verbatim before the ring
/// starts pruning the oldest. At ~56 bytes per record this bounds the
/// per-planner period memory near 4 MiB no matter how many rollovers a
/// long-horizon run accumulates; the §VI.C stability statistic stays
/// exact across pruning via carried aggregates.
pub const DEFAULT_PERIOD_CAP: usize = 65_536;

/// Checkpointable snapshot of a [`MonitorHistory`]: the same data with
/// the per-item map flattened to a sorted vector so the hand-rolled
/// checkpoint codec can stream it without caring about map internals.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorHistoryState {
    /// Retained period records, oldest first.
    pub periods: Vec<PeriodRecord>,
    /// `(item, pattern, last-seen absolute period index)` triples, sorted
    /// by item.
    pub last_pattern: Vec<(DataItemId, LogicalIoPattern, u64)>,
    /// Retention window in periods.
    pub retention: usize,
    /// Ring capacity for period records.
    pub period_cap: usize,
    /// Periods pruned from the front of the ring; `periods[0]` (when
    /// present) has absolute index `dropped`.
    pub dropped: u64,
    /// Σ `mix.total()` over pruned periods with absolute index ≥ 1 (the
    /// stability denominator contribution of everything pruned).
    pub dropped_total: u64,
    /// Σ `changed` over the same pruned periods.
    pub dropped_changed: u64,
}

/// The management function's view of monitoring history across periods.
#[derive(Debug, Clone)]
pub struct MonitorHistory {
    /// Period records; `buf[start..]` is live, `buf[..start]` is garbage
    /// awaiting the amortized compaction in [`Self::prune_periods`].
    buf: Vec<PeriodRecord>,
    start: usize,
    /// Latest classification per item, tagged with the absolute index of
    /// the period that last reported it (for retention pruning). Indexed
    /// by id, so recording a period costs O(items) with no tree walk;
    /// iteration is in ascending id order, as the export needs.
    last_pattern: DenseItemMap<(LogicalIoPattern, u64)>,
    retention: usize,
    period_cap: usize,
    dropped: u64,
    dropped_total: u64,
    dropped_changed: u64,
}

impl Default for MonitorHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl MonitorHistory {
    /// Creates an empty history with the default retention window and
    /// period-ring capacity.
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_RETENTION_PERIODS)
    }

    /// Creates an empty history that forgets items absent from the
    /// reports for more than `retention` consecutive periods. A long-run
    /// deployment churns through data items (tables dropped, work files
    /// deleted), and without pruning `last_pattern` grows with every item
    /// ever seen.
    pub fn with_retention(retention: usize) -> Self {
        Self::with_limits(retention, DEFAULT_PERIOD_CAP)
    }

    /// Creates an empty history with an explicit period-ring capacity on
    /// top of the item retention window. Once more than `period_cap`
    /// periods have been recorded the oldest records are pruned;
    /// [`stability`](Self::stability) stays exact because the pruned
    /// records' totals are carried forward.
    pub fn with_limits(retention: usize, period_cap: usize) -> Self {
        MonitorHistory {
            buf: Vec::new(),
            start: 0,
            last_pattern: DenseItemMap::new(),
            retention: retention.max(1),
            period_cap: period_cap.max(1),
            dropped: 0,
            dropped_total: 0,
            dropped_changed: 0,
        }
    }

    /// Records one period's item reports.
    pub fn record(&mut self, period: Span, reports: &[ItemReport]) {
        let mut mix = PatternMix::default();
        let mut changed = 0;
        let first = self.dropped == 0 && self.buf.len() == self.start;
        // Absolute index of the period being recorded (== periods ever
        // recorded so far).
        let idx = self.dropped + (self.buf.len() - self.start) as u64;
        for r in reports {
            mix.bump(r.pattern);
            let prev = self.last_pattern.insert(r.id, (r.pattern, idx));
            if !first && prev.map(|(p, _)| p) != Some(r.pattern) {
                changed += 1;
            }
        }
        // Prune items that have not appeared for `retention` periods so
        // the map tracks the live item population, not every item ever
        // classified.
        let cutoff = idx.saturating_sub(self.retention as u64);
        self.last_pattern.retain(|_, &mut (_, seen)| seen >= cutoff);
        self.buf.push(PeriodRecord {
            period,
            mix,
            changed,
        });
        self.prune_periods();
    }

    /// Enforces the period-ring capacity: logically drop the oldest
    /// record (folding it into the carried stability aggregates), and
    /// physically compact the buffer once garbage catches up with the
    /// live span so each pushed record is moved O(1) times amortized.
    fn prune_periods(&mut self) {
        while self.buf.len() - self.start > self.period_cap {
            let abs = self.dropped;
            let rec = &self.buf[self.start];
            if abs >= 1 {
                self.dropped_total += rec.mix.total() as u64;
                self.dropped_changed += rec.changed as u64;
            }
            self.dropped += 1;
            self.start += 1;
        }
        if self.start > 0 && self.start >= self.buf.len() - self.start {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// The retained period records, oldest first. Under the ring cap this
    /// is the newest [`period_cap`](Self::period_cap) of the
    /// [`total_periods`](Self::total_periods) ever recorded.
    pub fn periods(&self) -> &[PeriodRecord] {
        &self.buf[self.start..]
    }

    /// Total periods ever recorded, including pruned ones — the rollover
    /// counter a long-horizon run reports.
    pub fn total_periods(&self) -> u64 {
        self.dropped + (self.buf.len() - self.start) as u64
    }

    /// Periods pruned from the front of the ring so far.
    pub fn dropped_periods(&self) -> u64 {
        self.dropped
    }

    /// The configured period-ring capacity.
    pub fn period_cap(&self) -> usize {
        self.period_cap
    }

    /// The most recent classification of each item still within the
    /// retention window.
    pub fn last_pattern(&self, item: DataItemId) -> Option<LogicalIoPattern> {
        self.last_pattern.get(item).map(|&(p, _)| p)
    }

    /// Number of items currently remembered (bounded by the live item
    /// population times the retention window).
    pub fn tracked_items(&self) -> usize {
        self.last_pattern.len()
    }

    /// Deterministic estimate of the repository's resident footprint in
    /// bytes: retained period records plus tracked item entries. Counts
    /// logical contents, not allocator capacity, so the figure is
    /// identical across checkpoint/restore and shard counts — which the
    /// endurance report's byte-identity property needs.
    pub fn footprint_bytes(&self) -> u64 {
        let period = std::mem::size_of::<PeriodRecord>() as u64;
        // Per-item entry: key + value + a fixed 16-byte overhead estimate,
        // independent of the map's layout (the endurance baseline pins
        // the figure).
        let entry = (std::mem::size_of::<DataItemId>()
            + std::mem::size_of::<(LogicalIoPattern, u64)>()
            + 16) as u64;
        (self.buf.len() - self.start) as u64 * period + self.last_pattern.len() as u64 * entry
    }

    /// The latest period's pattern mix.
    pub fn latest_mix(&self) -> Option<PatternMix> {
        self.buf.last().map(|p| p.mix)
    }

    /// Copies the history's dynamic state out for checkpointing.
    pub fn export_state(&self) -> MonitorHistoryState {
        MonitorHistoryState {
            periods: self.periods().to_vec(),
            last_pattern: self
                .last_pattern
                .iter()
                .map(|(id, &(p, seen))| (id, p, seen))
                .collect(),
            retention: self.retention,
            period_cap: self.period_cap,
            dropped: self.dropped,
            dropped_total: self.dropped_total,
            dropped_changed: self.dropped_changed,
        }
    }

    /// Rebuilds a history from a checkpointed state; the restored history
    /// records subsequent periods exactly like the original would have.
    pub fn from_state(s: MonitorHistoryState) -> Self {
        MonitorHistory {
            buf: s.periods,
            start: 0,
            last_pattern: {
                let mut map = DenseItemMap::new();
                for (id, p, seen) in s.last_pattern {
                    map.insert(id, (p, seen));
                }
                map
            },
            retention: s.retention.max(1),
            period_cap: s.period_cap.max(1),
            dropped: s.dropped,
            dropped_total: s.dropped_total,
            dropped_changed: s.dropped_changed,
        }
    }

    /// Fraction of item-period classifications that repeated the previous
    /// period's pattern — the §VI.C stability measure. 1.0 when patterns
    /// never changed; `None` before the second period. Exact over the
    /// whole run even after ring pruning: pruned periods' contributions
    /// are carried in running aggregates.
    pub fn stability(&self) -> Option<f64> {
        if self.total_periods() < 2 {
            return None;
        }
        let mut total = self.dropped_total;
        let mut changed = self.dropped_changed;
        // Absolute period 0 never contributes (it has no predecessor);
        // it is only still in the buffer when nothing has been pruned.
        let skip = if self.dropped == 0 { 1 } else { 0 };
        for p in &self.periods()[skip..] {
            total += p.mix.total() as u64;
            changed += p.changed as u64;
        }
        if total == 0 {
            None
        } else {
            Some(1.0 - changed as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{EnclosureId, IopsSeries, ItemIntervalStats, Micros};

    fn report(item: u32, pattern: LogicalIoPattern) -> ItemReport {
        let period = Span {
            start: Micros::ZERO,
            end: Micros::from_secs(10),
        };
        ItemReport {
            id: DataItemId(item),
            enclosure: EnclosureId(0),
            size: 1,
            pattern,
            stats: ItemIntervalStats {
                item: DataItemId(item),
                period,
                long_intervals: Vec::new(),
                sequences: Vec::new(),
                reads: 0,
                writes: 0,
                bytes_read: 0,
                bytes_written: 0,
            },
            iops: IopsSeries::from_timestamps(Vec::new(), period),
            sequential: false,
            seq_factor: 900.0 / 2800.0,
        }
    }

    fn span(a: u64, b: u64) -> Span {
        Span {
            start: Micros::from_secs(a),
            end: Micros::from_secs(b),
        }
    }

    #[test]
    fn records_mix_and_changes() {
        let mut h = MonitorHistory::new();
        h.record(
            span(0, 10),
            &[
                report(1, LogicalIoPattern::P1),
                report(2, LogicalIoPattern::P3),
            ],
        );
        h.record(
            span(10, 20),
            &[
                report(1, LogicalIoPattern::P1),
                report(2, LogicalIoPattern::P2),
            ],
        );
        assert_eq!(h.periods().len(), 2);
        assert_eq!(h.periods()[0].changed, 0, "first period has no baseline");
        assert_eq!(h.periods()[1].changed, 1);
        assert_eq!(h.last_pattern(DataItemId(2)), Some(LogicalIoPattern::P2));
        assert_eq!(h.latest_mix().unwrap().p1, 1);
    }

    #[test]
    fn stability_measures_repeat_rate() {
        let mut h = MonitorHistory::new();
        for _ in 0..3 {
            h.record(
                span(0, 10),
                &[
                    report(1, LogicalIoPattern::P1),
                    report(2, LogicalIoPattern::P3),
                ],
            );
        }
        assert_eq!(h.stability(), Some(1.0));
        h.record(
            span(30, 40),
            &[
                report(1, LogicalIoPattern::P0),
                report(2, LogicalIoPattern::P3),
            ],
        );
        let s = h.stability().unwrap();
        assert!(s < 1.0 && s > 0.8);
    }

    #[test]
    fn stale_items_are_pruned_after_retention() {
        let mut h = MonitorHistory::with_retention(2);
        h.record(
            span(0, 10),
            &[
                report(1, LogicalIoPattern::P1),
                report(2, LogicalIoPattern::P3),
            ],
        );
        // Item 2 disappears (dropped from placement). Within the
        // retention window its pattern is still remembered...
        h.record(span(10, 20), &[report(1, LogicalIoPattern::P1)]);
        h.record(span(20, 30), &[report(1, LogicalIoPattern::P1)]);
        assert_eq!(h.last_pattern(DataItemId(2)), Some(LogicalIoPattern::P3));
        assert_eq!(h.tracked_items(), 2);
        // ...and once the window passes, the entry is gone.
        h.record(span(30, 40), &[report(1, LogicalIoPattern::P1)]);
        assert_eq!(h.last_pattern(DataItemId(2)), None);
        assert_eq!(h.tracked_items(), 1);
    }

    #[test]
    fn stability_needs_two_periods() {
        let mut h = MonitorHistory::new();
        assert_eq!(h.stability(), None);
        h.record(span(0, 10), &[report(1, LogicalIoPattern::P1)]);
        assert_eq!(h.stability(), None);
    }

    #[test]
    fn period_ring_prunes_and_keeps_newest() {
        let mut h = MonitorHistory::with_limits(8, 4);
        for i in 0..10u64 {
            h.record(
                span(i * 10, (i + 1) * 10),
                &[report(1, LogicalIoPattern::P1)],
            );
        }
        assert_eq!(h.total_periods(), 10);
        assert_eq!(h.dropped_periods(), 6);
        assert_eq!(h.periods().len(), 4);
        // The retained window is the newest 4 periods, oldest first.
        let starts: Vec<u64> = h.periods().iter().map(|p| p.period.start.0).collect();
        assert_eq!(starts, vec![60_000_000, 70_000_000, 80_000_000, 90_000_000]);
        assert_eq!(h.latest_mix().unwrap().p1, 1);
    }

    #[test]
    fn stability_exact_across_pruning() {
        // Same report sequence into a capped and an uncapped history:
        // stability must agree bit-for-bit.
        let mut capped = MonitorHistory::with_limits(8, 3);
        let mut full = MonitorHistory::with_limits(8, usize::MAX);
        for i in 0..20u32 {
            let pat = if i % 3 == 0 {
                LogicalIoPattern::P0
            } else {
                LogicalIoPattern::P1
            };
            let reports = [report(1, pat), report(2, LogicalIoPattern::P3)];
            let sp = span(u64::from(i) * 10, (u64::from(i) + 1) * 10);
            capped.record(sp, &reports);
            full.record(sp, &reports);
        }
        assert!(capped.dropped_periods() > 0);
        assert_eq!(capped.stability(), full.stability());
        assert_eq!(capped.total_periods(), full.total_periods());
    }

    #[test]
    fn state_roundtrips_across_pruning() {
        let mut h = MonitorHistory::with_limits(3, 5);
        for i in 0..12u64 {
            h.record(
                span(i * 10, (i + 1) * 10),
                &[report(1, LogicalIoPattern::P2)],
            );
        }
        let restored = MonitorHistory::from_state(h.export_state());
        assert_eq!(restored.export_state(), h.export_state());
        assert_eq!(restored.stability(), h.stability());
        assert_eq!(restored.total_periods(), h.total_periods());
        assert_eq!(restored.footprint_bytes(), h.footprint_bytes());
    }

    #[test]
    fn footprint_is_bounded_by_the_ring() {
        let mut h = MonitorHistory::with_limits(4, 16);
        let mut peak = 0;
        for i in 0..1000u64 {
            h.record(
                span(i * 10, (i + 1) * 10),
                &[report(1, LogicalIoPattern::P1)],
            );
            peak = peak.max(h.footprint_bytes());
        }
        // 16 records + 1 tracked item, with generous slack for the
        // per-entry estimates.
        assert!(peak < 4096, "footprint peaked at {peak} bytes");
        assert_eq!(h.periods().len(), 16);
    }
}
