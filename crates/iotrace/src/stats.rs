//! Interval statistics over I/O traces: **Long Intervals**, **I/O
//! Sequences**, IOPS time series, and the cumulative interval-length curve
//! of the paper's Fig. 17–19.
//!
//! Terminology (paper §II.C.2, Fig. 1):
//!
//! * A **Long Interval** is an I/O interval *longer than the break-even
//!   time* — including the leading interval from the start of the
//!   monitoring period to the first I/O and the trailing interval from the
//!   last I/O to the end of the period.
//! * An **I/O Sequence** is a maximal run of I/Os in which every internal
//!   gap is at most the break-even time (together with those short gaps).
//!
//! These two concepts are the entire input of the paper's P0–P3 logical
//! I/O pattern classifier.

use crate::intern::DenseItemMap;
use crate::record::LogicalIoRecord;
use crate::types::{DataItemId, IoKind, Micros};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A half-open time span `[start, end)` within a monitoring period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Span start.
    pub start: Micros,
    /// Span end (exclusive).
    pub end: Micros,
}

impl Span {
    /// Length of the span.
    pub fn len(&self) -> Micros {
        self.end.saturating_sub(self.start)
    }

    /// `true` when the span has zero length.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// One I/O Sequence: a burst of I/Os whose internal gaps are all at most
/// the break-even time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoSequence {
    /// Time of the first I/O in the sequence.
    pub start: Micros,
    /// Time of the last I/O in the sequence.
    pub end: Micros,
    /// Read I/Os inside the sequence.
    pub reads: u64,
    /// Write I/Os inside the sequence.
    pub writes: u64,
}

impl IoSequence {
    /// Total I/Os in the sequence.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Interval structure of one data item over one monitoring period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemIntervalStats {
    /// The data item analysed.
    pub item: DataItemId,
    /// Monitoring period analysed.
    pub period: Span,
    /// Long Intervals (gaps strictly longer than the break-even time),
    /// in time order.
    pub long_intervals: Vec<Span>,
    /// I/O Sequences, in time order.
    pub sequences: Vec<IoSequence>,
    /// Total read I/Os in the period.
    pub reads: u64,
    /// Total write I/Os in the period.
    pub writes: u64,
    /// Total bytes read in the period.
    pub bytes_read: u64,
    /// Total bytes written in the period.
    pub bytes_written: u64,
}

impl ItemIntervalStats {
    /// Total I/Os in the period.
    pub fn total_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of I/Os that are reads, in `[0, 1]`; zero when idle.
    pub fn read_ratio(&self) -> f64 {
        let total = self.total_ios();
        if total == 0 {
            0.0
        } else {
            self.reads as f64 / total as f64
        }
    }

    /// Average I/Os per second over the monitoring period.
    pub fn avg_iops(&self) -> f64 {
        let secs = self.period.len().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_ios() as f64 / secs
        }
    }

    /// Sum of the lengths of all Long Intervals.
    pub fn total_long_interval(&self) -> Micros {
        self.long_intervals
            .iter()
            .fold(Micros::ZERO, |acc, s| acc + s.len())
    }
}

/// Streaming version of [`analyze_item_period`]: folds one I/O at a time
/// into running Long-Interval / I/O-Sequence / read-ratio state, so an
/// online controller can classify an item at period rollover without ever
/// materializing the period's trace.
///
/// `analyze_item_period` is defined *in terms of* this builder, so the
/// batch and incremental paths cannot drift apart: feeding the same I/Os
/// in timestamp order and closing at the same period end yields the same
/// [`ItemIntervalStats`] bit for bit.
///
/// The period end is only supplied at [`finish`](Self::finish) — an online
/// period cut short by a §V.D trigger does not know its end in advance.
#[derive(Debug, Clone)]
pub struct IntervalBuilder {
    item: DataItemId,
    start: Micros,
    break_even: Micros,
    long_intervals: Vec<Span>,
    sequences: Vec<IoSequence>,
    /// The open sequence, absent until the first I/O.
    cur: Option<IoSequence>,
    last_ts: Micros,
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl IntervalBuilder {
    /// Starts a builder for `item` over a period beginning at
    /// `period_start`.
    pub fn new(item: DataItemId, period_start: Micros, break_even: Micros) -> Self {
        IntervalBuilder {
            item,
            start: period_start,
            break_even,
            long_intervals: Vec::new(),
            sequences: Vec::new(),
            cur: None,
            last_ts: period_start,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Folds one I/O into the running state. Timestamps must be
    /// non-decreasing and at or after the period start.
    pub fn observe(&mut self, ts: Micros, kind: IoKind, len: u32) {
        debug_assert!(ts >= self.last_ts, "I/Os must arrive in timestamp order");
        match kind {
            IoKind::Read => {
                self.reads += 1;
                self.bytes_read += len as u64;
            }
            IoKind::Write => {
                self.writes += 1;
                self.bytes_written += len as u64;
            }
        }
        match self.cur.as_mut() {
            None => {
                // Leading gap: if long it is a Long Interval and the first
                // sequence starts at the first I/O; otherwise the sequence
                // starts at the period start (Fig. 1, Sequence #1).
                let leading = ts.saturating_sub(self.start);
                let mut seq_start = self.start;
                if leading > self.break_even {
                    self.long_intervals.push(Span {
                        start: self.start,
                        end: ts,
                    });
                    seq_start = ts;
                }
                let mut seq = IoSequence {
                    start: seq_start,
                    end: ts,
                    reads: 0,
                    writes: 0,
                };
                bump(&mut seq, kind);
                self.cur = Some(seq);
            }
            Some(cur) => {
                let gap = ts.saturating_sub(self.last_ts);
                if gap > self.break_even {
                    self.long_intervals.push(Span {
                        start: self.last_ts,
                        end: ts,
                    });
                    self.sequences.push(*cur);
                    let mut seq = IoSequence {
                        start: ts,
                        end: ts,
                        reads: 0,
                        writes: 0,
                    };
                    bump(&mut seq, kind);
                    *cur = seq;
                } else {
                    cur.end = ts;
                    bump(cur, kind);
                }
            }
        }
        self.last_ts = ts;
    }

    /// Total I/Os folded in so far.
    pub fn observed(&self) -> u64 {
        self.reads + self.writes
    }

    /// Closes the period at `period_end` and returns the item's interval
    /// statistics — identical to running [`analyze_item_period`] over the
    /// same I/Os.
    pub fn finish(mut self, period_end: Micros) -> ItemIntervalStats {
        let period = Span {
            start: self.start,
            end: period_end,
        };
        match self.cur {
            None => {
                // P0 shape: the whole period is a single Long Interval,
                // regardless of whether the period itself exceeds the
                // break-even time — an idle item is always a power-off
                // candidate.
                self.long_intervals.push(period);
            }
            Some(mut cur) => {
                let trailing = period.end.saturating_sub(self.last_ts);
                if trailing > self.break_even {
                    self.long_intervals.push(Span {
                        start: self.last_ts,
                        end: period.end,
                    });
                } else {
                    cur.end = period.end;
                }
                self.sequences.push(cur);
            }
        }
        ItemIntervalStats {
            item: self.item,
            period,
            long_intervals: self.long_intervals,
            sequences: self.sequences,
            reads: self.reads,
            writes: self.writes,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
        }
    }
}

/// The complete dynamic state of an [`IntervalBuilder`], as plain public
/// fields — the unit a crash-safe controller checkpoints mid-period.
///
/// [`IntervalBuilder::export_state`] and [`IntervalBuilder::from_state`]
/// round-trip exactly: a builder restored from an exported state folds
/// subsequent I/Os (and [`finish`](IntervalBuilder::finish)es) identically
/// to the original, so a controller restarted from a checkpoint classifies
/// byte-for-byte like one that never stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalBuilderState {
    /// The data item under analysis.
    pub item: DataItemId,
    /// Period start the builder was opened at.
    pub start: Micros,
    /// Break-even time splitting Long Intervals from sequence gaps.
    pub break_even: Micros,
    /// Long Intervals completed so far, in time order.
    pub long_intervals: Vec<Span>,
    /// I/O Sequences completed so far, in time order.
    pub sequences: Vec<IoSequence>,
    /// The open sequence, absent until the first I/O.
    pub cur: Option<IoSequence>,
    /// Timestamp of the last folded I/O (period start before the first).
    pub last_ts: Micros,
    /// Read I/Os folded so far.
    pub reads: u64,
    /// Write I/Os folded so far.
    pub writes: u64,
    /// Bytes read so far.
    pub bytes_read: u64,
    /// Bytes written so far.
    pub bytes_written: u64,
}

impl IntervalBuilder {
    /// Copies the builder's dynamic state out for checkpointing.
    pub fn export_state(&self) -> IntervalBuilderState {
        IntervalBuilderState {
            item: self.item,
            start: self.start,
            break_even: self.break_even,
            long_intervals: self.long_intervals.clone(),
            sequences: self.sequences.clone(),
            cur: self.cur,
            last_ts: self.last_ts,
            reads: self.reads,
            writes: self.writes,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
        }
    }

    /// Rebuilds a builder from a checkpointed state; the restored builder
    /// continues exactly where [`export_state`](Self::export_state) left
    /// off.
    pub fn from_state(s: IntervalBuilderState) -> Self {
        IntervalBuilder {
            item: s.item,
            start: s.start,
            break_even: s.break_even,
            long_intervals: s.long_intervals,
            sequences: s.sequences,
            cur: s.cur,
            last_ts: s.last_ts,
            reads: s.reads,
            writes: s.writes,
            bytes_read: s.bytes_read,
            bytes_written: s.bytes_written,
        }
    }
}

/// Computes the interval structure of one item's I/Os over a monitoring
/// period (paper §IV.B steps 1–2).
///
/// `ios` must be the item's I/Os within `[period.start, period.end)`, in
/// timestamp order. Gaps strictly longer than `break_even` become Long
/// Intervals; everything else coalesces into I/O Sequences. The leading gap
/// (period start → first I/O) and trailing gap (last I/O → period end)
/// participate: if long they are Long Intervals, otherwise they extend the
/// first/last sequence, matching Fig. 1 where Sequence #1 starts at the
/// beginning of the monitoring period.
///
/// This is a fold over [`IntervalBuilder`], the shared sequence-splitting
/// kernel of the batch and online classifiers.
pub fn analyze_item_period(
    item: DataItemId,
    ios: &[LogicalIoRecord],
    period: Span,
    break_even: Micros,
) -> ItemIntervalStats {
    debug_assert!(
        ios.windows(2).all(|w| w[0].ts <= w[1].ts),
        "item I/Os must be in timestamp order"
    );
    let mut b = IntervalBuilder::new(item, period.start, break_even);
    for io in ios {
        b.observe(io.ts, io.kind, io.len);
    }
    b.finish(period.end)
}

fn bump(seq: &mut IoSequence, kind: IoKind) {
    match kind {
        IoKind::Read => seq.reads += 1,
        IoKind::Write => seq.writes += 1,
    }
}

/// Splits a timestamp-ordered slice of logical records into per-item
/// timestamp-ordered vectors.
pub fn split_by_item(records: &[LogicalIoRecord]) -> BTreeMap<DataItemId, Vec<LogicalIoRecord>> {
    let mut map: BTreeMap<DataItemId, Vec<LogicalIoRecord>> = BTreeMap::new();
    for rec in records {
        map.entry(rec.item).or_default().push(*rec);
    }
    map
}

/// [`split_by_item`] over the flat id-indexed container: with dense
/// (interned) item ids each record's group is a vector index away, so
/// splitting a million-record period is a linear pass with no tree
/// rebalancing. Groups and their record order are identical to
/// [`split_by_item`]'s.
pub fn split_by_item_dense(records: &[LogicalIoRecord]) -> DenseItemMap<Vec<LogicalIoRecord>> {
    let mut map: DenseItemMap<Vec<LogicalIoRecord>> = DenseItemMap::new();
    for rec in records {
        map.get_or_insert_with(rec.item, Vec::new).push(*rec);
    }
    map
}

/// Per-second IOPS time series of one stream of timestamps over a period.
///
/// Used for the paper's `I_max` (§IV.C step 1): the engine sums the series
/// of all P3 items and takes the maximum bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IopsSeries {
    /// Period start (bucket 0 begins here).
    pub start: Micros,
    /// I/O counts per one-second bucket.
    pub buckets: Vec<u32>,
}

impl IopsSeries {
    /// Builds a series from I/O timestamps within `period`, bucketed at one
    /// second. Timestamps outside the period are ignored.
    pub fn from_timestamps(timestamps: impl IntoIterator<Item = Micros>, period: Span) -> Self {
        let n = (period.len().0 as usize).div_ceil(1_000_000).max(1);
        let mut buckets = vec![0u32; n];
        for ts in timestamps {
            if ts < period.start || ts >= period.end {
                continue;
            }
            let idx = ((ts - period.start).0 / 1_000_000) as usize;
            buckets[idx] = buckets[idx].saturating_add(1);
        }
        Self {
            start: period.start,
            buckets,
        }
    }

    /// Maximum one-second IOPS.
    pub fn max(&self) -> u32 {
        self.buckets.iter().copied().max().unwrap_or(0)
    }

    /// Mean IOPS over the series.
    pub fn mean(&self) -> f64 {
        if self.buckets.is_empty() {
            0.0
        } else {
            self.buckets.iter().map(|&b| b as u64).sum::<u64>() as f64 / self.buckets.len() as f64
        }
    }

    /// Adds another series bucket-wise (series must share start and length;
    /// the shorter one is zero-extended).
    pub fn add(&mut self, other: &IopsSeries) {
        debug_assert_eq!(self.start, other.start, "series must be aligned");
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(b);
        }
    }
}

/// The cumulative long-interval curve of Fig. 17–19.
///
/// X axis: interval length; Y axis: the total (cumulative) length of all
/// intervals **longer than the break-even time** whose length is at most X.
/// A policy that creates more/longer power-off opportunities shows a higher
/// curve.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IntervalCdf {
    /// Interval lengths above the break-even time, sorted ascending.
    lengths: Vec<Micros>,
}

impl IntervalCdf {
    /// Builds the curve from raw interval lengths, keeping only those
    /// strictly longer than `break_even`.
    pub fn from_intervals(intervals: impl IntoIterator<Item = Micros>, break_even: Micros) -> Self {
        let mut lengths: Vec<Micros> = intervals.into_iter().filter(|&l| l > break_even).collect();
        lengths.sort_unstable();
        Self { lengths }
    }

    /// Number of qualifying (longer-than-break-even) intervals.
    pub fn count(&self) -> usize {
        self.lengths.len()
    }

    /// Longest qualifying interval, or zero when there is none.
    pub fn max_interval(&self) -> Micros {
        self.lengths.last().copied().unwrap_or(Micros::ZERO)
    }

    /// Total length of all qualifying intervals — the curve's final Y value
    /// and the paper's headline comparison ("approximately twice as long").
    pub fn total_length(&self) -> Micros {
        self.lengths.iter().fold(Micros::ZERO, |acc, &l| acc + l)
    }

    /// The curve as `(length, cumulative length)` points, one per interval.
    pub fn points(&self) -> Vec<(Micros, Micros)> {
        let mut acc = Micros::ZERO;
        self.lengths
            .iter()
            .map(|&l| {
                acc += l;
                (l, acc)
            })
            .collect()
    }
}

/// Extracts per-enclosure I/O gap lengths from a timestamp-ordered stream of
/// physical I/O timestamps, including the leading and trailing gap against
/// the run's span. This is the input of [`IntervalCdf`] for Fig. 17–19.
pub fn gaps_with_bounds(timestamps: &[Micros], run: Span) -> Vec<Micros> {
    let mut gaps = Vec::with_capacity(timestamps.len() + 1);
    match timestamps.first() {
        None => gaps.push(run.len()),
        Some(&first) => {
            gaps.push(first.saturating_sub(run.start));
            for w in timestamps.windows(2) {
                gaps.push(w[1].saturating_sub(w[0]));
            }
            gaps.push(run.end.saturating_sub(timestamps[timestamps.len() - 1]));
        }
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;

    const BE: Micros = Micros(52_000_000); // the paper's 52 s break-even

    fn rec(ts_s: f64, kind: IoKind) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros::from_secs_f64(ts_s),
            item: DataItemId(0),
            offset: 0,
            len: 4096,
            kind,
        }
    }

    fn period(secs: u64) -> Span {
        Span {
            start: Micros::ZERO,
            end: Micros::from_secs(secs),
        }
    }

    #[test]
    fn idle_item_is_one_long_interval() {
        let s = analyze_item_period(DataItemId(0), &[], period(520), BE);
        assert_eq!(s.long_intervals.len(), 1);
        assert_eq!(s.long_intervals[0].len(), Micros::from_secs(520));
        assert!(s.sequences.is_empty());
        assert_eq!(s.total_ios(), 0);
    }

    #[test]
    fn fig1_shape_three_long_intervals_three_sequences() {
        // Reproduce Fig. 1: sequence at period start, then alternating
        // long gaps and bursts, ending with a long interval at period end.
        let ios = vec![
            rec(1.0, IoKind::Read),
            rec(2.0, IoKind::Read), // sequence 1 (starts at period start)
            rec(90.0, IoKind::Read),
            rec(95.0, IoKind::Write), // sequence 2 after a 88 s long gap
            rec(200.0, IoKind::Read), // sequence 3 after a 105 s long gap
        ];
        let s = analyze_item_period(DataItemId(0), &ios, period(400), BE);
        assert_eq!(s.sequences.len(), 3, "three I/O sequences");
        assert_eq!(s.long_intervals.len(), 3, "three long intervals");
        // Sequence 1 starts at the beginning of the monitoring period.
        assert_eq!(s.sequences[0].start, Micros::ZERO);
        // Last long interval ends at the end of the monitoring period.
        assert_eq!(s.long_intervals[2].end, Micros::from_secs(400));
    }

    #[test]
    fn short_gaps_coalesce_into_one_sequence() {
        let ios: Vec<_> = (0..10)
            .map(|i| rec(i as f64 * 10.0, IoKind::Read))
            .collect();
        let s = analyze_item_period(DataItemId(0), &ios, period(100), BE);
        assert_eq!(s.sequences.len(), 1);
        assert!(s.long_intervals.is_empty());
        assert_eq!(s.sequences[0].reads, 10);
        // Trailing short gap extends the sequence to the period end.
        assert_eq!(s.sequences[0].end, Micros::from_secs(100));
    }

    #[test]
    fn gap_exactly_break_even_is_not_long() {
        let ios = vec![rec(0.0, IoKind::Read), rec(52.0, IoKind::Read)];
        let s = analyze_item_period(DataItemId(0), &ios, period(60), BE);
        assert!(s.long_intervals.is_empty());
        assert_eq!(s.sequences.len(), 1);
    }

    #[test]
    fn gap_just_over_break_even_is_long() {
        let ios = vec![rec(0.0, IoKind::Read), rec(52.000_001, IoKind::Read)];
        let s = analyze_item_period(DataItemId(0), &ios, period(60), BE);
        assert_eq!(s.long_intervals.len(), 1);
        assert_eq!(s.sequences.len(), 2);
    }

    #[test]
    fn leading_long_gap_counts() {
        let ios = vec![rec(100.0, IoKind::Write)];
        let s = analyze_item_period(DataItemId(0), &ios, period(120), BE);
        assert_eq!(s.long_intervals.len(), 1);
        assert_eq!(s.long_intervals[0].start, Micros::ZERO);
        assert_eq!(s.long_intervals[0].end, Micros::from_secs(100));
        assert_eq!(s.sequences.len(), 1);
        assert_eq!(s.sequences[0].writes, 1);
    }

    #[test]
    fn read_write_accounting() {
        let ios = vec![
            rec(0.0, IoKind::Read),
            rec(1.0, IoKind::Write),
            rec(2.0, IoKind::Write),
        ];
        let s = analyze_item_period(DataItemId(0), &ios, period(10), BE);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_read, 4096);
        assert_eq!(s.bytes_written, 8192);
        assert!((s.read_ratio() - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.avg_iops() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn total_long_interval_sums() {
        let ios = vec![rec(100.0, IoKind::Read), rec(300.0, IoKind::Read)];
        let s = analyze_item_period(DataItemId(0), &ios, period(520), BE);
        // gaps: 100 s leading + 200 s middle + 220 s trailing, all long.
        assert_eq!(s.long_intervals.len(), 3);
        assert_eq!(s.total_long_interval(), Micros::from_secs(520));
    }

    #[test]
    fn split_by_item_partitions() {
        let mut records = Vec::new();
        for i in 0..6u32 {
            records.push(LogicalIoRecord {
                ts: Micros::from_secs(i as u64),
                item: DataItemId(i % 2),
                offset: 0,
                len: 512,
                kind: IoKind::Read,
            });
        }
        let map = split_by_item(&records);
        assert_eq!(map.len(), 2);
        assert_eq!(map[&DataItemId(0)].len(), 3);
        assert_eq!(map[&DataItemId(1)].len(), 3);
        assert!(map[&DataItemId(0)].windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn iops_series_buckets_and_max() {
        let p = period(10);
        let ts = vec![
            Micros::from_secs_f64(0.1),
            Micros::from_secs_f64(0.2),
            Micros::from_secs_f64(5.5),
            Micros::from_secs(11), // outside, ignored
        ];
        let s = IopsSeries::from_timestamps(ts, p);
        assert_eq!(s.buckets.len(), 10);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[5], 1);
        assert_eq!(s.max(), 2);
        assert!((s.mean() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn iops_series_add() {
        let p = period(3);
        let mut a = IopsSeries::from_timestamps(vec![Micros::from_secs(0)], p);
        let b = IopsSeries::from_timestamps(vec![Micros::from_secs(0), Micros::from_secs(2)], p);
        a.add(&b);
        assert_eq!(a.buckets, vec![2, 0, 1]);
        assert_eq!(a.max(), 2);
    }

    #[test]
    fn interval_cdf_filters_and_accumulates() {
        let cdf = IntervalCdf::from_intervals(
            vec![
                Micros::from_secs(10), // below break-even, dropped
                Micros::from_secs(60),
                Micros::from_secs(100),
                Micros::from_secs(52), // exactly break-even, dropped
            ],
            BE,
        );
        assert_eq!(cdf.count(), 2);
        assert_eq!(cdf.max_interval(), Micros::from_secs(100));
        assert_eq!(cdf.total_length(), Micros::from_secs(160));
        let pts = cdf.points();
        assert_eq!(pts[0], (Micros::from_secs(60), Micros::from_secs(60)));
        assert_eq!(pts[1], (Micros::from_secs(100), Micros::from_secs(160)));
    }

    #[test]
    fn empty_cdf_is_zero() {
        let cdf = IntervalCdf::from_intervals(Vec::new(), BE);
        assert_eq!(cdf.count(), 0);
        assert_eq!(cdf.total_length(), Micros::ZERO);
        assert_eq!(cdf.max_interval(), Micros::ZERO);
        assert!(cdf.points().is_empty());
    }

    #[test]
    fn gaps_with_bounds_covers_run() {
        let run = period(100);
        let ts = vec![Micros::from_secs(10), Micros::from_secs(40)];
        let gaps = gaps_with_bounds(&ts, run);
        assert_eq!(
            gaps,
            vec![
                Micros::from_secs(10),
                Micros::from_secs(30),
                Micros::from_secs(60)
            ]
        );
        // Gaps of an empty stream cover the whole run.
        assert_eq!(gaps_with_bounds(&[], run), vec![Micros::from_secs(100)]);
    }
}
