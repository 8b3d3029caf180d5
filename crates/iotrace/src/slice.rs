//! Trace slicing and filtering utilities.
//!
//! The monitors, the harness, and ad-hoc analysis all need the same few
//! operations over timestamp-ordered traces: cut a time window, keep one
//! item or kind, and summarize what is left.

use crate::record::{LogicalIoRecord, LogicalTrace};
use crate::stats::Span;
use crate::types::{DataItemId, IoKind, Micros};

/// Returns the records of `trace` whose timestamps fall in `window`
/// (binary-searched; O(log n + m)).
pub fn window(records: &[LogicalIoRecord], window: Span) -> &[LogicalIoRecord] {
    let lo = records.partition_point(|r| r.ts < window.start);
    let hi = records.partition_point(|r| r.ts < window.end);
    &records[lo..hi]
}

/// Builds a new trace containing only records for `item`.
pub fn for_item(trace: &LogicalTrace, item: DataItemId) -> LogicalTrace {
    trace.iter().filter(|r| r.item == item).copied().collect()
}

/// Builds a new trace containing only records of `kind`.
pub fn of_kind(trace: &LogicalTrace, kind: IoKind) -> LogicalTrace {
    trace.iter().filter(|r| r.kind == kind).copied().collect()
}

/// Compact summary of a trace slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Records summarized.
    pub records: u64,
    /// Read records.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// First timestamp (zero when empty).
    pub first_ts: Micros,
    /// Last timestamp (zero when empty).
    pub last_ts: Micros,
    /// Distinct items touched.
    pub distinct_items: u64,
}

impl TraceSummary {
    /// Average IOPS over the slice's own span.
    pub fn avg_iops(&self) -> f64 {
        let span = self.last_ts.saturating_sub(self.first_ts).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.records as f64 / span
        }
    }

    /// Fraction of records that are reads.
    pub fn read_ratio(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.reads as f64 / self.records as f64
        }
    }
}

/// Summarizes a slice of records.
pub fn summarize(records: &[LogicalIoRecord]) -> TraceSummary {
    let mut s = TraceSummary {
        records: records.len() as u64,
        reads: 0,
        bytes_read: 0,
        bytes_written: 0,
        first_ts: records.first().map(|r| r.ts).unwrap_or(Micros::ZERO),
        last_ts: records.last().map(|r| r.ts).unwrap_or(Micros::ZERO),
        distinct_items: 0,
    };
    let mut items = std::collections::BTreeSet::new();
    for r in records {
        items.insert(r.item);
        match r.kind {
            IoKind::Read => {
                s.reads += 1;
                s.bytes_read += r.len as u64;
            }
            IoKind::Write => s.bytes_written += r.len as u64,
        }
    }
    s.distinct_items = items.len() as u64;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts_s: u64, item: u32, kind: IoKind) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros::from_secs(ts_s),
            item: DataItemId(item),
            offset: 0,
            len: 4096,
            kind,
        }
    }

    fn sample() -> LogicalTrace {
        LogicalTrace::from_unsorted(vec![
            rec(1, 1, IoKind::Read),
            rec(2, 2, IoKind::Write),
            rec(3, 1, IoKind::Read),
            rec(10, 3, IoKind::Read),
        ])
    }

    #[test]
    fn window_is_half_open() {
        let t = sample();
        let w = window(
            t.records(),
            Span {
                start: Micros::from_secs(2),
                end: Micros::from_secs(10),
            },
        );
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].ts, Micros::from_secs(2));
        assert_eq!(w[1].ts, Micros::from_secs(3));
        // Empty window.
        let e = window(
            t.records(),
            Span {
                start: Micros::from_secs(4),
                end: Micros::from_secs(5),
            },
        );
        assert!(e.is_empty());
    }

    #[test]
    fn item_and_kind_filters() {
        let t = sample();
        assert_eq!(for_item(&t, DataItemId(1)).len(), 2);
        assert_eq!(for_item(&t, DataItemId(9)).len(), 0);
        assert_eq!(of_kind(&t, IoKind::Write).len(), 1);
    }

    #[test]
    fn summary_counts() {
        let t = sample();
        let s = summarize(t.records());
        assert_eq!(s.records, 4);
        assert_eq!(s.reads, 3);
        assert_eq!(s.bytes_read, 3 * 4096);
        assert_eq!(s.bytes_written, 4096);
        assert_eq!(s.distinct_items, 3);
        assert_eq!(s.first_ts, Micros::from_secs(1));
        assert_eq!(s.last_ts, Micros::from_secs(10));
        assert!((s.read_ratio() - 0.75).abs() < 1e-12);
        assert!((s.avg_iops() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = summarize(&[]);
        assert_eq!(s.records, 0);
        assert_eq!(s.avg_iops(), 0.0);
        assert_eq!(s.read_ratio(), 0.0);
    }
}
