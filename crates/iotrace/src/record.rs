//! Logical and physical I/O trace records and the logical trace container.
//!
//! The paper's Application Monitor captures a **logical I/O trace** — one
//! record per I/O issued by the application, identified by *data item*
//! (paper §III.A). The Storage Monitor captures a **physical I/O trace** —
//! one record per I/O that the block-virtualization layer issues to a disk
//! enclosure (§III.B). Both are append-only, timestamp-ordered sequences.

use crate::types::{DataItemId, EnclosureId, IoKind, Micros};

/// One application-level I/O: what the Application Monitor records
/// (paper §III.A — "a timestamp of when the I/O is issued, a data
/// identifier, I/O address (offset) of the data, I/O size, and I/O type").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalIoRecord {
    /// When the application issued the I/O.
    pub ts: Micros,
    /// The data item targeted (a table/index/file fragment on one enclosure).
    pub item: DataItemId,
    /// Byte offset within the data item.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u32,
    /// Read or write.
    pub kind: IoKind,
}

/// One storage-level I/O: what the Storage Monitor records (paper §III.B —
/// "a timestamp, a name of a disk enclosure, a block address, and I/O type").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalIoRecord {
    /// When the block-virtualization layer issued the I/O to the enclosure.
    pub ts: Micros,
    /// The enclosure that served the I/O.
    pub enclosure: EnclosureId,
    /// Byte address within the enclosure's address space.
    pub block: u64,
    /// Request length in bytes.
    pub len: u32,
    /// Read or write.
    pub kind: IoKind,
}

/// An append-only, timestamp-ordered logical I/O trace.
///
/// Records must be pushed in non-decreasing timestamp order; this is checked
/// in debug builds and is what every downstream statistic assumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogicalTrace {
    records: Vec<LogicalIoRecord>,
}

impl LogicalTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with room for `cap` records.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            records: Vec::with_capacity(cap),
        }
    }

    /// Appends a record. Timestamps must be non-decreasing.
    pub fn push(&mut self, rec: LogicalIoRecord) {
        debug_assert!(
            self.records.last().is_none_or(|last| last.ts <= rec.ts),
            "logical trace must be pushed in timestamp order"
        );
        self.records.push(rec);
    }

    /// Builds a trace from records that may be out of order, sorting them
    /// by timestamp (stably, so same-timestamp ordering is preserved).
    pub fn from_unsorted(mut records: Vec<LogicalIoRecord>) -> Self {
        records.sort_by_key(|r| r.ts);
        Self { records }
    }

    /// The records, in timestamp order.
    pub fn records(&self) -> &[LogicalIoRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Timestamp of the last record, or `None` for an empty trace.
    pub fn last_ts(&self) -> Option<Micros> {
        self.records.last().map(|r| r.ts)
    }

    /// Iterates over the records.
    pub fn iter(&self) -> impl Iterator<Item = &LogicalIoRecord> {
        self.records.iter()
    }

    /// Discards all records but keeps the allocation — used by the monitors
    /// when a monitoring period ends and its trace has been consumed.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Merges several timestamp-ordered traces into one ordered trace.
    ///
    /// This is how the workload generators compose per-component streams
    /// (e.g. TPC-C table I/O plus the log stream) into a single trace.
    pub fn merge(traces: Vec<LogicalTrace>) -> Self {
        let total: usize = traces.iter().map(|t| t.len()).sum();
        let mut all = Vec::with_capacity(total);
        for t in traces {
            all.extend(t.records);
        }
        Self::from_unsorted(all)
    }

    /// Total bytes read across the trace.
    pub fn bytes_read(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind.is_read())
            .map(|r| r.len as u64)
            .sum()
    }

    /// Total bytes written across the trace.
    pub fn bytes_written(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind.is_write())
            .map(|r| r.len as u64)
            .sum()
    }
}

impl FromIterator<LogicalIoRecord> for LogicalTrace {
    fn from_iter<I: IntoIterator<Item = LogicalIoRecord>>(iter: I) -> Self {
        Self::from_unsorted(iter.into_iter().collect())
    }
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

    #[test]
    fn push_keeps_order_and_len() {
        let mut t = LogicalTrace::new();
        assert!(t.is_empty());
        t.push(rec(1, 0, IoKind::Read));
        t.push(rec(2, 0, IoKind::Write));
        assert_eq!(t.len(), 2);
        assert_eq!(t.last_ts(), Some(Micros::from_secs(2)));
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    #[cfg(debug_assertions)]
    fn push_out_of_order_panics_in_debug() {
        let mut t = LogicalTrace::new();
        t.push(rec(5, 0, IoKind::Read));
        t.push(rec(1, 0, IoKind::Read));
    }

    #[test]
    fn from_unsorted_sorts() {
        let t = LogicalTrace::from_unsorted(vec![
            rec(9, 1, IoKind::Read),
            rec(3, 2, IoKind::Write),
            rec(6, 3, IoKind::Read),
        ]);
        let ts: Vec<u64> = t.iter().map(|r| r.ts.0 / 1_000_000).collect();
        assert_eq!(ts, vec![3, 6, 9]);
    }

    #[test]
    fn merge_interleaves() {
        let a = LogicalTrace::from_unsorted(vec![rec(1, 0, IoKind::Read), rec(5, 0, IoKind::Read)]);
        let b =
            LogicalTrace::from_unsorted(vec![rec(2, 1, IoKind::Write), rec(4, 1, IoKind::Read)]);
        let m = LogicalTrace::merge(vec![a, b]);
        let ts: Vec<u64> = m.iter().map(|r| r.ts.0 / 1_000_000).collect();
        assert_eq!(ts, vec![1, 2, 4, 5]);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn byte_accounting() {
        let t = LogicalTrace::from_unsorted(vec![
            rec(1, 0, IoKind::Read),
            rec(2, 0, IoKind::Write),
            rec(3, 0, IoKind::Write),
        ]);
        assert_eq!(t.bytes_read(), 4096);
        assert_eq!(t.bytes_written(), 8192);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut t = LogicalTrace::with_capacity(8);
        t.push(rec(1, 0, IoKind::Read));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn from_iterator_collects_sorted() {
        let t: LogicalTrace = vec![rec(4, 0, IoKind::Read), rec(2, 0, IoKind::Read)]
            .into_iter()
            .collect();
        assert_eq!(t.records()[0].ts, Micros::from_secs(2));
    }
}
