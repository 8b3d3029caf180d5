//! The paper's four **logical I/O patterns** (§II.C.2) and the
//! classification rule (§IV.B step 3).
//!
//! | Pattern | Shape | Power-saving method |
//! |---------|-------|---------------------|
//! | **P0** | no I/O in the period | enclosure can simply power off |
//! | **P1** | Long Interval(s) + Sequence(s), ≥ 50 % reads | preload into the cache |
//! | **P2** | Long Interval(s) + Sequence(s), < 50 % reads | delay writes in the cache |
//! | **P3** | one Sequence spanning the period (no Long Interval) | none — keep its enclosure hot |

use ees_iotrace::ItemIntervalStats;
use std::fmt;

/// One of the paper's four logical I/O patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LogicalIoPattern {
    /// No I/O during the monitoring period.
    P0,
    /// Read-dominant with power-off opportunities: preload candidate.
    P1,
    /// Write-dominant with power-off opportunities: write-delay candidate.
    P2,
    /// Continuously accessed: no power-saving function applies.
    P3,
}

impl LogicalIoPattern {
    /// All four patterns, in order.
    pub const ALL: [LogicalIoPattern; 4] = [
        LogicalIoPattern::P0,
        LogicalIoPattern::P1,
        LogicalIoPattern::P2,
        LogicalIoPattern::P3,
    ];

    /// `true` for the patterns a cold enclosure may hold (P0, P1, P2).
    pub fn is_cold_compatible(self) -> bool {
        !matches!(self, LogicalIoPattern::P3)
    }
}

impl fmt::Display for LogicalIoPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalIoPattern::P0 => write!(f, "P0"),
            LogicalIoPattern::P1 => write!(f, "P1"),
            LogicalIoPattern::P2 => write!(f, "P2"),
            LogicalIoPattern::P3 => write!(f, "P3"),
        }
    }
}

/// Classifies one item's interval structure into a logical I/O pattern
/// (paper §IV.B step 3):
///
/// 1. no I/Os → **P0**;
/// 2. no Long Interval → **P3**;
/// 3. otherwise count reads: at least half the I/Os → **P1**, else
///    **P2** (the paper assigns "≥ 50 % reads" to P1, so an exact tie
///    is read-dominant and becomes a preload candidate).
///
/// ```
/// use ees_core::{classify, LogicalIoPattern};
/// use ees_iotrace::{analyze_item_period, DataItemId, IoKind, LogicalIoRecord, Micros, Span};
///
/// // Two read bursts separated by a gap longer than the 52 s break-even.
/// let ios: Vec<LogicalIoRecord> = [1.0, 2.0, 300.0]
///     .iter()
///     .map(|&s| LogicalIoRecord {
///         ts: Micros::from_secs_f64(s),
///         item: DataItemId(0),
///         offset: 0,
///         len: 4096,
///         kind: IoKind::Read,
///     })
///     .collect();
/// let period = Span { start: Micros::ZERO, end: Micros::from_secs(520) };
/// let stats = analyze_item_period(DataItemId(0), &ios, period, Micros::from_secs(52));
/// assert_eq!(classify(&stats), LogicalIoPattern::P1);
/// ```
pub fn classify(stats: &ItemIntervalStats) -> LogicalIoPattern {
    if stats.total_ios() == 0 {
        return LogicalIoPattern::P0;
    }
    if stats.long_intervals.is_empty() {
        return LogicalIoPattern::P3;
    }
    if stats.reads * 2 >= stats.total_ios() {
        LogicalIoPattern::P1
    } else {
        LogicalIoPattern::P2
    }
}

/// Aggregate pattern counts over a set of items — the data behind Fig. 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternMix {
    /// Items classified P0.
    pub p0: usize,
    /// Items classified P1.
    pub p1: usize,
    /// Items classified P2.
    pub p2: usize,
    /// Items classified P3.
    pub p3: usize,
}

impl PatternMix {
    /// Counts patterns over an iterator of classifications.
    pub fn from_patterns(patterns: impl IntoIterator<Item = LogicalIoPattern>) -> Self {
        let mut mix = PatternMix::default();
        for p in patterns {
            mix.bump(p);
        }
        mix
    }

    /// Adds one classification.
    pub fn bump(&mut self, p: LogicalIoPattern) {
        match p {
            LogicalIoPattern::P0 => self.p0 += 1,
            LogicalIoPattern::P1 => self.p1 += 1,
            LogicalIoPattern::P2 => self.p2 += 1,
            LogicalIoPattern::P3 => self.p3 += 1,
        }
    }

    /// Total items counted.
    pub fn total(&self) -> usize {
        self.p0 + self.p1 + self.p2 + self.p3
    }

    /// Share of a pattern in percent, the unit of Fig. 6.
    pub fn percent(&self, p: LogicalIoPattern) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let n = match p {
            LogicalIoPattern::P0 => self.p0,
            LogicalIoPattern::P1 => self.p1,
            LogicalIoPattern::P2 => self.p2,
            LogicalIoPattern::P3 => self.p3,
        };
        n as f64 * 100.0 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{analyze_item_period, DataItemId, IoKind, LogicalIoRecord, Micros, Span};

    const BE: Micros = Micros(52_000_000);

    fn period(secs: u64) -> Span {
        Span {
            start: Micros::ZERO,
            end: Micros::from_secs(secs),
        }
    }

    fn io(ts_s: f64, kind: IoKind) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros::from_secs_f64(ts_s),
            item: DataItemId(0),
            offset: 0,
            len: 4096,
            kind,
        }
    }

    fn classify_ios(ios: &[LogicalIoRecord], period_s: u64) -> LogicalIoPattern {
        classify(&analyze_item_period(
            DataItemId(0),
            ios,
            period(period_s),
            BE,
        ))
    }

    #[test]
    fn no_io_is_p0() {
        assert_eq!(classify_ios(&[], 520), LogicalIoPattern::P0);
    }

    #[test]
    fn continuous_access_is_p3() {
        // I/O every 10 s: no gap exceeds the 52 s break-even.
        let ios: Vec<_> = (0..52).map(|i| io(i as f64 * 10.0, IoKind::Read)).collect();
        assert_eq!(classify_ios(&ios, 520), LogicalIoPattern::P3);
    }

    #[test]
    fn read_heavy_bursts_are_p1() {
        let ios = vec![
            io(0.0, IoKind::Read),
            io(1.0, IoKind::Read),
            io(2.0, IoKind::Write),
            io(200.0, IoKind::Read), // long gap before
        ];
        assert_eq!(classify_ios(&ios, 520), LogicalIoPattern::P1);
    }

    #[test]
    fn write_heavy_bursts_are_p2() {
        let ios = vec![
            io(0.0, IoKind::Write),
            io(1.0, IoKind::Write),
            io(2.0, IoKind::Read),
            io(200.0, IoKind::Write),
        ];
        assert_eq!(classify_ios(&ios, 520), LogicalIoPattern::P2);
    }

    #[test]
    fn exact_read_tie_is_p1() {
        // Exactly 50 % reads meets the paper's "≥ 50 % reads" bar for
        // P1 (§II.C.2), so the tie goes to the preload candidate.
        let ios = vec![io(0.0, IoKind::Read), io(200.0, IoKind::Write)];
        assert_eq!(classify_ios(&ios, 520), LogicalIoPattern::P1);
    }

    #[test]
    fn single_io_with_long_lead_is_p1_or_p2_by_kind() {
        let read = vec![io(100.0, IoKind::Read)];
        let write = vec![io(100.0, IoKind::Write)];
        assert_eq!(classify_ios(&read, 520), LogicalIoPattern::P1);
        assert_eq!(classify_ios(&write, 520), LogicalIoPattern::P2);
    }

    #[test]
    fn busy_item_in_short_period_is_p3() {
        // Period shorter than break-even: no gap can be long, so any
        // accessed item is P3.
        let ios = vec![io(0.0, IoKind::Read), io(30.0, IoKind::Read)];
        assert_eq!(classify_ios(&ios, 40), LogicalIoPattern::P3);
    }

    #[test]
    fn cold_compatibility() {
        assert!(LogicalIoPattern::P0.is_cold_compatible());
        assert!(LogicalIoPattern::P1.is_cold_compatible());
        assert!(LogicalIoPattern::P2.is_cold_compatible());
        assert!(!LogicalIoPattern::P3.is_cold_compatible());
    }

    #[test]
    fn pattern_mix_percentages() {
        let mix = PatternMix::from_patterns(vec![
            LogicalIoPattern::P1,
            LogicalIoPattern::P1,
            LogicalIoPattern::P1,
            LogicalIoPattern::P3,
        ]);
        assert_eq!(mix.total(), 4);
        assert!((mix.percent(LogicalIoPattern::P1) - 75.0).abs() < 1e-9);
        assert!((mix.percent(LogicalIoPattern::P3) - 25.0).abs() < 1e-9);
        assert_eq!(mix.percent(LogicalIoPattern::P0), 0.0);
        assert_eq!(PatternMix::default().percent(LogicalIoPattern::P0), 0.0);
    }
}
