//! A log-scaled latency/interval histogram with percentile queries.
//!
//! Used by the replay engine's reports and the experiment harness to
//! summarize response-time and interval distributions without retaining
//! every sample. Buckets grow geometrically from 1 µs, giving ~7 %
//! relative resolution over twelve decades in 384 fixed buckets.

use crate::types::Micros;

/// Number of buckets: 32 per factor-of-ten across 12 decades.
const BUCKETS: usize = 384;
/// Buckets per decade.
const PER_DECADE: f64 = 32.0;

/// A fixed-size logarithmic histogram over [`Micros`] values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    /// Exact running extremes (the histogram itself is lossy).
    min: Micros,
    max: Micros,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            min: Micros(u64::MAX),
            max: Micros::ZERO,
        }
    }

    fn bucket_of(v: Micros) -> usize {
        if v.0 == 0 {
            return 0;
        }
        let idx = ((v.0 as f64).log10() * PER_DECADE).floor() as usize;
        idx.min(BUCKETS - 1)
    }

    /// Lower bound of bucket `i`.
    fn bucket_floor(i: usize) -> Micros {
        Micros(10f64.powf(i as f64 / PER_DECADE).floor() as u64)
    }

    /// Records one value.
    pub fn record(&mut self, v: Micros) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Per-bucket counts, lowest bucket first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<Micros> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<Micros> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate quantile `q ∈ [0, 1]` (bucket lower bound; exact for
    /// the extremes).
    pub fn quantile(&self, q: f64) -> Option<Micros> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_floor(i).max(self.min).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Non-empty buckets as `(lower bound, count)` pairs, for plotting.
    pub fn non_empty_buckets(&self) -> Vec<(Micros, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.non_empty_buckets().is_empty());
    }

    #[test]
    fn extremes_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(Micros(123));
        h.record(Micros(456_789));
        assert_eq!(h.min(), Some(Micros(123)));
        assert_eq!(h.max(), Some(Micros(456_789)));
        assert_eq!(h.quantile(0.0), Some(Micros(123)));
        assert_eq!(h.quantile(1.0), Some(Micros(456_789)));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn median_lands_in_the_right_decade() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(Micros(10_000)); // 10 ms
        }
        for _ in 0..10 {
            h.record(Micros(15_000_000)); // 15 s outliers
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!(
            p50 >= Micros(9_000) && p50 <= Micros(11_000),
            "p50 {p50} should sit near 10 ms"
        );
        let p999 = h.quantile(0.999).unwrap();
        assert!(
            p999 >= Micros(10_000_000),
            "p99.9 {p999} should catch the tail"
        );
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        a.record(Micros(100));
        let mut b = LatencyHistogram::new();
        b.record(Micros(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(Micros(100)));
        assert_eq!(a.max(), Some(Micros(1_000_000)));
    }

    #[test]
    fn zero_and_huge_values_clamp() {
        let mut h = LatencyHistogram::new();
        h.record(Micros(0));
        h.record(Micros(u64::MAX));
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(Micros(0)));
        assert_eq!(h.max(), Some(Micros(u64::MAX)));
    }
}
