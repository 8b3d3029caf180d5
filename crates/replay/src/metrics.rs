//! Run metrics: everything the paper's evaluation section reports
//! (§VII.A.4 — power consumption, I/O response time, I/O throughput,
//! migrated data size, placement-determination counts, plus the interval
//! curves of Fig. 17–19).

use ees_iotrace::{EnclosureId, IntervalCdf, LatencyHistogram, Micros};
use ees_simstorage::PowerMode;

/// Nearest-rank percentile over an ascending-sorted sample slice: the
/// smallest sample whose rank is at least `⌈q·N⌉` (`q ∈ (0, 1]`; `q = 0`
/// returns the minimum). Unlike floor indexing, this never under-reports
/// tail percentiles on small sample counts — with N = 10, p99 is the
/// maximum, not the 9th sample. [`LatencyHistogram::quantile`] applies
/// the same rank rule at bucket resolution, so the report's histogram
/// percentiles match this contract up to bucket width (exactly at the
/// extremes).
pub fn nearest_rank(sorted: &[Micros], q: f64) -> Option<Micros> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Per-enclosure outcome of a run.
#[derive(Debug, Clone)]
pub struct EnclosureSummary {
    /// The enclosure.
    pub id: EnclosureId,
    /// Average draw over the run, watts.
    pub avg_watts: f64,
    /// Time active (serving foreground or bulk I/O).
    pub active: Micros,
    /// Time idle.
    pub idle: Micros,
    /// Time spinning up.
    pub spin_up: Micros,
    /// Time powered off.
    pub off: Micros,
    /// Foreground I/Os served.
    pub ios: u64,
    /// Spin-ups performed.
    pub spin_ups: u64,
    /// Bulk bytes moved through this enclosure.
    pub bulk_bytes: u64,
    /// Power-status transitions over the run: `(time, mode)` for every
    /// Off / SpinUp / powered-on change (initial Idle included).
    pub status_log: Vec<(Micros, PowerMode)>,
}

/// Aggregate outcome of replaying one workload under one policy.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Run duration.
    pub duration: Micros,
    /// Logical I/Os replayed.
    pub total_ios: u64,
    /// Reads among them.
    pub reads: u64,
    /// Average power of the whole storage unit (controller + enclosures),
    /// watts — the paper's Fig. 8/11/14 bars.
    pub avg_power_watts: f64,
    /// Average power of the disk enclosures alone, watts.
    pub enclosure_avg_watts: f64,
    /// Mean response time over all I/O (cache hits included) — Fig. 9.
    pub avg_response: Micros,
    /// Mean response time over reads only (feeds the §VII.A.5 scaling).
    pub avg_read_response: Micros,
    /// Sum of read response times, seconds (Σr of §VII.A.5).
    pub read_response_sum_secs: f64,
    /// Total bytes moved by migrations and extent redirects — Fig. 10/13/16.
    pub migrated_bytes: u64,
    /// Placement determinations performed by the policy (§VII.D).
    pub determinations: u64,
    /// Monitoring periods completed (management-function invocations).
    pub periods: u64,
    /// Enclosure spin-ups over the run.
    pub spin_ups: u64,
    /// Served I/O throughput, IOPS.
    pub throughput_iops: f64,
    /// Cumulative enclosure-level long-interval curve (Fig. 17–19).
    pub interval_cdf: IntervalCdf,
    /// Per-response-window read totals: `(Σ read response secs, reads)` —
    /// feeds the TPC-H per-query response scaling (Fig. 15).
    pub window_read_sums: Vec<(f64, u64)>,
    /// Cache counters: preload hits, general hits, general misses,
    /// buffered writes, flush count.
    pub cache_counters: (u64, u64, u64, u64, u64),
    /// Physical I/Os that reached the enclosures.
    pub physical_ios: u64,
    /// Per-enclosure breakdown.
    pub enclosures: Vec<EnclosureSummary>,
    /// Read-response percentiles (p50, p95, p99, max), nearest-rank,
    /// served from [`RunReport::read_latency`].
    pub read_percentiles: (Micros, Micros, Micros, Micros),
    /// Full read-response distribution: a fixed-size log-bucketed
    /// histogram (the engine keeps no per-record samples).
    pub read_latency: LatencyHistogram,
}

impl RunReport {
    /// Power saved versus a baseline report, as a percentage of the
    /// baseline's enclosure power (how the paper quotes its headline
    /// numbers: "decreases power consumption of the disk enclosures …
    /// a decrease of 25.8 %").
    pub fn enclosure_saving_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.enclosure_avg_watts <= 0.0 {
            return 0.0;
        }
        (1.0 - self.enclosure_avg_watts / baseline.enclosure_avg_watts) * 100.0
    }

    /// Approximate array power over time, sampled every `step`, derived
    /// from the per-enclosure power-status logs. Powered-on time is
    /// charged at the idle rate (the logs do not record active/idle
    /// flicker), so the series under-reports during busy stretches but
    /// captures the on/off structure that dominates the figures.
    pub fn power_series(
        &self,
        step: Micros,
        power: &ees_simstorage::EnclosurePowerModel,
    ) -> Vec<(Micros, f64)> {
        let steps = (self.duration.0 / step.0.max(1)) as usize;
        let mut series = vec![0.0f64; steps];
        for e in &self.enclosures {
            for (i, slot) in series.iter_mut().enumerate() {
                let t = Micros(i as u64 * step.0);
                // Mode in effect at time t: the last log entry at or
                // before t.
                let idx = e.status_log.partition_point(|&(ts, _)| ts <= t);
                let mode = if idx == 0 {
                    PowerMode::Idle
                } else {
                    e.status_log[idx - 1].1
                };
                *slot += power.watts(mode);
            }
        }
        series
            .into_iter()
            .enumerate()
            .map(|(i, w)| (Micros(i as u64 * step.0), w))
            .collect()
    }

    /// Fraction of reads absorbed by the cache.
    pub fn cache_read_hit_rate(&self) -> f64 {
        let (pre, gen, miss, _, _) = self.cache_counters;
        let total = pre + gen + miss;
        if total == 0 {
            0.0
        } else {
            (pre + gen) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(encl_watts: f64) -> RunReport {
        RunReport {
            policy: "x".into(),
            workload: "y".into(),
            duration: Micros::from_secs(10),
            total_ios: 100,
            reads: 60,
            avg_power_watts: encl_watts + 400.0,
            enclosure_avg_watts: encl_watts,
            avg_response: Micros::from_millis(10),
            avg_read_response: Micros::from_millis(12),
            read_response_sum_secs: 0.72,
            migrated_bytes: 0,
            determinations: 1,
            periods: 1,
            spin_ups: 0,
            throughput_iops: 10.0,
            interval_cdf: IntervalCdf::from_intervals(vec![], Micros::from_secs(52)),
            window_read_sums: vec![],
            cache_counters: (10, 20, 30, 0, 0),
            physical_ios: 70,
            enclosures: Vec::new(),
            read_percentiles: (Micros(0), Micros(0), Micros(0), Micros(0)),
            read_latency: LatencyHistogram::new(),
        }
    }

    #[test]
    fn nearest_rank_small_n_does_not_bias_the_tail_low() {
        // Ten samples 1..=10 ms. Floor indexing gave p95 → idx 8 (9 ms)
        // and p99 → idx 8 (9 ms); nearest-rank gives the maximum for
        // both, matching the percentile definition ⌈q·N⌉.
        let samples: Vec<Micros> = (1..=10).map(Micros::from_millis).collect();
        assert_eq!(nearest_rank(&samples, 0.5), Some(Micros::from_millis(5)));
        assert_eq!(nearest_rank(&samples, 0.95), Some(Micros::from_millis(10)));
        assert_eq!(nearest_rank(&samples, 0.99), Some(Micros::from_millis(10)));
        assert_eq!(nearest_rank(&samples, 1.0), Some(Micros::from_millis(10)));
        // Degenerate counts.
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[Micros(7)], 0.99), Some(Micros(7)));
        assert_eq!(nearest_rank(&[Micros(7)], 0.0), Some(Micros(7)));
    }

    #[test]
    fn histogram_quantile_matches_nearest_rank_within_bucket_resolution() {
        // The histogram must obey the same ceil-rank contract: with
        // 99 samples at 1 ms and one at 1 s, p99 already selects the
        // 1 ms mass while p100 reports the exact outlier.
        let mut h = LatencyHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..99 {
            h.record(Micros::from_millis(1));
            samples.push(Micros::from_millis(1));
        }
        h.record(Micros::from_secs(1));
        samples.push(Micros::from_secs(1));
        let exact = nearest_rank(&samples, 0.99).unwrap();
        let approx = h.quantile(0.99).unwrap();
        assert_eq!(exact, Micros::from_millis(1));
        // Same bucket: within the histogram's ~7 % relative resolution.
        assert!(approx <= exact && exact.0 as f64 <= approx.0 as f64 * 1.08);
        assert_eq!(h.quantile(1.0), Some(Micros::from_secs(1)));
    }

    #[test]
    fn saving_percentage() {
        let base = report(2000.0);
        let saver = report(1500.0);
        assert!((saver.enclosure_saving_vs(&base) - 25.0).abs() < 1e-9);
        assert_eq!(base.enclosure_saving_vs(&base), 0.0);
        let zero = report(0.0);
        assert_eq!(saver.enclosure_saving_vs(&zero), 0.0);
    }

    #[test]
    fn hit_rate() {
        let r = report(1000.0);
        assert!((r.cache_read_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn power_series_follows_the_status_log() {
        let mut r = report(1000.0);
        r.duration = Micros::from_secs(30);
        r.enclosures = vec![EnclosureSummary {
            id: EnclosureId(0),
            avg_watts: 0.0,
            active: Micros::ZERO,
            idle: Micros::from_secs(10),
            spin_up: Micros::ZERO,
            off: Micros::from_secs(20),
            ios: 0,
            spin_ups: 0,
            bulk_bytes: 0,
            status_log: vec![
                (Micros::ZERO, PowerMode::Idle),
                (Micros::from_secs(10), PowerMode::Off),
            ],
        }];
        let model = ees_simstorage::EnclosurePowerModel::AMS2500;
        let series = r.power_series(Micros::from_secs(5), &model);
        assert_eq!(series.len(), 6);
        assert_eq!(series[0], (Micros::ZERO, 210.0));
        assert_eq!(series[1].1, 210.0);
        assert_eq!(series[2].1, 12.0, "off from t = 10 s");
        assert_eq!(series[5].1, 12.0);
    }
}
