//! Golden test for `experiments export`'s `*_reports.json` writer. The
//! expected file is the layout earlier versions of the export wrote for
//! the same report, so existing readers of the export see no change.

use ees_bench::report_json::reports_json;
use ees_iotrace::{EnclosureId, IntervalCdf, LatencyHistogram, Micros};
use ees_replay::{EnclosureSummary, RunReport};
use ees_simstorage::PowerMode;

/// One report touching every layout rule: an integral float, a float at
/// 10¹⁵, a NaN, a float past 10¹⁵ with an exponent, empty and non-empty
/// arrays, an empty histogram, and a name that needs escaping.
fn sample() -> RunReport {
    RunReport {
        policy: "proposed \"v2\"\nbeta".into(),
        workload: "File Server".into(),
        duration: Micros(3_600_000_000),
        total_ios: 12_345,
        reads: 6_789,
        avg_power_watts: 2.0,
        enclosure_avg_watts: 1_234.567_8,
        avg_response: Micros(1_500),
        avg_read_response: Micros(2_500),
        read_response_sum_secs: 1e15,
        migrated_bytes: 1 << 40,
        determinations: 7,
        periods: 3,
        spin_ups: 2,
        throughput_iops: f64::NAN,
        interval_cdf: IntervalCdf::from_intervals(
            [Micros(90_000_000), Micros(500_000), Micros(5_000_000)],
            Micros(1_000_000),
        ),
        window_read_sums: Vec::new(),
        cache_counters: (1, 2, 3, 4, 5),
        physical_ios: 999,
        enclosures: vec![
            EnclosureSummary {
                id: EnclosureId(0),
                avg_watts: 0.1 + 0.2,
                active: Micros(10),
                idle: Micros(20),
                spin_up: Micros(0),
                off: Micros(30),
                ios: 4,
                spin_ups: 0,
                bulk_bytes: 0,
                status_log: Vec::new(),
            },
            EnclosureSummary {
                id: EnclosureId(11),
                avg_watts: 2.5e300,
                active: Micros(1),
                idle: Micros(2),
                spin_up: Micros(3),
                off: Micros(4),
                ios: 5,
                spin_ups: 1,
                bulk_bytes: 4096,
                status_log: vec![
                    (Micros(0), PowerMode::Idle),
                    (Micros(60_000_000), PowerMode::Off),
                    (Micros(90_000_000), PowerMode::SpinUp),
                ],
            },
        ],
        read_percentiles: (Micros(7), Micros(7), Micros(2_500), Micros(2_500)),
        read_latency: LatencyHistogram::new(),
    }
}

#[test]
fn reports_match_the_golden_file() {
    assert_eq!(
        reports_json(&[sample()]),
        include_str!("data/reports_golden.json")
    );
}

#[test]
fn no_reports_is_an_empty_array() {
    assert_eq!(reports_json(&[]), "[]");
}
