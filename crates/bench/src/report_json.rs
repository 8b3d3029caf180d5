//! `experiments export`'s machine-readable `*_reports.json`: every
//! [`RunReport`] field, in declaration order, as pretty-printed JSON.
//!
//! Layout: a two-space indent, `"key": value`, one element per line, `[]`
//! and `{}` for empty containers, and no trailing newline. Ids and times
//! are bare integers, tuples are arrays, and power modes are their
//! variant names. Integral floats below 10¹⁵ print as `N.0`, other finite
//! floats in Rust's shortest round-trip form, and non-finite ones as
//! `null`. Strings are escaped by [`json_escape`].

use ees_iotrace::ndjson::json_escape;
use ees_iotrace::Micros;
use ees_replay::{EnclosureSummary, RunReport};

/// A JSON value, just rich enough for a [`RunReport`].
enum Json {
    Int(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(&'static str, Json)>),
}

/// Renders `reports` as one pretty-printed JSON array.
pub fn reports_json(reports: &[RunReport]) -> String {
    let mut out = String::new();
    Json::Array(reports.iter().map(report).collect()).write(0, &mut out);
    out
}

fn micros(t: Micros) -> Json {
    Json::Int(t.0)
}

fn ints(values: impl IntoIterator<Item = u64>) -> Json {
    Json::Array(values.into_iter().map(Json::Int).collect())
}

fn report(r: &RunReport) -> Json {
    let (c0, c1, c2, c3, c4) = r.cache_counters;
    let (p50, p95, p99, pmax) = r.read_percentiles;
    let h = &r.read_latency;
    Json::Object(vec![
        ("policy", Json::Str(r.policy.clone())),
        ("workload", Json::Str(r.workload.clone())),
        ("duration", micros(r.duration)),
        ("total_ios", Json::Int(r.total_ios)),
        ("reads", Json::Int(r.reads)),
        ("avg_power_watts", Json::Float(r.avg_power_watts)),
        ("enclosure_avg_watts", Json::Float(r.enclosure_avg_watts)),
        ("avg_response", micros(r.avg_response)),
        ("avg_read_response", micros(r.avg_read_response)),
        (
            "read_response_sum_secs",
            Json::Float(r.read_response_sum_secs),
        ),
        ("migrated_bytes", Json::Int(r.migrated_bytes)),
        ("determinations", Json::Int(r.determinations)),
        ("periods", Json::Int(r.periods)),
        ("spin_ups", Json::Int(r.spin_ups)),
        ("throughput_iops", Json::Float(r.throughput_iops)),
        (
            "interval_cdf",
            Json::Object(vec![(
                "lengths",
                ints(r.interval_cdf.lengths().iter().map(|l| l.0)),
            )]),
        ),
        (
            "window_read_sums",
            Json::Array(
                r.window_read_sums
                    .iter()
                    .map(|&(secs, reads)| Json::Array(vec![Json::Float(secs), Json::Int(reads)]))
                    .collect(),
            ),
        ),
        ("cache_counters", ints([c0, c1, c2, c3, c4])),
        ("physical_ios", Json::Int(r.physical_ios)),
        (
            "enclosures",
            Json::Array(r.enclosures.iter().map(enclosure).collect()),
        ),
        ("read_percentiles", ints([p50.0, p95.0, p99.0, pmax.0])),
        (
            "read_latency",
            // An empty histogram keeps its sentinel extremes.
            Json::Object(vec![
                ("counts", ints(h.counts().iter().copied())),
                ("total", Json::Int(h.count())),
                ("min", Json::Int(h.min().map_or(u64::MAX, |m| m.0))),
                ("max", Json::Int(h.max().map_or(0, |m| m.0))),
            ]),
        ),
    ])
}

fn enclosure(e: &EnclosureSummary) -> Json {
    Json::Object(vec![
        ("id", Json::Int(e.id.0.into())),
        ("avg_watts", Json::Float(e.avg_watts)),
        ("active", micros(e.active)),
        ("idle", micros(e.idle)),
        ("spin_up", micros(e.spin_up)),
        ("off", micros(e.off)),
        ("ios", Json::Int(e.ios)),
        ("spin_ups", Json::Int(e.spin_ups)),
        ("bulk_bytes", Json::Int(e.bulk_bytes)),
        (
            "status_log",
            Json::Array(
                e.status_log
                    .iter()
                    .map(|&(t, mode)| Json::Array(vec![micros(t), Json::Str(format!("{mode:?}"))]))
                    .collect(),
            ),
        ),
    ])
}

impl Json {
    fn write(&self, depth: usize, out: &mut String) {
        match self {
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) if !x.is_finite() => out.push_str("null"),
            Json::Float(x) if x.trunc() == *x && x.abs() < 1e15 => out.push_str(&format!("{x:.1}")),
            Json::Float(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Array(items) => {
                write_container('[', ']', items.iter().map(|v| (None, v)), depth, out)
            }
            Json::Object(fields) => write_container(
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)),
                depth,
                out,
            ),
        }
    }
}

/// Writes one array or object, one entry per line at `depth + 1`.
fn write_container<'a>(
    open: char,
    close: char,
    entries: impl Iterator<Item = (Option<&'static str>, &'a Json)>,
    depth: usize,
    out: &mut String,
) {
    out.push(open);
    let mut empty = true;
    for (key, value) in entries {
        out.push_str(if empty { "\n" } else { ",\n" });
        empty = false;
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push('"');
            out.push_str(key);
            out.push_str("\": ");
        }
        value.write(depth + 1, out);
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}
