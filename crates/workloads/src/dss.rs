//! The **DSS** workload: a TPC-H-shaped generator matching the paper's
//! Table I configuration (SF 100 ≈ 100 GB, Q1–Q22 run sequentially over
//! 6 h, log and work files on one storage device, the database
//! hash-striped over eight).
//!
//! Reproduced properties:
//!
//! * **Sequential table scans striped across all DB enclosures.** Each
//!   query reads its tables' fragments in parallel sequential passes, so
//!   every DB enclosure is touched by every scan — the striping that makes
//!   DDR pay a spin-up storm per scan (§VII.D.3).
//! * **Long compute gaps.** Scans cover a minority of each query's
//!   window; in between, the DB enclosures are idle for minutes — the
//!   power-off opportunity that lets *every* method save > 50 % on DSS
//!   (Fig. 14).
//! * **Write-then-read work files and a commit log** on the work device —
//!   the P2 population of Fig. 6 (38.5 %); the 48 table fragments are the
//!   P1 population (61.5 %).

use crate::gen::exp_duration;
use crate::rng::SplitMix64;
use crate::spec::{DataItemSpec, ItemKind, Workload};
use ees_iotrace::{
    DataItemId, EnclosureId, IoKind, LogicalIoRecord, LogicalTrace, Micros, Span, VolumeId, GIB,
    MIB,
};
use ees_simstorage::Access;

/// Tunables of the DSS generator. Defaults follow Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DssParams {
    /// Trace duration (Table I: 6 h for Q1–Q22).
    pub duration: Micros,
    /// DB enclosures; log + work files get their own device, so the
    /// workload uses `db_enclosures + 1` in total (Table I: 1 + 8).
    pub db_enclosures: u16,
    /// Per-enclosure sequential scan throughput, bytes/s.
    pub scan_rate: u64,
    /// Scan request size.
    pub scan_io: u32,
}

impl Default for DssParams {
    fn default() -> Self {
        DssParams {
            duration: Micros::from_secs(6 * 3600),
            db_enclosures: 8,
            // The test bed's single 2 Gbit FC link caps aggregate scan
            // bandwidth at ~200 MB/s → 25 MB/s per striped enclosure. A
            // full lineitem pass then takes ~6 min — longer than the
            // 520 s monitoring period, which is what lets scans classify
            // P3 mid-query and drives the §VII.D.3 migrations.
            scan_rate: 25 * 1024 * 1024,
            scan_io: 256 * 1024,
        }
    }
}

impl DssParams {
    /// Scales the duration by `scale`, raising the scan rate by `1/scale`
    /// so scan durations shrink along with the query windows. This keeps
    /// the gap-to-scan structure of the full run (whose inter-scan compute
    /// gaps comfortably exceed the 52 s break-even time) intact at small
    /// scales; without it, scaled-down runs have no harvestable gaps and
    /// every power-saving method flatlines.
    pub fn scaled(scale: f64) -> Self {
        let mut p = Self::default();
        p.duration = p.duration.mul_f64(scale);
        if scale > 0.0 && scale < 1.0 {
            p.scan_rate = (p.scan_rate as f64 / scale) as u64;
        }
        p
    }
}

/// Table families striped across the DB enclosures:
/// `(name, per-fragment bytes)`. SF 100 sizes divided by 8 stripes.
const TABLES: &[(&str, u64)] = &[
    ("lineitem", 9_600 * MIB),
    ("orders", 2_150 * MIB),
    ("partsupp", 1_450 * MIB),
    ("part", 360 * MIB),
    ("customer", 290 * MIB),
    ("supplier", 17 * MIB),
];

const L: usize = 0;
const O: usize = 1;
const PS: usize = 2;
const P: usize = 3;
const C: usize = 4;
const S: usize = 5;

/// Query plan: `(name, weight, scans (table, passes), work-file MiB)`.
/// Weights approximate SF-100 query duration shares and are normalized.
/// Only the genuinely scan-bound queries table-scan lineitem (Q1, Q6, Q9,
/// Q17, and the double passes of Q18/Q21); the rest reach it through
/// indexes, whose sparse random probes the DBMS buffer pool absorbs — so
/// at the storage level those queries only scan their dimension tables.
/// This keeps each enclosure's busy fraction low (the regime in which
/// every spin-down method saves > 50 % in Fig. 14) while the scan-bound
/// queries still produce the multi-minute busy phases that classify P3
/// and drive the §VII.D.3 migrations.
type QuerySpec = (&'static str, f64, &'static [(usize, u32)], u64);
const QUERIES: &[QuerySpec] = &[
    ("Q1", 0.060, &[(L, 1)], 166),
    ("Q2", 0.020, &[(P, 1), (PS, 1), (S, 1)], 66),
    ("Q3", 0.050, &[(C, 1), (O, 1)], 266),
    ("Q4", 0.035, &[(O, 1)], 133),
    ("Q5", 0.050, &[(C, 1), (O, 1), (S, 1)], 200),
    ("Q6", 0.020, &[(L, 1)], 50),
    ("Q7", 0.050, &[(S, 1), (O, 1), (C, 1)], 233),
    ("Q8", 0.045, &[(P, 1), (S, 1), (O, 1), (C, 1)], 200),
    ("Q9", 0.090, &[(P, 1), (S, 1), (L, 1), (PS, 1), (O, 1)], 500),
    ("Q10", 0.045, &[(C, 1), (O, 1)], 233),
    ("Q11", 0.015, &[(PS, 1), (S, 1)], 50),
    ("Q12", 0.030, &[(O, 1)], 100),
    ("Q13", 0.040, &[(C, 1), (O, 1)], 200),
    ("Q14", 0.020, &[(P, 1)], 50),
    ("Q15", 0.025, &[(S, 1)], 66),
    ("Q16", 0.020, &[(PS, 1), (P, 1), (S, 1)], 83),
    ("Q17", 0.050, &[(L, 1), (P, 1)], 133),
    ("Q18", 0.075, &[(C, 1), (O, 1), (L, 2)], 400),
    ("Q19", 0.025, &[(P, 1)], 66),
    ("Q20", 0.040, &[(S, 1), (PS, 1), (P, 1)], 133),
    ("Q21", 0.080, &[(S, 1), (L, 2), (O, 1)], 333),
    ("Q22", 0.020, &[(C, 1), (O, 1)], 83),
];

/// A query's position in the run, for per-query response reporting
/// (Fig. 15 reports Q2, Q7, Q21).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryWindow {
    /// Query name ("Q1" … "Q22").
    pub name: &'static str,
    /// The time span the query occupies.
    pub window: Span,
}

/// Generates the DSS workload together with its query schedule.
pub fn generate_with_schedule(seed: u64, params: &DssParams) -> (Workload, Vec<QueryWindow>) {
    let mut rng = SplitMix64::new(seed ^ 0x0D55_0D55);
    let duration = params.duration;
    let num_enclosures = params.db_enclosures + 1;

    // --- Catalog. ---
    let mut items = Vec::new();
    let mut next_id = 0u32;
    let mut new_item = |items: &mut Vec<DataItemSpec>,
                        name: String,
                        size: u64,
                        enclosure: EnclosureId,
                        kind: ItemKind,
                        access: Access| {
        let id = DataItemId(next_id);
        next_id += 1;
        items.push(DataItemSpec {
            id,
            name,
            size,
            volume: VolumeId(enclosure.0),
            enclosure,
            kind,
            access,
        });
        id
    };

    let log_id = new_item(
        &mut items,
        "dss_log".into(),
        2 * GIB,
        EnclosureId(0),
        ItemKind::Log,
        Access::Sequential,
    );
    let work_ids: Vec<DataItemId> = QUERIES
        .iter()
        .map(|(name, _, _, _)| {
            new_item(
                &mut items,
                format!("work_{name}"),
                4 * GIB,
                EnclosureId(0),
                ItemKind::WorkFile,
                Access::Sequential,
            )
        })
        .collect();
    let tmp_ids: Vec<DataItemId> = (0..7)
        .map(|i| {
            new_item(
                &mut items,
                format!("tmp{i}"),
                4 * GIB,
                EnclosureId(0),
                ItemKind::WorkFile,
                Access::Sequential,
            )
        })
        .collect();
    // fragment_ids[table][stripe]
    let fragment_ids: Vec<Vec<DataItemId>> = TABLES
        .iter()
        .map(|&(name, size)| {
            (0..params.db_enclosures)
                .map(|e| {
                    new_item(
                        &mut items,
                        format!("{name}.{e}"),
                        size,
                        EnclosureId(e + 1),
                        ItemKind::Table,
                        Access::Sequential,
                    )
                })
                .collect()
        })
        .collect();

    // --- Schedule the queries across the run. ---
    let total_w: f64 = QUERIES.iter().map(|q| q.1).sum();
    let mut records: Vec<LogicalIoRecord> = Vec::new();
    let mut schedule = Vec::new();
    let mut t = Micros::ZERO;
    let mut heavy_counter = 0usize;

    for (qi, &(name, weight, scans, work_mib)) in QUERIES.iter().enumerate() {
        let window_len = duration.mul_f64(weight / total_w);
        let window = Span {
            start: t,
            end: (t + window_len).min(duration),
        };
        schedule.push(QueryWindow { name, window });

        // Scan durations, clamped so they fit in 80 % of the window.
        let mut scan_durs: Vec<Micros> = scans
            .iter()
            .map(|&(table, passes)| {
                let bytes = TABLES[table].1 * passes as u64;
                Micros::from_secs_f64(bytes as f64 / params.scan_rate as f64)
            })
            .collect();
        let total_scan: Micros = scan_durs.iter().fold(Micros::ZERO, |a, &d| a + d);
        let budget = window_len.mul_f64(0.8);
        if total_scan > budget && total_scan > Micros::ZERO {
            let shrink = budget.as_secs_f64() / total_scan.as_secs_f64();
            for d in &mut scan_durs {
                *d = d.mul_f64(shrink);
            }
        }
        // Scans run back-to-back (pipelined, separated only by short
        // plan-switch pauses), followed by one long compute/aggregation
        // gap — the DB enclosures' power-off opportunity. Heavy queries
        // thus keep their fragments continuously busy for minutes, which
        // is what lets a monitoring period classify them P3 and triggers
        // the "hot data in cold disk enclosures" migrations of §VII.D.3.
        let switch_gap = Micros::from_secs(8);
        let mut qt = window.start;
        for (si, &(table, passes)) in scans.iter().enumerate() {
            let dur = scan_durs[si];
            emit_scan(
                params,
                &fragment_ids[table],
                TABLES[table].1 * passes as u64,
                qt,
                dur,
                &mut records,
            );
            qt = qt + dur + switch_gap;
            let _ = si;
        }

        // Work-file traffic across the window: write phase then read-back.
        let work_bytes = work_mib * MIB;
        emit_workfile(params, work_ids[qi], work_bytes, window, &mut records);
        if work_mib > 500 {
            let tmp = tmp_ids[heavy_counter % tmp_ids.len()];
            heavy_counter += 1;
            emit_workfile(params, tmp, work_bytes / 2, window, &mut records);
        }

        // Commit burst on the log at query end.
        let mut lt = window.end.saturating_sub(Micros::from_secs(2));
        for i in 0..rng.gen_range(20..60) {
            records.push(LogicalIoRecord {
                ts: lt,
                item: log_id,
                offset: (qi as u64 * 64 + i as u64) * 65536 % (2 * GIB),
                len: 65536,
                kind: IoKind::Write,
            });
            lt += Micros(rng.gen_range(1_000..20_000));
        }

        t = window.end + exp_duration(&mut rng, Micros::from_secs(1)).min(Micros::from_secs(5));
        t = t.min(duration);
    }

    records.sort_by_key(|r| r.ts);
    records.retain(|r| r.ts < duration);
    let workload = Workload {
        name: "TPC-H",
        duration,
        num_enclosures,
        items,
        trace: LogicalTrace::from_unsorted(records),
    };
    (workload, schedule)
}

/// Generates the DSS workload (schedule discarded).
pub fn generate(seed: u64, params: &DssParams) -> Workload {
    generate_with_schedule(seed, params).0
}

/// Emits one striped sequential scan: all fragments are read in parallel
/// sequential passes over `[start, start+dur)`.
fn emit_scan(
    params: &DssParams,
    fragments: &[DataItemId],
    bytes_per_fragment: u64,
    start: Micros,
    dur: Micros,
    out: &mut Vec<LogicalIoRecord>,
) {
    if dur == Micros::ZERO {
        return;
    }
    // Reads per fragment bounded by both the nominal byte count and what
    // the scan rate can deliver in `dur`.
    let by_bytes = bytes_per_fragment / params.scan_io as u64;
    let by_rate = (dur.as_secs_f64() * params.scan_rate as f64 / params.scan_io as f64) as u64;
    let n = by_bytes.min(by_rate).max(1);
    let step = dur / n;
    for frag in fragments {
        let mut ts = start;
        for i in 0..n {
            out.push(LogicalIoRecord {
                ts,
                item: *frag,
                offset: (i * params.scan_io as u64) % bytes_per_fragment.max(1),
                len: params.scan_io,
                kind: IoKind::Read,
            });
            ts += step;
        }
    }
}

/// Emits work-file traffic: a write phase over the first half of the
/// window, then a merge read-back burst immediately after it (sort runs
/// are consumed as soon as they are complete), leaving the rest of the
/// window quiet. Writes outnumber reads 2:1, so the item classifies P2,
/// and the quiet tail is what lets the work device power off.
fn emit_workfile(
    params: &DssParams,
    item: DataItemId,
    bytes: u64,
    window: Span,
    out: &mut Vec<LogicalIoRecord>,
) {
    if bytes == 0 {
        return;
    }
    let writes = (bytes / params.scan_io as u64).max(1);
    let reads = writes / 2;
    let wspan = window.len().mul_f64(0.5);
    let wstep = wspan / writes;
    let mut ts = window.start;
    for i in 0..writes {
        out.push(LogicalIoRecord {
            ts,
            item,
            offset: i * params.scan_io as u64,
            len: params.scan_io,
            kind: IoKind::Write,
        });
        ts += wstep;
    }
    if reads > 0 {
        let rspan = window.len().mul_f64(0.15);
        let rstep = rspan / reads;
        let mut ts = window.start + wspan;
        for i in 0..reads {
            out.push(LogicalIoRecord {
                ts,
                item,
                offset: i * params.scan_io as u64,
                len: params.scan_io,
                kind: IoKind::Read,
            });
            ts += rstep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{analyze_item_period, split_by_item};

    fn small() -> (Workload, Vec<QueryWindow>) {
        generate_with_schedule(5, &DssParams::scaled(0.05)) // ~18 min
    }

    #[test]
    fn catalog_shape_matches_table1_and_fig6_population() {
        let (w, schedule) = small();
        assert_eq!(w.name, "TPC-H");
        assert_eq!(w.num_enclosures, 9);
        // 1 log + 22 work + 7 tmp + 6 tables × 8 stripes = 78 items.
        assert_eq!(w.items.len(), 78);
        w.validate();
        assert_eq!(schedule.len(), 22);
        // The work device holds 30 items → 38.5 % of 78, Fig. 6's P2 share.
        let work_items = w
            .items
            .iter()
            .filter(|i| i.enclosure == EnclosureId(0))
            .count();
        assert_eq!(work_items, 30);
    }

    #[test]
    fn schedule_covers_the_run_in_order() {
        let (w, schedule) = small();
        assert_eq!(schedule[0].window.start, Micros::ZERO);
        for pair in schedule.windows(2) {
            assert!(pair[0].window.end <= pair[1].window.start);
        }
        assert!(schedule.last().unwrap().window.end <= w.duration);
        assert_eq!(schedule[1].name, "Q2");
        assert_eq!(schedule[6].name, "Q7");
        assert_eq!(schedule[20].name, "Q21");
    }

    #[test]
    fn fragments_classify_p1_and_work_files_p2_over_the_run() {
        let (w, _) = small();
        let by_item = split_by_item(w.trace.records());
        let period = Span {
            start: Micros::ZERO,
            end: w.duration,
        };
        let be = Micros::from_secs(52);
        let empty = Vec::new();
        let mut p1 = 0;
        let mut p2 = 0;
        let mut p3 = 0;
        for item in &w.items {
            let ios = by_item.get(&item.id).unwrap_or(&empty);
            let st = analyze_item_period(item.id, ios, period, be);
            if st.total_ios() == 0 {
                continue;
            }
            if st.long_intervals.is_empty() {
                p3 += 1;
            } else if st.reads * 2 > st.total_ios() {
                p1 += 1;
            } else {
                p2 += 1;
            }
        }
        assert_eq!(p3, 0, "no P3 items, matching Fig. 6 for TPC-H");
        assert!(p1 >= 40, "table fragments are P1 (got {p1})");
        assert!(p2 >= 20, "work files and log are P2 (got {p2})");
    }

    #[test]
    fn scans_touch_every_db_enclosure() {
        let (w, _) = small();
        let mut touched = std::collections::BTreeSet::new();
        for rec in w.trace.iter() {
            let item = w.item(rec.item).unwrap();
            if item.kind == ItemKind::Table {
                touched.insert(item.enclosure);
            }
        }
        assert_eq!(touched.len(), 8, "striping reaches all DB enclosures");
    }

    #[test]
    fn deterministic_under_seed() {
        let (a, _) = small();
        let (b, _) = small();
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.trace.records()[..20], b.trace.records()[..20]);
    }

    #[test]
    fn db_enclosures_idle_most_of_the_time() {
        // The compute gaps must leave the DB enclosures idle for most of
        // the run — the property behind the > 50 % savings of Fig. 14.
        // Needs a larger scale: at tiny scales the compute gaps shrink
        // below the 52 s break-even time.
        let (w, _) = generate_with_schedule(5, &DssParams::scaled(0.25));
        let mut table_ios: Vec<Micros> = w
            .trace
            .iter()
            .filter(|r| w.item(r.item).unwrap().kind == ItemKind::Table)
            .map(|r| r.ts)
            .collect();
        table_ios.sort();
        let be = Micros::from_secs(52);
        let long_total: u64 = table_ios
            .windows(2)
            .map(|p| (p[1] - p[0]).0)
            .filter(|&g| g > be.0)
            .sum();
        // Gap lengths scale with the query windows: at 0.25 scale only a
        // fraction of the compute gaps clear the 52 s break-even, at full
        // scale the clear majority do. Demand a conservative floor here.
        assert!(
            long_total > w.duration.0 / 10,
            "long gaps cover {} of {}",
            Micros(long_total),
            w.duration
        );
    }
}
