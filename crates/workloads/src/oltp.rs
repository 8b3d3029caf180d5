//! The **OLTP** workload: a TPC-C-shaped logical I/O generator matching
//! the paper's Table I configuration (5000 warehouses ≈ 500 GB of data,
//! 1000 threads with zero think time, 1.8 h duration, log on one storage
//! device and the database hash-distributed over nine).
//!
//! What matters to the power policies is reproduced:
//!
//! * **Random I/O at sustained high rate** to the big tables and indexes —
//!   every fragment is touched many times a minute, so they classify P3
//!   (76.2 % of items in Fig. 6) and keep all nine DB enclosures above
//!   DDR's LowTH (the paper: "DDR could not find any cold disk
//!   enclosures").
//! * **Second-scale burstiness.** The offered load wanders between ~0.55×
//!   and ~2.1× of its mean, so the *peak* P3 IOPS (`I_max`) that sizes the
//!   hot set is roughly double the average — the paper's method keeps
//!   headroom on hot enclosures this way.
//! * **A cached, read-mostly minority.** The warehouse/district/item-table
//!   fragments live in the DBMS buffer pool and only produce occasional
//!   read bursts plus rare checkpoint writes — the P1 population (23.3 %)
//!   that the proposed method preloads.
//! * **A sequential log stream** (group commits every ~4 ms, keeping the
//!   log device above DDR's LowTH — the paper's DDR "could not find any
//!   cold disk enclosures" on TPC-C).

use crate::gen::{block_align, exp_duration, random_offset};
use crate::nurand::NuRand;
use crate::spec::{DataItemSpec, ItemKind, Workload};
use ees_iotrace::{
    DataItemId, EnclosureId, IoKind, LogicalIoRecord, LogicalTrace, Micros, VolumeId, GIB, MIB,
};
use ees_simstorage::Access;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tunables of the OLTP generator. Defaults follow Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OltpParams {
    /// Trace duration (Table I: 1.8 h).
    pub duration: Micros,
    /// DB enclosures; the log gets its own device, so the workload uses
    /// `db_enclosures + 1` enclosures in total (Table I: 1 + 9).
    pub db_enclosures: u16,
    /// Mean total random IOPS across the database.
    pub mean_iops: f64,
    /// Log group-commit interval.
    pub log_commit_gap: Micros,
}

impl Default for OltpParams {
    fn default() -> Self {
        OltpParams {
            duration: Micros::from_secs(6480),
            db_enclosures: 9,
            mean_iops: 2700.0,
            log_commit_gap: Micros::from_millis(4),
        }
    }
}

impl OltpParams {
    /// Scales the duration by `scale`.
    pub fn scaled(scale: f64) -> Self {
        let mut p = Self::default();
        p.duration = p.duration.mul_f64(scale);
        p
    }
}

/// One table/index family hash-distributed across the DB enclosures:
/// `(name, per-fragment bytes, share of random I/O, read ratio, kind)`.
const FAMILIES: &[(&str, u64, f64, f64, ItemKind)] = &[
    // The buffer-pool-resident trio: no share of the random-I/O stream
    // (they get dedicated burst generators), read-mostly → P1.
    ("warehouse", 4 * MIB, 0.0, 0.9, ItemKind::Table),
    ("district", 8 * MIB, 0.0, 0.9, ItemKind::Table),
    ("item_table", 40 * MIB, 0.0, 0.95, ItemKind::Table),
    // The P3 mass.
    ("stock", 15 * GIB, 0.30, 0.60, ItemKind::Table),
    ("order_line", 10 * GIB, 0.22, 0.35, ItemKind::Table),
    ("customer", 10 * GIB, 0.18, 0.70, ItemKind::Table),
    ("orders", 4 * GIB, 0.08, 0.50, ItemKind::Table),
    ("new_order", GIB, 0.05, 0.45, ItemKind::Table),
    ("history", 3 * GIB / 2, 0.04, 0.05, ItemKind::Table),
    ("idx_stock", 2 * GIB, 0.05, 0.60, ItemKind::Index),
    ("idx_customer", 3 * GIB / 2, 0.04, 0.65, ItemKind::Index),
    ("idx_orders", 4 * GIB / 5, 0.02, 0.60, ItemKind::Index),
    ("idx_order_line", 3 * GIB / 2, 0.02, 0.55, ItemKind::Index),
];

/// Generates the OLTP workload.
pub fn generate(seed: u64, params: &OltpParams) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0717_C0C0);
    let duration = params.duration;
    let num_enclosures = params.db_enclosures + 1;

    // Catalog: the log on enclosure 0, fragments on 1..=db_enclosures.
    let mut items = Vec::new();
    let mut next_id = 0u32;
    let log_id = DataItemId(next_id);
    next_id += 1;
    items.push(DataItemSpec {
        id: log_id,
        name: "wal".to_string(),
        size: 4 * GIB,
        volume: VolumeId(0),
        enclosure: EnclosureId(0),
        kind: ItemKind::Log,
        access: Access::Sequential,
    });

    // fragment_ids[family][enclosure-1]
    let mut fragment_ids: Vec<Vec<DataItemId>> = Vec::with_capacity(FAMILIES.len());
    for (fi, &(name, size, _, _, kind)) in FAMILIES.iter().enumerate() {
        let mut ids = Vec::with_capacity(params.db_enclosures as usize);
        for e in 0..params.db_enclosures {
            let id = DataItemId(next_id);
            next_id += 1;
            ids.push(id);
            items.push(DataItemSpec {
                id,
                name: format!("{name}.{e}"),
                size,
                volume: VolumeId(e + 1),
                enclosure: EnclosureId(e + 1),
                kind,
                access: Access::Random,
            });
        }
        fragment_ids.push(ids);
        let _ = fi;
    }

    let mut records: Vec<LogicalIoRecord> = Vec::new();

    // --- The random-I/O stream over the P3 families. ---
    // Cumulative distribution over (family, weight).
    let weighted: Vec<(usize, f64)> = FAMILIES
        .iter()
        .enumerate()
        .filter(|(_, f)| f.2 > 0.0)
        .map(|(i, f)| (i, f.2))
        .collect();
    let total_w: f64 = weighted.iter().map(|w| w.1).sum();

    // Second-scale load: a calm multiplicative random walk plus short
    // (1-3 s) spikes to ~2.2x roughly once a minute. The spikes set the
    // one-second peak I_max that sizes the hot set (§IV.C) well above the
    // average, giving the consolidated layout headroom, while being brief
    // enough that the transient queue drains in moments.
    // Record-level skew within each fragment (TPC-C's NURand, clause
    // 2.1.6): hot rows exist inside every fragment, as the hot-warehouse
    // skew of a real run would produce.
    let nurand = NuRand::new(8191, &mut rng);
    let mut factor = 1.0f64;
    let mut spike_left: u32 = 0;
    let seconds = duration.0.div_ceil(1_000_000);
    for s in 0..seconds {
        factor *= 1.0 + rng.gen_range(-0.06..0.06);
        factor = factor.clamp(0.85, 1.15);
        if spike_left == 0 && rng.gen_bool(1.0 / 45.0) {
            spike_left = rng.gen_range(1..4);
        }
        let eff = if spike_left > 0 {
            spike_left -= 1;
            factor * rng.gen_range(2.0..2.3)
        } else {
            factor
        };
        let n = (params.mean_iops * eff).round() as usize;
        for _ in 0..n {
            let ts = Micros(s * 1_000_000 + rng.gen_range(0..1_000_000u64));
            if ts >= duration {
                continue;
            }
            // Pick a family by weight, then a fragment uniformly (hash
            // distribution spreads keys evenly).
            let mut pick = rng.gen_range(0.0..total_w);
            let mut fam = weighted[0].0;
            for &(i, w) in &weighted {
                if pick < w {
                    fam = i;
                    break;
                }
                pick -= w;
            }
            let frag = rng.gen_range(0..params.db_enclosures) as usize;
            let (_, size, _, read_ratio, _) = FAMILIES[fam];
            let kind = if rng.gen_bool(read_ratio) {
                IoKind::Read
            } else {
                IoKind::Write
            };
            let blocks = (size / 8192).max(1);
            let offset = block_align(nurand.next(&mut rng, 0, blocks - 1) * 8192);
            records.push(LogicalIoRecord {
                ts,
                item: fragment_ids[fam][frag],
                offset: offset.min(size.saturating_sub(8192)),
                len: 8192,
                kind,
            });
        }
    }

    // --- The buffer-pool trio: read bursts + rare checkpoint writes. ---
    for fam in 0..3 {
        let (_, size, _, _, _) = FAMILIES[fam];
        for &id in fragment_ids[fam].iter().take(params.db_enclosures as usize) {
            // Read bursts roughly every 4 minutes.
            let mut t = exp_duration(&mut rng, Micros::from_secs(240));
            while t < duration {
                let burst = rng.gen_range(8..32);
                let mut bt = t;
                for _ in 0..burst {
                    if bt >= duration {
                        break;
                    }
                    records.push(LogicalIoRecord {
                        ts: bt,
                        item: id,
                        offset: random_offset(&mut rng, size, 8192),
                        len: 8192,
                        kind: IoKind::Read,
                    });
                    bt += Micros(rng.gen_range(2_000..40_000));
                }
                t = bt + exp_duration(&mut rng, Micros::from_secs(240));
            }
            // Checkpoint writes roughly every 10 minutes.
            let mut t = exp_duration(&mut rng, Micros::from_secs(600));
            while t < duration {
                for _ in 0..rng.gen_range(1..5) {
                    records.push(LogicalIoRecord {
                        ts: t,
                        item: id,
                        offset: random_offset(&mut rng, size, 8192),
                        len: 8192,
                        kind: IoKind::Write,
                    });
                }
                t += exp_duration(&mut rng, Micros::from_secs(600));
            }
        }
    }

    // --- The log: sequential group commits. ---
    let log_size = 4 * GIB;
    let mut t = Micros::ZERO;
    let mut log_pos: u64 = 0;
    while t < duration {
        records.push(LogicalIoRecord {
            ts: t,
            item: log_id,
            offset: log_pos % log_size,
            len: 65536,
            kind: IoKind::Write,
        });
        log_pos += 65536;
        t += exp_duration(&mut rng, params.log_commit_gap);
    }

    records.sort_by_key(|r| r.ts);
    Workload {
        name: "TPC-C",
        duration,
        num_enclosures,
        items,
        trace: LogicalTrace::from_unsorted(records),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{analyze_item_period, split_by_item, Span};

    fn small() -> Workload {
        let p = OltpParams {
            duration: Micros::from_secs(600),
            mean_iops: 400.0, // keep the test trace small
            ..Default::default()
        };
        generate(3, &p)
    }

    #[test]
    fn catalog_shape_matches_table1() {
        let w = small();
        assert_eq!(w.name, "TPC-C");
        assert_eq!(w.num_enclosures, 10);
        // 13 families × 9 fragments + 1 log = 118 items.
        assert_eq!(w.items.len(), 118);
        w.validate();
        // The log is alone on enclosure 0.
        let on_log_dev: Vec<_> = w
            .items
            .iter()
            .filter(|i| i.enclosure == EnclosureId(0))
            .collect();
        assert_eq!(on_log_dev.len(), 1);
        assert_eq!(on_log_dev[0].kind, ItemKind::Log);
        // Total data in the 500 GB ballpark of Table I.
        let total = w.total_data_bytes();
        assert!(
            (400 * GIB..600 * GIB).contains(&total),
            "total {total} bytes"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.trace.records()[..20], b.trace.records()[..20]);
    }

    #[test]
    fn p3_majority_and_p1_minority_like_fig6() {
        let w = small();
        let by_item = split_by_item(w.trace.records());
        let period = Span {
            start: Micros::ZERO,
            end: w.duration,
        };
        let be = Micros::from_secs(52);
        let empty = Vec::new();
        let mut p3 = 0;
        let mut p1 = 0;
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
            }
        }
        let total = w.items.len() as f64;
        let p3_pct = p3 as f64 * 100.0 / total;
        let p1_pct = p1 as f64 * 100.0 / total;
        // Paper: 76.2 % P3, 23.3 % P1.
        assert!(
            (60.0..90.0).contains(&p3_pct),
            "P3 share {p3_pct}% should dominate"
        );
        assert!(
            p1_pct > 10.0,
            "P1 share {p1_pct}% should be a real minority"
        );
    }

    #[test]
    fn load_is_bursty_at_second_scale() {
        let w = small();
        let series = ees_iotrace::IopsSeries::from_timestamps(
            w.trace.iter().map(|r| r.ts),
            Span {
                start: Micros::ZERO,
                end: w.duration,
            },
        );
        let peak = series.max() as f64;
        let mean = series.mean();
        assert!(
            peak / mean > 1.3,
            "peak/mean {peak}/{mean} should show burstiness"
        );
    }

    #[test]
    fn log_is_sequential_writes() {
        let w = small();
        let log = w.items.iter().find(|i| i.kind == ItemKind::Log).unwrap();
        assert_eq!(log.access, Access::Sequential);
        let by_item = split_by_item(w.trace.records());
        let log_ios = &by_item[&log.id];
        assert!(log_ios.iter().all(|r| r.kind == IoKind::Write));
        assert!(log_ios.len() > 1000, "commits every ~4 ms");
        // Offsets advance monotonically (modulo wrap).
        let increasing = log_ios
            .windows(2)
            .filter(|w| w[1].offset > w[0].offset)
            .count();
        assert!(increasing * 10 > log_ios.len() * 9);
    }

    #[test]
    fn mean_iops_close_to_target() {
        let w = small();
        let iops = w.trace.len() as f64 / w.duration.as_secs_f64();
        // 400 requested for the DB stream + ~100 log commits.
        assert!(
            (350.0..700.0).contains(&iops),
            "average IOPS {iops} out of band"
        );
    }
}
