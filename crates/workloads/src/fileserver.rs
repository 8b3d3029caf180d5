//! The **File Server** workload: a seeded synthetic stand-in for the MSR
//! Cambridge production block traces the paper replays (Table I: 19.8 M
//! records over 6 h, 36 volumes spread across 12 disk enclosures).
//!
//! The generator reproduces the trace statistics the classifier and the
//! power policies actually consume:
//!
//! * **Per-volume activity phases.** Production file-server volumes
//!   alternate between active windows and long quiet windows (the
//!   observation behind MSR write off-loading). Volumes here switch
//!   between active windows (~10–40 min) and quiet windows (~50–150 min).
//! * **A small always-hot population.** ~10 % of items (one per volume:
//!   metadata/log-like files) are accessed continuously at high rate —
//!   the P3 population of Fig. 6 (9.9 %), and the reason no enclosure is
//!   ever idle at the physical level without re-placement (Fig. 2).
//! * **A read-burst majority.** ~90 % of items take bursty reads during
//!   their volume's active windows and only a sparse trickle of writes in
//!   quiet windows — the P1 population of Fig. 6 (89.6 %).
//! * **A couple of write-bursty items** (backup-target-like) — the ~0.5 %
//!   P2 sliver.

use crate::gen::{exp_duration, log_uniform_size, random_offset, uniform_duration};
use crate::spec::{DataItemSpec, ItemKind, Workload};
use ees_iotrace::{
    DataItemId, EnclosureId, IoKind, LogicalIoRecord, LogicalTrace, Micros, VolumeId, GIB, MIB,
};
use ees_simstorage::Access;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tunables of the File Server generator. Defaults follow Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileServerParams {
    /// Trace duration (Table I: 6 h).
    pub duration: Micros,
    /// Number of disk enclosures (Table I: 12).
    pub num_enclosures: u16,
    /// Volumes spread across the enclosures (Table I: 36).
    pub num_volumes: u16,
    /// File-group items per volume (one of them always-hot).
    pub items_per_volume: u16,
    /// Mean inter-arrival of one always-hot item's I/O.
    pub hot_mean_gap: Micros,
    /// Mean gap between read bursts of a regular item in an active window.
    pub burst_mean_gap: Micros,
    /// Mean gap between trickle writes of a regular item in a quiet window.
    pub trickle_mean_gap: Micros,
    /// Volumes (of `num_volumes`) that host an always-hot item. The MSR
    /// mapping leaves some enclosures without continuously hot data —
    /// those are the idle capacity the timeout-spin-down baselines can
    /// harvest without re-placement.
    pub hot_volumes: u16,
}

impl Default for FileServerParams {
    fn default() -> Self {
        FileServerParams {
            duration: Micros::from_secs(6 * 3600),
            num_enclosures: 12,
            num_volumes: 36,
            items_per_volume: 10,
            hot_mean_gap: Micros::from_millis(40),
            burst_mean_gap: Micros::from_secs(180),
            trickle_mean_gap: Micros::from_secs(900),
            hot_volumes: 30,
        }
    }
}

impl FileServerParams {
    /// Scales the duration by `scale` (intensities are per-second, so the
    /// record count scales along). Useful for tests and quick runs.
    pub fn scaled(scale: f64) -> Self {
        let mut p = Self::default();
        p.duration = p.duration.mul_f64(scale);
        p
    }
}

/// Generates the File Server workload.
pub fn generate(seed: u64, params: &FileServerParams) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF11E_5E4E);
    let duration = params.duration;
    let vols_per_enc =
        (params.num_volumes as usize).div_ceil(params.num_enclosures as usize) as u16;

    let mut items = Vec::new();
    let mut records: Vec<LogicalIoRecord> = Vec::new();
    let mut next_id = 0u32;

    for vol in 0..params.num_volumes {
        let enclosure = EnclosureId(vol / vols_per_enc);
        // Per-volume activity schedule: alternating active/quiet windows.
        let schedule = volume_schedule(&mut rng, duration);

        for slot in 0..params.items_per_volume {
            let id = DataItemId(next_id);
            next_id += 1;
            // Slot 0: the always-hot (P3) item. Two designated items in
            // the whole trace are write-bursty (P2); the rest are P1.
            // Slots 1-3: small, hot file groups (preload candidates);
            // slots 4+: bulk file groups that give the volumes their
            // multi-TB footprint (the MSR servers held terabytes).
            let role = if slot == 0 && vol < params.hot_volumes {
                Role::Hot
            } else if (vol == 0 || vol == params.num_volumes / 2) && slot == 1 {
                Role::WriteBursty
            } else if slot <= 3 {
                Role::SmallHot
            } else {
                Role::ReadBursty
            };
            let size = match role {
                Role::Hot => log_uniform_size(&mut rng, 200 * MIB, 3 * GIB / 2),
                Role::WriteBursty => log_uniform_size(&mut rng, 8 * GIB, 48 * GIB),
                Role::SmallHot => log_uniform_size(&mut rng, 16 * MIB, 256 * MIB),
                Role::ReadBursty => log_uniform_size(&mut rng, 12 * GIB, 80 * GIB),
            };
            items.push(DataItemSpec {
                id,
                name: format!("vol{vol:02}/{}", role.name(slot)),
                size,
                volume: VolumeId(vol),
                enclosure,
                kind: ItemKind::File,
                access: Access::Random,
            });
            match role {
                Role::Hot => gen_hot(&mut rng, id, size, duration, params, &mut records),
                Role::SmallHot => {
                    // Small hot file groups burst often: the reads-per-byte
                    // ranking of §IV.F puts them at the top, which is what
                    // makes the 500 MB preload partition effective.
                    let heat = (log_uniform_size(&mut rng, 15_000, 80_000) as f64) / 10_000.0;
                    let gap = Micros::from_secs_f64(params.burst_mean_gap.as_secs_f64() / heat);
                    gen_read_bursty(&mut rng, id, size, &schedule, gap, params, &mut records)
                }
                Role::ReadBursty => {
                    // Bulk file groups burst rarely.
                    let heat = (log_uniform_size(&mut rng, 2_000, 15_000) as f64) / 10_000.0;
                    let gap = Micros::from_secs_f64(params.burst_mean_gap.as_secs_f64() / heat);
                    gen_read_bursty(&mut rng, id, size, &schedule, gap, params, &mut records)
                }
                Role::WriteBursty => gen_write_bursty(&mut rng, id, size, duration, &mut records),
            }
        }
    }

    records.sort_by_key(|r| r.ts);
    Workload {
        name: "File Server",
        duration,
        num_enclosures: params.num_enclosures,
        items,
        trace: LogicalTrace::from_unsorted(records),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Hot,
    SmallHot,
    ReadBursty,
    WriteBursty,
}

impl Role {
    fn name(self, slot: u16) -> String {
        match self {
            Role::Hot => "hotmeta".to_string(),
            Role::SmallHot => format!("hotfiles{slot:02}"),
            Role::ReadBursty => format!("group{slot:02}"),
            Role::WriteBursty => "backup".to_string(),
        }
    }
}

/// Active windows of a volume as `(start, end)` spans.
fn volume_schedule(rng: &mut SmallRng, duration: Micros) -> Vec<(Micros, Micros)> {
    let mut windows = Vec::new();
    // Random initial phase: some volumes start mid-quiet.
    let mut t = if rng.gen_bool(0.3) {
        Micros::ZERO
    } else {
        uniform_duration(rng, Micros::ZERO, Micros::from_secs(5400))
    };
    while t < duration {
        let active = uniform_duration(rng, Micros::from_secs(600), Micros::from_secs(2400));
        let end = (t + active).min(duration);
        windows.push((t, end));
        let quiet = uniform_duration(rng, Micros::from_secs(3000), Micros::from_secs(9000));
        t = end + quiet;
    }
    windows
}

/// The always-hot item: Poisson arrivals at high rate, 85 % reads.
fn gen_hot(
    rng: &mut SmallRng,
    id: DataItemId,
    size: u64,
    duration: Micros,
    params: &FileServerParams,
    out: &mut Vec<LogicalIoRecord>,
) {
    let mut t = exp_duration(rng, params.hot_mean_gap);
    while t < duration {
        let kind = if rng.gen_bool(0.85) {
            IoKind::Read
        } else {
            IoKind::Write
        };
        let len = *[4096u32, 8192, 16384, 65536]
            .get(rng.gen_range(0..4usize))
            .unwrap();
        out.push(LogicalIoRecord {
            ts: t,
            item: id,
            offset: random_offset(rng, size, len),
            len,
            kind,
        });
        t += exp_duration(rng, params.hot_mean_gap);
    }
}

/// A regular file group: read bursts in active windows, write trickle in
/// quiet windows.
fn gen_read_bursty(
    rng: &mut SmallRng,
    id: DataItemId,
    size: u64,
    schedule: &[(Micros, Micros)],
    burst_gap: Micros,
    params: &FileServerParams,
    out: &mut Vec<LogicalIoRecord>,
) {
    // Bursts inside active windows.
    for &(start, end) in schedule {
        let mut t = start + exp_duration(rng, burst_gap);
        while t < end {
            let burst_len = rng.gen_range(8..60);
            let mut bt = t;
            for _ in 0..burst_len {
                if bt >= end {
                    break;
                }
                let kind = if rng.gen_bool(0.92) {
                    IoKind::Read
                } else {
                    IoKind::Write
                };
                let len = *[4096u32, 16384, 65536]
                    .get(rng.gen_range(0..3usize))
                    .unwrap();
                out.push(LogicalIoRecord {
                    ts: bt,
                    item: id,
                    offset: random_offset(rng, size, len),
                    len,
                    kind,
                });
                bt += Micros(rng.gen_range(5_000..80_000));
            }
            t = bt + exp_duration(rng, burst_gap);
        }
    }
    // Write trickle in the quiet stretches between active windows.
    let mut quiet_spans = Vec::new();
    let mut prev_end = Micros::ZERO;
    for &(start, end) in schedule {
        if start > prev_end {
            quiet_spans.push((prev_end, start));
        }
        prev_end = end;
    }
    for (start, end) in quiet_spans {
        let mut t = start + exp_duration(rng, params.trickle_mean_gap);
        while t < end {
            out.push(LogicalIoRecord {
                ts: t,
                item: id,
                offset: random_offset(rng, size, 8192),
                len: 8192,
                kind: IoKind::Write,
            });
            t += exp_duration(rng, params.trickle_mean_gap);
        }
    }
}

/// A backup-target-like item: write bursts separated by long gaps.
fn gen_write_bursty(
    rng: &mut SmallRng,
    id: DataItemId,
    size: u64,
    duration: Micros,
    out: &mut Vec<LogicalIoRecord>,
) {
    let mut t = exp_duration(rng, Micros::from_secs(600));
    while t < duration {
        let burst_len = rng.gen_range(50..200);
        let mut bt = t;
        for _ in 0..burst_len {
            if bt >= duration {
                break;
            }
            let kind = if rng.gen_bool(0.05) {
                IoKind::Read
            } else {
                IoKind::Write
            };
            out.push(LogicalIoRecord {
                ts: bt,
                item: id,
                offset: random_offset(rng, size, 65536),
                len: 65536,
                kind,
            });
            bt += Micros(rng.gen_range(2_000..30_000));
        }
        t = bt + exp_duration(rng, Micros::from_secs(600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{analyze_item_period, split_by_item, Span};

    fn small() -> Workload {
        // ~5 simulated minutes keeps the test fast while exercising
        // several activity windows.
        let p = FileServerParams {
            duration: Micros::from_secs(2400),
            ..Default::default()
        };
        generate(7, &p)
    }

    #[test]
    fn catalog_shape_matches_table1() {
        let w = small();
        assert_eq!(w.name, "File Server");
        assert_eq!(w.num_enclosures, 12);
        assert_eq!(w.items.len(), 360);
        w.validate();
        // 36 volumes × items_per_volume, 3 volumes per enclosure.
        let on_enc0 = w
            .items
            .iter()
            .filter(|i| i.enclosure == EnclosureId(0))
            .count();
        assert_eq!(on_enc0, 30);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.trace.records()[..50], b.trace.records()[..50]);
        let c = generate(
            8,
            &FileServerParams {
                duration: Micros::from_secs(2400),
                ..Default::default()
            },
        );
        assert_ne!(a.trace.len(), c.trace.len());
    }

    #[test]
    fn hot_items_dominate_record_count() {
        let w = small();
        let by_item = split_by_item(w.trace.records());
        let hot_records: usize = w
            .items
            .iter()
            .filter(|i| i.name.contains("hotmeta"))
            .map(|i| by_item.get(&i.id).map_or(0, |v| v.len()))
            .sum();
        assert!(
            hot_records * 10 > w.trace.len() * 7,
            "hot items should carry most of the I/O: {hot_records}/{}",
            w.trace.len()
        );
    }

    #[test]
    fn whole_run_classification_approximates_fig6() {
        // Use a longer window so quiet phases show up.
        let p = FileServerParams {
            duration: Micros::from_secs(7200),
            ..Default::default()
        };
        let w = generate(11, &p);
        let by_item = split_by_item(w.trace.records());
        let period = Span {
            start: Micros::ZERO,
            end: w.duration,
        };
        let be = Micros::from_secs(52);
        let empty = Vec::new();
        let mut p1 = 0;
        let mut p3 = 0;
        let mut total = 0;
        for item in &w.items {
            let ios = by_item.get(&item.id).unwrap_or(&empty);
            let st = analyze_item_period(item.id, ios, period, be);
            total += 1;
            if st.long_intervals.is_empty() && st.total_ios() > 0 {
                p3 += 1;
            } else if st.total_ios() > 0 && st.reads * 2 > st.total_ios() {
                p1 += 1;
            }
        }
        let p3_pct = p3 as f64 * 100.0 / total as f64;
        let p1_pct = p1 as f64 * 100.0 / total as f64;
        assert!(
            (8.0..14.0).contains(&p3_pct),
            "P3 share {p3_pct}% should approximate the paper's 9.9 %"
        );
        assert!(
            p1_pct > 75.0,
            "P1 share {p1_pct}% should dominate like the paper's 89.6 %"
        );
    }

    #[test]
    fn average_iops_in_paper_ballpark() {
        let w = small();
        let iops = w.trace.len() as f64 / w.duration.as_secs_f64();
        // Paper: 19.8 M records / 6 h ≈ 917 IOPS. Allow a wide band.
        assert!(
            (500.0..1500.0).contains(&iops),
            "average IOPS {iops} out of band"
        );
    }

    #[test]
    fn trace_is_sorted_and_in_range() {
        let w = small();
        let recs = w.trace.records();
        assert!(recs.windows(2).all(|p| p[0].ts <= p[1].ts));
        assert!(recs.iter().all(|r| r.ts < w.duration));
        // Offsets stay within each item.
        for r in recs.iter().take(5000) {
            let item = w.item(r.item).unwrap();
            assert!(r.offset + r.len as u64 <= item.size.max(r.len as u64));
        }
    }
}
