//! The **Cloud Block** workload: a seeded synthetic stand-in for the
//! Alibaba cloud-block-storage traces analysed in the in-depth
//! comparative study referenced by PAPERS.md. The published statistics
//! the generator reproduces, and the knob each maps to:
//!
//! * **Write-dominant volumes.** Most cloud-block volumes see more
//!   writes than reads (unlike the read-heavy MSR file servers);
//!   [`CloudBlockParams::write_dominant_frac`] of volumes draw a low
//!   read ratio, the rest are read-heavy.
//! * **Extreme burstiness.** Volume traffic is on/off: short active
//!   bursts separated by long idle stretches ([`CloudBlockParams::
//!   on_mean`] / [`CloudBlockParams::off_mean`] exponential windows,
//!   arrivals only while on). The long off windows are exactly the Long
//!   Intervals the paper's classifier feeds on.
//! * **Diurnal + weekly cycles.** Arrival rates are modulated by a
//!   sinusoidal day/week envelope ([`CloudBlockParams::diurnal_amp`],
//!   [`CloudBlockParams::weekly_amp`]) with per-tenant phase, applied by
//!   thinning so per-volume streams stay independently seeded. The
//!   simulated day length is a knob ([`CloudBlockParams::day`], default
//!   one hour) so an accelerated-clock endurance run covers many "days".
//! * **Heavy tenant skew.** Volumes belong to tenants drawn from a
//!   Zipf-like distribution ([`CloudBlockParams::tenant_skew`]); a few
//!   tenants own most volumes, as in the trace study.
//!
//! Volume counts scale to 1M+ ([`CloudBlockParams::num_volumes`] is
//! `u32`): every volume's stream is generated from its own
//! splitmix-derived rng, so [`stream`] can k-way-merge a million
//! independent volume generators without materializing the trace, and
//! [`generate`] (the collected [`Workload`] path) is record-for-record
//! identical to the merge.

use crate::gen::{exp_duration, log_uniform_size, random_offset};
use crate::nurand::WeightedPick;
use crate::rng::{mix, SplitMix64};
use crate::spec::{DataItemSpec, ItemKind, Workload};
use ees_iotrace::{
    DataItemId, EnclosureId, IoKind, LogicalIoRecord, LogicalTrace, Micros, VolumeId, GIB, MIB,
};
use ees_simstorage::Access;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tunables of the Cloud Block generator. Defaults model one simulated
/// week (at the accelerated one-hour "day") of a modest 96-volume slice;
/// scale `num_volumes` up for stress runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudBlockParams {
    /// Trace duration (default: one simulated week, 7 × `day`).
    pub duration: Micros,
    /// Number of disk enclosures.
    pub num_enclosures: u16,
    /// Number of block volumes (one data item each). Scales to 1M+.
    pub num_volumes: u32,
    /// Number of tenants volumes are skewed across.
    pub num_tenants: u32,
    /// Zipf exponent of the tenant-ownership distribution (> 0; larger
    /// means fewer tenants own more of the volumes).
    pub tenant_skew: f64,
    /// Fraction of volumes that are write-dominant (Alibaba: ~0.8).
    pub write_dominant_frac: f64,
    /// Mean inter-arrival inside an on-window for a heat-1.0 volume.
    pub burst_mean_gap: Micros,
    /// Mean length of a volume's on (bursting) window.
    pub on_mean: Micros,
    /// Mean length of a volume's off (idle) window.
    pub off_mean: Micros,
    /// Diurnal rate-envelope amplitude in `[0, 1)`.
    pub diurnal_amp: f64,
    /// Weekly rate-envelope amplitude in `[0, 1)`.
    pub weekly_amp: f64,
    /// Simulated length of one modeled day. The default compresses a
    /// day into an hour so endurance runs sweep whole weeks of cycle
    /// structure in hours of simulated time.
    pub day: Micros,
}

impl Default for CloudBlockParams {
    fn default() -> Self {
        CloudBlockParams {
            duration: Micros::from_secs(7 * 3600),
            num_enclosures: 12,
            num_volumes: 96,
            num_tenants: 12,
            tenant_skew: 1.2,
            write_dominant_frac: 0.78,
            burst_mean_gap: Micros::from_millis(500),
            on_mean: Micros::from_secs(120),
            off_mean: Micros::from_secs(1800),
            diurnal_amp: 0.6,
            weekly_amp: 0.25,
            day: Micros::from_secs(3600),
        }
    }
}

impl CloudBlockParams {
    /// Scales the duration by `scale` (rates are per-second, so the
    /// record count scales along). Useful for tests and quick runs.
    pub fn scaled(scale: f64) -> Self {
        let mut p = Self::default();
        p.duration = p.duration.mul_f64(scale);
        p
    }

    /// Panics on nonsense parameter combinations; called by the
    /// generator entry points.
    fn check(&self) {
        assert!(self.num_enclosures > 0, "need at least one enclosure");
        assert!(self.num_volumes > 0, "need at least one volume");
        assert!(self.num_tenants > 0, "need at least one tenant");
        assert!(self.tenant_skew > 0.0, "tenant_skew must be positive");
        assert!(
            (0.0..=1.0).contains(&self.write_dominant_frac),
            "write_dominant_frac must be a fraction"
        );
        assert!(
            (0.0..1.0).contains(&self.diurnal_amp) && (0.0..1.0).contains(&self.weekly_amp),
            "envelope amplitudes must be in [0, 1)"
        );
        assert!(self.day > Micros::ZERO, "day must be positive");
        assert!(
            self.burst_mean_gap > Micros::ZERO
                && self.on_mean > Micros::ZERO
                && self.off_mean > Micros::ZERO,
            "gap and window means must be positive"
        );
    }

    /// Per-volume size budget: volumes are sized so the whole catalog
    /// fills about a third of the unit's capacity, leaving the headroom
    /// hot/cold consolidation migrations need.
    fn size_budget(&self) -> u64 {
        // ams2500 enclosures hold 1.7 TB each (see ees-simstorage).
        let capacity = 1_700 * 1_000 * 1_000 * 1_000u64 * self.num_enclosures as u64;
        (capacity * 35 / 100) / self.num_volumes as u64
    }
}

/// Everything shared by all volume generators of one `(seed, params)`
/// pair.
struct Model {
    params: CloudBlockParams,
    tenants: WeightedPick,
}

impl Model {
    fn new(params: &CloudBlockParams) -> Self {
        params.check();
        let weights: Vec<f64> = (0..params.num_tenants)
            .map(|k| 1.0 / ((k + 1) as f64).powf(params.tenant_skew))
            .collect();
        Model {
            params: *params,
            tenants: WeightedPick::new(&weights),
        }
    }
}

/// Splitmix64-style per-volume seed derivation: volume streams are
/// independent of each other and of the volume count.
fn volume_seed(seed: u64, vol: u32) -> u64 {
    mix((seed ^ 0xC10D_B10C_0000_0000)
        .wrapping_add((vol as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The day/week rate envelope for a tenant at time `t`, in
/// `(0, env_max]`.
fn envelope(p: &CloudBlockParams, tenant: u32, t: Micros) -> f64 {
    let tau = std::f64::consts::TAU;
    let phase = tau * tenant as f64 / p.num_tenants.max(1) as f64;
    let d = t.as_secs_f64() / p.day.as_secs_f64();
    let daily = 1.0 + p.diurnal_amp * (tau * d + phase).sin();
    let weekly = 1.0 + p.weekly_amp * (tau * d / 7.0 + 0.5 * phase).sin();
    daily * weekly
}

fn envelope_max(p: &CloudBlockParams) -> f64 {
    (1.0 + p.diurnal_amp) * (1.0 + p.weekly_amp)
}

/// One volume's deterministic event stream (strictly increasing
/// timestamps) plus its catalog entry.
struct VolumeGen {
    rng: SplitMix64,
    spec: DataItemSpec,
    tenant: u32,
    read_ratio: f64,
    gap_on: Micros,
    /// Currently inside an on-window?
    on: bool,
    /// While on: the window's end. While off: the next window's start.
    window_edge: Micros,
    t: Micros,
}

impl VolumeGen {
    fn new(seed: u64, vol: u32, model: &Model) -> Self {
        let p = &model.params;
        let mut rng = SplitMix64::new(volume_seed(seed, vol));
        let tenant = model.tenants.pick(&mut rng) as u32;
        // Heavy-tailed per-volume intensity: a 25x spread of "heat".
        let heat = (log_uniform_size(&mut rng, 2_000, 50_000) as f64) / 10_000.0;
        let write_dominant = rng.gen_bool(p.write_dominant_frac);
        let read_ratio = if write_dominant {
            rng.gen_range(0.05..0.35)
        } else {
            rng.gen_range(0.55..0.95)
        };
        let budget = p.size_budget();
        let size = log_uniform_size(&mut rng, (budget / 6).max(4 * MIB / 4), budget.max(2 * MIB))
            .clamp(MIB, 400 * GIB);
        let spec = DataItemSpec {
            id: DataItemId(vol),
            name: format!("t{tenant:02}/vol{vol:06}"),
            size,
            volume: VolumeId((vol % u16::MAX as u32) as u16),
            enclosure: EnclosureId((vol % p.num_enclosures as u32) as u16),
            kind: ItemKind::File,
            access: Access::Random,
        };
        // Random initial phase in the on/off cycle: volumes do not burst
        // in lockstep.
        let first_on = exp_duration(&mut rng, p.off_mean);
        VolumeGen {
            rng,
            spec,
            tenant,
            read_ratio,
            gap_on: Micros::from_secs_f64(p.burst_mean_gap.as_secs_f64() / heat),
            on: false,
            window_edge: first_on,
            t: Micros::ZERO,
        }
    }

    fn next_record(&mut self, p: &CloudBlockParams, env_max: f64) -> Option<LogicalIoRecord> {
        loop {
            if !self.on {
                // Jump to the start of the next on-window.
                self.t = self.window_edge;
                if self.t >= p.duration {
                    return None;
                }
                self.on = true;
                self.window_edge = self.t + exp_duration(&mut self.rng, p.on_mean).max(Micros(1));
                continue;
            }
            let cand = self.t + exp_duration(&mut self.rng, self.gap_on).max(Micros(1));
            if cand >= self.window_edge {
                // Window exhausted: the next window starts an off-gap
                // after this one ended.
                self.on = false;
                self.window_edge += exp_duration(&mut self.rng, p.off_mean).max(Micros(1));
                continue;
            }
            self.t = cand;
            if self.t >= p.duration {
                return None;
            }
            // Thinning: accept candidates in proportion to the tenant's
            // day/week envelope, preserving per-volume determinism.
            let accept = envelope(p, self.tenant, self.t) / env_max;
            if self.rng.gen_range(0.0..1.0) >= accept {
                continue;
            }
            let kind = if self.rng.gen_bool(self.read_ratio) {
                IoKind::Read
            } else {
                IoKind::Write
            };
            let len = *[4096u32, 16384, 65536, 262144]
                .get(self.rng.gen_range(0..4usize))
                .unwrap();
            return Some(LogicalIoRecord {
                ts: self.t,
                item: self.spec.id,
                offset: random_offset(&mut self.rng, self.spec.size, len),
                len,
                kind,
            });
        }
    }
}

/// The item catalog alone — what the streaming path needs up front.
pub fn catalog(seed: u64, params: &CloudBlockParams) -> Vec<DataItemSpec> {
    let model = Model::new(params);
    (0..params.num_volumes)
        .map(|v| VolumeGen::new(seed, v, &model).spec)
        .collect()
}

/// A timestamp-ordered streaming merge of all volume generators. Memory
/// is O(volumes), not O(records), so million-volume configurations
/// stream without materializing a trace.
pub struct CloudBlockStream {
    params: CloudBlockParams,
    env_max: f64,
    vols: Vec<VolumeGen>,
    /// Min-heap on `(ts, item)` — timestamps are strictly increasing per
    /// volume and items are distinct, so the key is unique and the merge
    /// order total.
    heap: BinaryHeap<Reverse<(Micros, DataItemId, u32)>>,
    staged: Vec<Option<LogicalIoRecord>>,
}

impl CloudBlockStream {
    fn new(seed: u64, params: &CloudBlockParams) -> Self {
        let model = Model::new(params);
        let env_max = envelope_max(params);
        let mut vols: Vec<VolumeGen> = (0..params.num_volumes)
            .map(|v| VolumeGen::new(seed, v, &model))
            .collect();
        let mut heap = BinaryHeap::with_capacity(vols.len());
        let mut staged = Vec::with_capacity(vols.len());
        for (i, vg) in vols.iter_mut().enumerate() {
            let rec = vg.next_record(&model.params, env_max);
            if let Some(r) = &rec {
                heap.push(Reverse((r.ts, r.item, i as u32)));
            }
            staged.push(rec);
        }
        CloudBlockStream {
            params: *params,
            env_max,
            vols,
            heap,
            staged,
        }
    }

    /// The catalog entry of every volume, in volume order.
    pub fn items(&self) -> Vec<DataItemSpec> {
        self.vols.iter().map(|v| v.spec.clone()).collect()
    }
}

impl Iterator for CloudBlockStream {
    type Item = LogicalIoRecord;

    fn next(&mut self) -> Option<LogicalIoRecord> {
        let Reverse((_, _, vol)) = self.heap.pop()?;
        let out = self.staged[vol as usize].take().expect("staged record");
        let next = self.vols[vol as usize].next_record(&self.params, self.env_max);
        if let Some(r) = &next {
            self.heap.push(Reverse((r.ts, r.item, vol)));
        }
        self.staged[vol as usize] = next;
        Some(out)
    }
}

/// Opens the streaming generator.
pub fn stream(seed: u64, params: &CloudBlockParams) -> CloudBlockStream {
    CloudBlockStream::new(seed, params)
}

/// Generates the Cloud Block workload as a collected [`Workload`] —
/// record-for-record identical to draining [`stream`].
pub fn generate(seed: u64, params: &CloudBlockParams) -> Workload {
    let mut s = stream(seed, params);
    let items = s.items();
    let records: Vec<LogicalIoRecord> = s.by_ref().collect();
    Workload {
        name: "Cloud Block",
        duration: params.duration,
        num_enclosures: params.num_enclosures,
        items,
        trace: LogicalTrace::from_unsorted(records),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small() -> CloudBlockParams {
        CloudBlockParams {
            duration: Micros::from_secs(3600),
            num_volumes: 48,
            num_tenants: 8,
            ..Default::default()
        }
    }

    #[test]
    fn catalog_shape_and_validity() {
        let w = generate(7, &small());
        assert_eq!(w.name, "Cloud Block");
        assert_eq!(w.items.len(), 48);
        w.validate();
        // Catalog leaves migration headroom: well under half the unit.
        let capacity = 1_700_000_000_000u64 * w.num_enclosures as u64;
        assert!(w.total_data_bytes() < capacity / 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(7, &small());
        let b = generate(7, &small());
        assert_eq!(a.trace.records(), b.trace.records());
        assert_eq!(a.items, b.items);
        let c = generate(8, &small());
        assert_ne!(a.trace.records(), c.trace.records());
    }

    #[test]
    fn stream_matches_collected_generate() {
        let p = small();
        let collected = generate(7, &p);
        let streamed: Vec<_> = stream(7, &p).collect();
        assert_eq!(collected.trace.records(), &streamed[..]);
        assert_eq!(catalog(7, &p), collected.items);
    }

    #[test]
    fn stream_is_timestamp_ordered() {
        let recs: Vec<_> = stream(3, &small()).collect();
        assert!(!recs.is_empty());
        assert!(recs
            .windows(2)
            .all(|w| (w[0].ts, w[0].item.0) < (w[1].ts, w[1].item.0)));
    }

    #[test]
    fn longer_run_extends_the_shorter_one() {
        // Duration only truncates: the first hour of a two-hour stream
        // is exactly the one-hour stream (volume rngs never consult the
        // duration).
        let p = small();
        let a: Vec<_> = stream(7, &p).collect();
        let mut long = p;
        long.duration = Micros::from_secs(7200);
        let b: Vec<_> = stream(7, &long).take_while(|r| r.ts < p.duration).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn most_volumes_are_write_dominant() {
        let w = generate(11, &small());
        let mut reads: BTreeMap<u32, u64> = BTreeMap::new();
        let mut writes: BTreeMap<u32, u64> = BTreeMap::new();
        for r in w.trace.records() {
            if r.kind.is_read() {
                *reads.entry(r.item.0).or_default() += 1;
            } else {
                *writes.entry(r.item.0).or_default() += 1;
            }
        }
        let mut dominant = 0;
        let mut active = 0;
        for item in &w.items {
            let (r, wr) = (
                reads.get(&item.id.0).copied().unwrap_or(0),
                writes.get(&item.id.0).copied().unwrap_or(0),
            );
            if r + wr < 20 {
                continue; // too quiet to call
            }
            active += 1;
            if wr > r {
                dominant += 1;
            }
        }
        assert!(active > 10, "too few active volumes ({active})");
        assert!(
            dominant * 10 > active * 6,
            "write-dominant volumes should be the majority: {dominant}/{active}"
        );
    }

    #[test]
    fn tenants_are_skewed() {
        let items = catalog(5, &small());
        let mut per_tenant: BTreeMap<&str, usize> = BTreeMap::new();
        for i in &items {
            *per_tenant
                .entry(i.name.split('/').next().unwrap())
                .or_default() += 1;
        }
        let top = *per_tenant.values().max().unwrap();
        let uniform = items.len() / 8;
        assert!(
            top > uniform * 2,
            "top tenant owns {top} of {} volumes — not skewed",
            items.len()
        );
    }

    #[test]
    fn envelope_modulates_rates() {
        // With a strong diurnal envelope and a single tenant, the peak
        // half-day must carry clearly more traffic than the trough.
        let p = CloudBlockParams {
            duration: Micros::from_secs(3600),
            num_volumes: 64,
            num_tenants: 1,
            diurnal_amp: 0.85,
            weekly_amp: 0.0,
            off_mean: Micros::from_secs(300),
            ..Default::default()
        };
        let recs: Vec<_> = stream(9, &p).collect();
        // Tenant 0's phase is 0: env peaks at day-fraction 0.25 and
        // troughs at 0.75.
        let day = p.day.as_secs_f64();
        let (mut peak, mut trough) = (0u64, 0u64);
        for r in &recs {
            let frac = (r.ts.as_secs_f64() / day).fract();
            if (0.0..0.5).contains(&frac) {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > trough as f64 * 1.5,
            "diurnal peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn scales_to_many_volumes_lazily() {
        // A 50k-volume stream opens and yields ordered records without
        // materializing anything per-record.
        let p = CloudBlockParams {
            duration: Micros::from_secs(60),
            num_volumes: 50_000,
            num_tenants: 64,
            ..Default::default()
        };
        let mut s = stream(1, &p);
        let first: Vec<_> = s.by_ref().take(1000).collect();
        assert_eq!(first.len(), 1000);
        assert!(first.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Ids span a wide range of the volume space.
        assert!(first.iter().map(|r| r.item.0).max().unwrap() > 10_000);
    }
}
