//! HDD geometry and the enclosure-level I/O service model.
//!
//! The paper's test bed (Fig. 5) is an enclosure of fifteen 7200 rpm SATA
//! HDDs in RAID-6, served over a 2 Gbit Fibre Channel link, with measured
//! enclosure-level limits of **900 random IOPS** and **2800 sequential
//! IOPS** (Table II). We model the enclosure as a single FCFS server whose
//! throughput is those caps, plus a per-request access latency derived from
//! HDD geometry. [`HddModel`] documents where the caps come from;
//! [`ServiceModel`] is what the simulator actually evaluates per request.

use ees_iotrace::{IoKind, Micros};

/// Whether a request falls in a sequential run or requires a seek.
///
/// The workload generators know this (TPC-C issues random I/O, TPC-H
/// sequential scans — paper §I), so physical requests carry the hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Random access: pays seek + rotational latency.
    Random,
    /// Sequential access: pays transfer time only.
    Sequential,
}

/// Geometry of a single HDD, used to derive service-model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HddModel {
    /// Average seek time.
    pub avg_seek: Micros,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Sustained media transfer rate, bytes per second.
    pub transfer_rate: u64,
}

impl HddModel {
    /// A 750 GB 7200 rpm SATA drive like the test bed's.
    pub const SATA_7200: HddModel = HddModel {
        avg_seek: Micros(8_500),
        rpm: 7200,
        transfer_rate: 115 * 1024 * 1024,
    };

    /// Average rotational latency: half a revolution.
    pub fn avg_rotational_latency(&self) -> Micros {
        Micros((60_000_000 / 2) / self.rpm as u64)
    }

    /// Time to transfer `len` bytes off the platters.
    pub fn transfer_time(&self, len: u64) -> Micros {
        Micros(len * 1_000_000 / self.transfer_rate)
    }

    /// Mean time to serve one random request of `len` bytes.
    pub fn random_service_time(&self, len: u64) -> Micros {
        self.avg_seek + self.avg_rotational_latency() + self.transfer_time(len)
    }

    /// Random IOPS one drive sustains at the given request size.
    pub fn random_iops(&self, len: u64) -> f64 {
        1.0 / self.random_service_time(len).as_secs_f64()
    }
}

/// Enclosure-level service model: FCFS server with access-type-dependent
/// throughput caps and per-request latency.
///
/// A request's **occupancy** (how long it holds the server, i.e. the
/// reciprocal throughput) is `1 / cap(access)`, inflated for random RAID-6
/// writes by the parity read-modify-write penalty. Its **latency** (added
/// to the response but pipelined across the 15 spindles, so not occupying
/// the server) is the geometric access time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Sustained random IOPS of the enclosure (Table II: 900).
    pub max_random_iops: f64,
    /// Sustained sequential IOPS of the enclosure (Table II: 2800).
    pub max_seq_iops: f64,
    /// Access latency of one random request (seek + rotation + transfer).
    pub random_latency: Micros,
    /// Access latency of one sequential request (transfer only).
    pub seq_latency: Micros,
    /// Occupancy multiplier for random writes under RAID-6 (read-modify-
    /// write of two parity blocks, largely hidden by the battery-backed
    /// controller's write coalescing).
    pub raid6_write_penalty: f64,
}

impl ServiceModel {
    /// The test bed's enclosure model (Table II caps, SATA_7200 latencies
    /// at a 64 KiB representative request).
    pub const AMS2500: ServiceModel = ServiceModel {
        max_random_iops: 900.0,
        max_seq_iops: 2800.0,
        random_latency: Micros(13_250),
        seq_latency: Micros(560),
        raid6_write_penalty: 1.15,
    };

    /// How long one request holds the enclosure server.
    pub fn occupancy(&self, access: Access, kind: IoKind) -> Micros {
        let cap = match access {
            Access::Random => self.max_random_iops,
            Access::Sequential => self.max_seq_iops,
        };
        let base = 1.0 / cap;
        let secs = if access == Access::Random && kind.is_write() {
            base * self.raid6_write_penalty
        } else {
            base
        };
        Micros::from_secs_f64(secs)
    }

    /// Latency added to one request's response beyond queueing.
    pub fn latency(&self, access: Access) -> Micros {
        match access {
            Access::Random => self.random_latency,
            Access::Sequential => self.seq_latency,
        }
    }

    /// Time for a throttled bulk transfer of `bytes` at the sequential cap,
    /// assuming the representative 64 KiB request size. Used for data-item
    /// migration, preload, and write-delay flush traffic.
    pub fn bulk_transfer_time(&self, bytes: u64) -> Micros {
        let reqs = bytes.div_ceil(64 * 1024);
        Micros::from_secs_f64(reqs as f64 / self.max_seq_iops)
    }

    /// The enclosure's maximum IOPS for the paper's placement math
    /// (parameter `O` in §IV.C), by access type.
    pub fn cap(&self, access: Access) -> f64 {
        match access {
            Access::Random => self.max_random_iops,
            Access::Sequential => self.max_seq_iops,
        }
    }
}

impl Default for ServiceModel {
    fn default() -> Self {
        Self::AMS2500
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotational_latency_7200rpm() {
        // Half of a 8.33 ms revolution ≈ 4.17 ms.
        let r = HddModel::SATA_7200.avg_rotational_latency();
        assert_eq!(r, Micros(4_166));
    }

    #[test]
    fn random_service_time_matches_geometry() {
        let h = HddModel::SATA_7200;
        let t = h.random_service_time(64 * 1024);
        // 8.5 ms seek + 4.166 ms rotation + ~0.54 ms transfer.
        assert!(t > Micros(13_000) && t < Micros(13_500), "got {t}");
        // One 7200 rpm drive sustains ~75 random IOPS at 64 KiB —
        // 15 of them justify the enclosure-level cap's magnitude.
        let iops = h.random_iops(64 * 1024);
        assert!(iops > 70.0 && iops < 80.0, "got {iops}");
    }

    #[test]
    fn occupancy_respects_caps() {
        let m = ServiceModel::default();
        let rr = m.occupancy(Access::Random, IoKind::Read);
        let sr = m.occupancy(Access::Sequential, IoKind::Read);
        assert_eq!(rr, Micros::from_secs_f64(1.0 / 900.0));
        assert_eq!(sr, Micros::from_secs_f64(1.0 / 2800.0));
        // Back-to-back random reads sustain exactly the cap.
        let per_sec = 1.0 / rr.as_secs_f64();
        assert!((per_sec - 900.0).abs() < 1.0);
    }

    #[test]
    fn raid6_write_penalty_applies_to_random_writes_only() {
        let m = ServiceModel::default();
        let rw = m.occupancy(Access::Random, IoKind::Write);
        let rr = m.occupancy(Access::Random, IoKind::Read);
        assert!(rw > rr);
        let sw = m.occupancy(Access::Sequential, IoKind::Write);
        let sr = m.occupancy(Access::Sequential, IoKind::Read);
        assert_eq!(sw, sr, "full-stripe sequential writes avoid the penalty");
    }

    #[test]
    fn latency_by_access() {
        let m = ServiceModel::default();
        assert!(m.latency(Access::Random) > m.latency(Access::Sequential));
    }

    #[test]
    fn bulk_transfer_scales_linearly() {
        let m = ServiceModel::default();
        let one = m.bulk_transfer_time(64 * 1024);
        let ten = m.bulk_transfer_time(640 * 1024);
        assert_eq!(one, Micros::from_secs_f64(1.0 / 2800.0));
        assert!((ten.0 as i64 - (one.0 * 10) as i64).abs() <= 5);
        // Partial requests round up.
        assert_eq!(m.bulk_transfer_time(1), one);
        assert_eq!(m.bulk_transfer_time(0), Micros::ZERO);
    }

    #[test]
    fn cap_lookup() {
        let m = ServiceModel::default();
        assert_eq!(m.cap(Access::Random), 900.0);
        assert_eq!(m.cap(Access::Sequential), 2800.0);
    }
}
