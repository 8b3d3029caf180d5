//! RAID-6 stripe geometry for one 15-disk enclosure (13 data + 2 parity,
//! left-symmetric parity rotation).
//!
//! The simulator's enclosure-level service model is calibrated from this
//! geometry: [`Raid6Geometry::random_read_iops`] shows where the 900-IOPS
//! cap of Table II comes from, and the stripe mapping backs the full- vs.
//! partial-stripe write distinction the service model's write penalty
//! abstracts.

use crate::hdd::HddModel;

/// Geometry of a RAID-6 array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Raid6Geometry {
    /// Total disks in the array (data + 2 parity).
    pub disks: u16,
    /// Stripe-unit (chunk) size per disk, bytes.
    pub chunk_bytes: u64,
}

/// Where one logical byte lives physically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeAddress {
    /// Stripe row index.
    pub stripe: u64,
    /// Disk holding the byte (0-based physical slot).
    pub disk: u16,
    /// Offset within that disk, bytes.
    pub disk_offset: u64,
}

impl Raid6Geometry {
    /// The test bed's enclosure: 15 disks, 256 KiB chunks.
    pub const AMS2500: Raid6Geometry = Raid6Geometry {
        disks: 15,
        chunk_bytes: 256 * 1024,
    };

    /// Data disks per stripe.
    pub fn data_disks(&self) -> u16 {
        self.disks - 2
    }

    /// Usable bytes per stripe row.
    pub fn stripe_data_bytes(&self) -> u64 {
        self.chunk_bytes * self.data_disks() as u64
    }

    /// Usable capacity of the array given per-disk capacity.
    pub fn usable_capacity(&self, disk_bytes: u64) -> u64 {
        disk_bytes / self.chunk_bytes * self.stripe_data_bytes()
    }

    /// Physical slots of the two parity chunks of `stripe`
    /// (left-symmetric rotation: parity walks backwards one slot per row).
    pub fn parity_disks(&self, stripe: u64) -> (u16, u16) {
        let n = self.disks as u64;
        let p = ((n - 1) - (stripe % n)) as u16;
        let q = if p == 0 { self.disks - 1 } else { p - 1 };
        (p, q)
    }

    /// Maps a logical byte offset to its physical location.
    pub fn map(&self, offset: u64) -> StripeAddress {
        let stripe = offset / self.stripe_data_bytes();
        let within = offset % self.stripe_data_bytes();
        let data_index = (within / self.chunk_bytes) as u16;
        let chunk_offset = within % self.chunk_bytes;
        // Skip the two parity slots of this row.
        let (p, q) = self.parity_disks(stripe);
        let mut disk = 0u16;
        let mut seen = 0u16;
        loop {
            if disk != p && disk != q {
                if seen == data_index {
                    break;
                }
                seen += 1;
            }
            disk += 1;
        }
        StripeAddress {
            stripe,
            disk,
            disk_offset: stripe * self.chunk_bytes + chunk_offset,
        }
    }

    /// Whether a write of `len` bytes at `offset` covers whole stripes
    /// (full-stripe writes compute parity without read-modify-write).
    pub fn is_full_stripe_write(&self, offset: u64, len: u64) -> bool {
        let s = self.stripe_data_bytes();
        len >= s && offset.is_multiple_of(s) && len.is_multiple_of(s)
    }

    /// Aggregate random-read IOPS of the array at the given request size:
    /// every spindle serves reads independently.
    pub fn random_read_iops(&self, hdd: &HddModel, len: u64) -> f64 {
        self.disks as f64 * hdd.random_iops(len)
    }

    /// Aggregate random-write IOPS under read-modify-write: each small
    /// write costs two reads + three writes spread across three disks
    /// (data, P, Q), ≈ 1/3 of a spindle-second each on three spindles.
    pub fn random_write_iops(&self, hdd: &HddModel, len: u64) -> f64 {
        // 6 disk ops (read+write on data, P, Q) across the array.
        self.disks as f64 * hdd.random_iops(len) / 6.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: Raid6Geometry = Raid6Geometry::AMS2500;

    #[test]
    fn geometry_basics() {
        assert_eq!(G.data_disks(), 13);
        assert_eq!(G.stripe_data_bytes(), 13 * 256 * 1024);
        // 750 GB disks → ~9.75 TB usable per enclosure (13/15 of raw).
        let usable = G.usable_capacity(750_000_000_000);
        assert!(usable > 9_000_000_000_000 && usable < 10_000_000_000_000);
    }

    #[test]
    fn parity_rotates_and_never_collides() {
        let mut seen_p = std::collections::BTreeSet::new();
        for stripe in 0..15 {
            let (p, q) = G.parity_disks(stripe);
            assert_ne!(p, q);
            assert!(p < 15 && q < 15);
            seen_p.insert(p);
        }
        assert_eq!(seen_p.len(), 15, "parity visits every slot across a cycle");
    }

    #[test]
    fn map_avoids_parity_slots_and_covers_all_data_slots() {
        for stripe in 0..4u64 {
            let (p, q) = G.parity_disks(stripe);
            let base = stripe * G.stripe_data_bytes();
            let mut disks = std::collections::BTreeSet::new();
            for i in 0..13u64 {
                let a = G.map(base + i * G.chunk_bytes);
                assert_eq!(a.stripe, stripe);
                assert_ne!(a.disk, p, "data never lands on P");
                assert_ne!(a.disk, q, "data never lands on Q");
                disks.insert(a.disk);
            }
            assert_eq!(disks.len(), 13, "all data slots used exactly once");
        }
    }

    #[test]
    fn map_is_monotone_within_a_chunk() {
        let a = G.map(1000);
        let b = G.map(1001);
        assert_eq!(a.disk, b.disk);
        assert_eq!(a.disk_offset + 1, b.disk_offset);
    }

    #[test]
    fn full_stripe_write_detection() {
        let s = G.stripe_data_bytes();
        assert!(G.is_full_stripe_write(0, s));
        assert!(G.is_full_stripe_write(s, 2 * s));
        assert!(!G.is_full_stripe_write(1, s));
        assert!(!G.is_full_stripe_write(0, s - 1));
        assert!(!G.is_full_stripe_write(0, 4096));
    }

    #[test]
    fn derived_iops_match_the_table2_calibration() {
        let hdd = HddModel::SATA_7200;
        // 15 spindles × ~75 random IOPS ≈ 1100; the Table II cap of 900
        // is that minus controller overhead — same order of magnitude.
        let reads = G.random_read_iops(&hdd, 64 * 1024);
        assert!(reads > 900.0 && reads < 1300.0, "got {reads}");
        let writes = G.random_write_iops(&hdd, 64 * 1024);
        assert!(writes > 150.0 && writes < 250.0, "got {writes}");
    }
}
