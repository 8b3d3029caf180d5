//! Storage-unit configuration: the test bed of Fig. 5 and Table II.

use crate::cache::CacheConfig;
use crate::enclosure::EnclosureConfig;

/// Full configuration of a simulated storage unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageConfig {
    /// Number of disk enclosures (the test bed has 10; the File Server
    /// experiment spreads 36 volumes over 12 — workloads pick their count).
    pub num_enclosures: u16,
    /// Per-enclosure configuration.
    pub enclosure: EnclosureConfig,
    /// Storage-cache configuration.
    pub cache: CacheConfig,
    /// Constant draw of the RAID controller head, watts.
    pub controller_watts: f64,
}

impl StorageConfig {
    /// The Hitachi AMS 2500-like test bed with `n` enclosures.
    pub fn ams2500(n: u16) -> Self {
        StorageConfig {
            num_enclosures: n,
            enclosure: EnclosureConfig::ams2500(),
            cache: CacheConfig::ams2500(),
            controller_watts: 400.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::Micros;

    #[test]
    fn table2_values() {
        let c = StorageConfig::ams2500(10);
        assert_eq!(c.num_enclosures, 10);
        assert_eq!(c.enclosure.service.max_random_iops, 900.0);
        assert_eq!(c.enclosure.service.max_seq_iops, 2800.0);
        // Spin-down timeout equals the break-even time (Table II).
        assert_eq!(
            c.enclosure.spin_down_timeout,
            c.enclosure.power.break_even_time()
        );
        assert_eq!(c.enclosure.spin_down_timeout, Micros(52_000_000));
        assert_eq!(c.cache.total_bytes, 2048 * 1024 * 1024);
        assert_eq!(c.cache.dirty_block_rate, 0.5);
    }
}
