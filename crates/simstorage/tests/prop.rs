//! Property-based tests of the storage simulator: energy conservation,
//! LRU model equivalence, and cache flush accounting.

use ees_iotrace::{DataItemId, EnclosureId, IoKind, Micros};
use ees_simstorage::{
    Access, CacheConfig, DiskEnclosure, EnclosureConfig, LruSet, PowerMode, StorageCache,
};
use proptest::prelude::*;

proptest! {
    /// The enclosure attributes every microsecond of a run to exactly one
    /// power mode, no matter what I/O and eligibility changes happen.
    #[test]
    fn enclosure_accounts_every_microsecond(
        events in prop::collection::vec(
            (1u64..3_600_000_000u64, 0u8..3u8),
            0..60,
        )
    ) {
        let mut events = events;
        events.sort();
        let mut e = DiskEnclosure::new(EnclosureId(0), EnclosureConfig::ams2500());
        for (ts, kind) in &events {
            let t = Micros(*ts);
            match kind {
                0 => {
                    e.submit(t, 8192, IoKind::Read, Access::Random);
                }
                1 => e.set_eligible_off(t, true),
                _ => e.set_eligible_off(t, false),
            }
        }
        let end = Micros(3_600_000_000 + 1);
        e.finish(end);
        prop_assert_eq!(e.meter().total_time(), end, "every µs attributed");
        // Energy is bounded by the extreme modes.
        let joules = e.meter().joules();
        prop_assert!(joules <= 698.4 * end.as_secs_f64() + 1.0);
        prop_assert!(joules >= 12.0 * end.as_secs_f64() - 1.0);
    }

    /// An enclosure that is never eligible never powers off and never
    /// spins up.
    #[test]
    fn ineligible_enclosure_never_cycles(
        ts in prop::collection::vec(1u64..600_000_000u64, 1..50)
    ) {
        let mut ts = ts;
        ts.sort();
        let mut e = DiskEnclosure::new(EnclosureId(0), EnclosureConfig::ams2500());
        for t in &ts {
            let out = e.submit(Micros(*t), 4096, IoKind::Read, Access::Random);
            prop_assert!(!out.triggered_spin_up);
        }
        e.finish(Micros(600_000_001));
        prop_assert_eq!(e.stats().spin_ups, 0);
        prop_assert_eq!(e.meter().time_in(PowerMode::Off), Micros::ZERO);
        prop_assert_eq!(e.meter().time_in(PowerMode::SpinUp), Micros::ZERO);
    }

    /// LruSet behaves exactly like a naive move-to-front list model, on
    /// the general cache's own `(item, extent)` keys. The key space is
    /// four to five times the capacity, so most touches of a full set
    /// miss and evict: backward-shift deletion and probe runs wrapping
    /// past the end of the index run on every case.
    #[test]
    fn lru_matches_naive_model(
        (cap, keys) in (1usize..=80).prop_flat_map(|cap| {
            let space = 4 * cap as u64 + 4;
            (Just(cap), prop::collection::vec(0..space, 0..800))
        })
    ) {
        let mut lru = LruSet::new(cap);
        let mut model: Vec<(DataItemId, u64)> = Vec::new(); // front = most recent
        for k in keys {
            let k = (DataItemId((k % 5) as u32), k / 5);
            let expect_hit = model.contains(&k);
            let got_hit = lru.touch(k);
            prop_assert_eq!(got_hit, expect_hit, "key {:?}", k);
            model.retain(|&x| x != k);
            model.insert(0, k);
            model.truncate(cap);
            prop_assert_eq!(lru.len(), model.len());
        }
    }

    /// Write-delay accounting: bytes buffered equal bytes flushed, and a
    /// flush set is returned exactly when the dirty threshold is crossed.
    #[test]
    fn write_delay_conserves_bytes(
        writes in prop::collection::vec(1u32..64_000_000u32, 1..100)
    ) {
        let mut cache = StorageCache::new(CacheConfig::ams2500());
        cache.set_write_delay(vec![DataItemId(1)]);
        let threshold = cache.config().flush_threshold();
        let mut buffered: u64 = 0;
        let mut flushed: u64 = 0;
        for w in &writes {
            buffered += *w as u64;
            if let Some(set) = cache.buffer_write(DataItemId(1), *w) {
                let batch: u64 = set.iter().map(|(_, b)| *b).sum();
                prop_assert!(batch >= threshold, "flush only past the threshold");
                flushed += batch;
            }
            prop_assert!(cache.dirty_bytes() < threshold);
        }
        let rest: u64 = cache.flush_all().iter().map(|(_, b)| *b).sum();
        prop_assert_eq!(flushed + rest, buffered);
    }
}
