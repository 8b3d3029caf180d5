//! The RAID controller's battery-backed storage cache (§II.E.2).
//!
//! The cache is partitioned three ways, mirroring Table II:
//!
//! * a **preload** partition (500 MB) pinning whole P1 data items so their
//!   reads never reach a disk enclosure (§IV.F, Fig. 3);
//! * a **write-delay** partition (500 MB) buffering writes to selected P2
//!   items; the buffer flushes *in one go* when the dirty fraction reaches
//!   the configured dirty-block rate (50 %), creating Long write intervals
//!   (§IV.E, §V.B, Fig. 4);
//! * the remaining **general** read cache, a plain extent-granular LRU that
//!   models the enterprise array's ordinary caching.
//!
//! The cache is battery-backed, so buffered writes are durable the moment
//! they are acknowledged — this is what lets the paper keep the DBMS's
//! ACID guarantee while delaying physical writes (§II.E.2).

use ees_iotrace::{DataItemId, Micros, MIB};
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hash, RandomState};

/// Cache geometry and behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total cache size (Table II: 2 GB).
    pub total_bytes: u64,
    /// Bytes reserved for the preload function (Table II: 500 MB).
    pub preload_bytes: u64,
    /// Bytes reserved for the write-delay function (Table II: 500 MB).
    pub write_delay_bytes: u64,
    /// Fraction of the write-delay partition that may be dirty before a
    /// bulk flush (Table II: 50 %).
    pub dirty_block_rate: f64,
    /// Latency of a cache hit / cache-acknowledged write.
    pub hit_latency: Micros,
    /// Extent size of the general read cache.
    pub extent_bytes: u64,
}

impl CacheConfig {
    /// The test bed's cache (Table II).
    pub fn ams2500() -> Self {
        CacheConfig {
            total_bytes: 2048 * MIB,
            preload_bytes: 500 * MIB,
            write_delay_bytes: 500 * MIB,
            dirty_block_rate: 0.5,
            hit_latency: Micros(200),
            extent_bytes: MIB,
        }
    }

    /// Bytes left for the general read cache.
    pub fn general_bytes(&self) -> u64 {
        self.total_bytes
            .saturating_sub(self.preload_bytes + self.write_delay_bytes)
    }

    /// Dirty-byte threshold that triggers a write-delay flush.
    pub fn flush_threshold(&self) -> u64 {
        (self.write_delay_bytes as f64 * self.dirty_block_rate) as u64
    }
}

/// A fixed-capacity LRU set with O(1) touch/insert/evict, used for the
/// general read cache (capacity counted in entries, i.e. extents).
///
/// Keys live in a slot arena threaded by a doubly-linked recency list. An
/// open-addressing (linear-probing) index maps a key's hash to its slot
/// number. A touch hashes its key once, with the set's own `RandomState`
/// (extent keys come from trace offsets, so a fixed-key hasher would let
/// crafted input collide); every slot keeps its key's hash, so evicting
/// the tail and growing the index never hash again.
#[derive(Debug, Clone)]
pub struct LruSet<K: Hash + Eq> {
    hasher: RandomState,
    /// Slot number per index position, `NIL` where empty. Its length is
    /// a power of two and at least twice the number of resident keys, so
    /// every probe run ends at an empty position.
    index: Vec<u32>,
    slots: Vec<Slot<K>>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

#[derive(Debug, Clone)]
struct Slot<K> {
    key: K,
    hash: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// Keys an [`LruSet`] allocates room for up front; a larger capacity
/// grows the arena and index as keys arrive.
const PREALLOC: usize = 1 << 12;

impl<K: Hash + Eq> LruSet<K> {
    /// Creates an LRU set holding at most `capacity` keys (slot numbers
    /// are `u32`, so a larger capacity holds at most `u32::MAX - 1`).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.min(NIL as usize);
        let prealloc = capacity.min(PREALLOC);
        LruSet {
            hasher: RandomState::new(),
            index: vec![NIL; (2 * prealloc).next_power_of_two()],
            slots: Vec::with_capacity(prealloc),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks `key` up, inserting it (and evicting the LRU key if full) on a
    /// miss. Returns `true` on a hit.
    pub fn touch(&mut self, key: K) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let hash = self.hasher.hash_one(&key);
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let s = self.index[pos];
            if s == NIL {
                break;
            }
            let slot = &self.slots[s as usize];
            if slot.hash == hash && slot.key == key {
                self.unlink(s);
                self.push_front(s);
                return true;
            }
            pos = (pos + 1) & mask;
        }
        let s = if self.slots.len() < self.capacity {
            if 2 * (self.slots.len() + 1) > self.index.len() {
                self.grow();
            }
            self.slots.push(Slot {
                key,
                hash,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            // Reuse the least recently used key's slot. Unindexing it may
            // shift entries back into the probe run that ended at `pos`,
            // so the insert below probes again (from the kept hash).
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.unindex(victim);
            let slot = &mut self.slots[victim as usize];
            slot.key = key;
            slot.hash = hash;
            victim
        };
        self.reindex(s);
        self.push_front(s);
        false
    }

    /// Drops every key.
    pub fn clear(&mut self) {
        self.index.fill(NIL);
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Records slot `s` at the first empty position of its hash's probe
    /// run.
    fn reindex(&mut self, s: u32) {
        let mask = self.index.len() - 1;
        let mut pos = self.slots[s as usize].hash as usize & mask;
        while self.index[pos] != NIL {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = s;
    }

    /// Removes slot `s` from the index by backward-shift deletion: each
    /// later entry of the probe run whose home position does not lie in
    /// the cyclic range (hole, entry] moves back into the hole, so no
    /// tombstones are left and every remaining key stays reachable.
    fn unindex(&mut self, s: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.slots[s as usize].hash as usize & mask;
        while self.index[hole] != s {
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let t = self.index[j];
            if t == NIL {
                break;
            }
            let home = self.slots[t as usize].hash as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.index[hole] = t;
                hole = j;
            }
        }
        self.index[hole] = NIL;
    }

    /// Doubles the index and re-inserts every slot from its kept hash.
    fn grow(&mut self) {
        self.index = vec![NIL; (2 * self.index.len()).max(2)];
        for s in 0..self.slots.len() as u32 {
            self.reindex(s);
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let s = &mut self.slots[idx as usize];
        s.prev = NIL;
        s.next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        s.prev = NIL;
        s.next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Dirty bytes to be written back, per data item, produced by a flush.
pub type FlushSet = Vec<(DataItemId, u64)>;

/// The storage cache.
#[derive(Debug, Clone)]
pub struct StorageCache {
    cfg: CacheConfig,
    /// Items pinned by the preload function, as a membership table
    /// indexed by item id (ids are dense within a catalog); ids past the
    /// end are not preloaded.
    preload: Vec<bool>,
    /// Items under write delay, as a membership table like `preload`.
    write_delay: Vec<bool>,
    /// Dirty bytes per write-delayed item, in id order (the flush order).
    dirty: BTreeMap<DataItemId, u64>,
    dirty_total: u64,
    /// General read cache over (item, extent) pairs.
    general: LruSet<(DataItemId, u64)>,
    /// Counters.
    preload_hits: u64,
    general_hits: u64,
    general_misses: u64,
    buffered_writes: u64,
    flushes: u64,
}

impl StorageCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let general_entries = (cfg.general_bytes() / cfg.extent_bytes.max(1)) as usize;
        StorageCache {
            cfg,
            preload: Vec::new(),
            write_delay: Vec::new(),
            dirty: BTreeMap::new(),
            dirty_total: 0,
            general: LruSet::new(general_entries),
            preload_hits: 0,
            general_hits: 0,
            general_misses: 0,
            buffered_writes: 0,
            flushes: 0,
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Replaces the preload set (§V.C): items no longer selected are
    /// dropped, already-resident items are kept, and the returned list is
    /// what must now be read from the enclosures (newly selected items).
    ///
    /// # Panics
    /// Panics if the requested set exceeds the preload partition — the
    /// selection algorithm (§IV.F) budgets against the partition size.
    pub fn set_preload(&mut self, items: Vec<(DataItemId, u64)>) -> Vec<(DataItemId, u64)> {
        let total: u64 = items.iter().map(|(_, s)| *s).sum();
        assert!(
            total <= self.cfg.preload_bytes,
            "preload selection ({total} B) exceeds the preload partition"
        );
        let new: BTreeMap<DataItemId, u64> = items.into_iter().collect();
        let to_load: Vec<(DataItemId, u64)> = new
            .iter()
            .filter(|(&id, _)| !member(&self.preload, id))
            .map(|(&id, &s)| (id, s))
            .collect();
        refill(&mut self.preload, new.into_keys());
        to_load
    }

    /// Whether reads of `item` are served from the preload partition.
    pub fn is_preloaded(&self, item: DataItemId) -> bool {
        member(&self.preload, item)
    }

    /// Replaces the write-delay set (§V.B). Dirty bytes of items that left
    /// the set must be written out immediately (§V.B: "indicates to write
    /// updated data items onto disk enclosures when the *write delay
    /// applied* data items are changed"); they are returned as a flush set.
    pub fn set_write_delay(&mut self, items: impl IntoIterator<Item = DataItemId>) -> FlushSet {
        refill(&mut self.write_delay, items);
        let mut out = Vec::new();
        let removed: Vec<DataItemId> = self
            .dirty
            .keys()
            .filter(|&&id| !member(&self.write_delay, id))
            .copied()
            .collect();
        for id in removed {
            if let Some(bytes) = self.dirty.remove(&id) {
                self.dirty_total -= bytes;
                out.push((id, bytes));
            }
        }
        out
    }

    /// Whether writes to `item` are buffered by the write-delay function.
    pub fn is_write_delayed(&self, item: DataItemId) -> bool {
        member(&self.write_delay, item)
    }

    /// Buffers one write to a write-delayed item. Returns a flush set when
    /// the dirty threshold is crossed — all dirty bytes are then written
    /// back in one go.
    ///
    /// # Panics
    /// Panics (debug only) if `item` is not under write delay.
    pub fn buffer_write(&mut self, item: DataItemId, len: u32) -> Option<FlushSet> {
        debug_assert!(
            self.is_write_delayed(item),
            "buffer_write on an item not under write delay"
        );
        *self.dirty.entry(item).or_insert(0) += len as u64;
        self.dirty_total += len as u64;
        self.buffered_writes += 1;
        if self.dirty_total >= self.cfg.flush_threshold() {
            Some(self.flush_all())
        } else {
            None
        }
    }

    /// Flushes all dirty bytes (threshold crossing, set change, or end of
    /// run) and returns them per item.
    pub fn flush_all(&mut self) -> FlushSet {
        if self.dirty.is_empty() {
            return Vec::new();
        }
        self.flushes += 1;
        self.dirty_total = 0;
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// Dirty bytes currently buffered.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_total
    }

    /// Looks up a read in the cache hierarchy: preload partition first,
    /// then the general extent LRU (which also admits on miss). Returns
    /// `true` when the read is absorbed by the cache.
    pub fn read_lookup(&mut self, item: DataItemId, offset: u64) -> bool {
        if member(&self.preload, item) {
            self.preload_hits += 1;
            return true;
        }
        let extent = offset / self.cfg.extent_bytes.max(1);
        if self.general.touch((item, extent)) {
            self.general_hits += 1;
            true
        } else {
            self.general_misses += 1;
            false
        }
    }

    /// Cache-hit latency for absorbed requests.
    pub fn hit_latency(&self) -> Micros {
        self.cfg.hit_latency
    }

    /// (preload hits, general hits, general misses, buffered writes,
    /// flush count) counters for reports.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.preload_hits,
            self.general_hits,
            self.general_misses,
            self.buffered_writes,
            self.flushes,
        )
    }
}

/// Whether `id` is marked in a membership table indexed by item id.
fn member(table: &[bool], id: DataItemId) -> bool {
    table.get(id.0 as usize).copied().unwrap_or(false)
}

/// Replaces a membership table's contents with `ids`, growing it to the
/// largest id marked.
fn refill(table: &mut Vec<bool>, ids: impl IntoIterator<Item = DataItemId>) {
    table.fill(false);
    for id in ids {
        let i = id.0 as usize;
        if i >= table.len() {
            table.resize(i + 1, false);
        }
        table[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> StorageCache {
        StorageCache::new(CacheConfig::ams2500())
    }

    #[test]
    fn config_partitions() {
        let c = CacheConfig::ams2500();
        assert_eq!(c.general_bytes(), 1048 * MIB);
        assert_eq!(c.flush_threshold(), 250 * MIB);
    }

    #[test]
    fn lru_basic_hit_miss_evict() {
        let mut lru = LruSet::new(2);
        assert!(!lru.touch("a"));
        assert!(!lru.touch("b"));
        assert!(lru.touch("a")); // hit; order now a, b
        assert!(!lru.touch("c")); // evicts b
        assert!(!lru.touch("b")); // b was evicted → miss, evicts a
        assert!(lru.touch("c"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_zero_capacity_never_hits() {
        let mut lru = LruSet::new(0);
        assert!(!lru.touch(1));
        assert!(!lru.touch(1));
        assert!(lru.is_empty());
    }

    #[test]
    fn lru_single_slot() {
        let mut lru = LruSet::new(1);
        assert!(!lru.touch(1));
        assert!(lru.touch(1));
        assert!(!lru.touch(2));
        assert!(!lru.touch(1));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn lru_index_grows_past_its_initial_size() {
        let cap = 3 * PREALLOC + 5;
        let mut lru = LruSet::new(cap);
        for k in 0..cap as u64 {
            assert!(!lru.touch(k));
        }
        assert!((0..cap as u64).all(|k| lru.touch(k)), "every key resident");
        // A second full generation evicts the first, oldest first.
        for k in cap as u64..2 * cap as u64 {
            assert!(!lru.touch(k));
        }
        assert_eq!(lru.len(), cap);
        assert!(!lru.touch(0), "first generation evicted");
        assert!(lru.touch(2 * cap as u64 - 1));
    }

    #[test]
    fn lru_clear() {
        let mut lru = LruSet::new(4);
        lru.touch(1);
        lru.touch(2);
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.touch(1));
    }

    #[test]
    fn preload_set_reports_only_new_items() {
        let mut c = cache();
        let load = c.set_preload(vec![(DataItemId(1), 100 * MIB), (DataItemId(2), 100 * MIB)]);
        assert_eq!(load.len(), 2);
        // Keeping item 1, adding item 3: only 3 needs loading (§V.C keeps
        // already-preloaded items).
        let load = c.set_preload(vec![(DataItemId(1), 100 * MIB), (DataItemId(3), 50 * MIB)]);
        assert_eq!(load, vec![(DataItemId(3), 50 * MIB)]);
        assert!(c.is_preloaded(DataItemId(1)));
        assert!(!c.is_preloaded(DataItemId(2)));
        assert!(c.is_preloaded(DataItemId(3)));
    }

    #[test]
    #[should_panic(expected = "exceeds the preload partition")]
    fn preload_over_budget_panics() {
        let mut c = cache();
        c.set_preload(vec![(DataItemId(1), 600 * MIB)]);
    }

    #[test]
    fn preloaded_reads_always_hit() {
        let mut c = cache();
        c.set_preload(vec![(DataItemId(7), 10 * MIB)]);
        assert!(c.read_lookup(DataItemId(7), 0));
        assert!(c.read_lookup(DataItemId(7), 999 * MIB));
        assert_eq!(c.counters().0, 2);
    }

    #[test]
    fn general_cache_hits_on_reaccess() {
        let mut c = cache();
        assert!(!c.read_lookup(DataItemId(1), 0));
        assert!(c.read_lookup(DataItemId(1), 1000)); // same 1 MiB extent
        assert!(!c.read_lookup(DataItemId(1), 2 * MIB)); // different extent
        let (_, hits, misses, _, _) = c.counters();
        assert_eq!(hits, 1);
        assert_eq!(misses, 2);
    }

    #[test]
    fn write_delay_buffers_until_threshold() {
        let mut c = cache();
        c.set_write_delay(vec![DataItemId(5)]);
        assert!(c.is_write_delayed(DataItemId(5)));
        // 250 MB threshold; buffer 249 MiB → no flush.
        for _ in 0..249 {
            assert!(c.buffer_write(DataItemId(5), MIB as u32).is_none());
        }
        assert_eq!(c.dirty_bytes(), 249 * MIB);
        // Crossing the threshold flushes everything in one go.
        let flush = c.buffer_write(DataItemId(5), 2 * MIB as u32).unwrap();
        assert_eq!(flush, vec![(DataItemId(5), 251 * MIB)]);
        assert_eq!(c.dirty_bytes(), 0);
    }

    #[test]
    fn write_delay_set_change_flushes_departing_items() {
        let mut c = cache();
        c.set_write_delay(vec![DataItemId(1), DataItemId(2)]);
        c.buffer_write(DataItemId(1), 1024);
        c.buffer_write(DataItemId(2), 2048);
        // Item 2 leaves the set → its dirty bytes flush; item 1 stays.
        let flushed = c.set_write_delay(vec![DataItemId(1)]);
        assert_eq!(flushed, vec![(DataItemId(2), 2048)]);
        assert_eq!(c.dirty_bytes(), 1024);
        assert!(!c.is_write_delayed(DataItemId(2)));
    }

    #[test]
    fn ids_past_every_table_are_in_neither_set() {
        let mut c = cache();
        let far = DataItemId(u32::MAX);
        assert!(!c.is_preloaded(far) && !c.is_write_delayed(far));
        c.set_preload(vec![(DataItemId(3), MIB)]);
        c.set_write_delay(vec![DataItemId(9)]);
        for id in [DataItemId(4), DataItemId(10), DataItemId(1_000_000), far] {
            assert!(!c.is_preloaded(id), "{id}");
            assert!(!c.is_write_delayed(id), "{id}");
        }
        assert!(
            !c.read_lookup(DataItemId(10), 0),
            "falls through to the LRU"
        );
    }

    #[test]
    fn departed_ids_test_false_after_a_set_shrinks() {
        let mut c = cache();
        c.set_preload(vec![(DataItemId(2), MIB), (DataItemId(40), MIB)]);
        c.set_write_delay(vec![DataItemId(5), DataItemId(70)]);
        c.set_preload(vec![(DataItemId(2), MIB)]);
        c.set_write_delay(vec![DataItemId(5)]);
        assert!(c.is_preloaded(DataItemId(2)) && !c.is_preloaded(DataItemId(40)));
        assert!(c.is_write_delayed(DataItemId(5)) && !c.is_write_delayed(DataItemId(70)));
        c.set_preload(Vec::new());
        c.set_write_delay(Vec::new());
        assert!(!c.is_preloaded(DataItemId(2)));
        assert!(!c.is_write_delayed(DataItemId(5)));
    }

    #[test]
    fn flush_all_drains_and_counts() {
        let mut c = cache();
        c.set_write_delay(vec![DataItemId(1)]);
        c.buffer_write(DataItemId(1), 4096);
        let f = c.flush_all();
        assert_eq!(f, vec![(DataItemId(1), 4096)]);
        assert!(c.flush_all().is_empty(), "second flush is a no-op");
        assert_eq!(c.counters().4, 1, "empty flushes are not counted");
    }
}
