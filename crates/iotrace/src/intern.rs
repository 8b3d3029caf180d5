//! Dense item-id interning and flat per-item storage.
//!
//! The controller's scale story (millions of items, many tenants feeding
//! one daemon) needs two things the raw `u32` item ids of the wire
//! formats do not give by themselves:
//!
//! * a **name → dense id** mapping at the ingest edge, so applications
//!   can speak in their own item names (volume paths, table names) and
//!   every name costs exactly one slot of per-item state downstream —
//!   [`ItemInterner`];
//! * a **flat, id-indexed container** for per-item state, so the hot
//!   fold indexes a `Vec` instead of walking a `BTreeMap` —
//!   [`DenseItemMap`].
//!
//! Interned ids are allocated densely from [`ItemInterner::floor`]
//! upward in first-intern order, which makes `DenseItemMap`'s direct
//! indexing O(1) with memory proportional to the number of items, not
//! the id space. Ids outside the dense range (hand-written traces with
//! huge numeric ids) spill to an ordered map so correctness never
//! depends on density — only speed does.

use crate::types::DataItemId;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// Ids below this bound live in [`DenseItemMap`]'s flat vector; ids at
/// or above it spill to the ordered side map. 2^22 slots bound the
/// flat vector's worst-case footprint while covering every interned
/// catalog the system is specified for ("millions of items").
pub const DENSE_ID_LIMIT: u32 = 1 << 22;

/// Maps item names to dense [`DataItemId`]s, stably and reversibly.
///
/// Ids are handed out in first-intern order starting at `floor` (the
/// first id past the pre-registered numeric catalog, so interned names
/// never collide with explicit ids). The full name table exports as a
/// `Vec<String>` in id order and re-imports to the identical mapping —
/// the property that keeps checkpoint/restore byte-identical when the
/// wire streams speak names.
#[derive(Debug, Default, Clone)]
pub struct ItemInterner {
    floor: u32,
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl ItemInterner {
    /// An interner allocating ids from 0.
    pub fn new() -> Self {
        Self::with_floor(0)
    }

    /// An interner allocating ids from `floor` upward, leaving
    /// `0..floor` to an explicit numeric catalog.
    pub fn with_floor(floor: u32) -> Self {
        ItemInterner {
            floor,
            names: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// The first id this interner may allocate.
    pub fn floor(&self) -> u32 {
        self.floor
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The id for `name`, allocating the next dense id on first sight.
    pub fn intern(&mut self, name: &str) -> DataItemId {
        match self.ids.entry(name.to_string()) {
            Entry::Occupied(e) => DataItemId(*e.get()),
            Entry::Vacant(e) => {
                let id = self
                    .floor
                    .checked_add(self.names.len() as u32)
                    .expect("item id space exhausted");
                self.names.push(name.to_string());
                e.insert(id);
                DataItemId(id)
            }
        }
    }

    /// Pre-binds `name` to an explicit id below the floor, so wire
    /// streams can name pre-registered catalog items without allocating
    /// a fresh id. Binds are not part of [`export`](Self::export) (the
    /// embedder re-derives them from the catalog it already has) and
    /// [`name`](Self::name) does not reverse-map them.
    pub fn bind(&mut self, name: &str, id: DataItemId) {
        debug_assert!(id.0 < self.floor, "bind target must sit below the floor");
        self.ids.insert(name.to_string(), id.0);
    }

    /// The id for `name` if it has been interned or bound, without
    /// allocating.
    pub fn lookup(&self, name: &str) -> Option<DataItemId> {
        self.ids.get(name).map(|&id| DataItemId(id))
    }

    /// The name behind an interned id, if `id` was allocated here.
    pub fn name(&self, id: DataItemId) -> Option<&str> {
        let idx = id.0.checked_sub(self.floor)? as usize;
        self.names.get(idx).map(String::as_str)
    }

    /// The name table in id order (index `i` holds the name of id
    /// `floor + i`) — the checkpoint representation.
    pub fn export(&self) -> Vec<String> {
        self.names.clone()
    }

    /// Rebuilds an interner from [`export`](Self::export)ed state. The
    /// resulting mapping is identical: name `i` gets id `floor + i`.
    pub fn import(floor: u32, names: Vec<String>) -> Self {
        let ids = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), floor + i as u32))
            .collect();
        ItemInterner { floor, names, ids }
    }
}

/// Flat per-item storage indexed directly by [`DataItemId`].
///
/// Ids below [`DENSE_ID_LIMIT`] index a `Vec<Option<V>>` (O(1), no
/// hashing, no tree walk); larger ids spill to a `BTreeMap` so sparse
/// hand-numbered traces still work. Iteration is in ascending id order
/// (dense slots first, then the spill — every spilled id is larger than
/// every dense one), matching the `BTreeMap<DataItemId, V>` it
/// replaces, which is what keeps checkpoint export order byte-stable.
#[derive(Debug, Clone)]
pub struct DenseItemMap<V> {
    dense: Vec<Option<V>>,
    spill: BTreeMap<u32, V>,
    len: usize,
}

impl<V> Default for DenseItemMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> DenseItemMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        DenseItemMap {
            dense: Vec::new(),
            spill: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The state for `id`, if present.
    pub fn get(&self, id: DataItemId) -> Option<&V> {
        if id.0 < DENSE_ID_LIMIT {
            self.dense.get(id.0 as usize)?.as_ref()
        } else {
            self.spill.get(&id.0)
        }
    }

    /// The state for `id`, inserting `make()` on first access.
    pub fn get_or_insert_with(&mut self, id: DataItemId, make: impl FnOnce() -> V) -> &mut V {
        if id.0 < DENSE_ID_LIMIT {
            let idx = id.0 as usize;
            if idx >= self.dense.len() {
                self.dense.resize_with(idx + 1, || None);
            }
            let slot = &mut self.dense[idx];
            if slot.is_none() {
                *slot = Some(make());
                self.len += 1;
            }
            slot.as_mut().expect("slot filled above")
        } else {
            let spilled = &mut self.spill;
            let len = &mut self.len;
            spilled.entry(id.0).or_insert_with(|| {
                *len += 1;
                make()
            })
        }
    }

    /// Inserts `v` for `id`, returning the previous state if any.
    pub fn insert(&mut self, id: DataItemId, v: V) -> Option<V> {
        let prev = if id.0 < DENSE_ID_LIMIT {
            let idx = id.0 as usize;
            if idx >= self.dense.len() {
                self.dense.resize_with(idx + 1, || None);
            }
            self.dense[idx].replace(v)
        } else {
            self.spill.insert(id.0, v)
        };
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the state for `id`.
    pub fn remove(&mut self, id: DataItemId) -> Option<V> {
        let v = if id.0 < DENSE_ID_LIMIT {
            self.dense.get_mut(id.0 as usize)?.take()
        } else {
            self.spill.remove(&id.0)
        };
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Keeps only the slots for which `keep` returns `true`, visiting
    /// them in ascending id order.
    pub fn retain(&mut self, mut keep: impl FnMut(DataItemId, &mut V) -> bool) {
        for (i, slot) in self.dense.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(DataItemId(i as u32), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
        let len = &mut self.len;
        self.spill.retain(|&id, v| {
            let kept = keep(DataItemId(id), v);
            if !kept {
                *len -= 1;
            }
            kept
        });
    }

    /// Drops every slot, keeping the dense vector's capacity for the
    /// next period.
    pub fn clear(&mut self) {
        self.dense.clear();
        self.spill.clear();
        self.len = 0;
    }

    /// Occupied slots in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (DataItemId, &V)> {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (DataItemId(i as u32), v)));
        let spill = self.spill.iter().map(|(&id, v)| (DataItemId(id), v));
        dense.chain(spill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_allocates_densely_from_the_floor() {
        let mut it = ItemInterner::with_floor(100);
        assert_eq!(it.intern("alpha"), DataItemId(100));
        assert_eq!(it.intern("beta"), DataItemId(101));
        assert_eq!(it.intern("alpha"), DataItemId(100), "re-intern is stable");
        assert_eq!(it.lookup("beta"), Some(DataItemId(101)));
        assert_eq!(it.lookup("gamma"), None);
        assert_eq!(it.name(DataItemId(101)), Some("beta"));
        assert_eq!(it.name(DataItemId(99)), None, "below the floor");
        assert_eq!(it.name(DataItemId(102)), None, "unallocated");
    }

    #[test]
    fn binds_resolve_without_allocating() {
        let mut it = ItemInterner::with_floor(10);
        it.bind("catalog/item", DataItemId(3));
        assert_eq!(it.lookup("catalog/item"), Some(DataItemId(3)));
        assert_eq!(it.intern("catalog/item"), DataItemId(3), "no allocation");
        assert!(it.export().is_empty(), "binds are not exported");
        assert_eq!(it.intern("fresh"), DataItemId(10));
    }

    #[test]
    fn export_import_roundtrips_the_mapping() {
        let mut it = ItemInterner::with_floor(7);
        for name in ["v/0", "v/1", "tbl.customer", "v/0"] {
            it.intern(name);
        }
        let back = ItemInterner::import(it.floor(), it.export());
        assert_eq!(back.len(), 3);
        for name in ["v/0", "v/1", "tbl.customer"] {
            assert_eq!(back.lookup(name), it.lookup(name), "{name}");
        }
        // New interns continue from where the table left off.
        let mut back = back;
        assert_eq!(back.intern("v/2"), DataItemId(10));
    }

    #[test]
    fn dense_map_matches_btreemap_semantics() {
        let mut m: DenseItemMap<u32> = DenseItemMap::new();
        let mut reference: BTreeMap<u32, u32> = BTreeMap::new();
        // Mix of dense ids and ids past the spill threshold.
        let ids = [3u32, 0, 3, 17, DENSE_ID_LIMIT + 5, 2, DENSE_ID_LIMIT + 5];
        for (i, &id) in ids.iter().enumerate() {
            *m.get_or_insert_with(DataItemId(id), || 0) += i as u32;
            *reference.entry(id).or_insert(0) += i as u32;
        }
        assert_eq!(m.len(), reference.len());
        let got: Vec<(u32, u32)> = m.iter().map(|(id, &v)| (id.0, v)).collect();
        let want: Vec<(u32, u32)> = reference.iter().map(|(&id, &v)| (id, v)).collect();
        assert_eq!(got, want, "iteration order and contents match BTreeMap");
        assert_eq!(m.remove(DataItemId(3)), reference.remove(&3));
        assert_eq!(m.remove(DataItemId(3)), None);
        assert_eq!(
            m.remove(DataItemId(DENSE_ID_LIMIT + 5)),
            reference.remove(&(DENSE_ID_LIMIT + 5))
        );
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn retain_matches_btreemap_retain() {
        let mut m: DenseItemMap<u32> = DenseItemMap::new();
        let mut reference: BTreeMap<u32, u32> = BTreeMap::new();
        for id in [0u32, 1, 4, 9, DENSE_ID_LIMIT, DENSE_ID_LIMIT + 3] {
            m.insert(DataItemId(id), id);
            reference.insert(id, id);
        }
        let mut seen = Vec::new();
        m.retain(|id, v| {
            seen.push(id.0);
            *v += 1;
            id.0 % 2 == 0
        });
        reference.retain(|&id, v| {
            *v += 1;
            id % 2 == 0
        });
        assert_eq!(seen, vec![0, 1, 4, 9, DENSE_ID_LIMIT, DENSE_ID_LIMIT + 3]);
        assert_eq!(m.len(), reference.len());
        let got: Vec<(u32, u32)> = m.iter().map(|(id, &v)| (id.0, v)).collect();
        let want: Vec<(u32, u32)> = reference.iter().map(|(&id, &v)| (id, v)).collect();
        assert_eq!(got, want);
        assert_eq!(m.get(DataItemId(1)), None);
    }
}
