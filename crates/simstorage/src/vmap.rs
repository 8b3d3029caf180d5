//! The block-virtualization layer's placement map (§III, Fig. 2).
//!
//! [`PlacementMap`] records where every data item currently lives — the
//! "logical mapping information" joined with the "physical mapping
//! information" of the paper's monitors. The replay engine resolves each
//! logical I/O through this map, and the run-time power-saving method
//! updates it when it migrates items between enclosures (§V.A).
//!
//! Physical block addresses are synthesized as `item_id << 40 | offset`
//! (1 TiB of address space per item), which keeps a stable, collision-free
//! enclosure address for every byte without tracking real extents.

use ees_iotrace::{DataItemId, EnclosureId};
use std::collections::BTreeMap;

/// Where one data item lives and how big it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemPlacement {
    /// The enclosure holding the item.
    pub enclosure: EnclosureId,
    /// Item size in bytes.
    pub size: u64,
}

/// Data-item → enclosure mapping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementMap {
    map: BTreeMap<DataItemId, ItemPlacement>,
}

impl PlacementMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a data item. Replaces any previous placement.
    pub fn insert(&mut self, item: DataItemId, enclosure: EnclosureId, size: u64) {
        self.map.insert(item, ItemPlacement { enclosure, size });
    }

    /// The enclosure currently holding `item`.
    pub fn enclosure_of(&self, item: DataItemId) -> Option<EnclosureId> {
        self.map.get(&item).map(|p| p.enclosure)
    }

    /// Size of `item` in bytes.
    pub fn size_of(&self, item: DataItemId) -> Option<u64> {
        self.map.get(&item).map(|p| p.size)
    }

    /// Full placement record of `item`.
    pub fn get(&self, item: DataItemId) -> Option<ItemPlacement> {
        self.map.get(&item).copied()
    }

    /// Re-homes `item` onto `to`. Returns the previous enclosure.
    ///
    /// # Panics
    /// Panics if the item is unknown — migration plans must reference
    /// registered items.
    pub fn move_item(&mut self, item: DataItemId, to: EnclosureId) -> EnclosureId {
        let p = self
            .map
            .get_mut(&item)
            .unwrap_or_else(|| panic!("{item} is not registered in the placement map"));
        std::mem::replace(&mut p.enclosure, to)
    }

    /// All items on `enclosure`, in item order.
    pub fn items_on(&self, enclosure: EnclosureId) -> Vec<DataItemId> {
        self.map
            .iter()
            .filter(|(_, p)| p.enclosure == enclosure)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Total bytes placed on `enclosure`.
    pub fn used_on(&self, enclosure: EnclosureId) -> u64 {
        self.map
            .values()
            .filter(|p| p.enclosure == enclosure)
            .map(|p| p.size)
            .sum()
    }

    /// Iterates over all `(item, placement)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DataItemId, ItemPlacement)> + '_ {
        self.map.iter().map(|(&id, &p)| (id, p))
    }

    /// Number of registered items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no items are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Synthesizes the physical block address of `(item, offset)`.
    pub fn physical_block(item: DataItemId, offset: u64) -> u64 {
        debug_assert!(offset < (1 << 40), "item offsets are limited to 1 TiB");
        ((item.0 as u64) << 40) | offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut m = PlacementMap::new();
        m.insert(DataItemId(1), EnclosureId(0), 100);
        m.insert(DataItemId(2), EnclosureId(1), 200);
        assert_eq!(m.enclosure_of(DataItemId(1)), Some(EnclosureId(0)));
        assert_eq!(m.size_of(DataItemId(2)), Some(200));
        assert_eq!(m.enclosure_of(DataItemId(9)), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn move_item_rehomes() {
        let mut m = PlacementMap::new();
        m.insert(DataItemId(1), EnclosureId(0), 100);
        let from = m.move_item(DataItemId(1), EnclosureId(3));
        assert_eq!(from, EnclosureId(0));
        assert_eq!(m.enclosure_of(DataItemId(1)), Some(EnclosureId(3)));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn move_unknown_item_panics() {
        let mut m = PlacementMap::new();
        m.move_item(DataItemId(1), EnclosureId(0));
    }

    #[test]
    fn items_on_and_used_on() {
        let mut m = PlacementMap::new();
        m.insert(DataItemId(1), EnclosureId(0), 100);
        m.insert(DataItemId(2), EnclosureId(0), 50);
        m.insert(DataItemId(3), EnclosureId(1), 70);
        assert_eq!(
            m.items_on(EnclosureId(0)),
            vec![DataItemId(1), DataItemId(2)]
        );
        assert_eq!(m.used_on(EnclosureId(0)), 150);
        assert_eq!(m.used_on(EnclosureId(1)), 70);
        assert_eq!(m.used_on(EnclosureId(2)), 0);
    }

    #[test]
    fn physical_blocks_are_disjoint_across_items() {
        let a = PlacementMap::physical_block(DataItemId(1), (1 << 40) - 1);
        let b = PlacementMap::physical_block(DataItemId(2), 0);
        assert!(a < b);
    }
}
