//! Workload and data-item specifications (the paper's Table I).

use ees_iotrace::ndjson::{json_escape, parse_flat_object, split_array_of_objects};
use ees_iotrace::{DataItemId, EnclosureId, LogicalTrace, VolumeId};
use ees_simstorage::{Access, PlacementMap};
use std::collections::BTreeMap;

/// What kind of application data an item holds — determines the access
/// hint and helps reports stay readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A file-server file group.
    File,
    /// A DBMS table fragment.
    Table,
    /// A DBMS index fragment.
    Index,
    /// A DBMS write-ahead log.
    Log,
    /// A DSS work/spill file.
    WorkFile,
}

/// Static description of one data item.
#[derive(Debug, Clone, PartialEq)]
pub struct DataItemSpec {
    /// The item's identifier.
    pub id: DataItemId,
    /// Human-readable name ("stock.3", "vol07/projA").
    pub name: String,
    /// Item size in bytes.
    pub size: u64,
    /// The volume the application sees the item on.
    pub volume: VolumeId,
    /// The enclosure the item initially lives on.
    pub enclosure: EnclosureId,
    /// What the item holds.
    pub kind: ItemKind,
    /// Whether the item's I/O is served sequentially or randomly.
    pub access: Access,
}

impl ItemKind {
    fn as_str(&self) -> &'static str {
        match self {
            ItemKind::File => "File",
            ItemKind::Table => "Table",
            ItemKind::Index => "Index",
            ItemKind::Log => "Log",
            ItemKind::WorkFile => "WorkFile",
        }
    }

    fn from_str(s: &str) -> Option<ItemKind> {
        Some(match s {
            "File" => ItemKind::File,
            "Table" => ItemKind::Table,
            "Index" => ItemKind::Index,
            "Log" => ItemKind::Log,
            "WorkFile" => ItemKind::WorkFile,
            _ => return None,
        })
    }
}

/// Serializes an item catalog as a JSON array of flat objects, one item
/// per line. Field names and order follow [`DataItemSpec`], the layout
/// earlier tool versions wrote too, so their catalogs parse back with
/// [`items_from_json`].
pub fn items_to_json(items: &[DataItemSpec]) -> String {
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\":{},\"name\":\"{}\",\"size\":{},\"volume\":{},\"enclosure\":{},\
             \"kind\":\"{}\",\"access\":\"{}\"}}{}\n",
            item.id.0,
            json_escape(&item.name),
            item.size,
            item.volume.0,
            item.enclosure.0,
            item.kind.as_str(),
            match item.access {
                Access::Random => "Random",
                Access::Sequential => "Sequential",
            },
            if i + 1 < items.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// Parses an item catalog from the JSON array format of
/// [`items_to_json`] (tolerant of field order and whitespace).
pub fn items_from_json(text: &str) -> Result<Vec<DataItemSpec>, String> {
    let mut items = Vec::new();
    for (idx, part) in split_array_of_objects(text)?.into_iter().enumerate() {
        let fields = parse_flat_object(part).map_err(|e| format!("item {idx}: {e}"))?;
        let mut id = None;
        let mut name = None;
        let mut size = None;
        let mut volume = None;
        let mut enclosure = None;
        let mut kind = None;
        let mut access = None;
        for (key, value) in &fields {
            match key.as_str() {
                "id" => id = value.as_u64(),
                "name" => name = value.as_str().map(str::to_string),
                "size" => size = value.as_u64(),
                "volume" => volume = value.as_u64(),
                "enclosure" => enclosure = value.as_u64(),
                "kind" => {
                    kind = Some(
                        value
                            .as_str()
                            .and_then(ItemKind::from_str)
                            .ok_or_else(|| format!("item {idx}: bad kind {value:?}"))?,
                    )
                }
                "access" => {
                    access = Some(match value.as_str() {
                        Some("Random") => Access::Random,
                        Some("Sequential") => Access::Sequential,
                        _ => return Err(format!("item {idx}: bad access {value:?}")),
                    })
                }
                _ => {} // Unknown fields are ignored for forward compatibility.
            }
        }
        let req = |f: &str| format!("item {idx}: missing field \"{f}\"");
        items.push(DataItemSpec {
            id: DataItemId(
                u32::try_from(id.ok_or_else(|| req("id"))?)
                    .map_err(|_| format!("item {idx}: id out of range"))?,
            ),
            name: name.ok_or_else(|| req("name"))?,
            size: size.ok_or_else(|| req("size"))?,
            volume: VolumeId(
                u16::try_from(volume.ok_or_else(|| req("volume"))?)
                    .map_err(|_| format!("item {idx}: volume out of range"))?,
            ),
            enclosure: EnclosureId(
                u16::try_from(enclosure.ok_or_else(|| req("enclosure"))?)
                    .map_err(|_| format!("item {idx}: enclosure out of range"))?,
            ),
            kind: kind.ok_or_else(|| req("kind"))?,
            access: access.ok_or_else(|| req("access"))?,
        });
    }
    Ok(items)
}

/// A complete generated workload: the item catalog plus the logical I/O
/// trace the replay engine plays back.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name ("File Server", "TPC-C", "TPC-H").
    pub name: &'static str,
    /// Trace duration.
    pub duration: ees_iotrace::Micros,
    /// Number of disk enclosures the experiment uses (Table I).
    pub num_enclosures: u16,
    /// The data items.
    pub items: Vec<DataItemSpec>,
    /// The logical I/O trace, timestamp-ordered.
    pub trace: LogicalTrace,
}

impl Workload {
    /// Builds the initial placement map from the item catalog.
    pub fn initial_placement(&self) -> PlacementMap {
        let mut map = PlacementMap::new();
        for item in &self.items {
            map.insert(item.id, item.enclosure, item.size);
        }
        map
    }

    /// Item-id → access-pattern lookup for the engine.
    pub fn access_hints(&self) -> BTreeMap<DataItemId, Access> {
        self.items.iter().map(|i| (i.id, i.access)).collect()
    }

    /// Total bytes of all items.
    pub fn total_data_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.size).sum()
    }

    /// The item spec for `id`, if registered.
    pub fn item(&self, id: DataItemId) -> Option<&DataItemSpec> {
        self.items.iter().find(|i| i.id == id)
    }

    /// Asserts internal consistency: unique item ids, every trace record
    /// referencing a cataloged item, enclosures within range. Used by
    /// generator tests.
    pub fn validate(&self) {
        let mut seen = std::collections::BTreeSet::new();
        for item in &self.items {
            assert!(seen.insert(item.id), "duplicate item id {}", item.id);
            assert!(
                item.enclosure.0 < self.num_enclosures,
                "{} placed on out-of-range {}",
                item.name,
                item.enclosure
            );
            assert!(item.size > 0, "{} has zero size", item.name);
        }
        for rec in self.trace.iter() {
            assert!(
                seen.contains(&rec.item),
                "trace references unknown {}",
                rec.item
            );
            assert!(
                rec.ts < self.duration + self.duration,
                "timestamp past duration"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{IoKind, LogicalIoRecord, Micros};

    fn item(id: u32, enc: u16, size: u64) -> DataItemSpec {
        DataItemSpec {
            id: DataItemId(id),
            name: format!("item{id}"),
            size,
            volume: VolumeId(0),
            enclosure: EnclosureId(enc),
            kind: ItemKind::File,
            access: Access::Random,
        }
    }

    fn workload() -> Workload {
        Workload {
            name: "test",
            duration: Micros::from_secs(100),
            num_enclosures: 2,
            items: vec![item(1, 0, 10), item(2, 1, 20)],
            trace: LogicalTrace::from_unsorted(vec![LogicalIoRecord {
                ts: Micros::from_secs(1),
                item: DataItemId(1),
                offset: 0,
                len: 512,
                kind: IoKind::Read,
            }]),
        }
    }

    #[test]
    fn placement_and_hints() {
        let w = workload();
        let p = w.initial_placement();
        assert_eq!(p.enclosure_of(DataItemId(1)), Some(EnclosureId(0)));
        assert_eq!(p.size_of(DataItemId(2)), Some(20));
        assert_eq!(w.access_hints()[&DataItemId(1)], Access::Random);
        assert_eq!(w.total_data_bytes(), 30);
        assert_eq!(w.item(DataItemId(2)).unwrap().name, "item2");
        w.validate();
    }

    #[test]
    fn items_json_roundtrip() {
        let items = vec![
            item(1, 0, 10),
            DataItemSpec {
                id: DataItemId(2),
                name: "vol07/proj \"A\"".into(),
                size: 1 << 30,
                volume: VolumeId(3),
                enclosure: EnclosureId(1),
                kind: ItemKind::WorkFile,
                access: Access::Sequential,
            },
        ];
        let text = items_to_json(&items);
        assert_eq!(items_from_json(&text).unwrap(), items);
        assert_eq!(items_from_json("[]").unwrap(), Vec::new());
        assert!(items_from_json("{}").is_err());
        assert!(items_from_json("[{\"id\":1}]")
            .unwrap_err()
            .contains("missing field"));
    }

    #[test]
    #[should_panic(expected = "duplicate item id")]
    fn validate_catches_duplicate_ids() {
        let mut w = workload();
        w.items.push(item(1, 0, 5));
        w.validate();
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn validate_catches_bad_enclosure() {
        let mut w = workload();
        w.items.push(item(3, 9, 5));
        w.validate();
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn validate_catches_unknown_trace_item() {
        let mut w = workload();
        w.trace = LogicalTrace::from_unsorted(vec![LogicalIoRecord {
            ts: Micros::from_secs(1),
            item: DataItemId(99),
            offset: 0,
            len: 512,
            kind: IoKind::Read,
        }]);
        w.validate();
    }
}
