//! # ees-iotrace
//!
//! I/O trace foundations for the *Energy Efficient Storage Management
//! Cooperated with Large Data Intensive Applications* (ICDE 2012)
//! reproduction:
//!
//! * shared identifiers and units ([`types`]),
//! * logical (application-level) and physical (enclosure-level) trace
//!   records and containers ([`record`]),
//! * the paper's interval vocabulary — **Long Intervals** and **I/O
//!   Sequences** — plus IOPS series and the Fig. 17–19 cumulative
//!   interval-length curve ([`stats`]), both batch
//!   ([`analyze_item_period`]) and streaming ([`IntervalBuilder`]),
//! * the dependency-free NDJSON event codec that trace files and the
//!   online controller share ([`ndjson`]),
//! * the `ees.event.v1` compact binary wire format ([`wire`]) and the
//!   dense item-id interning it feeds ([`intern`]),
//! * zero-copy file input for the parallel front ends: memory-mapped
//!   traces ([`mmap`]) sliced by the newline chunker ([`chunk`]) or the
//!   framed-block splitter ([`wire::BlockSplitter`]),
//! * runtime-dispatched wide byte-scanning kernels (AVX2/SSE2/NEON with
//!   a portable SWAR fallback) behind one [`scan::Scanner`] table
//!   ([`scan`]) — the primitives every hot parser loop above runs on.
//!
//! Everything downstream (the simulator, the workload generators, the
//! proposed policy, and the baselines) builds on these types.

#![warn(missing_docs)]

pub mod chunk;
pub mod histogram;
pub mod intern;
pub mod mmap;
pub mod ndjson;
pub mod parallel;
pub mod record;
pub mod scan;
pub mod slice;
pub mod stats;
pub mod types;
pub mod wire;

pub use histogram::LatencyHistogram;
pub use intern::{DenseItemMap, ItemInterner, DENSE_ID_LIMIT};
pub use mmap::{map_file, Mmap};
pub use ndjson::EventReader;
pub use record::{LogicalIoRecord, LogicalTrace, PhysicalIoRecord};
pub use scan::{ScanIsa, Scanner};
pub use slice::{summarize, TraceSummary};
pub use stats::{
    analyze_item_period, gaps_with_bounds, split_by_item, split_by_item_dense, IntervalBuilder,
    IntervalBuilderState, IntervalCdf, IoSequence, IopsSeries, ItemIntervalStats, Span,
};
pub use types::{fmt_bytes, DataItemId, EnclosureId, IoKind, Micros, VolumeId, GIB, KIB, MIB, TIB};
pub use wire::{
    decode_block, decode_events, encode_events, encode_events_framed, is_framed, sniff_format,
    sniff_format_checked, transcode_binary_to_ndjson, transcode_ndjson_to_binary,
    transcode_ndjson_to_binary_blocks, BinaryEventReader, BinaryEventWriter, BlockSplitter,
    DecodedBlock, LocalNames, NamedEvent, StreamFormat, WireRecord, EVENT_MAGIC,
};
