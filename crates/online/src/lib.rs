//! # ees-online
//!
//! The online controller subsystem: runs the paper's management function
//! against a **live event stream** instead of a replayed, fully buffered
//! trace.
//!
//! Three layers, composable or separable:
//!
//! * [`IncrementalClassifier`] — per-item streaming state machines that
//!   fold one logical record at a time into running Long-Interval /
//!   I/O-Sequence / read-ratio state, and at period rollover emit exactly
//!   the P0–P3 reports the batch analysis
//!   ([`ees_core::analyze_snapshot`]) computes from a buffered period
//!   (property-tested equivalence);
//! * [`OnlineController`] — wraps the shared planning core
//!   ([`ees_core::Planner`]) and §V.D trigger arming
//!   ([`ees_core::ArmedTriggers`]) around the classifier: rolls periods
//!   without materializing a trace, fires mid-period re-planning on
//!   pattern-change triggers, and emits [`PlanEnvelope`]s;
//! * [`ColocatedDaemon`] — couples the controller to the storage-side
//!   [`ees_replay::StreamHarness`] (the same plan-execution and serve
//!   path the batch engine uses), so an online run is plan-for-plan
//!   identical to `ees_replay::run` on the same input;
//! * [`ingest`] — the event front end: a reader thread feeding a bounded
//!   batch queue under an explicit backpressure policy
//!   ([`OverflowPolicy`]), surfaced on the command line as `ees online`.
//!
//! For throughput, the classification fold shards across worker threads:
//! [`ShardedController`] hash-partitions items over per-shard
//! [`IncrementalClassifier`]s and merges their verdicts at a rollover
//! barrier ([`ees_core::merge_shard_reports`]) into the byte-identical
//! single-threaded snapshot — same plans, period for period
//! (property-tested in `tests/sharded.rs`). The [`pipeline`] module has
//! the matching monitor drivers ([`run_monitor_serial`], the serial test
//! oracle, and [`run_monitor_sharded`]); `ees online --shards N` and
//! [`ColocatedDaemon::with_shard_options`] select the sharded flavor.
//!
//! Parsing itself is parallel too (DESIGN.md §13): the [`frontend`]
//! module — the one route by which bytes become records — splits the
//! byte stream into newline-aligned chunks or framed binary blocks, fans
//! them over N parser threads, and re-sequences the parsed chunks so the
//! coordinator walks records in exact file order — plans stay
//! byte-identical to the serial driver by construction. One reader per
//! shard is the default (`ShardOptions::readers`, `ees online
//! --readers N`; `--readers 1` is a single parser thread).
//!
//! For production hardening the crate adds three failure-domain layers
//! (DESIGN.md §11):
//!
//! * [`error`] — the typed [`OnlineError`] taxonomy (recoverable vs
//!   fatal) that replaces ad-hoc panics on the hot path;
//! * [`checkpoint`] — the versioned `ees.checkpoint.v1` codec plus
//!   atomic file persistence, so a crashed controller restarts
//!   mid-stream and still emits byte-identical plans;
//! * [`fault`] / [`chaos`] — a seed-deterministic fault injector
//!   (malformed lines, duplicates, reorderings, reader stalls, queue
//!   overflow, worker panics) and the end-to-end chaos harness behind
//!   `ees chaos`, which asserts zero plan divergence under every
//!   injected fault schedule.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod checkpoint;
pub mod classify;
pub mod controller;
pub mod daemon;
pub mod endure;
pub mod error;
pub mod fault;
pub mod frontend;
pub mod ingest;
pub mod net;
pub mod pipeline;
pub mod shard;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, read_checkpoint_file, write_checkpoint_file,
    ControllerCheckpoint, CHECKPOINT_VERSION,
};
pub use classify::{IncrementalClassifier, ItemCheckpoint};
pub use controller::{ControllerState, OnlineController, PlanEnvelope, RolloverReason};
pub use daemon::{ColocatedDaemon, OnlineSummary};
pub use endure::{run_endurance, EnduranceConfig, EnduranceReport, PeriodMetric};
pub use error::{OnlineError, Severity};
pub use fault::{
    silence_injected_panics, FaultSpec, FaultTally, FaultyReader, PanicSchedule, Sanitizer,
};
pub use frontend::{
    parse_block, parse_chunk, parse_lines, ChunkError, ParallelScanner, ParsedChunk, ScanSource,
    CUT_PARK,
};
pub use ingest::{
    spawn_reader_parallel, spawn_reader_parallel_mapped, BatchPool, IngestCounters, IngestStats,
    OverflowPolicy, PooledReader, RetryingReader,
};
pub use net::{spawn_net_ingest, ConnSnapshot, NetCounters, NetListener, NetOptions, NetReader};
pub use pipeline::{run_monitor_serial, run_monitor_sharded, MonitorOutcome};
pub use shard::{shard_of, ShardOptions, ShardedController, SupervisionPolicy, SHARD_QUEUE};
