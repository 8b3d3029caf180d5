//! # ees-core
//!
//! The paper's contribution: **energy-efficient storage management
//! cooperated with large data-intensive applications** (Nishikawa, Nakano,
//! Kitsuregawa — ICDE 2012), as a reusable Rust library.
//!
//! The method watches application-level (logical) and storage-level
//! (physical) I/O together, classifies every *data item* into one of four
//! **logical I/O patterns** — P0 idle, P1 read-dominant-with-gaps,
//! P2 write-dominant-with-gaps, P3 continuously accessed — and uses the
//! classification to drive three power-saving levers on enterprise
//! storage: data placement (concentrate P3 items on a few *hot* disk
//! enclosures), cache preloading (absorb P1 reads), and write delay
//! (batch P2 writes), so that the remaining *cold* enclosures see I/O
//! intervals longer than the break-even time and can power off.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |-------|--------|
//! | §II.C patterns | [`pattern`] |
//! | §III monitors  | [`monitor`] (+ the replay engine's capture side) |
//! | §IV.B classification | [`analysis`] |
//! | §IV.C hot/cold | [`hotcold`] |
//! | §IV.D Algorithms 2–3 | [`placement`] |
//! | §IV.E–F cache selection | [`cache_select`] |
//! | §IV.H period adaptation | [`period`] |
//! | §V.D pattern-change triggers | [`runtime`] |
//! | §IV.A Algorithm 1 | [`policy`] ([`EnergyEfficientPolicy`]) |

#![warn(missing_docs)]

pub mod analysis;
pub mod cache_select;
pub mod config;
pub mod hotcold;
pub mod monitor;
pub mod pattern;
pub mod period;
pub mod placement;
pub mod planner;
pub mod policy;
pub mod runtime;

pub use analysis::{
    analyze_snapshot, merge_shard_reports, merge_shard_reports_into, p3_peak_iops, ItemReport,
};
pub use cache_select::{select_preload, select_write_delay};
pub use config::ProposedConfig;
pub use hotcold::{determine_hot_cold, n_hot, split_hot_cold, HotColdSplit};
pub use monitor::{MonitorHistory, MonitorHistoryState, PeriodRecord, DEFAULT_PERIOD_CAP};
pub use pattern::{classify, LogicalIoPattern, PatternMix};
pub use period::next_period;
pub use placement::{plan_placement, plan_placement_with_floor, PlacementPlan};
pub use planner::{PlanOutcome, Planner, PlannerState};
pub use policy::{snapshot_guard, EnergyEfficientPolicy};
pub use runtime::{ArmedTriggers, ArmedTriggersState, PatternChangeTriggers, TriggersState};
