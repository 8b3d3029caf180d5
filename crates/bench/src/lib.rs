//! # ees-bench
//!
//! The experiment harness behind `cargo run -p ees-bench --bin
//! experiments`: regenerates every table and figure of the paper's
//! evaluation (Table I–II, Fig. 6, Fig. 8–19) on the simulated test bed,
//! and hosts the Criterion micro-benchmarks.

#![warn(missing_docs)]

pub mod experiments;
pub mod format;
pub mod reference;
pub mod report_json;

/// Re-export of the shared fork–join pool, which moved to `ees-iotrace`
/// so the online subsystem can size its shard pool from the same
/// `EES_THREADS` convention. Kept here for source compatibility.
pub use ees_iotrace::parallel;

pub use experiments::{
    classify_whole_run, make_workload, run_methods, run_methods_matrix, run_one, ExperimentSetup,
    Method, MethodReports, WorkloadKind,
};
pub use parallel::{parallel_map, parallel_map_with, threads};
