//! # ees-replay
//!
//! The trace-replay engine (the reproduction's `btreplay` + power-saving
//! harness of the paper's Fig. 7): plays a generated workload against the
//! simulated storage unit under any [`ees_policy::PowerPolicy`], executes
//! the policy's plans, and reports every quantity the paper's evaluation
//! section measures.

#![warn(missing_docs)]

pub mod appmetrics;
pub mod engine;
pub mod metrics;
pub mod stream;

pub use appmetrics::{
    tpcc_throughput, tpcc_throughput_from_reports, tpch_query_response,
    tpch_query_response_from_reports,
};
pub use engine::{run, ReplayOptions};
pub use metrics::{nearest_rank, EnclosureSummary, RunReport};
pub use stream::{CatalogError, CatalogItem, ServedIo, StreamHarness};
