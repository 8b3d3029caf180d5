//! # ees-workloads
//!
//! Seeded synthetic generators for the three data-intensive applications
//! the paper evaluates (Table I):
//!
//! * [`fileserver`] — the MSR-trace-like File Server (6 h, 36 volumes on
//!   12 enclosures, bursty reads, long quiet windows, a hot minority);
//! * [`oltp`] — TPC-C-like OLTP (1.8 h, log + 9 hash-distributed DB
//!   enclosures, sustained random I/O);
//! * [`dss`] — TPC-H-like DSS (6 h, Q1–Q22 sequential scans striped over
//!   8 DB enclosures plus a work/log device).
//!
//! Beyond Table I, [`cloudblock`] models the Alibaba cloud-block-storage
//! statistics (write-dominant volumes, on/off burstiness, diurnal +
//! weekly envelopes, heavy tenant skew) for long-horizon endurance runs.
//!
//! Every generator is a pure function of `(seed, params)`; the traces the
//! paper replayed from production systems and live benchmark runs are
//! substituted by these statistical twins (see DESIGN.md §2 for why the
//! substitution preserves the evaluated behaviour).

#![warn(missing_docs)]

pub mod cloudblock;
pub mod dss;
pub mod fileserver;
pub mod gen;
pub mod mix;
pub mod msr;
pub mod nurand;
pub mod oltp;
pub mod rng;
pub mod spec;

pub use cloudblock::{CloudBlockParams, CloudBlockStream};
pub use dss::{DssParams, QueryWindow};
pub use fileserver::FileServerParams;
pub use mix::colocate;
pub use msr::{import as import_msr, MsrImportError, MsrImportOptions};
pub use nurand::{NuRand, WeightedPick};
pub use oltp::OltpParams;
pub use rng::SplitMix64;
pub use spec::{items_from_json, items_to_json, DataItemSpec, ItemKind, Workload};
