//! End-to-end benchmark of `ees online`.
//!
//! [`drive`] replays a generated trace file through the calls `ees
//! online` makes, in-process; [`traced`] replays it again through the
//! public layer calls the daemon's `step` is built from, timing each;
//! [`fixture`] builds the traces, the batch reference the plans are
//! checked against, and the checkpoint a restart resumes from. `run.py`
//! in this directory runs them per workload and seed and reports the
//! medians. See `README.md` for the metrics and workloads.

pub mod drive;
pub mod fixture;
pub mod spec;
pub mod traced;
pub mod util;
