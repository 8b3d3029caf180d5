//! Typed error taxonomy for the online controller.
//!
//! The streaming pipeline crosses three failure domains — the NDJSON
//! ingest path, the shard worker pool, and the checkpoint store — and
//! before this module each of them surfaced problems its own way
//! (`io::Error` strings, `expect` on the hot path, `(line, message)`
//! tuples). [`OnlineError`] unifies them and, crucially, carries a
//! [`Severity`]: the supervisor retries or absorbs *recoverable* faults
//! (a stalled reader, a panicked worker that can be respawned and
//! replayed) and aborts only on *fatal* ones (a quarantined shard whose
//! state is gone, a checkpoint that fails to decode).

use ees_iotrace::DataItemId;
use ees_replay::CatalogError;
use std::fmt;
use std::io;

/// Whether the controller can keep producing correct plans after the
/// error, or must stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The fault was absorbed (retried, replayed, or skipped) without
    /// compromising plan correctness; the pipeline keeps running.
    Recoverable,
    /// Plan correctness can no longer be guaranteed; the pipeline must
    /// stop and surface the error.
    Fatal,
}

/// Everything that can go wrong on the online controller's hot path.
#[derive(Debug)]
pub enum OnlineError {
    /// An input line failed to parse as an NDJSON event. Recoverable in
    /// the sense that the stream keeps flowing, but surfaced because the
    /// monitor drivers treat the first parse error as the run's outcome.
    Parse {
        /// 1-based line number in the input stream.
        line: u64,
        /// Parser's description of the malformation.
        msg: String,
    },
    /// A shard worker thread panicked. Recoverable when the supervisor
    /// rebuilt the shard (respawn + journal replay); fatal when the shard
    /// was quarantined and its period state is gone.
    WorkerPanic {
        /// Which shard's worker died.
        shard: usize,
        /// Panic payload (if it was a string) or a placeholder.
        detail: String,
        /// Whether the shard was rebuilt or quarantined.
        severity: Severity,
    },
    /// An I/O error on the ingest or checkpoint path that retries did not
    /// clear.
    Io(io::Error),
    /// A checkpoint failed to encode, decode, or validate.
    Checkpoint(String),
    /// A checkpoint's placement, applied to the items file, does not
    /// fit the storage unit.
    Placement(CatalogError),
    /// A record names an item the storage side does not place (absent
    /// from the items file and the checkpoint). The daemon rejects it
    /// before touching any state, so a caller could skip it and keep
    /// stepping; `ees online` ends the run on it.
    UnplacedItem {
        /// The item the record names.
        item: DataItemId,
        /// 1-based position of the record in the stream.
        record: u64,
    },
}

impl OnlineError {
    /// The error's severity class.
    pub fn severity(&self) -> Severity {
        match self {
            OnlineError::Parse { .. } => Severity::Recoverable,
            OnlineError::WorkerPanic { severity, .. } => *severity,
            OnlineError::Io(_) => Severity::Fatal,
            OnlineError::Checkpoint(_) => Severity::Fatal,
            OnlineError::Placement(_) => Severity::Fatal,
            OnlineError::UnplacedItem { .. } => Severity::Recoverable,
        }
    }
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            OnlineError::WorkerPanic {
                shard,
                detail,
                severity,
            } => {
                let fate = match severity {
                    Severity::Recoverable => "rebuilt",
                    Severity::Fatal => "quarantined",
                };
                write!(f, "shard {shard} worker panicked ({fate}): {detail}")
            }
            OnlineError::Io(e) => write!(f, "i/o error: {e}"),
            OnlineError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            OnlineError::Placement(e) => write!(f, "checkpoint placement: {e}"),
            OnlineError::UnplacedItem { item, record } => write!(
                f,
                "record {record}: item {} is not placed on any enclosure (not in the items file)",
                item.0
            ),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for OnlineError {
    fn from(e: io::Error) -> Self {
        OnlineError::Io(e)
    }
}

impl From<OnlineError> for io::Error {
    fn from(e: OnlineError) -> Self {
        match e {
            OnlineError::Io(inner) => inner,
            other => io::Error::other(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severities_are_classified() {
        assert_eq!(
            OnlineError::Parse {
                line: 3,
                msg: "bad".into()
            }
            .severity(),
            Severity::Recoverable
        );
        assert_eq!(
            OnlineError::WorkerPanic {
                shard: 1,
                detail: "boom".into(),
                severity: Severity::Recoverable,
            }
            .severity(),
            Severity::Recoverable
        );
        assert_eq!(
            OnlineError::Checkpoint("truncated".into()).severity(),
            Severity::Fatal
        );
        assert_eq!(
            OnlineError::Io(io::Error::other("gone")).severity(),
            Severity::Fatal
        );
        assert_eq!(
            OnlineError::UnplacedItem {
                item: DataItemId(9),
                record: 4
            }
            .severity(),
            Severity::Recoverable
        );
    }

    #[test]
    fn display_names_the_failure_domain() {
        let e = OnlineError::WorkerPanic {
            shard: 2,
            detail: "injected".into(),
            severity: Severity::Fatal,
        };
        let s = e.to_string();
        assert!(s.contains("shard 2") && s.contains("quarantined"), "{s}");
    }
}
