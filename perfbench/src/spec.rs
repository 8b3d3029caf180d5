//! The benchmark's workloads: which trace, in which format, under which
//! `ees online` flags.

use ees_core::ProposedConfig;
use ees_iotrace::Micros;
use ees_online::ShardOptions;
use ees_workloads::{cloudblock, fileserver, CloudBlockParams, FileServerParams, Workload};

/// `ees online --queue` default, in events.
pub const QUEUE: usize = 1024;
/// `ees online --batch` default, in records per delivery.
pub const BATCH: usize = 64;

/// Which generator a workload's trace comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// `fileserver::generate(seed, FileServerParams::scaled(scale))`.
    Fileserver,
    /// `cloudblock::generate(seed, ..)` with `volumes` block volumes.
    Cloudblock,
}

/// One workload: a generated trace and the `ees online` flags it runs
/// under. Fields are public so tests can shrink a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Trace generator.
    pub family: Family,
    /// Generator duration scale.
    pub scale: f64,
    /// Block volumes (cloudblock only).
    pub volumes: u32,
    /// Replay the framed `ees.event.v1` transcode instead of NDJSON.
    pub binary: bool,
    /// `--shards`.
    pub shards: usize,
    /// `--period`, in seconds.
    pub period_s: u64,
    /// Resume from a checkpoint taken a quarter of the way in, and
    /// checkpoint at every plan (`--checkpoint`).
    pub restart: bool,
}

/// The workloads `run.py --workload` accepts.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "fileserver-binary",
        family: Family::Fileserver,
        scale: 0.3,
        volumes: 0,
        binary: true,
        shards: 1,
        period_s: 120,
        restart: false,
    },
    Spec {
        name: "cloudblock-restart",
        family: Family::Cloudblock,
        scale: 1.0,
        volumes: 2000,
        binary: false,
        shards: 2,
        period_s: 60,
        restart: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().find(|s| s.name == name).cloned()
}

impl Spec {
    /// Directory name of the generated trace: workloads that share a
    /// generator, scale and seed share one trace.
    pub fn trace_key(&self, seed: u64) -> String {
        match self.family {
            Family::Fileserver => format!("fileserver-x{}-s{seed}", self.scale),
            Family::Cloudblock => format!("cloudblock-x{}-v{}-s{seed}", self.scale, self.volumes),
        }
    }

    /// Generates the trace and item catalog.
    pub fn generate(&self, seed: u64) -> Workload {
        match self.family {
            Family::Fileserver => fileserver::generate(seed, &FileServerParams::scaled(self.scale)),
            Family::Cloudblock => {
                let mut p = CloudBlockParams::scaled(self.scale);
                p.num_volumes = self.volumes;
                cloudblock::generate(seed, &p)
            }
        }
    }

    /// The policy `ees online --period` builds.
    pub fn policy(&self) -> ProposedConfig {
        ProposedConfig {
            initial_period: Micros::from_secs(self.period_s),
            ..ProposedConfig::default()
        }
    }

    /// The shard options `ees online` builds from its default
    /// `--queue`/`--batch`/`--readers`.
    pub fn shard_options(&self) -> ShardOptions {
        ShardOptions {
            queue: QUEUE.div_ceil(BATCH).max(2),
            readers: 0,
            ..ShardOptions::default()
        }
    }

    /// Reader-channel capacity in batches, as `ees online` sizes it.
    pub fn capacity(&self) -> usize {
        QUEUE.div_ceil(BATCH).max(1)
    }

    /// Parser threads `ees online` resolves for this shard count.
    pub fn readers(&self) -> usize {
        self.shard_options().resolved_readers(self.shards)
    }

    /// The fixture file the run reads its events from.
    pub fn trace_file(&self) -> &'static str {
        if self.binary {
            "trace.eev"
        } else {
            "trace.jsonl"
        }
    }
}
