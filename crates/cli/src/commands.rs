//! Subcommand implementations for the `ees` tool.
//!
//! ```text
//! ees gen <fileserver|tpcc|tpch|cloudblock> [--scale X] [--seed N] [--out DIR] [--volumes N]
//! ees stats <trace.jsonl> [--json]
//! ees classify <trace.jsonl> <items.json> [--break-even SECS] [--period SECS] [--json]
//! ees replay <fileserver|tpcc|tpch> <none|proposed|pdc|ddr> [--scale X] [--seed N] [--json]
//! ees online <trace.jsonl|-> <items.json> [--break-even SECS] [--period SECS]
//!            [--queue N] [--batch N] [--drop-newest] [--shards N] [--readers N]
//!            [--checkpoint FILE] [--json]
//! ees online --listen <addr> <items.json> [--conns N] [...same knobs]
//! ees transcode <in> <out>
//! ees chaos [--seed N] [--seeds N] [--shards N] [--events N] [--json]
//! ees endure [--seed N] [--periods N] [--shards N] [--volumes N]
//!            [--restore-every N] [--panics N] [--drift-bar X] [--json]
//! ```
//!
//! `--listen` swaps the file front end for the socket control plane
//! (DESIGN.md §14): `addr` with a colon is a TCP `host:port`, otherwise
//! a Unix socket path; exactly `--conns` connections are accepted and
//! merged deterministically. `transcode` converts a captured stream
//! between NDJSON and the `ees.event.v1` binary framing (direction
//! sniffed from the input's first bytes).

use crate::jsonout;
use ees_baselines::{Ddr, Pdc};
use ees_core::{classify, EnergyEfficientPolicy, LogicalIoPattern, PatternMix, ProposedConfig};
use ees_iotrace::wire::{
    is_framed, sniff_format, sniff_format_checked, transcode_binary_to_ndjson,
    transcode_ndjson_to_binary_blocks, StreamFormat,
};
use ees_iotrace::{
    analyze_item_period, fmt_bytes, map_file, split_by_item, summarize, ItemInterner, Micros, Span,
};
use ees_online::{
    read_checkpoint_file, run_chaos, run_endurance, silence_injected_panics, spawn_net_ingest,
    spawn_reader_parallel, spawn_reader_parallel_mapped, write_checkpoint_file, ChaosConfig,
    ColocatedDaemon, EnduranceConfig, NetListener, NetOptions, OverflowPolicy, PanicSchedule,
    RolloverReason, ShardOptions, SupervisionPolicy,
};
use ees_policy::{NoPowerSaving, PowerPolicy};
use ees_replay::{run, CatalogItem, ReplayOptions, StreamHarness};
use ees_simstorage::StorageConfig;
use ees_workloads::{cloudblock, dss, fileserver, oltp, DataItemSpec, Workload};
use ees_workloads::{items_from_json, items_to_json};
use ees_workloads::{CloudBlockParams, DssParams, FileServerParams, OltpParams};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments / usage.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Malformed input file.
    Parse(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Largest `--queue`, in events. A full reader queue grows each
/// delivery to `batch × min(capacity, 16)` records and holds at most
/// `capacity + 1` of them (`capacity` = ⌈queue / batch⌉ deliveries):
/// under 18.2 × `--queue` records for any `--batch`, so at this ceiling
/// at most 19.0M records (608 MB; worst at `--batch 69905`), plus the
/// channel's own ≤ 2^20 slots (34 MB at `--batch 1`).
const MAX_QUEUE: usize = 1 << 20;

/// Deepest shard channel, in batches: the depth the `--queue`/`--batch`
/// defaults derive. std's `sync_channel` allocates every slot up front,
/// so an unclamped ⌈queue / batch⌉ would ask for 2^20 slots (~58 MB)
/// per shard at `--queue 1048576 --batch 1`.
const MAX_SHARD_QUEUE: usize = 16;

/// Largest `--shards`, `--readers` and `--conns`: each is a count of
/// threads the run starts.
const MAX_THREADS: usize = 64;

/// Parses a thread-count flag's value, refusing one above [`MAX_THREADS`].
fn thread_count(name: &str, value: String) -> Result<usize, CliError> {
    let n: usize = value
        .parse()
        .map_err(|_| CliError::Usage(format!("{name} expects an integer")))?;
    if n > MAX_THREADS {
        return Err(CliError::Usage(format!(
            "{name} {n} is above the ceiling of {MAX_THREADS}"
        )));
    }
    Ok(n)
}

/// Common flags shared by the generating subcommands.
struct Flags {
    scale: f64,
    seed: u64,
    out: PathBuf,
    break_even: Option<Micros>,
    period: Option<Micros>,
    json: bool,
    queue: usize,
    batch: usize,
    drop_newest: bool,
    shards: usize,
    readers: usize,
    checkpoint: Option<PathBuf>,
    seeds: u64,
    events: u64,
    listen: Option<String>,
    conns: usize,
    fail_shard: Option<(usize, u64)>,
    block_bytes: usize,
    periods: usize,
    volumes: u32,
    restore_every: usize,
    panics: usize,
    drift_bar: Option<f64>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<(Vec<String>, Flags), CliError> {
        let mut flags = Flags {
            scale: 0.1,
            seed: 42,
            out: PathBuf::from("."),
            break_even: None,
            period: None,
            json: false,
            queue: 1024,
            batch: 64,
            drop_newest: false,
            shards: 1,
            readers: 0,
            checkpoint: None,
            seeds: 1,
            events: 4000,
            listen: None,
            conns: 1,
            fail_shard: None,
            block_bytes: 0,
            periods: 50,
            volumes: 96,
            restore_every: 10,
            panics: 4,
            drift_bar: None,
        };
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = |name: &str| -> Result<String, CliError> {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match a.as_str() {
                "--scale" => {
                    flags.scale = take("--scale")?
                        .parse()
                        .map_err(|_| CliError::Usage("--scale expects a number".into()))?
                }
                "--seed" => {
                    flags.seed = take("--seed")?
                        .parse()
                        .map_err(|_| CliError::Usage("--seed expects an integer".into()))?
                }
                "--out" => flags.out = PathBuf::from(take("--out")?),
                "--break-even" => {
                    let secs: f64 = take("--break-even")?
                        .parse()
                        .map_err(|_| CliError::Usage("--break-even expects seconds".into()))?;
                    flags.break_even = Some(Micros::from_secs_f64(secs));
                }
                "--period" => {
                    let secs: f64 = take("--period")?
                        .parse()
                        .map_err(|_| CliError::Usage("--period expects seconds".into()))?;
                    flags.period = Some(Micros::from_secs_f64(secs));
                }
                "--json" => flags.json = true,
                "--queue" => {
                    flags.queue = take("--queue")?
                        .parse()
                        .map_err(|_| CliError::Usage("--queue expects an integer".into()))?
                }
                "--batch" => {
                    flags.batch = take("--batch")?
                        .parse::<usize>()
                        .map_err(|_| CliError::Usage("--batch expects an integer".into()))?
                        .max(1)
                }
                "--drop-newest" => flags.drop_newest = true,
                "--shards" => flags.shards = thread_count("--shards", take("--shards")?)?,
                "--readers" => flags.readers = thread_count("--readers", take("--readers")?)?,
                "--checkpoint" => flags.checkpoint = Some(PathBuf::from(take("--checkpoint")?)),
                "--listen" => flags.listen = Some(take("--listen")?),
                "--conns" => flags.conns = thread_count("--conns", take("--conns")?)?.max(1),
                // Test-only fault hook: quarantine shard SHARD at its
                // EVENT-th folded record, to exercise the end-of-stream
                // health check without a real crash.
                "--fail-shard" => {
                    let v = take("--fail-shard")?;
                    let parsed = v.split_once(':').and_then(|(s, e)| {
                        Some((s.parse::<usize>().ok()?, e.parse::<u64>().ok()?))
                    });
                    flags.fail_shard = Some(parsed.ok_or_else(|| {
                        CliError::Usage("--fail-shard expects SHARD:EVENT".into())
                    })?);
                }
                "--seeds" => {
                    flags.seeds = take("--seeds")?
                        .parse()
                        .map_err(|_| CliError::Usage("--seeds expects an integer".into()))?
                }
                "--events" => {
                    flags.events = take("--events")?
                        .parse()
                        .map_err(|_| CliError::Usage("--events expects an integer".into()))?
                }
                // `ees transcode` block framing target; 0 (the default)
                // selects the codec's default block size.
                "--block-bytes" => {
                    flags.block_bytes = take("--block-bytes")?
                        .parse()
                        .map_err(|_| CliError::Usage("--block-bytes expects an integer".into()))?
                }
                "--periods" => {
                    flags.periods = take("--periods")?
                        .parse()
                        .map_err(|_| CliError::Usage("--periods expects an integer".into()))?
                }
                "--volumes" => {
                    flags.volumes = take("--volumes")?
                        .parse()
                        .map_err(|_| CliError::Usage("--volumes expects an integer".into()))?
                }
                "--restore-every" => {
                    flags.restore_every = take("--restore-every")?
                        .parse()
                        .map_err(|_| CliError::Usage("--restore-every expects an integer".into()))?
                }
                "--panics" => {
                    flags.panics = take("--panics")?
                        .parse()
                        .map_err(|_| CliError::Usage("--panics expects an integer".into()))?
                }
                "--drift-bar" => {
                    flags.drift_bar = Some(
                        take("--drift-bar")?
                            .parse()
                            .map_err(|_| CliError::Usage("--drift-bar expects a number".into()))?,
                    )
                }
                other => positional.push(other.to_string()),
            }
        }
        // Both size allocations up front (the reader channel, its
        // deliveries), so out-of-range values are refused here.
        if flags.queue > MAX_QUEUE {
            return Err(CliError::Usage(format!(
                "--queue {} is above the ceiling of {MAX_QUEUE} events",
                flags.queue
            )));
        }
        if flags.batch > flags.queue {
            return Err(CliError::Usage(format!(
                "--batch {} is larger than --queue {}",
                flags.batch, flags.queue
            )));
        }
        Ok((positional, flags))
    }

    /// Each shard channel's depth in batches: the reader queue's
    /// ⌈queue / batch⌉, at least double-buffered and at most
    /// [`MAX_SHARD_QUEUE`].
    fn shard_queue(&self) -> usize {
        self.queue.div_ceil(self.batch).clamp(2, MAX_SHARD_QUEUE)
    }
}

fn make_workload(name: &str, flags: &Flags) -> Result<Workload, CliError> {
    Ok(match name {
        "fileserver" => fileserver::generate(flags.seed, &FileServerParams::scaled(flags.scale)),
        "tpcc" => oltp::generate(flags.seed, &OltpParams::scaled(flags.scale)),
        "tpch" => dss::generate(flags.seed, &DssParams::scaled(flags.scale)),
        "cloudblock" => {
            let mut p = CloudBlockParams::scaled(flags.scale);
            p.num_volumes = flags.volumes.max(1);
            cloudblock::generate(flags.seed, &p)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown workload '{other}' (expected fileserver|tpcc|tpch|cloudblock)"
            )))
        }
    })
}

/// Entry point; returns the process exit code.
pub fn run_cli(args: Vec<String>, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "expected a subcommand: gen | stats | classify | replay | mix | online | transcode | chaos | endure"
                .into(),
        ));
    };
    let (positional, flags) = Flags::parse(rest)?;
    match cmd.as_str() {
        "gen" => gen(&positional, &flags, out),
        "stats" => stats(&positional, &flags, out),
        "classify" => classify_cmd(&positional, &flags, out),
        "replay" => replay(&positional, &flags, out),
        "mix" => mix(&positional, &flags, out),
        "online" => online(&positional, &flags, out),
        "transcode" => transcode(&positional, &flags, out),
        "chaos" => chaos(&flags, out),
        "endure" => endure(&flags, out),
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}

/// `ees gen`: writes `<workload>.trace.jsonl` and `<workload>.items.json`.
fn gen(pos: &[String], flags: &Flags, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let name = pos
        .first()
        .ok_or_else(|| CliError::Usage("gen needs a workload name".into()))?;
    let workload = make_workload(name, flags)?;
    std::fs::create_dir_all(&flags.out)?;
    let trace_path = flags.out.join(format!("{name}.trace.jsonl"));
    let items_path = flags.out.join(format!("{name}.items.json"));
    let mut w = BufWriter::new(File::create(&trace_path)?);
    ees_iotrace::ndjson::write_events(workload.trace.records(), &mut w)?;
    w.flush()?;
    std::fs::write(&items_path, items_to_json(&workload.items))?;
    writeln!(
        out,
        "wrote {} records to {} and {} items to {}",
        workload.trace.len(),
        trace_path.display(),
        workload.items.len(),
        items_path.display()
    )?;
    Ok(())
}

fn read_trace(path: &Path) -> Result<ees_iotrace::LogicalTrace, CliError> {
    let f = File::open(path)?;
    Ok(ees_iotrace::ndjson::read_jsonl(BufReader::new(f))?)
}

/// `ees stats`: summarizes a JSONL trace.
fn stats(pos: &[String], flags: &Flags, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let path = pos
        .first()
        .ok_or_else(|| CliError::Usage("stats needs a trace file".into()))?;
    let trace = read_trace(Path::new(path))?;
    let s = summarize(trace.records());
    if flags.json {
        writeln!(out, "{}", jsonout::stats_json(&s))?;
        return Ok(());
    }
    writeln!(out, "records:        {}", s.records)?;
    writeln!(
        out,
        "reads:          {} ({:.1} %)",
        s.reads,
        s.read_ratio() * 100.0
    )?;
    writeln!(out, "bytes read:     {}", fmt_bytes(s.bytes_read))?;
    writeln!(out, "bytes written:  {}", fmt_bytes(s.bytes_written))?;
    writeln!(out, "span:           {} .. {}", s.first_ts, s.last_ts)?;
    writeln!(out, "distinct items: {}", s.distinct_items)?;
    writeln!(out, "avg IOPS:       {:.1}", s.avg_iops())?;
    Ok(())
}

/// `ees classify`: P0–P3 classification of a trace against an item list.
fn classify_cmd(
    pos: &[String],
    flags: &Flags,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let trace_path = pos
        .first()
        .ok_or_else(|| CliError::Usage("classify needs a trace file".into()))?;
    let items_path = pos
        .get(1)
        .ok_or_else(|| CliError::Usage("classify needs an items file".into()))?;
    let trace = read_trace(Path::new(trace_path))?;
    let items: Vec<DataItemSpec> = items_from_json(&std::fs::read_to_string(items_path)?)
        .map_err(|e| CliError::Parse(format!("{items_path}: {e}")))?;

    let end = flags
        .period
        .unwrap_or_else(|| trace.last_ts().unwrap_or(Micros::ZERO) + Micros(1));
    let period = Span {
        start: Micros::ZERO,
        end,
    };
    let break_even = flags.break_even.unwrap_or_else(|| Micros::from_secs(52));
    let by_item = split_by_item(trace.records());
    let empty = Vec::new();
    let mut mix = PatternMix::default();
    let mut rows = Vec::new();
    for item in &items {
        let ios = by_item.get(&item.id).unwrap_or(&empty);
        let st = analyze_item_period(item.id, ios, period, break_even);
        let p = classify(&st);
        mix.bump(p);
        rows.push(jsonout::ClassifyRow {
            name: item.name.clone(),
            ios: st.total_ios(),
            read_ratio: st.read_ratio(),
            long_intervals: st.long_intervals.len(),
            pattern: p,
        });
    }
    if flags.json {
        writeln!(out, "{}", jsonout::classify_json(&rows, &mix))?;
        return Ok(());
    }
    writeln!(
        out,
        "{:<24} {:>8} {:>6} {:>6} {:>5}",
        "item", "ios", "reads%", "longs", "class"
    )?;
    for row in &rows {
        writeln!(
            out,
            "{:<24} {:>8} {:>5.1}% {:>6} {:>5}",
            row.name,
            row.ios,
            row.read_ratio * 100.0,
            row.long_intervals,
            row.pattern
        )?;
    }
    writeln!(
        out,
        "mix: P0 {:.1} % / P1 {:.1} % / P2 {:.1} % / P3 {:.1} %",
        mix.percent(LogicalIoPattern::P0),
        mix.percent(LogicalIoPattern::P1),
        mix.percent(LogicalIoPattern::P2),
        mix.percent(LogicalIoPattern::P3)
    )?;
    Ok(())
}

/// `ees mix`: colocates several generated workloads on one array and
/// writes the combined trace + items like `gen` does.
fn mix(pos: &[String], flags: &Flags, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    if pos.len() < 2 {
        return Err(CliError::Usage(
            "mix needs at least two workload names".into(),
        ));
    }
    let mut parts = Vec::new();
    for (i, name) in pos.iter().enumerate() {
        let f = Flags {
            seed: flags.seed + i as u64,
            out: flags.out.clone(),
            checkpoint: flags.checkpoint.clone(),
            listen: flags.listen.clone(),
            ..*flags
        };
        parts.push(make_workload(name, &f)?);
    }
    let combined = ees_workloads::colocate(parts, "mix");
    std::fs::create_dir_all(&flags.out)?;
    let trace_path = flags.out.join("mix.trace.jsonl");
    let items_path = flags.out.join("mix.items.json");
    let mut w = BufWriter::new(File::create(&trace_path)?);
    ees_iotrace::ndjson::write_events(combined.trace.records(), &mut w)?;
    w.flush()?;
    std::fs::write(&items_path, items_to_json(&combined.items))?;
    writeln!(
        out,
        "colocated {} workloads: {} records, {} items, {} enclosures → {}",
        pos.len(),
        combined.trace.len(),
        combined.items.len(),
        combined.num_enclosures,
        trace_path.display()
    )?;
    Ok(())
}

/// `ees replay`: replays a generated workload under a policy.
fn replay(pos: &[String], flags: &Flags, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let name = pos
        .first()
        .ok_or_else(|| CliError::Usage("replay needs a workload name".into()))?;
    let method = pos
        .get(1)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::Usage("replay needs a method (none|proposed|pdc|ddr)".into()))?;
    let workload = make_workload(name, flags)?;
    let cfg = StorageConfig::ams2500(workload.num_enclosures);
    let mut policy: Box<dyn PowerPolicy> = match method {
        "none" => Box::new(NoPowerSaving::new()),
        "proposed" => Box::new(EnergyEfficientPolicy::with_defaults()),
        "pdc" => Box::new(Pdc::new()),
        "ddr" => Box::new(Ddr::new()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown method '{other}' (expected none|proposed|pdc|ddr)"
            )))
        }
    };
    let report = run(&workload, policy.as_mut(), &cfg, &ReplayOptions::default());
    if flags.json {
        writeln!(out, "{}", jsonout::report_json(&report))?;
    } else {
        writeln!(out, "workload:         {}", report.workload)?;
        writeln!(out, "policy:           {}", report.policy)?;
        writeln!(out, "enclosure power:  {:.1} W", report.enclosure_avg_watts)?;
        writeln!(out, "unit power:       {:.1} W", report.avg_power_watts)?;
        writeln!(
            out,
            "avg response:     {:.2} ms",
            report.avg_response.as_millis_f64()
        )?;
        let (p50, p95, p99, pmax) = report.read_percentiles;
        writeln!(
            out,
            "read p50/95/99:   {:.2} / {:.2} / {:.2} ms (max {:.2} ms)",
            p50.as_millis_f64(),
            p95.as_millis_f64(),
            p99.as_millis_f64(),
            pmax.as_millis_f64()
        )?;
        writeln!(
            out,
            "migrated:         {}",
            fmt_bytes(report.migrated_bytes)
        )?;
        writeln!(out, "spin-ups:         {}", report.spin_ups)?;
        writeln!(out, "determinations:   {}", report.determinations)?;
    }
    Ok(())
}

/// `ees online`: feeds an event stream through the bounded-channel
/// ingest into the colocated online daemon, printing the plan sequence
/// and the run summary. The stream comes from a file (or `-` for stdin),
/// or — with `--listen` — from `--conns` socket connections merged by
/// the net control plane (each NDJSON or `ees.event.v1` binary,
/// negotiated per connection).
fn online(pos: &[String], flags: &Flags, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    // The merged socket stream is lossless by construction: backpressure
    // reaches every sender through its connection queue, so there is no
    // newest event to drop. Refuse the combination instead of silently
    // blocking the senders the flag promises not to block.
    if flags.listen.is_some() && flags.drop_newest {
        return Err(CliError::Usage(
            "--drop-newest does not apply to --listen: the socket merge always applies \
             backpressure to its senders"
                .into(),
        ));
    }
    // With `--listen` the only positional is the items file; the
    // "trace" identity in the report becomes the listen address.
    let (trace_arg, items_path) = match &flags.listen {
        Some(addr) => (
            format!("listen:{addr}"),
            pos.first()
                .ok_or_else(|| CliError::Usage("online --listen needs an items file".into()))?
                .clone(),
        ),
        None => (
            pos.first()
                .ok_or_else(|| {
                    CliError::Usage("online needs an event stream (file or '-')".into())
                })?
                .clone(),
            pos.get(1)
                .ok_or_else(|| CliError::Usage("online needs an items file".into()))?
                .clone(),
        ),
    };
    let trace_arg = &trace_arg;
    let items_path = &items_path;
    let items: Vec<DataItemSpec> = items_from_json(&std::fs::read_to_string(items_path)?)
        .map_err(|e| CliError::Parse(format!("{items_path}: {e}")))?;
    if items.is_empty() {
        return Err(CliError::Parse(format!("{items_path}: no items")));
    }
    // The unit gets one enclosure past the highest home. Saturating at
    // `u16::MAX` leaves a home of `u16::MAX` outside the unit, so the
    // catalog check below rejects it.
    let num_enclosures = items
        .iter()
        .map(|i| i.enclosure.0.saturating_add(1))
        .max()
        .unwrap_or(1);
    let catalog: Vec<CatalogItem> = items
        .iter()
        .map(|i| CatalogItem {
            id: i.id,
            size: i.size,
            enclosure: i.enclosure,
            access: i.access,
        })
        .collect();
    let storage = StorageConfig::ams2500(num_enclosures);
    StreamHarness::check_catalog(&catalog, num_enclosures, &storage)
        .map_err(|e| CliError::Parse(format!("{items_path}: {e}")))?;
    let mut policy = ProposedConfig::default();
    if let Some(p) = flags.period {
        policy.initial_period = p;
    }
    // `--shards 0` sizes the classification pool from the `EES_THREADS`
    // convention; any other value is an explicit worker count.
    let shards = if flags.shards == 0 {
        ees_iotrace::parallel::threads()
    } else {
        flags.shards
    };
    // `--checkpoint FILE`: resume from the file when it exists (skipping
    // the already-folded prefix of the stream), then persist a fresh
    // checkpoint at every plan rollover and at end of stream.
    // `--queue`/`--batch` size both transports: the reader channel gets
    // `queue` events in `batch`-record deliveries, and each shard's
    // channel gets the matching depth in batches, clamped
    // (`Flags::shard_queue`).
    // `--readers 0` (the default) sizes the parse pool at one reader per
    // shard; `--readers 1` is a single parser thread.
    let mut shard_options = ShardOptions {
        queue: flags.shard_queue(),
        readers: flags.readers,
        ..ShardOptions::default()
    };
    if let Some((shard, event)) = flags.fail_shard {
        silence_injected_panics();
        shard_options.supervision = SupervisionPolicy::Quarantine;
        shard_options.panic_schedule = Some(PanicSchedule::new([(shard, event)]));
    }
    let readers = shard_options.resolved_readers(shards);
    // Named streams resolve through an interner whose dense ids start
    // past the catalog; catalog names pre-bind to their explicit ids so
    // senders can speak either form. On resume the checkpointed name
    // table restores first — identical table, identical ids, identical
    // plan bytes.
    let floor = items
        .iter()
        .map(|i| i.id.0.saturating_add(1))
        .max()
        .unwrap_or(0);
    let mut interner = ItemInterner::with_floor(floor);
    let mut resume_skip = 0u64;
    let mut daemon = match &flags.checkpoint {
        Some(path) if path.exists() => {
            let cp = read_checkpoint_file(path)
                .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
            if !cp.names.is_empty() {
                interner = ItemInterner::import(floor, cp.names.clone());
            }
            let d = ColocatedDaemon::resume_with_options(
                &catalog,
                num_enclosures,
                &storage,
                policy,
                shards,
                shard_options,
                &cp,
            )
            .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
            resume_skip = d.events();
            d
        }
        _ => ColocatedDaemon::with_shard_options(
            &catalog,
            num_enclosures,
            &storage,
            policy,
            flags.break_even,
            shards,
            shard_options,
        ),
    };

    for item in &items {
        interner.bind(&item.name, item.id);
    }
    let interner = std::sync::Arc::new(std::sync::Mutex::new(interner));

    let overflow = if flags.drop_newest {
        OverflowPolicy::DropNewest
    } else {
        OverflowPolicy::Block
    };
    // `--queue` is denominated in events; the batched reader's channel
    // counts batches, so convert (rounding up to at least one batch).
    let capacity = flags.queue.div_ceil(flags.batch).max(1);
    // Every input takes the parallel front end, its parse fanned out
    // over `readers` threads under the same queue, batching, and
    // backpressure policy. Regular files are memory-mapped and their
    // format checked up front; pipes and stdin stream.
    let mut input_format: Option<StreamFormat> = None;
    let mut input_framed = false;
    let (rx, pool, live, conn_counters, reader) = match &flags.listen {
        Some(addr) => {
            let listener = NetListener::bind(addr)?;
            // Closed world (`allow_new_names: false`): the daemon can
            // only serve items its placement knows, so a name outside
            // the catalog and checkpoint table fails the stream at the
            // connection instead of panicking the harness.
            let (rx, pool, live, net, reader) = spawn_net_ingest(
                listener,
                NetOptions {
                    conns: flags.conns,
                    capacity,
                    batch: flags.batch,
                    allow_new_names: false,
                },
                std::sync::Arc::clone(&interner),
            );
            (rx, pool, live, Some(net), reader)
        }
        None => {
            let mapped = if trace_arg == "-" {
                None
            } else {
                // The fd can close once mapped; the mapping stays live.
                map_file(&File::open(trace_arg)?)?
            };
            let (rx, pool, live, reader) = match mapped {
                Some(map) => {
                    // A whole file in hand gets the strict sniff: an
                    // empty or sub-magic-sized trace is a per-path error
                    // here, not a misdetected NDJSON parse failure.
                    let format = sniff_format_checked(&map)
                        .map_err(|e| CliError::Parse(format!("{trace_arg}: {e}")))?;
                    input_format = Some(format);
                    input_framed = format == StreamFormat::Binary && is_framed(&map);
                    spawn_reader_parallel_mapped(map, capacity, flags.batch, overflow, readers, 0)
                }
                None => {
                    // Pipes, stdin, or a platform without mmap: stream.
                    let mut input: Box<dyn BufRead + Send> = if trace_arg == "-" {
                        Box::new(BufReader::new(std::io::stdin()))
                    } else {
                        Box::new(BufReader::new(File::open(trace_arg)?))
                    };
                    let prefix = input.fill_buf()?;
                    let format = sniff_format(prefix);
                    input_format = Some(format);
                    input_framed = format == StreamFormat::Binary && is_framed(prefix);
                    spawn_reader_parallel(input, capacity, flags.batch, overflow, readers, 0)
                }
            };
            (rx, pool, live, None, reader)
        }
    };

    let mut plans = Vec::new();
    let mut skipped = 0u64;
    for mut batch in rx {
        for rec in batch.drain(..) {
            if skipped < resume_skip {
                skipped += 1;
                continue;
            }
            let stepped = daemon
                .step(rec)
                .map_err(|e| CliError::Parse(e.to_string()))?;
            if !stepped.is_empty() {
                if let Some(path) = &flags.checkpoint {
                    let mut cp = daemon
                        .checkpoint()
                        .map_err(|e| CliError::Parse(e.to_string()))?;
                    cp.names = interner.lock().unwrap().export();
                    write_checkpoint_file(path, &cp)
                        .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
                }
            }
            plans.extend(stepped);
        }
        pool.recycle(batch);
    }
    reader
        .join()
        .map_err(|_| CliError::Parse("ingest thread panicked".into()))?
        .map_err(|e| CliError::Parse(format!("{trace_arg}: {e}")))?;
    // End-of-stream health check: a shard quarantined in the final
    // period never reaches another rollover barrier, so without this
    // the run would report success on a partial fold.
    daemon.sync().map_err(|e| CliError::Parse(e.to_string()))?;
    if let Some(path) = &flags.checkpoint {
        let mut cp = daemon
            .checkpoint()
            .map_err(|e| CliError::Parse(e.to_string()))?;
        cp.names = interner.lock().unwrap().export();
        write_checkpoint_file(path, &cp)
            .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
    }
    // Report from the live counters the producer was bumping as it ran —
    // the same numbers a status probe would have read mid-stream.
    let ingest = live.snapshot();
    let format_name = input_format.map(|f| f.to_string());
    let block_count = input_framed.then(|| live.chunks());
    let connections = conn_counters
        .as_ref()
        .map(|n| n.snapshot())
        .unwrap_or_default();
    let shard_count = daemon.shards();
    let summary = daemon.finish(None);

    if flags.json {
        writeln!(
            out,
            "{}",
            jsonout::online_json(
                trace_arg,
                &summary,
                &ingest,
                flags.queue,
                flags.batch,
                shard_count,
                readers,
                format_name.as_deref(),
                block_count,
                &connections,
                &plans,
            )
        )?;
        return Ok(());
    }
    for (i, env) in plans.iter().enumerate() {
        writeln!(
            out,
            "plan {:>4}  [{:>9.1} s .. {:>9.1} s]  {:<8}  migrations {:<3} preload {:<3} \
             write-delay {:<3} next {}",
            i + 1,
            env.period.start.as_secs_f64(),
            env.period.end.as_secs_f64(),
            match env.reason {
                RolloverReason::Boundary => "boundary",
                RolloverReason::Trigger => "trigger",
            },
            env.plan.migrations.len(),
            env.plan.preload.len(),
            env.plan.write_delay.len(),
            match env.plan.next_period {
                Some(p) => format!("{:.1} s", p.as_secs_f64()),
                None => "unchanged".into(),
            },
        )?;
    }
    if resume_skip > 0 {
        writeln!(
            out,
            "resumed:       skipped {resume_skip} checkpointed events"
        )?;
    }
    writeln!(
        out,
        "events:        {} accepted, {} dropped",
        ingest.accepted, ingest.dropped
    )?;
    for (i, c) in connections.iter().enumerate() {
        writeln!(
            out,
            "conn {i}:        {} events ({})",
            c.events,
            c.format.map(|f| f.to_string()).unwrap_or("pending".into())
        )?;
    }
    writeln!(
        out,
        "periods:       {} ({} trigger cuts)",
        summary.periods, summary.trigger_cuts
    )?;
    writeln!(out, "unit power:    {:.1} W", summary.avg_power_watts)?;
    writeln!(out, "spin-ups:      {}", summary.spin_ups)?;
    writeln!(
        out,
        "avg response:  {:.2} ms",
        summary.avg_response.as_millis_f64()
    )?;
    Ok(())
}

/// `ees transcode`: converts a captured event stream between NDJSON and
/// the `ees.event.v1` binary framing, sniffing the direction from the
/// input's first bytes. Event order is preserved exactly, so a
/// transcoded stream replays to byte-identical plans. Binary output is
/// block framed by default (`--block-bytes` sets the target payload
/// size; `0` selects the codec default) so file replays can fan blocks
/// out across parser threads.
fn transcode(pos: &[String], flags: &Flags, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let in_path = pos
        .first()
        .ok_or_else(|| CliError::Usage("transcode needs an input file".into()))?;
    let out_path = pos
        .get(1)
        .ok_or_else(|| CliError::Usage("transcode needs an output file".into()))?;
    let mut reader = BufReader::new(File::open(in_path)?);
    let format = sniff_format(reader.fill_buf()?);
    let mut writer = BufWriter::new(File::create(out_path)?);
    let (n, direction) = match format {
        StreamFormat::Ndjson => {
            let (n, blocks) =
                transcode_ndjson_to_binary_blocks(reader, &mut writer, flags.block_bytes)
                    .map_err(|e| CliError::Parse(format!("{in_path}: {e}")))?;
            (n, format!("ndjson → binary, {blocks} block(s)"))
        }
        StreamFormat::Binary => {
            // A standalone transcode has no catalog: names intern into
            // fresh dense ids from 0, in stream order.
            let mut interner = ItemInterner::new();
            (
                transcode_binary_to_ndjson(reader, &mut writer, |name| interner.intern(name))
                    .map_err(|e| CliError::Parse(format!("{in_path}: {e}")))?,
                "binary → ndjson".to_string(),
            )
        }
    };
    writer.flush()?;
    writeln!(out, "transcoded {n} events ({direction}) to {out_path}")?;
    Ok(())
}

/// `ees chaos`: runs the seeded fault-injection suite (DESIGN.md §11) —
/// `--seeds N` consecutive master seeds starting at `--seed`, each a
/// differential experiment against the fault-free baseline. Exits
/// non-zero on any plan divergence or escaped panic.
fn chaos(flags: &Flags, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let mut reports = Vec::new();
    let mut failures = Vec::new();
    for offset in 0..flags.seeds.max(1) {
        let cfg = ChaosConfig {
            seed: flags.seed + offset,
            shards: flags.shards.max(1),
            events: flags.events,
            ..ChaosConfig::default()
        };
        // A panic escaping the harness is exactly what the suite exists
        // to catch — contain it and fail the run instead of aborting.
        let outcome = std::panic::catch_unwind(|| run_chaos(&cfg));
        match outcome {
            Ok(Ok(report)) => {
                if let Some(d) = &report.divergence {
                    failures.push(format!("seed {}: divergence: {d}", report.seed));
                }
                reports.push(report);
            }
            Ok(Err(e)) => failures.push(format!("seed {}: fatal: {e}", cfg.seed)),
            Err(_) => failures.push(format!("seed {}: escaped panic", cfg.seed)),
        }
    }
    if flags.json {
        writeln!(out, "{}", jsonout::chaos_json(&reports, &failures))?;
    } else {
        for r in &reports {
            writeln!(
                out,
                "seed {:>4}  shards {}  events {}  faults {:>3} (m {} t {} d {} s {} z {})  \
                 respawns {}  restores {}  plans {:>3}  {}",
                r.seed,
                r.shards,
                r.events,
                r.malformed + r.truncated + r.duplicated + r.swapped + r.stalls,
                r.malformed,
                r.truncated,
                r.duplicated,
                r.swapped,
                r.stalls,
                r.respawns,
                r.crash_restores,
                r.plans,
                if r.passed() { "ok" } else { "DIVERGED" },
            )?;
        }
        writeln!(
            out,
            "chaos: {} seed(s), {} failure(s)",
            flags.seeds.max(1),
            failures.len()
        )?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Parse(failures.join("; ")))
    }
}

/// `ees endure`: the long-horizon endurance run (DESIGN.md §16) — an
/// accelerated-clock Cloud Block workload streamed through the daemon
/// for `--periods` monitoring periods, with checkpoint →
/// restore cycles every `--restore-every` periods and `--panics` seeded
/// worker panics, against a no-management baseline for per-period energy
/// savings. `--drift-bar X` turns the drift statistic into a gate: exit
/// non-zero when the back-half savings slope leaves `±X`.
fn endure(flags: &Flags, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let mut policy = ProposedConfig::default();
    if let Some(p) = flags.period {
        policy.initial_period = p;
    }
    let periods = flags.periods.max(1);
    let params = CloudBlockParams {
        // Enough simulated time to close every requested period even if
        // each one adapts all the way to the cap, plus slack so the last
        // boundary is actually crossed by a record.
        duration: policy.initial_period + Micros(policy.max_period.0 * (periods as u64 + 2)),
        num_volumes: flags.volumes.max(1),
        ..CloudBlockParams::default()
    };
    let cfg = EnduranceConfig {
        seed: flags.seed,
        periods,
        shards: flags.shards.max(1),
        policy,
        restore_every: flags.restore_every,
        worker_panics: flags.panics,
        ..EnduranceConfig::default()
    };
    let stream = cloudblock::stream(flags.seed, &params);
    let catalog: Vec<CatalogItem> = stream
        .items()
        .iter()
        .map(|s| CatalogItem {
            id: s.id,
            size: s.size,
            enclosure: s.enclosure,
            access: s.access,
        })
        .collect();
    let storage = StorageConfig::ams2500(params.num_enclosures);
    let report = run_endurance(&cfg, &catalog, params.num_enclosures, &storage, stream)
        .map_err(|e| CliError::Parse(format!("endure: {e}")))?;
    if flags.json {
        writeln!(out, "{}", jsonout::endure_json(&report))?;
    } else {
        writeln!(
            out,
            "endure: seed {}  shards {}  periods {}  events {}",
            report.seed,
            report.shards,
            report.rows.len(),
            report.events
        )?;
        writeln!(
            out,
            "  savings {:.1} % overall, {:.1} % back half; drift {} per period",
            report.overall_savings * 100.0,
            report.back_half_savings * 100.0,
            report
                .drift_per_period
                .map(|d| format!("{d:+.5}"))
                .unwrap_or_else(|| "n/a".into()),
        )?;
        writeln!(
            out,
            "  p99 max {}  trigger cuts {}  restores {}  respawns {}",
            report
                .max_p99()
                .map(|p| format!("{:.1} ms", p.as_millis_f64()))
                .unwrap_or_else(|| "n/a".into()),
            report.trigger_cuts,
            report.crash_restores,
            report.respawns,
        )?;
        writeln!(
            out,
            "  history: {} periods recorded, {} pruned, footprint {}",
            report.history_total_periods,
            report.history_dropped_periods,
            fmt_bytes(report.history_footprint_bytes),
        )?;
    }
    if (report.rows.len() as u64) < periods as u64 {
        return Err(CliError::Parse(format!(
            "endure: workload dried up after {} of {periods} periods",
            report.rows.len()
        )));
    }
    if let Some(bar) = flags.drift_bar {
        if !report.drift_within(bar) {
            return Err(CliError::Parse(format!(
                "endure: drift {} per period exceeds the ±{bar} bar",
                report
                    .drift_per_period
                    .map(|d| format!("{d:+.6}"))
                    .unwrap_or_else(|| "n/a".into()),
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let mut buf = Vec::new();
        run_cli(args.iter().map(|s| s.to_string()).collect(), &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run_to_string(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_to_string(&["frobnicate"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run_to_string(&["gen"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_to_string(&["gen", "nosuch"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(&["replay", "tpcc", "nosuch"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(&["gen", "tpcc", "--scale"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn out_of_range_queue_batch_and_thread_counts_are_usage_errors() {
        // Parser-only: none of these values may reach an allocation or
        // a thread spawn.
        let parse = |args: &[&str]| {
            Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map(|_| ())
        };
        let refused = [
            vec!["--queue", "100000000000", "--batch", "1"],
            vec!["--queue", "1048577"],
            vec!["--batch", "100000000000"],
            vec!["--batch", "2048"],
            vec!["--queue", "64", "--batch", "65"],
            vec!["--batch", "65", "--queue", "64"],
            vec!["--queue", "0"],
            vec!["--shards", "65"],
            vec!["--readers", "65"],
            vec!["--conns", "65"],
            vec!["--shards", "18446744073709551615"],
        ];
        for args in refused {
            let err = parse(&args).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert!(err.to_string().contains(args[0]), "{args:?}: {err}");
        }
        let accepted = [
            vec!["--queue", "1048576", "--batch", "1"],
            vec!["--queue", "1048576", "--batch", "1048576"],
            vec!["--queue", "64", "--batch", "64"],
            vec!["--batch", "0"],
            vec!["--shards", "64", "--readers", "64", "--conns", "64"],
            vec!["--shards", "0", "--readers", "0", "--conns", "0"],
        ];
        for args in accepted {
            assert!(parse(&args).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn shard_channel_depth_is_clamped_at_the_default() {
        // Parser-only, like the test above: no channel is built.
        let depth = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            Flags::parse(&args).unwrap().1.shard_queue()
        };
        assert_eq!(depth(&[]), MAX_SHARD_QUEUE, "the defaults derive the cap");
        assert_eq!(depth(&["--queue", "1048576", "--batch", "1"]), 16);
        assert_eq!(depth(&["--queue", "1048576", "--batch", "0"]), 16);
        assert_eq!(depth(&["--queue", "1048576", "--batch", "1048576"]), 2);
        assert_eq!(depth(&["--queue", "64", "--batch", "64"]), 2);
        assert_eq!(depth(&["--queue", "512", "--batch", "64"]), 8);
    }

    #[test]
    fn listen_refuses_drop_newest() {
        // The socket merge is lossless and always backpressures its
        // senders; accepting --drop-newest would silently do the opposite
        // of what the flag promises. Refused before anything binds.
        let sock =
            std::env::temp_dir().join(format!("ees-listen-drop-{}.sock", std::process::id()));
        let err = run_to_string(&[
            "online",
            "--listen",
            sock.to_str().unwrap(),
            "items.json",
            "--drop-newest",
        ])
        .unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, CliError::Usage(_)), "{msg}");
        assert!(msg.contains("--drop-newest"), "{msg}");
        assert!(msg.contains("--listen"), "{msg}");
        assert!(!sock.exists(), "nothing may bind");
    }

    #[test]
    fn gen_stats_classify_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ees-cli-test-{}", std::process::id()));
        let out = dir.to_str().unwrap();
        let msg = run_to_string(&[
            "gen", "tpch", "--scale", "0.01", "--seed", "7", "--out", out,
        ])
        .unwrap();
        assert!(msg.contains("wrote"));

        let trace = dir.join("tpch.trace.jsonl");
        let items = dir.join("tpch.items.json");
        let s = run_to_string(&["stats", trace.to_str().unwrap()]).unwrap();
        assert!(s.contains("records:"), "{s}");
        assert!(s.contains("distinct items:"));

        let c =
            run_to_string(&["classify", trace.to_str().unwrap(), items.to_str().unwrap()]).unwrap();
        assert!(c.contains("mix:"), "{c}");
        assert!(c.contains("lineitem.0"));

        let sj = run_to_string(&["stats", trace.to_str().unwrap(), "--json"]).unwrap();
        assert!(sj.contains("\"schema\": \"ees.stats.v1\""), "{sj}");
        let cj = run_to_string(&[
            "classify",
            trace.to_str().unwrap(),
            items.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        assert!(cj.contains("\"schema\": \"ees.classify.v1\""), "{cj}");
        assert!(cj.contains("\"pattern\":"), "{cj}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mix_colocates() {
        let dir = std::env::temp_dir().join(format!("ees-mix-test-{}", std::process::id()));
        let out = dir.to_str().unwrap();
        let msg = run_to_string(&["mix", "tpcc", "tpch", "--scale", "0.01", "--out", out]).unwrap();
        assert!(msg.contains("colocated 2 workloads"), "{msg}");
        assert!(dir.join("mix.trace.jsonl").exists());
        assert!(matches!(
            run_to_string(&["mix", "tpcc"]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_text_and_json() {
        let text = run_to_string(&["replay", "tpch", "proposed", "--scale", "0.01"]).unwrap();
        assert!(text.contains("enclosure power:"), "{text}");
        let json = run_to_string(&["replay", "tpch", "none", "--scale", "0.01", "--json"]).unwrap();
        assert!(json.contains("\"schema\": \"ees.report.v1\""), "{json}");
        assert!(json.contains("\"mode\": \"replay\""), "{json}");
        assert!(json.contains("\"policy\": \"No Power Saving\""), "{json}");
    }

    #[test]
    fn online_consumes_generated_stream() {
        let dir = std::env::temp_dir().join(format!("ees-online-test-{}", std::process::id()));
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "gen",
            "fileserver",
            "--scale",
            "0.02",
            "--seed",
            "7",
            "--out",
            out,
        ])
        .unwrap();
        let trace = dir.join("fileserver.trace.jsonl");
        let items = dir.join("fileserver.items.json");

        let text = run_to_string(&[
            "online",
            trace.to_str().unwrap(),
            items.to_str().unwrap(),
            "--period",
            "120",
        ])
        .unwrap();
        assert!(text.contains("plan    1"), "{text}");
        assert!(text.contains("periods:"), "{text}");

        let json = run_to_string(&[
            "online",
            trace.to_str().unwrap(),
            items.to_str().unwrap(),
            "--period",
            "120",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"schema\": \"ees.report.v1\""), "{json}");
        assert!(json.contains("\"mode\": \"online\""), "{json}");
        assert!(json.contains("\"reason\":\"boundary\""), "{json}");
        assert!(json.contains("\"dropped\": 0"), "{json}");
        assert!(json.contains("\"queue\": 1024"), "{json}");
        assert!(json.contains("\"batch\": 64"), "{json}");
        assert!(json.contains("\"shards\": 1"), "{json}");
        assert!(json.contains("\"readers\": 1"), "{json}");

        // The sharded daemon — whose parallel front end resolves to one
        // reader per shard — is plan-for-plan identical: the whole JSON
        // report matches except the declared worker counts.
        let sharded = run_to_string(&[
            "online",
            trace.to_str().unwrap(),
            items.to_str().unwrap(),
            "--period",
            "120",
            "--shards",
            "4",
            "--json",
        ])
        .unwrap();
        assert!(sharded.contains("\"shards\": 4"), "{sharded}");
        assert!(sharded.contains("\"readers\": 4"), "{sharded}");
        assert_eq!(
            json.replace("\"shards\": 1", "\"shards\": N")
                .replace("\"readers\": 1", "\"readers\": N"),
            sharded
                .replace("\"shards\": 4", "\"shards\": N")
                .replace("\"readers\": 4", "\"readers\": N"),
        );

        // A single parser thread must not change the plans either — only
        // the declared reader count.
        let one_reader = run_to_string(&[
            "online",
            trace.to_str().unwrap(),
            items.to_str().unwrap(),
            "--period",
            "120",
            "--shards",
            "4",
            "--readers",
            "1",
            "--json",
        ])
        .unwrap();
        assert!(one_reader.contains("\"readers\": 1"), "{one_reader}");
        assert_eq!(
            sharded.replace("\"readers\": 4", "\"readers\": N"),
            one_reader.replace("\"readers\": 1", "\"readers\": N"),
        );

        // The transport knobs are declared in the report but must not
        // change the plans: same JSON modulo the knob fields themselves.
        let tuned = run_to_string(&[
            "online",
            trace.to_str().unwrap(),
            items.to_str().unwrap(),
            "--period",
            "120",
            "--shards",
            "4",
            "--queue",
            "512",
            "--batch",
            "32",
            "--json",
        ])
        .unwrap();
        assert!(tuned.contains("\"queue\": 512"), "{tuned}");
        assert!(tuned.contains("\"batch\": 32"), "{tuned}");
        assert_eq!(
            sharded
                .replace("\"queue\": 1024", "\"queue\": N")
                .replace("\"batch\": 64", "\"batch\": N"),
            tuned
                .replace("\"queue\": 512", "\"queue\": N")
                .replace("\"batch\": 32", "\"batch\": N"),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites a generated trace in full merge-key order — `(ts, item,
    /// offset, len, kind)` — which is the order the net merge emits, so
    /// a single-file replay of it is the reference for `--listen` runs.
    fn key_sorted_trace(src: &Path, dst: &Path) {
        let mut records: Vec<_> = read_trace(src).unwrap().iter().copied().collect();
        records.sort_by_key(|r| {
            (
                r.ts,
                r.item,
                r.offset,
                r.len,
                matches!(r.kind, ees_iotrace::IoKind::Write),
            )
        });
        let mut w = BufWriter::new(File::create(dst).unwrap());
        for rec in &records {
            writeln!(w, "{}", ees_iotrace::ndjson::format_event(rec)).unwrap();
        }
        w.flush().unwrap();
    }

    fn connect_with_retry(path: &Path) -> std::os::unix::net::UnixStream {
        for _ in 0..200 {
            if let Ok(s) = std::os::unix::net::UnixStream::connect(path) {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        panic!("listener never came up at {}", path.display());
    }

    fn plans_section(report: &str) -> &str {
        let at = report.find("\"plans\"").expect("report has a plans array");
        &report[at..]
    }

    #[test]
    fn listen_merges_connections_to_byte_identical_plans() {
        let dir = std::env::temp_dir().join(format!("ees-listen-test-{}", std::process::id()));
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "gen",
            "fileserver",
            "--scale",
            "0.02",
            "--seed",
            "7",
            "--out",
            out,
        ])
        .unwrap();
        let items = dir.join("fileserver.items.json");
        let sorted = dir.join("sorted.trace.jsonl");
        key_sorted_trace(&dir.join("fileserver.trace.jsonl"), &sorted);

        // Reference: single-file replay of the key-sorted event set.
        let reference = run_to_string(&[
            "online",
            sorted.to_str().unwrap(),
            items.to_str().unwrap(),
            "--period",
            "120",
            "--json",
        ])
        .unwrap();

        // Live: the same events round-robined over four socket senders.
        // Each sender's stream is a subsequence of the sorted file, so
        // per-connection order is sorted and the merge must reproduce
        // the full key order exactly.
        let sock = dir.join("ees.sock");
        let server = {
            let args = vec![
                "online".to_string(),
                "--listen".to_string(),
                sock.to_str().unwrap().to_string(),
                items.to_str().unwrap().to_string(),
                "--conns".to_string(),
                "4".to_string(),
                "--period".to_string(),
                "120".to_string(),
                "--json".to_string(),
            ];
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                run_cli(args, &mut buf).map(|()| String::from_utf8(buf).unwrap())
            })
        };
        let lines: Vec<String> =
            std::io::BufRead::lines(BufReader::new(File::open(&sorted).unwrap()))
                .map(|l| l.unwrap())
                .collect();
        let total = lines.len() as u64;
        let mut senders = Vec::new();
        for c in 0..4usize {
            let mine: Vec<String> = lines.iter().skip(c).step_by(4).cloned().collect();
            let sock = sock.clone();
            senders.push(std::thread::spawn(move || {
                let mut s = connect_with_retry(&sock);
                for line in &mine {
                    writeln!(s, "{line}").unwrap();
                }
            }));
        }
        for t in senders {
            t.join().unwrap();
        }
        let live = server.join().unwrap().unwrap();

        assert_eq!(plans_section(&reference), plans_section(&live));
        assert!(live.contains(&format!("\"accepted\": {total}")), "{live}");
        assert!(
            live.contains("\"connections\": [{\"format\":\"ndjson\",\"events\":"),
            "{live}"
        );
        assert!(
            !reference.contains("\"connections\""),
            "file replays keep the pre-socket report shape"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transcoded_binary_connection_replays_identically() {
        let dir = std::env::temp_dir().join(format!("ees-binconn-test-{}", std::process::id()));
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "gen", "tpcc", "--scale", "0.02", "--seed", "11", "--out", out,
        ])
        .unwrap();
        let items = dir.join("tpcc.items.json");
        let sorted = dir.join("sorted.trace.jsonl");
        key_sorted_trace(&dir.join("tpcc.trace.jsonl"), &sorted);

        // transcode sniffs NDJSON → binary, and back → the exact bytes.
        let bin = dir.join("sorted.trace.eev");
        let msg =
            run_to_string(&["transcode", sorted.to_str().unwrap(), bin.to_str().unwrap()]).unwrap();
        assert!(msg.contains("ndjson → binary"), "{msg}");
        let back = dir.join("back.trace.jsonl");
        let msg =
            run_to_string(&["transcode", bin.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        assert!(msg.contains("binary → ndjson"), "{msg}");
        assert_eq!(
            std::fs::read(&sorted).unwrap(),
            std::fs::read(&back).unwrap(),
            "transcode roundtrip is byte-identical"
        );

        let reference = run_to_string(&[
            "online",
            sorted.to_str().unwrap(),
            items.to_str().unwrap(),
            "--period",
            "120",
            "--json",
        ])
        .unwrap();

        // One binary connection streaming the transcoded file must land
        // on the same plans as the NDJSON file replay.
        let sock = dir.join("ees.sock");
        let server = {
            let args = vec![
                "online".to_string(),
                "--listen".to_string(),
                sock.to_str().unwrap().to_string(),
                items.to_str().unwrap().to_string(),
                "--period".to_string(),
                "120".to_string(),
                "--json".to_string(),
            ];
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                run_cli(args, &mut buf).map(|()| String::from_utf8(buf).unwrap())
            })
        };
        let payload = std::fs::read(&bin).unwrap();
        let mut s = connect_with_retry(&sock);
        s.write_all(&payload).unwrap();
        drop(s);
        let live = server.join().unwrap().unwrap();
        assert_eq!(plans_section(&reference), plans_section(&live));
        assert!(
            live.contains("\"connections\": [{\"format\":\"binary\",\"events\":"),
            "{live}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Generates a small fileserver workload into `dir` and writes its
    /// first 200 events plus one event naming item 4000000, which the
    /// items file does not place; returns the lines and the items path.
    fn unplaced_item_stream(dir: &Path) -> (Vec<String>, std::path::PathBuf) {
        run_to_string(&[
            "gen",
            "fileserver",
            "--scale",
            "0.002",
            "--seed",
            "7",
            "--out",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        let trace = dir.join("fileserver.trace.jsonl");
        let mut lines: Vec<String> =
            std::io::BufRead::lines(BufReader::new(File::open(trace).unwrap()))
                .take(200)
                .map(|l| l.unwrap())
                .collect();
        lines.push(
            r#"{"ts":999999999,"item":4000000,"offset":0,"len":4096,"kind":"Read"}"#.to_string(),
        );
        (lines, dir.join("fileserver.items.json"))
    }

    /// Runs `ees online` over the first 200 events of a small fileserver
    /// trace, with its items file changed by `edit`, and returns the
    /// error message after checking it is a parse error naming the file.
    fn online_with_edited_items(tag: &str, edit: impl FnOnce(&mut Vec<DataItemSpec>)) -> String {
        let dir = std::env::temp_dir().join(format!("ees-items-{tag}-{}", std::process::id()));
        let (mut lines, items_path) = unplaced_item_stream(&dir);
        lines.pop(); // drop the unplaced record: only the items are bad
        let trace = dir.join("events.jsonl");
        std::fs::write(&trace, lines.join("\n") + "\n").unwrap();
        let mut items = items_from_json(&std::fs::read_to_string(&items_path).unwrap()).unwrap();
        edit(&mut items);
        std::fs::write(&items_path, items_to_json(&items)).unwrap();
        let err = run_to_string(&[
            "online",
            trace.to_str().unwrap(),
            items_path.to_str().unwrap(),
            "--period",
            "1",
        ])
        .unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        let msg = err.to_string();
        assert!(matches!(err, CliError::Parse(_)), "{msg}");
        assert!(msg.contains("fileserver.items.json: "), "{msg}");
        msg
    }

    #[test]
    fn online_rejects_an_item_larger_than_its_enclosure() {
        let msg = online_with_edited_items("oversize", |items| items[0].size = 2_000_000_000_000);
        assert!(
            msg.contains("item 0 (2000000000000 bytes) does not fit on enclosure "),
            "{msg}"
        );
    }

    #[test]
    fn online_rejects_an_enclosure_past_the_id_range() {
        // A home of u16::MAX would need u16::MAX + 1 enclosures.
        let msg = online_with_edited_items("enclosure", |items| {
            items[0].enclosure = ees_iotrace::EnclosureId(u16::MAX)
        });
        assert!(
            msg.contains("item 0 is placed on enclosure 65535, but the unit has 65535 enclosures"),
            "{msg}"
        );
    }

    #[test]
    fn online_rejects_an_item_id_past_the_cap() {
        // The largest id would size the harness's dense per-item tables
        // (and wrap the name interner's floor) if it got through.
        let msg = online_with_edited_items("idcap", |items| {
            items.last_mut().unwrap().id = ees_iotrace::DataItemId(u32::MAX)
        });
        assert!(
            msg.contains("item id 4294967295 is too large (ids must be below 16777216)"),
            "{msg}"
        );
    }

    #[test]
    fn online_rejects_a_duplicated_item_id() {
        let msg = online_with_edited_items("duplicate", |items| {
            let mut twin = items[0].clone();
            twin.name.push_str(".twin");
            items.push(twin);
        });
        assert!(msg.contains("item 0 appears more than once"), "{msg}");
    }

    fn assert_names_unplaced_record(err: CliError) {
        let msg = err.to_string();
        assert!(matches!(err, CliError::Parse(_)), "{msg}");
        assert!(msg.contains("item 4000000"), "{msg}");
        assert!(msg.contains("record 201"), "{msg}");
    }

    #[test]
    fn online_rejects_an_unplaced_item_in_a_file() {
        let dir = std::env::temp_dir().join(format!("ees-unplaced-file-{}", std::process::id()));
        let (lines, items) = unplaced_item_stream(&dir);
        let trace = dir.join("unplaced.jsonl");
        std::fs::write(&trace, lines.join("\n") + "\n").unwrap();
        for shards in ["1", "2"] {
            let err = run_to_string(&[
                "online",
                trace.to_str().unwrap(),
                items.to_str().unwrap(),
                "--period",
                "1",
                "--shards",
                shards,
            ])
            .unwrap_err();
            assert_names_unplaced_record(err);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn online_rejects_an_unplaced_numeric_item_over_listen() {
        let dir = std::env::temp_dir().join(format!("ees-unplaced-net-{}", std::process::id()));
        let (lines, items) = unplaced_item_stream(&dir);
        let sock = dir.join("ees.sock");
        let server = {
            let args = vec![
                "online".to_string(),
                "--listen".to_string(),
                sock.to_str().unwrap().to_string(),
                items.to_str().unwrap().to_string(),
                "--period".to_string(),
                "1".to_string(),
            ];
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                run_cli(args, &mut buf)
            })
        };
        let mut s = connect_with_retry(&sock);
        for line in &lines {
            writeln!(s, "{line}").unwrap();
        }
        drop(s);
        let err = server.join().unwrap().unwrap_err();
        assert_names_unplaced_record(err);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantined_shard_fails_the_run_even_without_a_final_barrier() {
        let dir = std::env::temp_dir().join(format!("ees-failshard-test-{}", std::process::id()));
        let out = dir.to_str().unwrap();
        run_to_string(&[
            "gen",
            "fileserver",
            "--scale",
            "0.02",
            "--seed",
            "7",
            "--out",
            out,
        ])
        .unwrap();
        let trace = dir.join("fileserver.trace.jsonl");
        let items = dir.join("fileserver.items.json");
        // A period far past the trace span: the stream ends mid-period,
        // so only the end-of-stream health check can see the quarantine.
        let err = run_to_string(&[
            "online",
            trace.to_str().unwrap(),
            items.to_str().unwrap(),
            "--period",
            "1000000",
            "--shards",
            "2",
            "--fail-shard",
            "0:50",
        ])
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("quarantined"), "{msg}");
        assert!(matches!(err, CliError::Parse(_)), "fatal, not usage");
        std::fs::remove_dir_all(&dir).ok();
    }
}
