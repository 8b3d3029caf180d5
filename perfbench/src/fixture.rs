//! Fixtures: the generated trace files a workload replays, the batch
//! reference its plans are checked against, the quarter-way checkpoint a
//! restart run resumes from, and the shipped-path cross-check. Built once
//! per workload and seed and cached on disk; none of it is timed.

use crate::drive::{self, Checkpointing};
use crate::spec::Spec;
use crate::util::fnv1a;
use ees_core::EnergyEfficientPolicy;
use ees_iotrace::{ItemInterner, Micros, Span};
use ees_online::{ColocatedDaemon, OnlineSummary, PlanEnvelope};
use ees_policy::{ManagementPlan, MonitorSnapshot, PolicyReaction, PowerPolicy, RuntimeEvent};
use ees_replay::{CatalogItem, ReplayOptions};
use ees_simstorage::StorageConfig;
use ees_workloads::{items_to_json, DataItemSpec, Workload};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// One plan as the checks compare it: its period and a digest of the
/// whole plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanKey {
    /// Period start, µs.
    pub start: u64,
    /// Period end, µs.
    pub end: u64,
    /// [`fnv1a`] of the plan's `Debug` form.
    pub digest: u64,
}

impl PlanKey {
    fn of(period: Span, plan: &ManagementPlan) -> Self {
        PlanKey {
            start: period.start.0,
            end: period.end.0,
            digest: fnv1a(&format!("{plan:?}")),
        }
    }

    /// The key of a daemon plan.
    pub fn of_envelope(env: &PlanEnvelope) -> Self {
        Self::of(env.period, &env.plan)
    }
}

/// The batch reference: `ees_replay::run` under a recording
/// `EnergyEfficientPolicy` over the in-memory workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Every plan, in order.
    pub plans: Vec<PlanKey>,
    /// Management invocations.
    pub periods: u64,
    /// Enclosure spin-ups.
    pub spin_ups: u64,
    /// Records in the trace.
    pub records: u64,
}

/// Where a restart run resumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resume {
    /// Plans the checkpointing run emitted before the checkpoint.
    pub plans_before: usize,
    /// Records folded before the checkpoint (the prefix a resume skips).
    pub events: u64,
}

/// A workload's fixture, ready to replay.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The workload.
    pub spec: Spec,
    /// Directory holding the trace files.
    pub dir: PathBuf,
    /// Records in the trace.
    pub records: u64,
    /// Items in the catalog.
    pub items: usize,
    /// Bytes of the file the workload replays.
    pub trace_bytes: u64,
    /// The batch reference plans.
    pub reference: Reference,
    /// The checkpoint a restart run resumes from.
    pub resume: Option<Resume>,
    /// The summary the in-process driver and `ees online` both reported.
    pub expect: OnlineSummary,
}

impl Fixture {
    /// The items file.
    pub fn items_path(&self) -> PathBuf {
        self.dir.join("items.json")
    }

    /// The file the workload replays.
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join(self.spec.trace_file())
    }

    /// The quarter-way checkpoint (restart workloads).
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(checkpoint_name(&self.spec))
    }

    /// The plans a run of this workload must emit, in order: the whole
    /// reference, or its suffix from the checkpoint on.
    pub fn expected_plans(&self) -> &[PlanKey] {
        let skip = self.resume.map_or(0, |r| r.plans_before);
        &self.reference.plans[skip.min(self.reference.plans.len())..]
    }

    /// Copies the quarter-way checkpoint to `to` for one run to resume
    /// from and overwrite.
    pub fn fresh_checkpoint(&self, to: &Path) -> Result<(), String> {
        std::fs::copy(self.checkpoint_path(), to)
            .map(|_| ())
            .map_err(|e| format!("copy checkpoint to {}: {e}", to.display()))
    }
}

fn reference_name(spec: &Spec) -> String {
    format!("reference-p{}.txt", spec.period_s)
}

fn checkpoint_name(spec: &Spec) -> String {
    format!("checkpoint-p{}-sh{}.ckpt", spec.period_s, spec.shards)
}

fn resume_name(spec: &Spec) -> String {
    format!("checkpoint-p{}-sh{}.txt", spec.period_s, spec.shards)
}

fn expect_name(spec: &Spec) -> String {
    format!(
        "expect-{}-sh{}-p{}-{}.txt",
        if spec.binary { "eev" } else { "ndjson" },
        spec.shards,
        spec.period_s,
        if spec.restart { "restart" } else { "fresh" }
    )
}

/// Builds (or loads from `root`) the fixture of `spec` at `seed`.
/// Generation, the reference replay, the checkpoint and the cross-check
/// each run only when their file is missing; every file is written to a
/// temporary name and renamed into place.
pub fn prepare(spec: &Spec, seed: u64, root: &Path) -> Result<Fixture, String> {
    let dir = root.join(spec.trace_key(seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut generated: Option<Workload> = None;

    let items_path = dir.join("items.json");
    let ndjson_path = dir.join("trace.jsonl");
    if !items_path.exists() || !ndjson_path.exists() {
        let w = generated.get_or_insert_with(|| spec.generate(seed));
        write_atomic(&ndjson_path, |out| {
            ees_iotrace::ndjson::write_events(w.trace.records(), out)
        })?;
        write_atomic(&items_path, |out| {
            out.write_all(items_to_json(&w.items).as_bytes())
        })?;
    }
    let ref_path = dir.join(reference_name(spec));
    if !ref_path.exists() {
        let w = generated.get_or_insert_with(|| spec.generate(seed));
        let text = encode_reference(&batch_reference(spec, w)?);
        write_atomic(&ref_path, |out| out.write_all(text.as_bytes()))?;
    }
    if spec.binary && !dir.join("trace.eev").exists() {
        write_atomic(&dir.join("trace.eev"), |out| {
            let input = BufReader::new(std::fs::File::open(&ndjson_path)?);
            ees_iotrace::transcode_ndjson_to_binary_blocks(input, out, 0).map(|_| ())
        })?;
    }
    let resume_path = dir.join(resume_name(spec));
    if spec.restart && !resume_path.exists() {
        let items = read_items(&items_path)?;
        let w = generated.get_or_insert_with(|| spec.generate(seed));
        let (cp_text, resume) = quarter_checkpoint(spec, &items, w)?;
        write_atomic(&dir.join(checkpoint_name(spec)), |out| {
            out.write_all(cp_text.as_bytes())
        })?;
        let meta = format!(
            "plans_before {}\nevents {}\n",
            resume.plans_before, resume.events
        );
        write_atomic(&resume_path, |out| out.write_all(meta.as_bytes()))?;
    }

    let items = read_items(&items_path)?;
    let reference = decode_reference(&read(&ref_path)?)?;
    let resume = if spec.restart {
        Some(decode_resume(&read(&resume_path)?)?)
    } else {
        None
    };
    let trace_path = dir.join(spec.trace_file());
    let trace_bytes = std::fs::metadata(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?
        .len();
    let mut fx = Fixture {
        spec: spec.clone(),
        dir: dir.clone(),
        records: reference.records,
        items: items.len(),
        trace_bytes,
        reference,
        resume,
        expect: OnlineSummary {
            duration: Micros::ZERO,
            events: 0,
            periods: 0,
            trigger_cuts: 0,
            avg_power_watts: 0.0,
            spin_ups: 0,
            avg_response: Micros::ZERO,
        },
    };
    let expect_path = dir.join(expect_name(spec));
    if !expect_path.exists() {
        let summary = establish_expectation(&fx)?;
        write_atomic(&expect_path, |out| {
            out.write_all(encode_summary(&summary).as_bytes())
        })?;
    }
    fx.expect = decode_summary(&read(&expect_path)?)?;
    Ok(fx)
}

/// Runs the in-process driver once, checks it against the batch
/// reference, then runs `ees online … --json` through
/// `ees_cli::run_cli` on the same fixture and flags: both must report
/// the same events, periods, spin-ups and average power. Returns the
/// driver's summary, which every later run must reproduce exactly.
fn establish_expectation(fx: &Fixture) -> Result<OnlineSummary, String> {
    let run_cp = fx.dir.join(format!("prepare-{}.ckpt", std::process::id()));
    let checkpointing = if fx.spec.restart {
        fx.fresh_checkpoint(&run_cp)?;
        Checkpointing::Resume(run_cp.clone())
    } else {
        Checkpointing::Off
    };
    let out = drive::run_online(fx, &checkpointing)?;
    let problems = drive::check(fx, &out.plans, out.records, out.dropped, None);
    if !problems.is_empty() {
        return Err(format!(
            "driver disagrees with the batch reference: {problems:?}"
        ));
    }
    let summary = out.summary;
    // A resumed controller carries the checkpointed period count, so the
    // total matches the uninterrupted reference either way.
    if summary.periods != fx.reference.periods {
        return Err(format!(
            "driver ran {} periods, batch reference {}",
            summary.periods, fx.reference.periods
        ));
    }
    if !fx.spec.restart && summary.spin_ups != fx.reference.spin_ups {
        return Err(format!(
            "driver saw {} spin-ups, batch reference {}",
            summary.spin_ups, fx.reference.spin_ups
        ));
    }

    let cli = cross_check(fx, &run_cp)?;
    let _ = std::fs::remove_file(&run_cp);
    let ours = (
        summary.events,
        summary.periods,
        summary.spin_ups,
        summary.avg_power_watts,
    );
    if cli != ours {
        return Err(format!(
            "`ees online` reported (events, periods, spin-ups, W) = {cli:?}, the driver {ours:?}"
        ));
    }
    Ok(summary)
}

/// `ees online <trace> <items> --period P --shards N [--checkpoint F] --json`
/// through the CLI library; returns (events, periods, spin-ups, W).
fn cross_check(fx: &Fixture, run_cp: &Path) -> Result<(u64, u64, u64, f64), String> {
    let mut args: Vec<String> = vec![
        "online".into(),
        fx.trace_path().display().to_string(),
        fx.items_path().display().to_string(),
        "--period".into(),
        fx.spec.period_s.to_string(),
        "--shards".into(),
        fx.spec.shards.to_string(),
        "--json".into(),
    ];
    if fx.spec.restart {
        fx.fresh_checkpoint(run_cp)?;
        args.push("--checkpoint".into());
        args.push(run_cp.display().to_string());
    }
    let mut out = Vec::new();
    ees_cli::run_cli(args, &mut out).map_err(|e| format!("ees online: {e}"))?;
    let text = String::from_utf8(out).map_err(|e| format!("ees online output: {e}"))?;
    let field = |key: &str| -> Result<&str, String> {
        let tag = format!("\"{key}\":");
        text.lines()
            .find_map(|l| l.trim().strip_prefix(tag.as_str()))
            .map(|v| v.trim().trim_end_matches(','))
            .ok_or_else(|| format!("ees online --json has no \"{key}\""))
    };
    let int = |key: &str| -> Result<u64, String> {
        field(key)?
            .parse()
            .map_err(|e| format!("ees online \"{key}\": {e}"))
    };
    let watts: f64 = field("avg_power_watts")?
        .parse()
        .map_err(|e| format!("ees online \"avg_power_watts\": {e}"))?;
    Ok((int("events")?, int("periods")?, int("spin_ups")?, watts))
}

/// Wraps the batch policy and records every plan with its period.
struct Recording {
    inner: EnergyEfficientPolicy,
    plans: Vec<PlanKey>,
}

impl PowerPolicy for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn initial_period(&self) -> Micros {
        self.inner.initial_period()
    }
    fn on_period_end(&mut self, snapshot: &MonitorSnapshot<'_>) -> ManagementPlan {
        let plan = self.inner.on_period_end(snapshot);
        self.plans.push(PlanKey::of(snapshot.period, &plan));
        plan
    }
    fn on_event(&mut self, event: &RuntimeEvent) -> PolicyReaction {
        self.inner.on_event(event)
    }
}

/// The independent batch path `online/tests/equivalence.rs` pins the
/// daemon to: `ees_replay::run` under `EnergyEfficientPolicy` with the
/// workload's `--period`.
pub fn batch_reference(spec: &Spec, w: &Workload) -> Result<Reference, String> {
    let (_, num_enclosures) = catalog_of(&w.items);
    if num_enclosures != w.num_enclosures {
        return Err(format!(
            "catalog spans {num_enclosures} enclosures, workload {}",
            w.num_enclosures
        ));
    }
    let cfg = StorageConfig::ams2500(w.num_enclosures);
    let mut policy = Recording {
        inner: EnergyEfficientPolicy::new(spec.policy()),
        plans: Vec::new(),
    };
    let report = ees_replay::run(w, &mut policy, &cfg, &ReplayOptions::default());
    Ok(Reference {
        plans: policy.plans,
        periods: report.periods,
        spin_ups: report.spin_ups,
        records: w.trace.len() as u64,
    })
}

/// Runs the daemon as `ees online --checkpoint` would and keeps the
/// checkpoint written at the first plan at or past a quarter of the
/// records. Returns the encoded checkpoint and where it sits.
fn quarter_checkpoint(
    spec: &Spec,
    items: &[DataItemSpec],
    w: &Workload,
) -> Result<(String, Resume), String> {
    let (catalog, num_enclosures) = catalog_of(items);
    let storage = StorageConfig::ams2500(num_enclosures);
    let mut daemon = ColocatedDaemon::with_shard_options(
        &catalog,
        num_enclosures,
        &storage,
        spec.policy(),
        None,
        spec.shards,
        spec.shard_options(),
    );
    let interner = catalog_interner(items, &[]);
    let quarter = w.trace.len() as u64 / 4;
    let mut plans_before = 0;
    for rec in w.trace.records() {
        let stepped = daemon.step(*rec).map_err(|e| e.to_string())?;
        plans_before += stepped.len();
        if !stepped.is_empty() && daemon.events() >= quarter {
            let mut cp = daemon.checkpoint().map_err(|e| e.to_string())?;
            cp.names = interner.export();
            let resume = Resume {
                plans_before,
                events: cp.events,
            };
            return Ok((ees_online::encode_checkpoint(&cp), resume));
        }
    }
    Err("no plan past a quarter of the trace to checkpoint at".into())
}

/// The catalog projection `ees online` builds from an items file, and
/// the enclosure count it infers.
pub fn catalog_of(items: &[DataItemSpec]) -> (Vec<CatalogItem>, u16) {
    let num_enclosures = items.iter().map(|i| i.enclosure.0 + 1).max().unwrap_or(1);
    let catalog = items
        .iter()
        .map(|i| CatalogItem {
            id: i.id,
            size: i.size,
            enclosure: i.enclosure,
            access: i.access,
        })
        .collect();
    (catalog, num_enclosures)
}

/// The name interner `ees online` builds: ids past the catalog, the
/// checkpointed name table restored first, every catalog name pre-bound.
pub fn catalog_interner(items: &[DataItemSpec], names: &[String]) -> ItemInterner {
    let floor = items.iter().map(|i| i.id.0 + 1).max().unwrap_or(0);
    let mut interner = if names.is_empty() {
        ItemInterner::with_floor(floor)
    } else {
        ItemInterner::import(floor, names.to_vec())
    };
    for item in items {
        interner.bind(&item.name, item.id);
    }
    interner
}

/// Reads and parses an items file.
pub fn read_items(path: &Path) -> Result<Vec<DataItemSpec>, String> {
    ees_workloads::items_from_json(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let result = (|| {
        let mut out = BufWriter::new(std::fs::File::create(&tmp)?);
        fill(&mut out)?;
        out.flush()?;
        // Flushed to disk now, so write-back of a fresh fixture does not
        // run during the first measured runs.
        out.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    result.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("{}: {e}", path.display())
    })
}

fn encode_reference(r: &Reference) -> String {
    let mut s = format!(
        "records {}\nperiods {}\nspin_ups {}\n",
        r.records, r.periods, r.spin_ups
    );
    for p in &r.plans {
        s += &format!("plan {} {} {:016x}\n", p.start, p.end, p.digest);
    }
    s
}

fn decode_reference(text: &str) -> Result<Reference, String> {
    let mut r = Reference {
        plans: Vec::new(),
        periods: 0,
        spin_ups: 0,
        records: 0,
    };
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("reference line {line:?}");
        match f.as_slice() {
            ["records", n] => r.records = n.parse().map_err(|_| bad())?,
            ["periods", n] => r.periods = n.parse().map_err(|_| bad())?,
            ["spin_ups", n] => r.spin_ups = n.parse().map_err(|_| bad())?,
            ["plan", s, e, d] => r.plans.push(PlanKey {
                start: s.parse().map_err(|_| bad())?,
                end: e.parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(d, 16).map_err(|_| bad())?,
            }),
            _ => return Err(bad()),
        }
    }
    Ok(r)
}

fn decode_resume(text: &str) -> Result<Resume, String> {
    let get = |key: &str| -> Result<u64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
            .ok_or_else(|| format!("checkpoint meta lacks {key}"))
    };
    Ok(Resume {
        plans_before: get("plans_before")? as usize,
        events: get("events")?,
    })
}

fn encode_summary(s: &OnlineSummary) -> String {
    format!(
        "duration_us {}\nevents {}\nperiods {}\ntrigger_cuts {}\navg_power_bits {:016x}\n\
         spin_ups {}\navg_response_us {}\n",
        s.duration.0,
        s.events,
        s.periods,
        s.trigger_cuts,
        s.avg_power_watts.to_bits(),
        s.spin_ups,
        s.avg_response.0
    )
}

fn decode_summary(text: &str) -> Result<OnlineSummary, String> {
    let get = |key: &str| -> Result<&str, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .ok_or_else(|| format!("expectation lacks {key}"))
    };
    let int = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|e| format!("expectation {key}: {e}"))
    };
    let bits = u64::from_str_radix(get("avg_power_bits")?, 16)
        .map_err(|e| format!("expectation avg_power_bits: {e}"))?;
    Ok(OnlineSummary {
        duration: Micros(int("duration_us")?),
        events: int("events")?,
        periods: int("periods")?,
        trigger_cuts: int("trigger_cuts")?,
        avg_power_watts: f64::from_bits(bits),
        spin_ups: int("spin_ups")?,
        avg_response: Micros(int("avg_response_us")?),
    })
}
