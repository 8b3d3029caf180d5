//! `perfbench <prepare|run|setup|trace> --workload NAME --seed N --root DIR`
//!
//! One mode per process, one JSON object on the last line of stdout:
//!
//! * `prepare` builds (or finds) the fixture under `DIR` and describes it;
//! * `run` makes one untraced run and checks it;
//! * `setup` times `ees online`'s set-up once and tears it down;
//! * `trace` makes one traced run, checks it, writes its spans and
//!   layer histograms to `--spans PATH`, and times a one-core decode pass.
//!
//! `run.py` drives these; they are not meant to be called by hand.

use perfbench::drive::{self, Checkpointing};
use perfbench::fixture::{self, Fixture};
use perfbench::spec;
use perfbench::traced;
use perfbench::util::{ms, peak_rss_bytes};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A JSON object written field by field.
#[derive(Default)]
struct Obj(Vec<String>);

impl Obj {
    fn raw(mut self, key: &str, value: String) -> Self {
        self.0.push(format!("\"{key}\":{value}"));
        self
    }
    fn num(self, key: &str, v: f64) -> Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.raw(key, format!("{v}"))
    }
    fn int(self, key: &str, v: u64) -> Self {
        self.raw(key, v.to_string())
    }
    fn text(self, key: &str, v: &str) -> Self {
        self.raw(key, format!("\"{}\"", ees_iotrace::ndjson::json_escape(v)))
    }
    fn list(self, key: &str, vs: &[f64]) -> Self {
        let items: Vec<String> = vs.iter().map(|v| format!("{v}")).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }
    fn texts(self, key: &str, vs: &[String]) -> Self {
        let items: Vec<String> = vs
            .iter()
            .map(|v| format!("\"{}\"", ees_iotrace::ndjson::json_escape(v)))
            .collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }
    fn print(self) {
        println!("{{{}}}", self.0.join(","));
    }
}

struct Args {
    mode: String,
    workload: spec::Spec,
    seed: u64,
    root: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode")?;
    let (mut workload, mut seed, mut root, mut spans) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(spec::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--root" => root = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        root: root.ok_or("missing --root")?,
        spans,
    })
}

/// A run-private copy of the quarter-way checkpoint, removed on drop.
struct RunCheckpoint(Option<PathBuf>);

impl RunCheckpoint {
    fn new(fx: &Fixture) -> Result<Self, String> {
        if !fx.spec.restart {
            return Ok(RunCheckpoint(None));
        }
        let path = fx.dir.join(format!("run-{}.ckpt", std::process::id()));
        fx.fresh_checkpoint(&path)?;
        Ok(RunCheckpoint(Some(path)))
    }

    fn mode(&self) -> Checkpointing {
        match &self.0 {
            Some(p) => Checkpointing::Resume(p.clone()),
            None => Checkpointing::Off,
        }
    }
}

impl Drop for RunCheckpoint {
    fn drop(&mut self) {
        if let Some(p) = &self.0 {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(p.with_extension("tmp"));
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms_list(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(|&d| ms(d)).collect()
}

fn prepare(a: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    let fx = fixture::prepare(&a.workload, a.seed, &a.root)?;
    Obj::default()
        .text("workload", fx.spec.name)
        .text("fixture", &fx.dir.display().to_string())
        .int("records", fx.records)
        .int("items", fx.items as u64)
        .int("trace_bytes", fx.trace_bytes)
        .int("plans", fx.expected_plans().len() as u64)
        .int("resume_events", fx.resume.map_or(0, |r| r.events))
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .text("scan_isa", ees_iotrace::scan::active_isa_name())
        .num("prepare_s", secs(t0.elapsed()))
        .print();
    Ok(())
}

fn run(a: &Args) -> Result<(), String> {
    let fx = fixture::prepare(&a.workload, a.seed, &a.root)?;
    let cp = RunCheckpoint::new(&fx)?;
    let out = drive::run_online(&fx, &cp.mode())?;
    let mut problems = drive::check(
        &fx,
        &out.plans,
        out.records,
        out.dropped,
        Some(&out.summary),
    );
    if out.unprobed_plans > 0 {
        problems.push(format!(
            "{} plans from unpredicted steps",
            out.unprobed_plans
        ));
    }
    Obj::default()
        .raw("ok", problems.is_empty().to_string())
        .texts("problems", &problems)
        .int("records", out.records)
        .int("dropped", out.dropped)
        .int("plans", out.plans.len() as u64)
        .num("wall_s", secs(out.wall))
        .num("cpu_s", secs(out.cpu))
        .num("setup_s", secs(out.setup))
        .num("restore_ms", out.restore.map_or(0.0, ms))
        .list("plan_steps_ms", &ms_list(&out.plan_steps))
        .int("blocks", out.blocks)
        .int("batches", out.batches)
        .num("wait_s", secs(out.wait))
        .num("reader_s", secs(out.reader))
        .num(
            "step_free_ns_per_event",
            out.step_free.as_nanos() as f64 / out.step_free_records.max(1) as f64,
        )
        .num("finish_ms", ms(out.finish))
        .list("cp_export_ms", &ms_list(&out.cp_export))
        .list("cp_write_ms", &ms_list(&out.cp_write))
        .int("cp_bytes", out.cp_bytes)
        .int("peak_rss_bytes", peak_rss_bytes())
        .num("avg_power_w", out.summary.avg_power_watts)
        .num("avg_response_ms", out.summary.avg_response.as_millis_f64())
        .int("periods", out.summary.periods)
        .int("spin_ups", out.summary.spin_ups)
        .print();
    Ok(())
}

fn setup(a: &Args) -> Result<(), String> {
    let fx = fixture::prepare(&a.workload, a.seed, &a.root)?;
    let cp = RunCheckpoint::new(&fx)?;
    let d = drive::setup_only(&fx, &cp.mode())?;
    Obj::default().num("setup_s", secs(d)).print();
    Ok(())
}

fn trace(a: &Args) -> Result<(), String> {
    let fx = fixture::prepare(&a.workload, a.seed, &a.root)?;
    let cp = RunCheckpoint::new(&fx)?;
    let out = traced::run_traced(&fx, &cp.mode())?;
    let problems = drive::check(
        &fx,
        &out.plans,
        out.records,
        out.dropped,
        Some(&out.summary),
    );
    if let Some(path) = &a.spans {
        out.write(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let (decoded, decode_time) = traced::decode_pass(&fx)?;
    let serves = out.serve.count.max(1) as f64;
    let probe = out.probe;
    Obj::default()
        .raw("ok", problems.is_empty().to_string())
        .texts("problems", &problems)
        .int("records", out.records)
        .int("dropped", out.dropped)
        .int("plans", out.plans.len() as u64)
        .num("wall_s", secs(out.wall))
        .num("boundary_ns_per_event", out.boundary_check.ns_per_call())
        .num("observe_ns_per_event", out.observe.ns_per_call())
        .num("serve_ns_per_event", out.serve.ns_per_call())
        .num("trigger_ns_per_event", out.trigger.ns_per_call())
        .list("rollover_ms", &ms_list(&out.rollover))
        .list("refresh_views_ms", &ms_list(&out.refresh_views))
        .list("apply_plan_ms", &ms_list(&out.apply_plan))
        .num("cache_hit_frac", out.cache_hits as f64 / serves)
        .int("spin_ups", out.spin_ups)
        .int("migrated_bytes", out.migrated_bytes)
        .int("trigger_cuts", out.trigger_cuts)
        .int("plan_migrations", out.plan_counts.0)
        .int("plan_preload_items", out.plan_counts.1)
        .int("plan_write_delay_items", out.plan_counts.2)
        .int("spans", out.spans.len() as u64)
        .list("cp_export_ms", &probe.map_or(vec![], |p| vec![ms(p.0)]))
        .list("cp_write_ms", &probe.map_or(vec![], |p| vec![ms(p.1)]))
        .num("restore_ms", probe.map_or(0.0, |p| ms(p.2)))
        .int("cp_bytes", probe.map_or(0, |p| p.3))
        .num(
            "decode_ns_per_event",
            decode_time.as_nanos() as f64 / decoded.max(1) as f64,
        )
        .print();
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|a| match a.mode.as_str() {
        "prepare" => prepare(&a),
        "run" => run(&a),
        "setup" => setup(&a),
        "trace" => trace(&a),
        other => Err(format!("unknown mode {other}")),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
