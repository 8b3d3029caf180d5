//! The benchmark checks itself on tiny fixtures: for both trace families,
//! at 1 and 2 shards, from a fresh start and from a resume, the traced
//! run's plans, the daemon's plans and the batch reference must agree,
//! and `prepare`'s cross-check against `ees online` must pass.

use perfbench::drive::{self, Checkpointing};
use perfbench::fixture::{self, Fixture, PlanKey};
use perfbench::spec::{by_name, Spec};
use perfbench::traced;
use std::path::PathBuf;

fn tiny(name: &str, shards: usize, restart: bool) -> Spec {
    let mut spec = by_name(name).expect("known workload");
    spec.shards = shards;
    spec.restart = restart;
    match spec.family {
        perfbench::spec::Family::Fileserver => {
            spec.scale = 0.01;
            // 216 s of trace: a short period still yields several plans.
            spec.period_s = 15;
            // Both input formats: NDJSON at 1 shard, binary at 2.
            spec.binary = shards > 1;
        }
        perfbench::spec::Family::Cloudblock => {
            spec.scale = 0.25;
            spec.volumes = 50;
        }
    }
    spec
}

fn root(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpointing(fx: &Fixture, tag: &str) -> Checkpointing {
    if !fx.spec.restart {
        return Checkpointing::Off;
    }
    let path = fx.dir.join(format!("{tag}.ckpt"));
    fx.fresh_checkpoint(&path).expect("copy checkpoint");
    Checkpointing::Resume(path)
}

fn keys(plans: &[ees_online::PlanEnvelope]) -> Vec<PlanKey> {
    plans.iter().map(PlanKey::of_envelope).collect()
}

fn agree(case: &str, spec: Spec) {
    let fx = fixture::prepare(&spec, 7, &root(case)).expect("fixture, reference and cross-check");
    assert!(
        fx.expected_plans().len() >= 2,
        "{case}: {} plans to check",
        fx.expected_plans().len()
    );
    if let Some(r) = fx.resume {
        assert!(
            r.events > 0 && r.plans_before > 0,
            "{case}: resume point {r:?}"
        );
    }

    let run = drive::run_online(&fx, &checkpointing(&fx, "run")).expect("daemon run");
    let problems = drive::check(
        &fx,
        &run.plans,
        run.records,
        run.dropped,
        Some(&run.summary),
    );
    assert!(problems.is_empty(), "{case}: daemon {problems:?}");
    assert_eq!(run.unprobed_plans, 0, "{case}: every plan step is timed");
    assert_eq!(
        run.plan_steps.len(),
        run.plans.len(),
        "{case}: one timed step per plan"
    );

    let tr = traced::run_traced(&fx, &checkpointing(&fx, "trace")).expect("traced run");
    assert_eq!(keys(&tr.plans), keys(&run.plans), "{case}: traced plans");
    assert_eq!(tr.plans, run.plans, "{case}: traced envelopes");
    assert_eq!(tr.summary, run.summary, "{case}: traced summary");
    assert_eq!(tr.records, fx.records, "{case}: traced records");
    assert_eq!(
        tr.observe.count, tr.serve.count,
        "{case}: one observe per serve"
    );
}

#[test]
fn fileserver_fresh_one_shard() {
    agree("fs-fresh-1", tiny("fileserver-binary", 1, false));
}

#[test]
fn fileserver_fresh_two_shards_binary() {
    agree("fs-fresh-2", tiny("fileserver-binary", 2, false));
}

#[test]
fn fileserver_resume_one_shard() {
    agree("fs-resume-1", tiny("fileserver-binary", 1, true));
}

#[test]
fn fileserver_resume_two_shards_binary() {
    agree("fs-resume-2", tiny("fileserver-binary", 2, true));
}

#[test]
fn cloudblock_fresh_one_shard() {
    agree("cb-fresh-1", tiny("cloudblock-restart", 1, false));
}

#[test]
fn cloudblock_fresh_two_shards() {
    agree("cb-fresh-2", tiny("cloudblock-restart", 2, false));
}

#[test]
fn cloudblock_resume_one_shard() {
    agree("cb-resume-1", tiny("cloudblock-restart", 1, true));
}

#[test]
fn cloudblock_resume_two_shards() {
    agree("cb-resume-2", tiny("cloudblock-restart", 2, true));
}

/// The check is not vacuous: a missing plan, a changed plan, a short
/// read and a changed summary are each reported.
#[test]
fn check_reports_mismatches() {
    let fx = fixture::prepare(&tiny("fileserver-binary", 1, false), 7, &root("mismatch"))
        .expect("fixture");
    let run = drive::run_online(&fx, &Checkpointing::Off).expect("daemon run");
    let ok = |plans: &[ees_online::PlanEnvelope], records, summary| {
        drive::check(&fx, plans, records, 0, Some(summary)).is_empty()
    };
    assert!(ok(&run.plans, run.records, &run.summary));
    assert!(!ok(&run.plans[1..], run.records, &run.summary));
    let mut changed = run.plans.clone();
    changed[0].plan.determinations += 1;
    assert!(!ok(&changed, run.records, &run.summary));
    assert!(!ok(&run.plans, run.records - 1, &run.summary));
    let mut summary = run.summary.clone();
    summary.spin_ups += 1;
    assert!(!ok(&run.plans, run.records, &summary));
    assert!(!drive::check(&fx, &run.plans, run.records, 1, None).is_empty());
}
