//! The long-horizon endurance harness behind `ees endure` (DESIGN.md §16).
//!
//! One run streams hundreds of monitoring periods of a synthetic
//! workload (typically `ees_workloads::cloudblock`, whose accelerated
//! "day" compresses weeks of diurnal structure into hours of simulated
//! time) through the production daemon — [`ColocatedDaemon`] with its
//! shard workers, §V.D triggers, §IV.H period adaptation — while a
//! parallel **baseline** [`StreamHarness`] serves the identical record
//! sequence with no management at all (no plans, no power-off
//! eligibility, every enclosure active). The harness rides the daemon's
//! loop through its crate-private step hook, so it owns only the
//! baseline and the row bookkeeping. Settling both energy meters at
//! every rollover turns the pair into a per-period differential energy
//! experiment:
//!
//! * `savings_k = 1 − ΔE_managed / ΔE_baseline` for period `k`;
//! * `p99_k` from the managed run's response-time histogram;
//! * the period-length trajectory (§IV.H α-adaptation made visible);
//! * the controller's [`MonitorHistory`] footprint and rollover
//!   counters, proving retention stays bounded.
//!
//! The harness is an endurance test, not a benchmark: mid-run it
//! injects checkpoint → encode → decode → restore cycles (the storage
//! harness survives, exactly the colocated crash story) and seeded
//! worker panics, and the **drift statistic** — the least-squares slope
//! of `savings_k` over the back half of the run — pins that the
//! controller neither decays nor diverges over hundreds of periods.
//! Same seed ⇒ identical report, across shard counts and across
//! injected crashes (machinery-evidence counters aside).

use crate::controller::{PlanEnvelope, RolloverReason};
use crate::daemon::{AfterCut, ColocatedDaemon, StepHook};
use crate::error::OnlineError;
use crate::fault::{silence_injected_panics, PanicSchedule};
use crate::shard::{ShardOptions, SupervisionPolicy};
use ees_core::{MonitorHistory, ProposedConfig};
use ees_iotrace::{LatencyHistogram, LogicalIoRecord, Micros};
use ees_replay::{CatalogItem, ServedIo, StreamHarness};
use ees_simstorage::StorageConfig;

/// Everything one endurance run depends on. The seed (via the caller's
/// workload generator and the panic schedule) fully determines the run.
#[derive(Debug, Clone, Copy)]
pub struct EnduranceConfig {
    /// Master seed (panic schedule; echoed in the report).
    pub seed: u64,
    /// Period rows to record before stopping (boundary + trigger cuts).
    pub periods: usize,
    /// Shard workers (the report is identical for any value ≥ 1); 1 runs
    /// the in-thread controller, which restores but has no workers to
    /// panic.
    pub shards: usize,
    /// Controller policy.
    pub policy: ProposedConfig,
    /// Checkpoint → encode → decode → restore every this many period
    /// rows (0 = never). The storage harness survives each crash.
    pub restore_every: usize,
    /// Seeded worker panics to inject (respawned by the supervisor).
    pub worker_panics: usize,
    /// Fold-index horizon the panic schedule spreads its points over;
    /// panics scheduled past the actual event count simply never fire.
    pub panic_horizon: u64,
}

impl Default for EnduranceConfig {
    fn default() -> Self {
        EnduranceConfig {
            seed: 0,
            periods: 50,
            shards: 4,
            policy: ProposedConfig::default(),
            restore_every: 10,
            worker_panics: 4,
            panic_horizon: 200_000,
        }
    }
}

/// One closed monitoring period of the endurance run. Every field is a
/// pure function of the record stream and the policy — byte-identical
/// across shard counts and across injected crash/restore cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodMetric {
    /// Row index (0-based).
    pub index: u64,
    /// Period start.
    pub start: Micros,
    /// Period end (the rollover instant).
    pub end: Micros,
    /// True when a §V.D trigger cut the period short.
    pub trigger: bool,
    /// Records served inside the period.
    pub events: u64,
    /// Managed run's energy over the period, joules.
    pub managed_joules: f64,
    /// Baseline (no-management) energy over the same span, joules.
    pub baseline_joules: f64,
    /// `1 − managed/baseline` for this period.
    pub savings: f64,
    /// p99 response time of the managed run's serves this period.
    pub p99: Option<Micros>,
    /// [`MonitorHistory`] logical footprint after the rollover, bytes.
    pub history_bytes: u64,
    /// History rollover counter (total periods ever recorded).
    pub history_periods: u64,
}

impl PeriodMetric {
    /// The α-adapted period length this row ran under.
    pub fn period_len(&self) -> Micros {
        self.end.saturating_sub(self.start)
    }
}

/// What one endurance run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct EnduranceReport {
    /// Master seed (echoed for reproduction).
    pub seed: u64,
    /// Shard workers used (machinery evidence; not part of the
    /// deterministic core).
    pub shards: usize,
    /// Records folded into closed periods.
    pub events: u64,
    /// One row per closed period.
    pub rows: Vec<PeriodMetric>,
    /// Σ managed joules over all rows.
    pub total_managed_joules: f64,
    /// Σ baseline joules over all rows.
    pub total_baseline_joules: f64,
    /// `1 − total_managed/total_baseline`.
    pub overall_savings: f64,
    /// Least-squares slope of `savings` over the back half of the rows,
    /// per period — the drift statistic (`None` with < 2 back-half
    /// rows). Near zero means the controller holds up.
    pub drift_per_period: Option<f64>,
    /// Mean savings over the back half of the rows.
    pub back_half_savings: f64,
    /// Checkpoint/restore cycles completed (machinery evidence).
    pub crash_restores: usize,
    /// Workers the supervisor respawned (machinery evidence).
    pub respawns: u64,
    /// §V.D trigger cuts among the rows.
    pub trigger_cuts: u64,
    /// Final history footprint, bytes (bounded by the period ring).
    pub history_footprint_bytes: u64,
    /// Final history rollover counter.
    pub history_total_periods: u64,
    /// Periods the bounded ring has pruned into aggregates.
    pub history_dropped_periods: u64,
    /// Classification stability across the whole run, if defined.
    pub stability: Option<f64>,
}

impl EnduranceReport {
    /// True when the drift statistic is defined and within `bar` of
    /// zero — the ci gate's pass condition.
    pub fn drift_within(&self, bar: f64) -> bool {
        self.drift_per_period
            .is_some_and(|slope| slope.abs() <= bar)
    }

    /// Largest per-period p99 across all rows.
    pub fn max_p99(&self) -> Option<Micros> {
        self.rows.iter().filter_map(|r| r.p99).max()
    }
}

/// Least-squares slope of `ys` against their indices.
fn slope(ys: &[f64]) -> Option<f64> {
    let n = ys.len();
    if n < 2 {
        return None;
    }
    let mx = (n - 1) as f64 / 2.0;
    let my = ys.iter().sum::<f64>() / n as f64;
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (i, &y) in ys.iter().enumerate() {
        let dx = i as f64 - mx;
        num += dx * (y - my);
        den += dx * dx;
    }
    Some(num / den)
}

/// The endurance harness's side of the daemon's loop: the never-managed
/// baseline harness and the per-period rows.
struct Rows {
    baseline: StreamHarness,
    rows: Vec<PeriodMetric>,
    target: usize,
    restore_every: usize,
    hist: LatencyHistogram,
    period_events: u64,
    last_managed_joules: f64,
    last_baseline_joules: f64,
    /// Managed and baseline joules of the period being cut.
    cut_joules: (f64, f64),
    crash_restores: usize,
}

impl Rows {
    fn done(&self) -> bool {
        self.rows.len() >= self.target
    }
}

impl StepHook for Rows {
    /// Settles both energy meters at `t_end` and takes the per-period
    /// deltas. The plan's own bulk I/O lands after the settle, so
    /// migration/flush overheads are charged to the *following* period —
    /// consistently, run for run.
    fn before_cut(&mut self, managed: &mut StreamHarness, t_end: Micros) {
        managed.settle_meters(t_end);
        self.baseline.settle_meters(t_end);
        let m = managed.controller().total_energy_joules(t_end);
        let b = self.baseline.controller().total_energy_joules(t_end);
        self.cut_joules = (m - self.last_managed_joules, b - self.last_baseline_joules);
        self.last_managed_joules = m;
        self.last_baseline_joules = b;
    }

    /// Records the row, then stops at the target or asks for a
    /// crash/restore on schedule.
    fn after_cut(&mut self, env: &PlanEnvelope, h: &MonitorHistory) -> AfterCut {
        let (dm, db) = self.cut_joules;
        self.rows.push(PeriodMetric {
            index: self.rows.len() as u64,
            start: env.period.start,
            end: env.period.end,
            trigger: matches!(env.reason, RolloverReason::Trigger),
            events: self.period_events,
            managed_joules: dm,
            baseline_joules: db,
            savings: if db > 0.0 { 1.0 - dm / db } else { 0.0 },
            p99: self.hist.quantile(0.99),
            history_bytes: h.footprint_bytes(),
            history_periods: h.total_periods(),
        });
        self.period_events = 0;
        self.hist = LatencyHistogram::new();
        if self.done() {
            AfterCut::Stop
        } else if self.restore_every > 0 && self.rows.len().is_multiple_of(self.restore_every) {
            // Both harnesses survive the crash, so the savings trajectory
            // must show no discontinuity.
            self.crash_restores += 1;
            AfterCut::CrashRestore
        } else {
            AfterCut::Continue
        }
    }

    fn served(&mut self, rec: &LogicalIoRecord, io: &ServedIo) {
        self.baseline.serve(*rec);
        self.hist.record(io.response);
        self.period_events += 1;
    }
}

/// Runs one endurance experiment over `events` (any timestamp-ordered
/// record stream — `ees_workloads::cloudblock::stream` is the intended
/// source) against a catalog placed on `num_enclosures` enclosures.
/// Stops after `cfg.periods` closed periods or when the stream dries
/// up, whichever is first.
pub fn run_endurance<I>(
    cfg: &EnduranceConfig,
    catalog: &[CatalogItem],
    num_enclosures: u16,
    storage: &StorageConfig,
    events: I,
) -> Result<EnduranceReport, OnlineError>
where
    I: IntoIterator<Item = LogicalIoRecord>,
{
    if cfg.worker_panics > 0 {
        silence_injected_panics();
    }
    let shards = cfg.shards.max(1);
    let options = ShardOptions {
        supervision: SupervisionPolicy::Respawn,
        panic_schedule: (cfg.worker_panics > 0)
            .then(|| PanicSchedule::seeded(cfg.seed, shards, cfg.panic_horizon, cfg.worker_panics)),
        ..ShardOptions::default()
    };
    let mut daemon = ColocatedDaemon::with_shard_options(
        catalog,
        num_enclosures,
        storage,
        cfg.policy,
        None,
        shards,
        options,
    );
    let mut hook = Rows {
        baseline: StreamHarness::new(catalog, num_enclosures, storage),
        rows: Vec::with_capacity(cfg.periods),
        target: cfg.periods.max(1),
        restore_every: cfg.restore_every,
        hist: LatencyHistogram::new(),
        period_events: 0,
        last_managed_joules: 0.0,
        last_baseline_joules: 0.0,
        cut_joules: (0.0, 0.0),
        crash_restores: 0,
    };
    for rec in events {
        daemon.step_with(rec, &mut hook)?;
        if hook.done() {
            break;
        }
    }
    daemon.sync()?;

    let rows = hook.rows;
    let total_m: f64 = rows.iter().map(|r| r.managed_joules).sum();
    let total_b: f64 = rows.iter().map(|r| r.baseline_joules).sum();
    let back = &rows[rows.len() / 2..];
    let back_savings: Vec<f64> = back.iter().map(|r| r.savings).collect();
    let h = daemon.history();
    Ok(EnduranceReport {
        seed: cfg.seed,
        shards,
        events: rows.iter().map(|r| r.events).sum(),
        total_managed_joules: total_m,
        total_baseline_joules: total_b,
        overall_savings: if total_b > 0.0 {
            1.0 - total_m / total_b
        } else {
            0.0
        },
        drift_per_period: slope(&back_savings),
        back_half_savings: if back_savings.is_empty() {
            0.0
        } else {
            back_savings.iter().sum::<f64>() / back_savings.len() as f64
        },
        crash_restores: hook.crash_restores,
        respawns: daemon.respawns(),
        trigger_cuts: rows.iter().filter(|r| r.trigger).count() as u64,
        history_footprint_bytes: h.footprint_bytes(),
        history_total_periods: h.total_periods(),
        history_dropped_periods: h.dropped_periods(),
        stability: h.stability(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{DataItemId, EnclosureId};
    use ees_simstorage::Access;
    use ees_workloads::cloudblock::{self, CloudBlockParams};

    const ENCLOSURES: u16 = 6;

    fn params() -> CloudBlockParams {
        CloudBlockParams {
            duration: Micros::from_secs(40 * 3600),
            num_enclosures: ENCLOSURES,
            num_volumes: 36,
            num_tenants: 6,
            ..Default::default()
        }
    }

    fn run(cfg: &EnduranceConfig) -> EnduranceReport {
        let p = params();
        let stream = cloudblock::stream(cfg.seed, &p);
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
        let storage = StorageConfig::ams2500(ENCLOSURES);
        run_endurance(cfg, &catalog, ENCLOSURES, &storage, stream).expect("endurance run")
    }

    fn small_cfg() -> EnduranceConfig {
        EnduranceConfig {
            seed: 5,
            periods: 12,
            shards: 1,
            restore_every: 0,
            worker_panics: 0,
            ..Default::default()
        }
    }

    #[test]
    fn records_the_requested_periods_with_positive_savings() {
        let r = run(&small_cfg());
        assert_eq!(r.rows.len(), 12);
        assert!(r.events > 0);
        for (i, row) in r.rows.iter().enumerate() {
            assert_eq!(row.index, i as u64);
            assert!(row.end > row.start, "row {i} has an empty span");
            assert!(row.baseline_joules > 0.0);
            assert!(row.history_periods == i as u64 + 1);
        }
        // The bursty, long-idle cloud-block workload is the method's
        // home turf: whole-run savings must be clearly positive.
        assert!(
            r.overall_savings > 0.10,
            "overall savings {:.3} too small",
            r.overall_savings
        );
        assert!(r.drift_per_period.is_some());
    }

    #[test]
    fn report_is_identical_across_shard_counts() {
        let mut a_cfg = small_cfg();
        a_cfg.periods = 8;
        let mut b_cfg = a_cfg;
        b_cfg.shards = 4;
        let a = run(&a_cfg);
        let b = run(&b_cfg);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.events, b.events);
        assert_eq!(a.drift_per_period, b.drift_per_period);
        assert_eq!(a.overall_savings, b.overall_savings);
    }

    #[test]
    fn crash_restore_and_panics_leave_no_discontinuity() {
        let mut clean = small_cfg();
        clean.periods = 10;
        let mut chaotic = clean;
        chaotic.shards = 2;
        chaotic.restore_every = 3;
        chaotic.worker_panics = 3;
        chaotic.panic_horizon = 20_000;
        let a = run(&clean);
        let b = run(&chaotic);
        assert!(b.crash_restores >= 2, "crash points must have fired");
        assert!(b.respawns >= 1, "respawns before a restore must be counted");
        assert_eq!(a.rows, b.rows, "restore must not bend any metric");
        assert_eq!(a.stability, b.stability);
    }

    #[test]
    fn dry_stream_stops_early_without_panicking() {
        let cfg = EnduranceConfig {
            periods: 1000,
            ..small_cfg()
        };
        let catalog = [CatalogItem {
            id: DataItemId(0),
            size: 1 << 20,
            enclosure: EnclosureId(0),
            access: Access::Random,
        }];
        let storage = StorageConfig::ams2500(2);
        let recs = (0..200u64).map(|i| LogicalIoRecord {
            ts: Micros(i * 30_000_000),
            item: DataItemId(0),
            offset: 0,
            len: 4096,
            kind: ees_iotrace::IoKind::Read,
        });
        let r = run_endurance(&cfg, &catalog, 2, &storage, recs).unwrap();
        assert!(r.rows.len() < 1000);
        assert!(!r.rows.is_empty());
    }
}
