//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [targets...] [--scale X] [--seed N]
//!
//! targets: all (default) | table1 | table2 | fig6 | fig8 | fig9 | fig10
//!          | fig11 | fig12 | fig13 | fig14 | fig15 | fig16 | fig17
//!          | fig18 | fig19 | determinations | stability
//!          | export (CSV/JSON artifacts under results/)
//!          | seeds (5-seed robustness of the headline savings)
//! ```
//!
//! `--scale` shrinks the trace durations (1.0 = the paper's 6 h / 1.8 h /
//! 6 h). Figures that compare methods run all four policies over the same
//! generated trace; runs are memoized per workload within one invocation.

use ees_bench::format::{bytes, response, saving, table, watts};
use ees_bench::reference;
use ees_bench::report_json::reports_json;
use ees_bench::{classify_whole_run, make_workload, run_methods_matrix};
use ees_bench::{ExperimentSetup, Method, MethodReports, WorkloadKind};
use ees_core::{EnergyEfficientPolicy, LogicalIoPattern};
use ees_iotrace::fmt_bytes;
use ees_replay::{tpcc_throughput_from_reports, tpch_query_response_from_reports};
use ees_simstorage::{EnclosurePowerModel, StorageConfig};

struct Harness {
    setup: ExperimentSetup,
    fs: Option<MethodReports>,
    tpcc: Option<MethodReports>,
    tpch: Option<MethodReports>,
}

impl Harness {
    fn new(setup: ExperimentSetup) -> Self {
        Harness {
            setup,
            fs: None,
            tpcc: None,
            tpch: None,
        }
    }

    fn slot(&mut self, kind: WorkloadKind) -> &mut Option<MethodReports> {
        match kind {
            WorkloadKind::FileServer => &mut self.fs,
            WorkloadKind::Tpcc => &mut self.tpcc,
            WorkloadKind::Tpch => &mut self.tpch,
        }
    }

    /// Runs the full method matrix for every listed workload that is not
    /// memoized yet, in one cell-level parallel fan-out.
    fn prefetch(&mut self, kinds: &[WorkloadKind]) {
        let setup = self.setup;
        let missing: Vec<WorkloadKind> = kinds
            .iter()
            .copied()
            .filter(|&k| self.slot(k).is_none())
            .collect();
        if missing.is_empty() {
            return;
        }
        eprintln!(
            "[experiments] running {} workload x method cells on {} threads (scale {}, seed {})...",
            missing.len() * Method::ALL.len(),
            ees_bench::threads(),
            setup.scale,
            setup.seed
        );
        let started = std::time::Instant::now();
        let pairs: Vec<(WorkloadKind, ExperimentSetup)> =
            missing.iter().map(|&k| (k, setup)).collect();
        for (kind, reports) in missing.iter().zip(run_methods_matrix(&pairs)) {
            *self.slot(*kind) = Some(reports);
        }
        eprintln!(
            "[experiments] method matrix done in {:.2} s",
            started.elapsed().as_secs_f64()
        );
    }

    fn reports(&mut self, kind: WorkloadKind) -> &MethodReports {
        if self.slot(kind).is_none() {
            self.prefetch(&[kind]);
        }
        self.slot(kind).as_ref().unwrap()
    }
}

/// Workloads whose four-method reports a target will ask the harness
/// for; empty for targets that run their own replays.
fn target_workloads(target: &str) -> &'static [WorkloadKind] {
    match target {
        "fig8" | "fig9" | "fig10" | "fig17" => &[WorkloadKind::FileServer],
        "fig11" | "fig12" | "fig13" | "fig18" => &[WorkloadKind::Tpcc],
        "fig14" | "fig15" | "fig16" | "fig19" => &[WorkloadKind::Tpch],
        "determinations" | "export" => &WorkloadKind::ALL,
        _ => &[],
    }
}

fn main() {
    let mut setup = ExperimentSetup::default();
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                setup.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number");
            }
            "--seed" => {
                setup.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = [
            "table1",
            "table2",
            "fig6",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "determinations",
            "stability",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let mut h = Harness::new(setup);
    // One upfront fan-out over every (workload, method) cell any target
    // will need; the per-target code below then only reads memoized
    // reports and prints, keeping stdout identical to a serial run.
    let needed: Vec<WorkloadKind> = WorkloadKind::ALL
        .into_iter()
        .filter(|&k| targets.iter().any(|t| target_workloads(t).contains(&k)))
        .collect();
    h.prefetch(&needed);
    for t in &targets {
        let phase_started = std::time::Instant::now();
        match t.as_str() {
            "table1" => table1(setup),
            "table2" => table2(),
            "fig6" => fig6(setup),
            "fig8" => power_figure(
                &mut h,
                WorkloadKind::FileServer,
                "Fig. 8",
                reference::FIG8_FILESERVER,
            ),
            "fig9" => fig9(&mut h),
            "fig10" => migrated_figure(
                &mut h,
                WorkloadKind::FileServer,
                "Fig. 10",
                reference::FIG10_MIGRATED_FS,
            ),
            "fig11" => power_figure(&mut h, WorkloadKind::Tpcc, "Fig. 11", reference::FIG11_TPCC),
            "fig12" => fig12(&mut h),
            "fig13" => migrated_figure(
                &mut h,
                WorkloadKind::Tpcc,
                "Fig. 13",
                reference::FIG13_MIGRATED_TPCC,
            ),
            "fig14" => power_figure(&mut h, WorkloadKind::Tpch, "Fig. 14", reference::FIG14_TPCH),
            "fig15" => fig15(&mut h),
            "fig16" => migrated_figure(
                &mut h,
                WorkloadKind::Tpch,
                "Fig. 16",
                reference::FIG16_MIGRATED_TPCH,
            ),
            "fig17" => interval_figure(&mut h, WorkloadKind::FileServer, "Fig. 17"),
            "fig18" => interval_figure(&mut h, WorkloadKind::Tpcc, "Fig. 18"),
            "fig19" => interval_figure(&mut h, WorkloadKind::Tpch, "Fig. 19"),
            "determinations" => determinations(&mut h),
            "stability" => stability(setup),
            "export" => export(&mut h),
            "seeds" => seeds(setup),
            other => eprintln!("unknown target: {other}"),
        }
        eprintln!(
            "[experiments] {t} done in {:.2} s",
            phase_started.elapsed().as_secs_f64()
        );
    }
}

/// Writes machine-readable artifacts under `results/`: the Fig. 17–19
/// interval curves and per-enclosure power-state timelines, one CSV per
/// (workload, method).
fn export(h: &mut Harness) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    for kind in WorkloadKind::ALL {
        let reports = h.reports(kind);
        let slug = kind.name().to_lowercase().replace([' ', '-'], "_");
        for m in Method::ALL {
            let r = reports.of(m);
            let mslug = m.name().to_lowercase().replace([' ', '-'], "_");
            // Interval curve.
            let mut csv = String::from(
                "interval_s,cumulative_s
",
            );
            for (len, cum) in r.interval_cdf.points() {
                csv.push_str(&format!(
                    "{},{}
",
                    len.as_secs_f64(),
                    cum.as_secs_f64()
                ));
            }
            let path = dir.join(format!("{slug}_{mslug}_intervals.csv"));
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("cannot write {}: {e}", path.display());
            }
            // Power-state timeline.
            let mut csv = String::from(
                "enclosure,time_s,mode
",
            );
            for e in &r.enclosures {
                for (t, mode) in &e.status_log {
                    csv.push_str(&format!(
                        "{},{},{:?}
",
                        e.id.0,
                        t.as_secs_f64(),
                        mode
                    ));
                }
            }
            let path = dir.join(format!("{slug}_{mslug}_timeline.csv"));
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
    }
    // Machine-readable summary of every report, one JSON file per
    // workload.
    for kind in WorkloadKind::ALL {
        let json = reports_json(&h.reports(kind).reports);
        let slug = kind.name().to_lowercase().replace([' ', '-'], "_");
        let path = dir.join(format!("{slug}_reports.json"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    println!("wrote interval curves, power timelines, and report JSON to results/");
}

/// Robustness across generator seeds: the headline savings (proposed vs.
/// no saving) re-measured under five seeds per workload, reported as
/// mean ± population standard deviation. Simulation conclusions that
/// survive seed changes are conclusions about the *mechanism*, not the
/// particular trace.
fn seeds(setup: ExperimentSetup) {
    println!(
        "== Seed robustness: proposed-method saving, 5 seeds (scale {}) ==",
        setup.scale
    );
    const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];
    // All workload x seed pairs in one fan-out: 60 method cells.
    let pairs: Vec<(WorkloadKind, ExperimentSetup)> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| {
            SEEDS
                .iter()
                .map(move |&seed| (kind, ExperimentSetup { seed, ..setup }))
        })
        .collect();
    let mut per_pair = run_methods_matrix(&pairs).into_iter();
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let savings: Vec<f64> = per_pair
            .by_ref()
            .take(SEEDS.len())
            .map(|reports| {
                reports
                    .of(Method::Proposed)
                    .enclosure_saving_vs(reports.baseline())
            })
            .collect();
        let mean = savings.iter().sum::<f64>() / savings.len() as f64;
        let var = savings.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / savings.len() as f64;
        rows.push(vec![
            kind.name().to_string(),
            format!("{mean:5.1} %"),
            format!("{:4.1} %", var.sqrt()),
            savings
                .iter()
                .map(|s| format!("{s:.1}"))
                .collect::<Vec<_>>()
                .join(" / "),
        ]);
    }
    println!(
        "{}",
        table(&["workload", "mean saving", "std dev", "per-seed %"], &rows)
    );
}

fn table1(setup: ExperimentSetup) {
    println!("== Table I: configuration of the data intensive applications ==");
    let rows = ees_bench::parallel_map(WorkloadKind::ALL.to_vec(), |kind| {
        let (w, _) = make_workload(kind, setup);
        vec![
            w.name.to_string(),
            fmt_bytes(w.total_data_bytes()),
            format!("{}", w.items.len()),
            format!("{}", w.num_enclosures),
            format!("{:.2} h", w.duration.as_secs_f64() / 3600.0),
            format!("{}", w.trace.len()),
        ]
    });
    println!(
        "{}",
        table(
            &[
                "application",
                "data size",
                "items",
                "enclosures",
                "duration",
                "records"
            ],
            &rows
        )
    );
}

fn table2() {
    println!("== Table II: parameter values for evaluation ==");
    let cfg = StorageConfig::ams2500(10);
    let policy = EnergyEfficientPolicy::with_defaults();
    let be = EnclosurePowerModel::AMS2500.break_even_time();
    let rows = vec![
        vec![
            "Break-even time".into(),
            format!("{:.0} s", be.as_secs_f64()),
            "52 s".into(),
        ],
        vec![
            "Spin-down time-out".into(),
            format!("{:.0} s", cfg.enclosure.spin_down_timeout.as_secs_f64()),
            "52 s (= break-even)".into(),
        ],
        vec![
            "Max IOPS of enclosure (random)".into(),
            format!("{}", cfg.enclosure.service.max_random_iops),
            "900".into(),
        ],
        vec![
            "Max IOPS of enclosure (sequential)".into(),
            format!("{}", cfg.enclosure.service.max_seq_iops),
            "2800".into(),
        ],
        vec![
            "Volume size per enclosure".into(),
            fmt_bytes(cfg.enclosure.capacity_bytes),
            "1.7 TB".into(),
        ],
        vec![
            "Storage cache size".into(),
            fmt_bytes(cfg.cache.total_bytes),
            "2 GB".into(),
        ],
        vec![
            "Cache for write delay".into(),
            fmt_bytes(cfg.cache.write_delay_bytes),
            "500 MB".into(),
        ],
        vec![
            "Cache for preload".into(),
            fmt_bytes(cfg.cache.preload_bytes),
            "500 MB".into(),
        ],
        vec![
            "Dirty block rate".into(),
            format!("{:.0} %", cfg.cache.dirty_block_rate * 100.0),
            "50 %".into(),
        ],
        vec![
            "Monitoring coefficient alpha".into(),
            format!("{}", policy.config().alpha),
            "1.2".into(),
        ],
        vec![
            "Initial monitoring period".into(),
            format!("{:.0} s", policy.config().initial_period.as_secs_f64()),
            "520 s".into(),
        ],
        vec![
            "PDC monitoring period".into(),
            "1800 s".into(),
            "30 min".into(),
        ],
        vec!["DDR TargetTH".into(), "450 IOPS".into(), "450 IOPS".into()],
    ];
    println!("{}", table(&["parameter", "implemented", "paper"], &rows));
}

fn fig6(setup: ExperimentSetup) {
    println!("== Fig. 6: logical I/O patterns of the applications ==");
    let be = EnclosurePowerModel::AMS2500.break_even_time();
    let indexed: Vec<(usize, WorkloadKind)> = WorkloadKind::ALL.into_iter().enumerate().collect();
    let rows = ees_bench::parallel_map(indexed, |(i, kind)| {
        let (w, _) = make_workload(kind, setup);
        let mix = classify_whole_run(&w, be);
        let paper = reference::FIG6_SHARES[i].1;
        vec![
            w.name.to_string(),
            format!(
                "{:.1}/{:.1}/{:.1}/{:.1} %",
                mix.percent(LogicalIoPattern::P0),
                mix.percent(LogicalIoPattern::P1),
                mix.percent(LogicalIoPattern::P2),
                mix.percent(LogicalIoPattern::P3)
            ),
            format!(
                "{:.1}/{:.1}/{:.1}/{:.1} %",
                paper[0], paper[1], paper[2], paper[3]
            ),
        ]
    });
    println!(
        "{}",
        table(
            &["application", "measured P0/P1/P2/P3", "paper P0/P1/P2/P3"],
            &rows
        )
    );
}

fn power_figure(h: &mut Harness, kind: WorkloadKind, fig: &str, paper: reference::PaperPower) {
    let reports = h.reports(kind);
    let base = reports.baseline();
    println!("== {fig}: power consumption for {} ==", kind.name());
    let paper_rows = [
        (Method::None, paper.baseline_watts, 0.0),
        (Method::Proposed, paper.proposed.0, paper.proposed.1),
        (Method::Pdc, paper.pdc.0, paper.pdc.1),
        (Method::Ddr, paper.ddr.0, paper.ddr.1),
    ];
    let mut rows = Vec::new();
    for (m, p_watts, p_save) in paper_rows {
        let r = reports.of(m);
        rows.push(vec![
            m.name().to_string(),
            watts(r.enclosure_avg_watts),
            saving(-r.enclosure_saving_vs(base)),
            watts(p_watts),
            saving(-p_save),
        ]);
    }
    println!(
        "{}",
        table(
            &["method", "measured", "Δ vs none", "paper", "paper Δ"],
            &rows
        )
    );
}

fn fig9(h: &mut Harness) {
    let reports = h.reports(WorkloadKind::FileServer);
    println!("== Fig. 9: average I/O response time for File Server ==");
    let (p_prop, p_pdc, p_ddr) = reference::FIG9_RESPONSE_MS;
    let paper = [
        (Method::None, f64::NAN),
        (Method::Proposed, p_prop),
        (Method::Pdc, p_pdc),
        (Method::Ddr, p_ddr),
    ];
    let mut rows = Vec::new();
    for (m, pms) in paper {
        let r = reports.of(m);
        rows.push(vec![
            m.name().to_string(),
            response(r.avg_response),
            if pms.is_nan() {
                "(> proposed)".into()
            } else {
                format!("{pms:.1} ms")
            },
        ]);
    }
    println!("{}", table(&["method", "measured", "paper"], &rows));
}

fn fig12(h: &mut Harness) {
    let base = h.reports(WorkloadKind::Tpcc).baseline().clone();
    let reports = h.reports(WorkloadKind::Tpcc);
    println!("== Fig. 12: transaction throughput for TPC-C ==");
    let (t_orig, p_prop) = reference::FIG12_TPMC;
    let mut rows = Vec::new();
    for m in Method::ALL {
        let r = reports.of(m);
        let tpmc = tpcc_throughput_from_reports(t_orig, &base, r);
        let paper = match m {
            Method::None => format!("{t_orig:.1}"),
            Method::Proposed => format!("{p_prop:.1} (-8.5 %)"),
            _ => "(worse than proposed)".into(),
        };
        rows.push(vec![
            m.name().to_string(),
            format!("{tpmc:7.1} tpmC ({:+.1} %)", (tpmc / t_orig - 1.0) * 100.0),
            paper,
        ]);
    }
    println!("{}", table(&["method", "measured", "paper"], &rows));
}

fn fig15(h: &mut Harness) {
    let base = h.reports(WorkloadKind::Tpch).baseline().clone();
    let reports = h.reports(WorkloadKind::Tpch);
    println!("== Fig. 15: query response time for TPC-H (Q2, Q7, Q21) ==");
    let mut rows = Vec::new();
    for (qname, q_orig) in reference::FIG15_QUERY_BASELINES {
        let wi = reports
            .schedule
            .iter()
            .position(|q| q.name == qname)
            .expect("query in schedule");
        let mut cells = vec![qname.to_string()];
        for m in Method::ALL {
            let r = reports.of(m);
            let q = tpch_query_response_from_reports(q_orig, &base, r, wi);
            cells.push(format!("{q:7.1} s"));
        }
        rows.push(cells);
    }
    println!(
        "{}",
        table(&["query", "no saving", "proposed", "PDC", "DDR"], &rows)
    );
    println!("paper: proposed fastest among saving methods; DDR ≈ 3× proposed\n");
}

fn migrated_figure(h: &mut Harness, kind: WorkloadKind, fig: &str, paper: (u64, u64, u64)) {
    let reports = h.reports(kind);
    println!("== {fig}: migrated data size for {} ==", kind.name());
    let rows = vec![
        vec![
            "Proposed Method".into(),
            bytes(reports.of(Method::Proposed).migrated_bytes),
            bytes(paper.0),
        ],
        vec![
            "PDC".into(),
            bytes(reports.of(Method::Pdc).migrated_bytes),
            bytes(paper.1),
        ],
        vec![
            "DDR".into(),
            bytes(reports.of(Method::Ddr).migrated_bytes),
            bytes(paper.2),
        ],
    ];
    println!(
        "{}",
        table(&["method", "measured", "paper (approx.)"], &rows)
    );
}

fn interval_figure(h: &mut Harness, kind: WorkloadKind, fig: &str) {
    let reports = h.reports(kind);
    println!(
        "== {fig}: cumulative length of I/O intervals > break-even, {} ==",
        kind.name()
    );
    let mut rows = Vec::new();
    for m in Method::ALL {
        let r = reports.of(m);
        let cdf = &r.interval_cdf;
        rows.push(vec![
            m.name().to_string(),
            format!("{}", cdf.count()),
            format!("{:9.0} s", cdf.max_interval().as_secs_f64()),
            format!("{:9.0} s", cdf.total_length().as_secs_f64()),
        ]);
    }
    println!(
        "{}",
        table(
            &["method", "# long intervals", "max interval", "total length"],
            &rows
        )
    );
    // A few curve points for the proposed method, as in the figures.
    let cdf = &reports.of(Method::Proposed).interval_cdf;
    let pts = cdf.points();
    if !pts.is_empty() {
        print!("proposed-method curve (len, cumulative): ");
        let step = (pts.len() / 5).max(1);
        for (len, cum) in pts.iter().step_by(step) {
            print!("({:.0}s, {:.0}s) ", len.as_secs_f64(), cum.as_secs_f64());
        }
        println!("\n");
    }
}

fn determinations(h: &mut Harness) {
    println!("== §VII.D: data placement determinations ==");
    let mut rows = Vec::new();
    for (i, kind) in WorkloadKind::ALL.iter().enumerate() {
        let reports = h.reports(*kind);
        let (p_prop, p_pdc, p_ddr) = reference::DETERMINATIONS[i].1;
        rows.push(vec![
            kind.name().to_string(),
            format!(
                "{} / {} / {}",
                reports.of(Method::Proposed).determinations,
                reports.of(Method::Pdc).determinations,
                reports.of(Method::Ddr).determinations
            ),
            format!("{p_prop} / {p_pdc} / ~{p_ddr}"),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "workload",
                "measured (prop/PDC/DDR)",
                "paper (prop/PDC/DDR)"
            ],
            &rows
        )
    );
}

fn stability(setup: ExperimentSetup) {
    println!("== §VI.C: I/O pattern stability under the proposed method ==");
    let rows = ees_bench::parallel_map(WorkloadKind::ALL.to_vec(), |kind| {
        let (workload, schedule) = make_workload(kind, setup);
        let options = ees_replay::ReplayOptions {
            response_windows: schedule.iter().map(|q| q.window).collect(),
        };
        let cfg = StorageConfig::ams2500(workload.num_enclosures);
        let mut policy = EnergyEfficientPolicy::with_defaults();
        let _ = ees_replay::run(&workload, &mut policy, &cfg, &options);
        let stability = policy
            .history()
            .stability()
            .map(|s| format!("{:.1} %", s * 100.0))
            .unwrap_or_else(|| "n/a".into());
        vec![
            kind.name().to_string(),
            stability,
            format!("{}", policy.history().periods().len()),
        ]
    });
    println!(
        "{}",
        table(&["workload", "pattern stability", "periods"], &rows)
    );
    println!("paper: \"the I/O patterns of all applications are stable\"\n");
}
