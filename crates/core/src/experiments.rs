//! Regenerators for every table and figure in the paper's evaluation
//! (§4). Each function runs the relevant configurations and returns the
//! same rows/series the paper reports; the `fig*`/`table*` binaries and
//! the Criterion benches print them.
//!
//! Absolute numbers will not match the paper (our substrate is a
//! from-scratch simulator with synthetic workloads), but the *shape* —
//! who wins, rough factors, crossovers — is the reproduction target; see
//! `EXPERIMENTS.md` for the side-by-side record.
//!
//! ## The harness
//!
//! All figures are produced through the parallel, memoizing
//! [`Harness`]: each figure declares the
//! `(SystemConfig, Workload, RunScale)` tuples it needs as a
//! [`RunPlan`], unique runs execute across scoped worker threads, and
//! shared baselines (OOO, P1, P8 appear in four or more figures each)
//! are simulated exactly once. Every figure function takes the
//! `&mut Harness` it runs on, so figures share one cache when they share
//! a harness; [`all_figures`] regenerates the entire evaluation through
//! one. Because every simulation is deterministic, the output is
//! bit-identical on a serial harness ([`Harness::serial`]) and a
//! parallel one.

use piranha_system::{
    FabricStats, FaultConfig, QueueDiscipline, RunResult, SystemConfig, TopologyKind,
    TrafficConfig, TrafficLedger,
};
use piranha_workloads::{DssConfig, OltpConfig, Workload};

pub use piranha_harness::{cache_key, default_threads, Harness, RunPlan, RunRequest, RunScale};
use piranha_harness::{run, RunOptions};

/// The two paper workloads.
pub fn oltp() -> Workload {
    Workload::Oltp(OltpConfig::paper_default())
}

/// The DSS (TPC-D Q6-like) workload.
pub fn dss() -> Workload {
    Workload::Dss(DssConfig::paper_default())
}

/// The TPC-C-like OLTP variant used by the §4 sensitivity analysis.
fn tpcc() -> Workload {
    Workload::Oltp(OltpConfig::tpcc_like())
}

/// One bar of Figure 5/8: a configuration's normalized execution time
/// and its breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Configuration name.
    pub name: String,
    /// Execution time normalized to OOO = 100.
    pub norm_time: f64,
    /// CPU-busy component (same normalization).
    pub busy: f64,
    /// L2-hit stall component.
    pub l2_hit: f64,
    /// L2-miss stall component.
    pub l2_miss: f64,
}

impl Bar {
    fn from(r: &RunResult, base: &RunResult) -> Bar {
        let t = r.normalized_time_vs(base) * 100.0;
        let b = r.breakdown();
        Bar {
            name: r.name.clone(),
            norm_time: t,
            busy: t * b.busy,
            l2_hit: t * b.l2_hit,
            l2_miss: t * b.l2_miss,
        }
    }
}

/// **Table 1**: the configuration parameters of P8, OOO/INO, and P8F.
pub fn table1() -> String {
    let configs = [
        SystemConfig::piranha_p8(),
        SystemConfig::ooo(),
        SystemConfig::piranha_p8f(),
    ];
    let mut out = format!(
        "{:<28} {:>14} {:>14} {:>14}\n",
        "Parameter", "Piranha (P8)", "OOO/INO", "P8F (custom)"
    );
    let rows: Vec<_> = configs.iter().map(|c| c.table1_row()).collect();
    for (i, (label, p8)) in rows[0].iter().enumerate() {
        out.push_str(&format!(
            "{:<28} {:>14} {:>14} {:>14}\n",
            label, p8, rows[1][i].1, rows[2][i].1
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Per-figure plans: the simulations each figure needs. `all_figures`
// merges these into one deduplicated batch.
// ---------------------------------------------------------------------

fn fig5_plan(w: &Workload, scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    for cfg in [
        SystemConfig::piranha_p1(),
        SystemConfig::ooo(),
        SystemConfig::ino(),
        SystemConfig::piranha_p8(),
    ] {
        p.add(cfg, w.clone(), scale);
    }
    p
}

fn fig6_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    for n in [1usize, 2, 4, 8] {
        p.add(SystemConfig::piranha_pn(n), oltp(), scale);
    }
    p.add(SystemConfig::ooo(), oltp(), scale);
    p
}

fn fig7_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    p.add(SystemConfig::piranha_pn(4), oltp(), scale);
    p.add(SystemConfig::ooo(), oltp(), scale);
    for chips in [2usize, 4] {
        p.add(
            SystemConfig::piranha_pn(4).scaled_to_chips(chips),
            oltp(),
            scale,
        );
        p.add(SystemConfig::ooo().scaled_to_chips(chips), oltp(), scale);
    }
    p
}

fn fig8_plan(w: &Workload, scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    for cfg in [
        SystemConfig::ooo(),
        SystemConfig::piranha_p8(),
        SystemConfig::piranha_p8f(),
    ] {
        p.add(cfg, w.clone(), scale);
    }
    p
}

fn sensitivity_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    p.add(SystemConfig::ooo(), oltp(), scale);
    p.add(SystemConfig::piranha_p8(), oltp(), scale);
    p.add(SystemConfig::piranha_p8_pessimistic(), oltp(), scale);
    p.add(SystemConfig::ooo(), tpcc(), scale);
    p.add(SystemConfig::piranha_p8(), tpcc(), scale);
    p
}

fn mem_pages_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    p.add(SystemConfig::piranha_p8(), oltp(), scale);
    p
}

// ---------------------------------------------------------------------
// Figures: each executes its own plan on `h` first, so its uncached
// configurations run in parallel, then assembles the rows from `h`'s
// memoized results. On a harness that already holds the runs (say,
// after `all_figures_plan`) the execute step is free.
// ---------------------------------------------------------------------

/// **Figure 5**: single-chip normalized execution time (OOO = 100) with
/// CPU-busy / L2-hit / L2-miss breakdown, for P1, OOO, INO, P8, on the
/// given workload.
pub fn fig5(h: &mut Harness, w: &Workload, scale: RunScale) -> Vec<Bar> {
    h.execute(&fig5_plan(w, scale));
    let base = h.get(&SystemConfig::ooo(), w, scale);
    vec![
        Bar::from(&h.get(&SystemConfig::piranha_p1(), w, scale), &base),
        Bar::from(&base, &base),
        Bar::from(&h.get(&SystemConfig::ino(), w, scale), &base),
        Bar::from(&h.get(&SystemConfig::piranha_p8(), w, scale), &base),
    ]
}

/// **Figure 5 under sampling** (the `--sample=<period>/<window>` flag):
/// each configuration runs once under SMARTS-style sampling instead of
/// full detail, so rows carry a CPI / stall-fraction estimate with 95%
/// confidence intervals rather than exact normalized figure numbers
/// (golden fingerprints only apply with the flag absent).
pub fn fig5_sampled(
    w: &Workload,
    scale: RunScale,
    sample: &piranha_system::SampleConfig,
) -> Vec<(String, piranha_system::SampleEstimate)> {
    [
        SystemConfig::piranha_p1(),
        SystemConfig::ooo(),
        SystemConfig::ino(),
        SystemConfig::piranha_p8(),
    ]
    .into_iter()
    .map(|cfg| {
        let name = cfg.name.clone();
        let opts = RunOptions {
            sample: Some(sample.clone()),
            ..RunOptions::default()
        };
        let (r, _) = run(&RunRequest::new(cfg, w.clone(), scale), &opts);
        let est = r.sample.expect("sampled run carries an estimate");
        (name, est)
    })
    .collect()
}

/// Render sampled-run rows ([`fig5_sampled`]) as a text table.
pub fn render_sampled_bars(
    title: &str,
    rows: &[(String, piranha_system::SampleEstimate)],
) -> String {
    let mut out = format!(
        "{title}\n{:<8} {:>8} {:>14} {:>14} {:>8}\n",
        "Config", "Windows", "CPI±CI95", "Stall±CI95", "Detail%"
    );
    for (name, e) in rows {
        out.push_str(&format!(
            "{:<8} {:>8} {:>8.3}±{:.3} {:>8.3}±{:.3} {:>7.1}%\n",
            name,
            e.windows,
            e.cpi_mean,
            e.cpi_ci95,
            e.stall_mean,
            e.stall_ci,
            e.detailed_fraction * 100.0,
        ));
    }
    out
}

/// **Figure 6(a)**: OLTP speedup of an n-CPU Piranha chip over P1, for
/// n in {1, 2, 4, 8}, plus the OOO point for reference. Returns
/// `(name, speedup_vs_p1)` pairs.
pub fn fig6a(h: &mut Harness, scale: RunScale) -> Vec<(String, f64)> {
    h.execute(&fig6_plan(scale));
    let w = oltp();
    let p1 = h.get(&SystemConfig::piranha_p1(), &w, scale);
    let mut out = vec![("P1".to_string(), 1.0)];
    for n in [2usize, 4, 8] {
        let r = h.get(&SystemConfig::piranha_pn(n), &w, scale);
        out.push((format!("P{n}"), r.speedup_over(&p1)));
    }
    let ooo = h.get(&SystemConfig::ooo(), &w, scale);
    out.push(("OOO".to_string(), ooo.speedup_over(&p1)));
    out
}

/// **Figure 6(b)**: breakdown of L1 misses (L2 hit / L2 fwd / L2 miss)
/// for P1, P2, P4, P8 on OLTP. Returns `(name, hit, fwd, miss)` rows,
/// fractions summing to 1.
pub fn fig6b(h: &mut Harness, scale: RunScale) -> Vec<(String, f64, f64, f64)> {
    h.execute(&fig6_plan(scale));
    let w = oltp();
    [1usize, 2, 4, 8]
        .iter()
        .map(|&n| {
            let r = h.get(&SystemConfig::piranha_pn(n), &w, scale);
            let (hit, f, m) = r.l1_miss_breakdown();
            (format!("P{n}"), hit, f, m)
        })
        .collect()
}

/// **Figure 7**: OLTP speedup of multi-chip systems (1, 2, 4 chips),
/// Piranha with 4 CPUs/chip versus OOO chips, each normalized to its own
/// single-chip result. Returns `(chips, piranha_speedup, ooo_speedup)`.
pub fn fig7(h: &mut Harness, scale: RunScale) -> Vec<(usize, f64, f64)> {
    h.execute(&fig7_plan(scale));
    let w = oltp();
    let p_base = h.get(&SystemConfig::piranha_pn(4), &w, scale);
    let o_base = h.get(&SystemConfig::ooo(), &w, scale);
    let mut out = vec![(1, 1.0, 1.0)];
    for chips in [2usize, 4] {
        let p = h.get(
            &SystemConfig::piranha_pn(4).scaled_to_chips(chips),
            &w,
            scale,
        );
        let o = h.get(&SystemConfig::ooo().scaled_to_chips(chips), &w, scale);
        out.push((chips, p.speedup_over(&p_base), o.speedup_over(&o_base)));
    }
    out
}

/// **Figure 8**: the full-custom chip (P8F) against OOO and P8, on the
/// given workload (OOO = 100).
pub fn fig8(h: &mut Harness, w: &Workload, scale: RunScale) -> Vec<Bar> {
    h.execute(&fig8_plan(w, scale));
    let base = h.get(&SystemConfig::ooo(), w, scale);
    vec![
        Bar::from(&base, &base),
        Bar::from(&h.get(&SystemConfig::piranha_p8(), w, scale), &base),
        Bar::from(&h.get(&SystemConfig::piranha_p8f(), w, scale), &base),
    ]
}

/// **§4 sensitivity**: the pessimistic P8 (400 MHz, 32 KB 1-way L1s,
/// 22/32 ns L2) and the TPC-C-like workload. Returns
/// `(label, speedup_over_ooo)` rows.
pub fn sensitivity(h: &mut Harness, scale: RunScale) -> Vec<(String, f64)> {
    h.execute(&sensitivity_plan(scale));
    let w = oltp();
    let ooo = h.get(&SystemConfig::ooo(), &w, scale);
    let p8 = h.get(&SystemConfig::piranha_p8(), &w, scale);
    let pess = h.get(&SystemConfig::piranha_p8_pessimistic(), &w, scale);
    let tpcc_w = tpcc();
    let ooo_c = h.get(&SystemConfig::ooo(), &tpcc_w, scale);
    let p8_c = h.get(&SystemConfig::piranha_p8(), &tpcc_w, scale);
    vec![
        ("P8 vs OOO (TPC-B)".into(), p8.speedup_over(&ooo)),
        (
            "P8-pessimistic vs OOO (TPC-B)".into(),
            pess.speedup_over(&ooo),
        ),
        ("P8-pessimistic vs P8".into(), pess.speedup_over(&p8)),
        ("P8 vs OOO (TPC-C-like)".into(), p8_c.speedup_over(&ooo_c)),
    ]
}

/// **§2.4 claim**: RDRAM open-page hit rate on OLTP (the paper reports
/// >50% with ~1 µs page-open time).
pub fn mem_pages(h: &mut Harness, scale: RunScale) -> f64 {
    h.execute(&mem_pages_plan(scale));
    h.get(&SystemConfig::piranha_p8(), &oltp(), scale)
        .mem_page_hit_rate
}

// ---------------------------------------------------------------------
// Fault injection & availability (paper §2.7): the fig_faults sweep.
// ---------------------------------------------------------------------

/// The per-consult fault rates `fig_faults` sweeps (0 is the paired
/// fault-free baseline of each configuration).
pub const FAULT_RATES: [f64; 4] = [0.0, 1e-5, 1e-4, 1e-3];

/// A bounded OLTP workload (`txn_limit` transactions per CPU stream) —
/// the run-to-completion workload of the fault experiments, so a
/// faulted run provably commits the same work as its baseline.
pub fn oltp_bounded(txns_per_cpu: u64) -> Workload {
    Workload::Oltp(OltpConfig {
        txn_limit: txns_per_cpu,
        ..OltpConfig::paper_default()
    })
}

/// The configurations the fault sweep covers: the paper's single-chip
/// P8 and a two-chip P4 system (the latter exercises the inter-chip
/// link recovery paths).
fn fig_faults_configs() -> Vec<SystemConfig> {
    vec![
        SystemConfig::piranha_p8(),
        SystemConfig::piranha_pn(4).scaled_to_chips(2),
    ]
}

fn faulted(mut cfg: SystemConfig, seed: u64, rate: f64) -> SystemConfig {
    if rate > 0.0 {
        cfg.faults = FaultConfig::seeded(seed, rate);
    }
    cfg
}

/// One row of the fault-rate × configuration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRow {
    /// Configuration name.
    pub config: String,
    /// Injection rate per consult point (0 = baseline).
    pub rate: f64,
    /// The availability ledger of the run.
    pub availability: piranha_system::AvailabilityReport,
    /// Transactions committed (must match the baseline row exactly).
    pub committed: u64,
    /// Run time relative to the rate-0 baseline (1.0 = no slowdown).
    pub slowdown: f64,
    /// The run's deterministic fingerprint.
    pub fingerprint: u64,
}

/// The plan of every simulation `fig_faults` needs.
pub fn fig_faults_plan(seed: u64, txns_per_cpu: u64) -> RunPlan {
    let w = oltp_bounded(txns_per_cpu);
    let mut p = RunPlan::new();
    for cfg in fig_faults_configs() {
        for rate in FAULT_RATES {
            p.add(
                faulted(cfg.clone(), seed, rate),
                w.clone(),
                RunScale::completion(),
            );
        }
    }
    p
}

/// The fault sweep: for each configuration, the fault-free baseline
/// plus each nonzero rate, with slowdown measured against the
/// fingerprint-verified baseline.
///
/// # Panics
///
/// Panics if a faulted run commits different work than its baseline or
/// its availability ledger is inconsistent — both are structural
/// guarantees of the recovery machinery.
pub fn fig_faults(h: &mut Harness, seed: u64, txns_per_cpu: u64) -> Vec<FaultRow> {
    h.execute(&fig_faults_plan(seed, txns_per_cpu));
    let w = oltp_bounded(txns_per_cpu);
    let mut rows = Vec::new();
    for cfg in fig_faults_configs() {
        let base = h.get(&faulted(cfg.clone(), seed, 0.0), &w, RunScale::completion());
        let base_committed = base.committed_txns.expect("bounded workload reports work");
        for rate in FAULT_RATES {
            let r = h.get(
                &faulted(cfg.clone(), seed, rate),
                &w,
                RunScale::completion(),
            );
            assert!(
                r.availability.is_consistent(),
                "{}@{rate}: corrected + escalated != injected",
                cfg.name
            );
            let committed = r.committed_txns.expect("bounded workload reports work");
            assert_eq!(
                committed, base_committed,
                "{}@{rate}: a recoverable fault rate must not lose work",
                cfg.name
            );
            let slowdown = r.window.as_ps() as f64 / base.window.as_ps().max(1) as f64;
            let mut availability = r.availability.clone();
            availability.slowdown = Some(slowdown);
            rows.push(FaultRow {
                config: cfg.name.clone(),
                rate,
                availability,
                committed,
                slowdown,
                fingerprint: r.fingerprint(),
            });
        }
    }
    rows
}

/// Render the fault sweep as a text table.
pub fn render_fault_rows(title: &str, rows: &[FaultRow]) -> String {
    let mut out = format!(
        "{title}\n{:<10} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9}\n",
        "Config",
        "Rate",
        "Injected",
        "Corrected",
        "Escalated",
        "Retrans",
        "MTTR",
        "Committed",
        "Slowdown"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>8.0e} {:>8} {:>9} {:>9} {:>8} {:>8} {:>9} {:>8.3}x\n",
            r.config,
            r.rate,
            r.availability.injected,
            r.availability.corrected,
            r.availability.escalated,
            r.availability.retransmits,
            r.availability.mttr_cycles(),
            r.committed,
            r.slowdown,
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Statistical sampling (SMARTS-style): the fig_sample sweep.
// ---------------------------------------------------------------------

/// The `(period, window)` pairs `fig_sample` sweeps, in instructions
/// per CPU: denser and sparser detailed-window schedules around the
/// ~10% detailed share SMARTS-style sampling targets. The pairs are
/// sized to the workload (`quick` streams are ~82k instructions per
/// CPU, full ones ~825k) so the windows span the whole stream rather
/// than clustering in its prologue.
pub fn sample_specs(quick: bool) -> [(u64, u64); 3] {
    if quick {
        [(2_500, 400), (4_000, 400), (8_000, 400)]
    } else {
        [(12_500, 1_000), (25_000, 1_000), (50_000, 1_000)]
    }
}

/// Aggregate CPI of a detailed run: wall cycles × CPUs over total
/// instructions — the same cycles-over-instructions quantity a sampled
/// run estimates per window.
pub fn aggregate_cpi(r: &RunResult) -> f64 {
    let cycles = r.clock.cycles(r.window) as f64 * r.cpus.len() as f64;
    cycles / r.total_instrs().max(1) as f64
}

/// One row of the sampling-period sweep.
#[derive(Debug, Clone)]
pub struct SampleRow {
    /// Sampling period (instructions per CPU between window starts).
    pub period: u64,
    /// Detailed-window length (instructions per CPU).
    pub window: u64,
    /// The sampled run's estimate.
    pub estimate: piranha_system::SampleEstimate,
    /// Relative CPI error versus the detailed reference.
    pub cpi_error: f64,
    /// Whether the reference CPI falls inside the estimate's 95% CI.
    pub within_ci: bool,
    /// Host wall-clock speedup of the sampled run over full detail.
    pub speedup: f64,
    /// Host seconds the sampled run took.
    pub host_secs: f64,
}

/// The `fig_sample` sweep: the detailed reference plus one row per
/// sampling schedule.
#[derive(Debug, Clone)]
pub struct SampleReport {
    /// Configuration name.
    pub config: String,
    /// Transactions per CPU of the bounded OLTP workload.
    pub txns_per_cpu: u64,
    /// Aggregate CPI of the full-detail reference run.
    pub ref_cpi: f64,
    /// Transactions the reference committed.
    pub ref_committed: u64,
    /// Host seconds of the full-detail reference run.
    pub host_secs_detailed: f64,
    /// One row per sampling schedule.
    pub rows: Vec<SampleRow>,
}

/// **Sampling validation**: run a bounded OLTP workload to completion
/// on P8 in full detail, then once per [`sample_specs`] schedule under
/// SMARTS-style sampling, and report CPI error, CI coverage, and
/// wall-clock speedup. `quick` shrinks the workload to CI scale.
///
/// # Panics
///
/// Panics if a sampled run commits different work than the detailed
/// reference — functional warming executes the same instruction
/// streams, so completed work must match exactly.
pub fn fig_sample(quick: bool) -> SampleReport {
    let cfg = SystemConfig::piranha_p8();
    let txns = if quick { 200 } else { 2_000 };
    let w = oltp_bounded(txns);
    let scale = RunScale::completion();

    let req = RunRequest::new(cfg, w, scale);
    let t0 = std::time::Instant::now();
    let (detailed, _) = run(&req, &RunOptions::default());
    let host_secs_detailed = t0.elapsed().as_secs_f64();
    let ref_cpi = aggregate_cpi(&detailed);
    let ref_committed = detailed
        .committed_txns
        .expect("bounded workload reports work");

    let rows = sample_specs(quick)
        .iter()
        .map(|&(period, window)| {
            let opts = RunOptions {
                sample: Some(piranha_system::SampleConfig::new(period, window)),
                ..RunOptions::default()
            };
            let t = std::time::Instant::now();
            let (r, _) = run(&req, &opts);
            let host_secs = t.elapsed().as_secs_f64();
            let est = r.sample.clone().expect("sampled run carries an estimate");
            assert_eq!(
                r.committed_txns,
                Some(ref_committed),
                "functional warming must complete the same work"
            );
            SampleRow {
                period,
                window,
                cpi_error: (est.cpi_mean - ref_cpi).abs() / ref_cpi,
                within_ci: est.covers_cpi(ref_cpi),
                speedup: host_secs_detailed / host_secs.max(1e-9),
                host_secs,
                estimate: est,
            }
        })
        .collect();

    SampleReport {
        config: req.cfg.name,
        txns_per_cpu: txns,
        ref_cpi,
        ref_committed,
        host_secs_detailed,
        rows,
    }
}

/// Render the sampling sweep as a text table.
pub fn render_sample_report(rep: &SampleReport) -> String {
    let mut out = format!(
        "Sampling vs full detail — {} (bounded OLTP, {} txns/CPU, run to completion)\n\
         reference CPI {:.4} ({} txns committed, {:.2}s host)\n\
         {:<16} {:>8} {:>12} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
        rep.config,
        rep.txns_per_cpu,
        rep.ref_cpi,
        rep.ref_committed,
        rep.host_secs_detailed,
        "Period/Window",
        "Windows",
        "CPI±CI95",
        "Err%",
        "InCI",
        "Detail%",
        "Speedup",
        "Host(s)"
    );
    for r in &rep.rows {
        out.push_str(&format!(
            "{:<16} {:>8} {:>5.3}±{:.3} {:>7.2}% {:>9} {:>8.1}% {:>8.2}x {:>9.2}\n",
            format!("{}/{}", r.period, r.window),
            r.estimate.windows,
            r.estimate.cpi_mean,
            r.estimate.cpi_ci95,
            r.cpi_error * 100.0,
            if r.within_ci { "yes" } else { "NO" },
            r.estimate.detailed_fraction * 100.0,
            r.speedup,
            r.host_secs,
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Open-loop traffic (piranha-traffic): the fig_latency sweep.
// ---------------------------------------------------------------------

/// The offered-load fractions of the measured closed-loop service rate
/// that `fig_latency` sweeps: well below, approaching, and past the
/// saturation knee. The open-loop hockey-stick — tail latency flat at
/// low load, super-linear past the knee — only shows up because the
/// arrival process keeps offering work whether or not the cores are
/// ready.
pub const LOAD_FRACTIONS: [f64; 5] = [0.2, 0.5, 0.8, 1.1, 1.5];

/// The configuration `fig_latency` loads: the two-chip P4 exemplar, so
/// the sweep exercises arrival admission across the quantum-stepped
/// multi-chip engine (worker-invariance is guarded by
/// `tests/traffic_determinism.rs`).
pub fn fig_latency_config() -> SystemConfig {
    SystemConfig::piranha_pn(4).scaled_to_chips(2)
}

/// One offered-load point of the latency sweep.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Offered load as a fraction of the calibrated service rate.
    pub fraction: f64,
    /// Offered load in transactions per million cycles per core.
    pub rate_tpmc: f64,
    /// Median transaction latency (birth → commit), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile transaction latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile transaction latency, nanoseconds.
    pub p99_ns: u64,
    /// Mean transaction latency, nanoseconds.
    pub mean_ns: f64,
    /// Fraction of generated transactions shed at the admission gate.
    pub drop_rate: f64,
    /// The full generated/accepted/dropped/deferred/completed ledger.
    pub ledger: TrafficLedger,
    /// The run's deterministic fingerprint.
    pub fingerprint: u64,
}

/// The `fig_latency` sweep: calibration plus one row per load fraction.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Configuration name.
    pub config: String,
    /// Transactions per CPU of the bounded OLTP workload.
    pub txns_per_cpu: u64,
    /// Calibrated closed-loop service rate, transactions per million
    /// cycles per core (the `1.0` point of [`LOAD_FRACTIONS`]).
    pub service_tpmc: f64,
    /// One row per offered-load fraction, in sweep order.
    pub rows: Vec<LatencyRow>,
    /// Index of the first row past the knee (p99 more than 3× the
    /// lowest-load row, or any drops), if the sweep reached it.
    pub knee: Option<usize>,
}

/// **Tail latency vs offered load**: calibrate the closed-loop service
/// rate of `cfg` (the binary passes [`fig_latency_config`], with any
/// `--topology=`/`--queue=` override applied) on a bounded OLTP
/// workload, then sweep open-loop Poisson arrivals across
/// [`LOAD_FRACTIONS`] of that rate and report p50/p95/p99 transaction
/// latency and drop rate at each point. `quick` shrinks the workload to
/// CI scale.
///
/// Every run is deterministic, so the whole report (fingerprints
/// included) is reproducible bit-for-bit at any `--parallel` worker
/// count.
///
/// # Panics
///
/// Panics if a loaded run's traffic ledger does not conserve
/// (`accepted + dropped + deferred == generated`) — a structural
/// guarantee of the admission gate.
pub fn fig_latency(cfg: SystemConfig, quick: bool) -> LatencyReport {
    let txns = if quick { 12 } else { 60 };
    let w = oltp_bounded(txns);

    // Closed-loop calibration: with no arrival gating the machine runs
    // at 100% utilization, so committed work over wall cycles is the
    // per-core service rate the load fractions are anchored to.
    let (base, _) = run(
        &RunRequest::new(cfg.clone(), w.clone(), RunScale::completion()),
        &RunOptions::default(),
    );
    let committed = base.committed_txns.expect("bounded workload reports work") as f64;
    let cycles = base.clock.cycles(base.window).max(1) as f64;
    let service_tpmc = committed / base.cpus.len() as f64 / cycles * 1e6;

    let rows: Vec<LatencyRow> = LOAD_FRACTIONS
        .iter()
        .map(|&fraction| {
            let rate_tpmc = fraction * service_tpmc;
            let mut loaded = cfg.clone();
            loaded.traffic = TrafficConfig::poisson(rate_tpmc);
            let req = RunRequest::new(loaded, w.clone(), RunScale::completion());
            let (r, _) = run(&req, &RunOptions::default());
            let t = r.traffic.clone().expect("traffic was enabled");
            assert!(
                t.ledger.conserved(),
                "{} @ {fraction}: ledger must conserve, got {:?}",
                cfg.name,
                t.ledger
            );
            LatencyRow {
                fraction,
                rate_tpmc,
                p50_ns: t.p50_ns(),
                p95_ns: t.p95_ns(),
                p99_ns: t.p99_ns(),
                mean_ns: t.latency.mean_ns(),
                drop_rate: t.ledger.drop_rate(),
                ledger: t.ledger,
                fingerprint: r.fingerprint(),
            }
        })
        .collect();

    let knee = rows
        .iter()
        .position(|r| r.drop_rate > 0.0 || r.p99_ns > rows[0].p99_ns.saturating_mul(3));

    LatencyReport {
        config: cfg.name,
        txns_per_cpu: txns,
        service_tpmc,
        rows,
        knee,
    }
}

/// Render the latency sweep as a text table.
pub fn render_latency_report(rep: &LatencyReport) -> String {
    let mut out = format!(
        "Tail latency vs offered load — {} (bounded OLTP, {} txns/CPU, open-loop Poisson)\n\
         calibrated service rate {:.2} txns per million cycles per core\n\
         {:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}\n",
        rep.config,
        rep.txns_per_cpu,
        rep.service_tpmc,
        "Load",
        "Rate",
        "p50(ns)",
        "p95(ns)",
        "p99(ns)",
        "mean(ns)",
        "Drop%",
        "Offered"
    );
    for (i, r) in rep.rows.iter().enumerate() {
        let marker = if rep.knee == Some(i) { "  <- knee" } else { "" };
        out.push_str(&format!(
            "{:<10} {:>10.2} {:>10} {:>10} {:>10} {:>10.0} {:>7.2}% {:>8}{}\n",
            format!("{:.2}x", r.fraction),
            r.rate_tpmc,
            r.p50_ns,
            r.p95_ns,
            r.p99_ns,
            r.mean_ns,
            r.drop_rate * 100.0,
            r.ledger.generated,
            marker
        ));
    }
    if rep.knee.is_none() {
        out.push_str("(no knee within the swept range)\n");
    }
    out
}

// ---------------------------------------------------------------------
// Fabric congestion at scale: the fig_scale sweep (16–64 nodes ×
// topology × queue discipline over the pluggable interconnect).
// ---------------------------------------------------------------------

/// The machine sizes (single-CPU chips) the scale sweep covers.
pub const SCALE_NODES: [usize; 3] = [16, 32, 64];

/// The explicit fabric shapes the scale sweep covers. `Auto` and `Ring`
/// are omitted: auto is the paper layout the other figures already
/// measure, and a 64-node ring is pathological enough to drown the
/// comparison.
pub const SCALE_TOPOLOGIES: [TopologyKind; 3] = [
    TopologyKind::Mesh,
    TopologyKind::Torus,
    TopologyKind::FatTree,
];

/// The queue disciplines the scale sweep covers, each bounded at the
/// congested port capacity
/// ([`piranha_net::CONGESTED_CAPACITY_NS`]) so finite buffering
/// actually bites.
pub fn scale_queues() -> [QueueDiscipline; 3] {
    let capacity = piranha_types::Duration::from_ns(piranha_net::CONGESTED_CAPACITY_NS);
    [
        QueueDiscipline::DropTail { capacity },
        QueueDiscipline::LossyNack { capacity },
        QueueDiscipline::Pfc { capacity },
    ]
}

/// One `nodes × topology × queue` point of the scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Processing-node count (single-CPU chips).
    pub nodes: usize,
    /// Fabric shape label (`mesh`/`torus`/`fattree`).
    pub topology: &'static str,
    /// Queue-discipline label (`droptail`/`lossy`/`pfc`).
    pub queue: &'static str,
    /// Transactions committed (identical across queue disciplines of
    /// one size — the fabric delays work, never loses it).
    pub committed: u64,
    /// Closed-loop throughput, transactions per million cycles per
    /// core.
    pub tpmc: f64,
    /// Final simulated time, microseconds.
    pub sim_us: f64,
    /// The fabric counters of the run (delivery ledger, deflections,
    /// drops, pauses, link occupancy aggregates).
    pub fabric: FabricStats,
    /// Mean link utilization over the run.
    pub occupancy: f64,
    /// The run's deterministic fingerprint.
    pub fingerprint: u64,
}

/// The `fig_scale` sweep.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Transactions per CPU of the bounded OLTP workload.
    pub txns_per_cpu: u64,
    /// One row per `nodes × topology × queue` combination, nodes
    /// outermost.
    pub rows: Vec<ScaleRow>,
}

/// **Fabric congestion at scale**: run bounded OLTP to completion on
/// machines of 16/32/64 single-CPU chips over every
/// [`SCALE_TOPOLOGIES`] × [`scale_queues`] combination, and report
/// throughput, deflection/drop/pause rates, and link occupancy.
/// Optional filters narrow the sweep to one shape or discipline (the
/// `--topology=`/`--queue=` riders). `quick` shrinks the workload to CI
/// scale.
///
/// Every run is deterministic, so the whole report (fingerprints
/// included) is reproducible bit-for-bit at any `--parallel` worker
/// count.
///
/// # Panics
///
/// Panics if any row violates the packet ledger — a structural
/// guarantee of the fabric: every walk either delivers or retransmits
/// (`delivered + retransmits == walks`), bounded-queue refusals are
/// exactly the non-fault retransmits (`drops == retransmits`, since the
/// sweep injects no link faults), and PFC pauses instead of dropping
/// (`drops == 0`).
pub fn fig_scale(
    quick: bool,
    topology: Option<TopologyKind>,
    queue: Option<QueueDiscipline>,
) -> ScaleReport {
    let txns = if quick { 2 } else { 6 };
    let w = oltp_bounded(txns);
    let mut rows = Vec::new();
    for nodes in SCALE_NODES {
        for topo in SCALE_TOPOLOGIES {
            if topology.is_some_and(|t| t != topo) {
                continue;
            }
            for q in scale_queues() {
                if queue.is_some_and(|f| f.label() != q.label()) {
                    continue;
                }
                let mut cfg = SystemConfig::piranha_pn(1).scaled_to_chips(nodes);
                cfg.topology = topo;
                cfg.net.queue = q;
                let req = RunRequest::new(cfg, w.clone(), RunScale::completion());
                let (r, m) = run(&req, &RunOptions::default());
                let fs = m.fabric_stats();
                assert_eq!(
                    fs.delivered + fs.retransmits,
                    fs.walks,
                    "{nodes}x{}x{}: every walk must deliver or retransmit",
                    topo.label(),
                    q.label()
                );
                assert_eq!(
                    fs.drops,
                    fs.retransmits,
                    "{nodes}x{}x{}: faultless runs retransmit only on drops",
                    topo.label(),
                    q.label()
                );
                if matches!(q, QueueDiscipline::Pfc { .. }) {
                    assert_eq!(fs.drops, 0, "PFC pauses instead of dropping");
                }
                let committed = r.committed_txns.expect("bounded workload reports work");
                let cycles = r.clock.cycles(r.window).max(1) as f64;
                let elapsed = m.now().since(piranha_types::SimTime::ZERO);
                rows.push(ScaleRow {
                    nodes,
                    topology: topo.label(),
                    queue: q.label(),
                    committed,
                    tpmc: committed as f64 / r.cpus.len() as f64 / cycles * 1e6,
                    sim_us: elapsed.as_ps() as f64 / 1e6,
                    occupancy: fs.occupancy(elapsed),
                    fabric: fs,
                    fingerprint: r.fingerprint(),
                });
            }
        }
    }
    ScaleReport {
        txns_per_cpu: txns,
        rows,
    }
}

/// Render the scale sweep as a text table.
pub fn render_scale_report(rep: &ScaleReport) -> String {
    let mut out = format!(
        "Fabric congestion at scale — bounded OLTP ({} txns/CPU) on single-CPU chips\n\
         {:<6} {:<8} {:<9} {:>8} {:>7} {:>10} {:>9} {:>7} {:>7} {:>8} {:>6}\n",
        rep.txns_per_cpu,
        "Nodes",
        "Fabric",
        "Queue",
        "Txns",
        "tpmc",
        "Delivered",
        "Deflect",
        "Drops",
        "Pauses",
        "MeanHop",
        "Occ%"
    );
    for r in &rep.rows {
        out.push_str(&format!(
            "{:<6} {:<8} {:<9} {:>8} {:>7.2} {:>10} {:>9} {:>7} {:>7} {:>8.2} {:>5.1}%\n",
            r.nodes,
            r.topology,
            r.queue,
            r.committed,
            r.tpmc,
            r.fabric.delivered,
            r.fabric.deflections,
            r.fabric.drops,
            r.fabric.pauses,
            r.fabric.mean_hops,
            r.occupancy * 100.0
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Golden fingerprints: the event-ordering regression guard. Every
// refactor of the simulator core must keep these bit-identical — the
// checked-in `tests/golden_fingerprints.tsv` is diffed by
// `tests/golden_fingerprint.rs` and by the CI smoke job.
// ---------------------------------------------------------------------

/// Fault-schedule seed of the golden set (the `fig_faults` headline
/// schedule, shared with the CI fault smoke).
pub const GOLDEN_FAULT_SEED: u64 = 42;

/// Transactions per CPU of the golden bounded-OLTP completion runs.
pub const GOLDEN_FAULT_TXNS: u64 = 3;

fn workload_tag(w: &Workload) -> String {
    match w {
        Workload::Oltp(c) if c.txn_limit > 0 => format!("oltp[txn={}]", c.txn_limit),
        Workload::Oltp(_) => "oltp".into(),
        Workload::Dss(c) if c.line_limit > 0 => format!("dss[lines={}]", c.line_limit),
        Workload::Dss(_) => "dss".into(),
        Workload::Synth(_) => "synth".into(),
        Workload::Web(_) => "web".into(),
    }
}

fn scale_tag(scale: RunScale) -> String {
    if scale.to_completion {
        "completion".into()
    } else {
        format!("w{}+m{}", scale.warmup, scale.measure)
    }
}

/// A short, stable, human-readable label naming one golden run:
/// `config|workload|scale[|faults]`. Unique across [`golden_plan`]
/// (asserted by the golden test).
pub fn golden_label(req: &RunRequest) -> String {
    let mut label = format!(
        "{}|{}|{}",
        req.cfg.name,
        workload_tag(&req.workload),
        scale_tag(req.scale)
    );
    if req.cfg.faults.enabled() {
        label.push_str(&format!(
            "|faults[seed={},rate={:e}]",
            req.cfg.faults.seed, req.cfg.faults.rate
        ));
    }
    label
}

/// The golden plan: every fig5–fig8 configuration at `scale` plus the
/// fig_faults headline schedule (seed [`GOLDEN_FAULT_SEED`],
/// [`GOLDEN_FAULT_TXNS`] transactions per CPU, run to completion).
pub fn golden_plan(scale: RunScale) -> RunPlan {
    let mut p = RunPlan::new();
    p.merge(fig5_plan(&oltp(), scale));
    p.merge(fig5_plan(&dss(), scale));
    p.merge(fig6_plan(scale));
    p.merge(fig7_plan(scale));
    p.merge(fig8_plan(&oltp(), scale));
    p.merge(fig8_plan(&dss(), scale));
    p.merge(fig_faults_plan(GOLDEN_FAULT_SEED, GOLDEN_FAULT_TXNS));
    p
}

fn plan_fingerprints(plan: &RunPlan) -> Vec<(String, u64)> {
    let mut h = Harness::new();
    h.execute(plan);
    plan.requests()
        .iter()
        .map(|req| {
            let r = h.get(&req.cfg, &req.workload, req.scale);
            (golden_label(req), r.fingerprint())
        })
        .collect()
}

/// Labeled deterministic fingerprints of the whole golden set, in plan
/// order.
pub fn golden_fingerprints(scale: RunScale) -> Vec<(String, u64)> {
    plan_fingerprints(&golden_plan(scale))
}

/// Labeled fingerprints of just the Figure 5 runs (OLTP + DSS) — the
/// cheap subset the CI smoke job diffs via `fig5 --fingerprints`.
pub fn fig5_fingerprints(scale: RunScale) -> Vec<(String, u64)> {
    let mut plan = fig5_plan(&oltp(), scale);
    plan.merge(fig5_plan(&dss(), scale));
    plan_fingerprints(&plan)
}

/// Labeled fingerprints of the Figure 7 multi-chip scaling runs — the
/// rows that exercise the conservative parallel engine (every other
/// figure's configs are single-chip except fig7's 2- and 4-chip
/// points).
pub fn fig7_fingerprints(scale: RunScale) -> Vec<(String, u64)> {
    plan_fingerprints(&fig7_plan(scale))
}

/// Labeled fingerprints of the Figure 8 runs (OLTP + DSS) plus the
/// Figure 7 multi-chip scaling runs — the subset the CI parsim smoke
/// diffs via `fig8 --quick --parallel=2 --fingerprints`. The fig7 rows
/// ride along because fig8's own configurations are single-chip; with
/// them the smoke provably drives multi-chip machines through the
/// quantum-stepped engine and still matches the serially-blessed
/// golden file.
pub fn fig8_fingerprints(scale: RunScale) -> Vec<(String, u64)> {
    let mut plan = fig8_plan(&oltp(), scale);
    plan.merge(fig8_plan(&dss(), scale));
    plan.merge(fig7_plan(scale));
    plan_fingerprints(&plan)
}

/// Render labeled fingerprints in the golden-file format: one
/// `label\tfingerprint-hex` line per run.
pub fn render_fingerprints(rows: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (label, fp) in rows {
        out.push_str(&format!("{label}\t{fp:016x}\n"));
    }
    out
}

// ---------------------------------------------------------------------
// The whole evaluation in one batch.
// ---------------------------------------------------------------------

/// Every figure of the paper's §4 evaluation, regenerated together.
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Figure 5 on OLTP.
    pub fig5_oltp: Vec<Bar>,
    /// Figure 5 on DSS.
    pub fig5_dss: Vec<Bar>,
    /// Figure 6(a): chip-level speedup over P1.
    pub fig6a: Vec<(String, f64)>,
    /// Figure 6(b): L1-miss breakdown.
    pub fig6b: Vec<(String, f64, f64, f64)>,
    /// Figure 7: multi-chip scaling.
    pub fig7: Vec<(usize, f64, f64)>,
    /// Figure 8 on OLTP.
    pub fig8_oltp: Vec<Bar>,
    /// Figure 8 on DSS.
    pub fig8_dss: Vec<Bar>,
    /// §4 sensitivity rows.
    pub sensitivity: Vec<(String, f64)>,
    /// §2.4 RDRAM open-page hit rate.
    pub mem_page_hit_rate: f64,
}

/// The union plan of every figure at one scale.
pub fn all_figures_plan(scale: RunScale) -> RunPlan {
    let mut plan = RunPlan::new();
    plan.merge(fig5_plan(&oltp(), scale));
    plan.merge(fig5_plan(&dss(), scale));
    plan.merge(fig6_plan(scale));
    plan.merge(fig7_plan(scale));
    plan.merge(fig8_plan(&oltp(), scale));
    plan.merge(fig8_plan(&dss(), scale));
    plan.merge(sensitivity_plan(scale));
    plan.merge(mem_pages_plan(scale));
    plan
}

/// Regenerate the entire §4 evaluation on `h`: the union plan of every
/// figure executes first, so every shared baseline (OOO, P1, P8, …) is
/// simulated exactly once per workload and the unique runs fan out
/// across `h`'s worker threads; the figures are then assembled from
/// `h`'s cache. Bit-identical on [`Harness::serial`] and on a parallel
/// harness.
pub fn all_figures(h: &mut Harness, scale: RunScale) -> Figures {
    h.execute(&all_figures_plan(scale));
    Figures {
        fig5_oltp: fig5(h, &oltp(), scale),
        fig5_dss: fig5(h, &dss(), scale),
        fig6a: fig6a(h, scale),
        fig6b: fig6b(h, scale),
        fig7: fig7(h, scale),
        fig8_oltp: fig8(h, &oltp(), scale),
        fig8_dss: fig8(h, &dss(), scale),
        sensitivity: sensitivity(h, scale),
        mem_page_hit_rate: mem_pages(h, scale),
    }
}

impl Figures {
    /// Render every figure as one text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&render_bars(
            "Figure 5 — OLTP (normalized execution time, OOO = 100)",
            &self.fig5_oltp,
        ));
        out.push('\n');
        out.push_str(&render_bars(
            "Figure 5 — DSS (normalized execution time, OOO = 100)",
            &self.fig5_dss,
        ));
        out.push_str("\nFigure 6(a) — OLTP speedup over P1\n");
        for (name, s) in &self.fig6a {
            out.push_str(&format!("{name:<10} {s:>8.2}x\n"));
        }
        out.push_str("\nFigure 6(b) — L1 miss breakdown (hit/fwd/miss)\n");
        for (name, h, f, m) in &self.fig6b {
            out.push_str(&format!("{name:<10} {h:>6.2} {f:>6.2} {m:>6.2}\n"));
        }
        out.push_str("\nFigure 7 — multi-chip speedup (Piranha P4 vs OOO)\n");
        for (chips, p, o) in &self.fig7 {
            out.push_str(&format!("{chips} chip(s)  P4 {p:>6.2}x  OOO {o:>6.2}x\n"));
        }
        out.push('\n');
        out.push_str(&render_bars(
            "Figure 8 — OLTP (P8F, OOO = 100)",
            &self.fig8_oltp,
        ));
        out.push('\n');
        out.push_str(&render_bars(
            "Figure 8 — DSS (P8F, OOO = 100)",
            &self.fig8_dss,
        ));
        out.push_str("\nSensitivity (§4)\n");
        for (label, s) in &self.sensitivity {
            out.push_str(&format!("{label:<32} {s:>6.2}x\n"));
        }
        out.push_str(&format!(
            "\nRDRAM open-page hit rate on OLTP: {:.0}%\n",
            self.mem_page_hit_rate * 100.0
        ));
        out
    }
}

/// Render a set of Figure-5-style bars as a text table.
pub fn render_bars(title: &str, bars: &[Bar]) -> String {
    let mut out = format!(
        "{title}\n{:<10} {:>10} {:>10} {:>10} {:>10}\n",
        "Config", "NormTime", "Busy", "L2HitStall", "L2MissStall"
    );
    for b in bars {
        out.push_str(&format!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
            b.name, b.norm_time, b.busy, b.l2_hit, b.l2_miss
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_all_configs() {
        let t = table1();
        assert!(t.contains("500 MHz"));
        assert!(t.contains("1000 MHz"));
        assert!(t.contains("1250 MHz"));
        assert!(t.contains("Issue Width"));
    }

    #[test]
    fn bar_normalization() {
        use piranha_types::time::Clock;
        use piranha_types::Duration;
        let base = RunResult::new(
            "OOO".into(),
            Duration::from_ns(1000),
            Clock::from_mhz(1000),
            vec![piranha_cpu::CoreStats {
                instrs: 1000,
                ..Default::default()
            }],
        );
        let twice = RunResult::new(
            "X".into(),
            Duration::from_ns(2000),
            Clock::from_mhz(500),
            vec![piranha_cpu::CoreStats {
                instrs: 1000,
                ..Default::default()
            }],
        );
        let b = Bar::from(&twice, &base);
        assert!((b.norm_time - 200.0).abs() < 1e-9);
        assert!(
            (b.busy - 200.0).abs() < 1e-6,
            "no stalls recorded: all busy"
        );
    }

    #[test]
    fn render_is_readable() {
        let bars = vec![Bar {
            name: "P8".into(),
            norm_time: 34.0,
            busy: 20.0,
            l2_hit: 9.0,
            l2_miss: 5.0,
        }];
        let s = render_bars("Figure 5 (OLTP)", &bars);
        assert!(s.contains("P8"));
        assert!(s.contains("34.0"));
    }

    #[test]
    fn union_plan_dedups_shared_baselines() {
        let plan = all_figures_plan(RunScale::quick());
        // 35 figure slots collapse to the unique configurations: the
        // OOO/P1/P8 baselines appear in several figures but only once
        // in the plan.
        assert!(plan.len() < 25, "plan must deduplicate: got {}", plan.len());
        let keys: std::collections::HashSet<_> = plan.requests().iter().map(|r| r.key()).collect();
        assert_eq!(keys.len(), plan.len(), "all keys unique");
    }

    #[test]
    fn fault_sweep_is_consistent_and_loses_no_work() {
        let rows = fig_faults(&mut Harness::new(), 42, 3);
        assert_eq!(rows.len(), fig_faults_configs().len() * FAULT_RATES.len());
        for cfg in fig_faults_configs() {
            let per: Vec<&FaultRow> = rows.iter().filter(|r| r.config == cfg.name).collect();
            let base = per.iter().find(|r| r.rate == 0.0).unwrap();
            assert_eq!(base.availability.injected, 0);
            assert!((base.slowdown - 1.0).abs() < 1e-12);
            for r in &per {
                // fig_faults already asserts ledger consistency and
                // committed-work equality; re-check the rendered facts.
                assert_eq!(r.committed, base.committed);
                assert!(r.slowdown > 0.0);
            }
        }
        let highest = rows
            .iter()
            .filter(|r| r.rate == 1e-3)
            .map(|r| r.availability.injected)
            .sum::<u64>();
        assert!(highest > 0, "the top rate injects something");
        let table = render_fault_rows("Availability", &rows);
        assert!(table.contains("P8") && table.contains("Slowdown"));
    }
}
