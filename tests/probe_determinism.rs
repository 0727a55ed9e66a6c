//! The probe determinism guard: attaching the observability probe must
//! not change *anything* about the simulated machine — the `RunResult`
//! fingerprint (per-CPU stats, window, memory behaviour) is bit-identical
//! with the probe off, on at metrics level, and on with full tracing.
//! Also checks the acceptance shape of the exports: a two-chip trace
//! carries spans from at least four subsystems, and the stall table's
//! per-core fractions always sum to 1.

use piranha::harness::{run, RunOptions, RunRequest, RunScale};
use piranha::observe;
use piranha::probe::{chrome, ProbeConfig, TraceLevel};
use piranha::workloads::{SynthConfig, Workload};
use piranha::{Probe, RunResult, SystemConfig};

fn sharing_workload() -> Workload {
    Workload::Synth(SynthConfig {
        load_frac: 0.25,
        store_frac: 0.2,
        shared_frac: 0.5,
        shared_bytes: 512 << 10,
        private_bytes: 256 << 10,
        ..SynthConfig::light()
    })
}

fn two_chip_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::piranha_pn(2).scaled_to_chips(2);
    cfg.cpu_quantum = 500;
    cfg
}

/// Run the two-chip machine on `w` with a probe at `level` attached;
/// the machine hands the probe back for export.
fn probed(w: Workload, scale: RunScale, level: TraceLevel) -> (RunResult, Probe) {
    let opts = RunOptions {
        probe: Some(Probe::new(ProbeConfig::with_level(level))),
        ..RunOptions::default()
    };
    let (r, m) = run(&RunRequest::new(two_chip_cfg(), w, scale), &opts);
    (r, m.probe().clone())
}

/// Probe off, probe at metrics-only level, and probe at full span
/// tracing all produce the same simulated results, bit for bit.
#[test]
fn probe_never_perturbs_the_simulation() {
    let w = sharing_workload();
    let scale = RunScale::tiny();
    let (bare, _) = run(
        &RunRequest::new(two_chip_cfg(), w.clone(), scale),
        &RunOptions::default(),
    );
    let (metrics_only, _) = probed(w.clone(), scale, TraceLevel::Off);
    let (traced, _) = probed(w, scale, TraceLevel::Verbose);
    assert_eq!(
        bare.fingerprint(),
        metrics_only.fingerprint(),
        "metrics collection changed simulated state"
    );
    assert_eq!(
        bare.fingerprint(),
        traced.fingerprint(),
        "span tracing changed simulated state"
    );
    // The fingerprint covers the full per-CPU stats; spot-check anyway.
    assert_eq!(bare.total_instrs(), traced.total_instrs());
    assert_eq!(bare.window, traced.window);
}

/// A traced two-chip run records spans from the cpu, cache, protocol,
/// and interconnect subsystems (memory shows up too), and the Chrome
/// exporter produces a JSON document holding them.
#[test]
#[cfg_attr(not(feature = "trace"), ignore = "needs the trace feature")]
fn two_chip_trace_covers_four_subsystems() {
    let (_, probe) = probed(sharing_workload(), RunScale::tiny(), TraceLevel::Spans);
    let snap = probe.trace_snapshot().expect("probe attached");
    assert!(!snap.is_empty(), "spans were recorded");
    let cats = snap.categories();
    for want in ["cpu", "cache", "protocol", "net"] {
        assert!(cats.contains(&want), "missing {want:?} in {cats:?}");
    }
    assert!(cats.len() >= 4, "≥4 subsystems traced: {cats:?}");
    let json = chrome::chrome_trace_json(&snap);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "complete events present");
    assert!(json.contains("\"ph\":\"M\""), "track metadata present");
}

/// The per-core stall-attribution table partitions every core's wall
/// cycles: fractions sum to 1 within 1e-6, on a run with real stalls.
#[test]
fn stall_table_fractions_sum_to_one() {
    let (r, _) = probed(sharing_workload(), RunScale::tiny(), TraceLevel::Off);
    let t = r.stall_table();
    assert_eq!(t.rows.len(), r.cpus.len() + 1, "per-core rows plus 'all'");
    assert!(t.sums_to_one(1e-6), "fractions partition the window");
    let merged = r.merged();
    assert!(
        merged.stall_cycles.iter().sum::<u64>() > 0,
        "the run actually stalled"
    );
}

/// The metrics snapshot attached to a probed `RunResult` carries the
/// expected hierarchy and survives both export formats.
#[test]
fn metrics_snapshot_exports() {
    let (r, _) = probed(sharing_workload(), RunScale::tiny(), TraceLevel::Off);
    assert!(
        !r.metrics.is_empty(),
        "sample_metrics populated the snapshot"
    );
    for name in [
        "kernel.events.popped",
        "machine.instrs",
        "cpu.node0.core0.instrs",
        "cpu.node1.core1.tlb_misses",
        "protocol.node0.home_msgs",
        "net.delivered",
    ] {
        assert!(r.metrics.get(name).is_some(), "missing metric {name}");
    }
    let csv = r.metrics.to_csv();
    assert!(csv.starts_with("metric,value\n"));
    assert_eq!(csv.lines().count(), r.metrics.len() + 1);
    let json = r.metrics.to_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
}

/// The figure binaries' exemplar runs the same machinery end to end:
/// files land on disk, the trace parses as JSON-ish, and the summary
/// names the stall table.
#[test]
#[cfg_attr(not(feature = "trace"), ignore = "needs the trace feature")]
fn export_probed_run_writes_files() {
    let dir = std::env::temp_dir().join("piranha-probe-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.csv");
    let cli = observe::Cli {
        trace: Some(trace.clone()),
        metrics: Some(metrics.clone()),
        ..observe::Cli::default()
    };
    let summary = observe::export_probed_run(&cli, &sharing_workload(), RunScale::tiny()).unwrap();
    assert!(summary.contains("stall attribution"));
    let t = std::fs::read_to_string(&trace).unwrap();
    assert!(t.contains("\"traceEvents\"") && t.contains("\"ph\":\"X\""));
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.starts_with("metric,value\n") && m.lines().count() > 10);
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(metrics).ok();
}
