//! Tail latency versus offered load under open-loop traffic: calibrates
//! the closed-loop service rate of the two-chip P4 exemplar on a bounded
//! OLTP workload, then sweeps Poisson arrivals across fractions of that
//! rate and reports p50/p95/p99 transaction latency, drop rate, and the
//! saturation knee (the classic open-loop hockey-stick).
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
//! `--check` (the CI `latency-smoke` step) exits nonzero unless p99 is
//! monotone across the sweep, within 10% for sampling noise, and a knee
//! was detected. `--topology=`/`--queue=` sweep the same load fractions
//! over an overridden fabric; calibration reruns on the overridden
//! machine, so the fractions stay anchored to *its* service rate.
use piranha::experiments::{self, LatencyReport};
use piranha::observe::{self, Cli};

fn main() {
    let cli = Cli::from_env("--quick --check --metrics --parallel --topology --queue");
    cli.install();
    let mut cfg = experiments::fig_latency_config();
    cli.apply_fabric(&mut cfg);
    let rep = experiments::fig_latency(cfg, cli.quick);
    print!("{}", experiments::render_latency_report(&rep));

    cli.write_report("latency report", &observe::json::latency_report(&rep));

    if cli.check {
        check(&rep);
        println!("latency-smoke checks passed");
    }
}

/// The CI assertions: the hockey-stick must be monotone (within a 10%
/// sampling-noise tolerance between adjacent points) and must reach its
/// knee inside the swept range.
fn check(rep: &LatencyReport) {
    for pair in rep.rows.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        assert!(
            hi.p99_ns as f64 >= lo.p99_ns as f64 * 0.9,
            "p99 regressed with load: {} ns @ {:.2}x -> {} ns @ {:.2}x",
            lo.p99_ns,
            lo.fraction,
            hi.p99_ns,
            hi.fraction
        );
    }
    assert!(
        rep.knee.is_some(),
        "no saturation knee detected within the swept range"
    );
}
