//! Availability under fault injection (paper §2.7): sweeps fault rate ×
//! configuration on a bounded OLTP workload run to completion, then runs
//! a headline faulted configuration **twice** to prove bit-identical
//! determinism, and reports the availability ledger.
//!
//! Flags: the list passed to `Cli::from_env` below, with the grammar
//! documented on `piranha::observe::Cli`; any other argument exits with
//! status 2.
//! `--faults=`/`--fault-rate=` select the headline schedule (seed 42 at
//! `1e-4` without them); `--metrics=` writes the headline availability
//! report as JSON, which the CI `fault-smoke` step validates.
use piranha::experiments::{self, Harness, RunRequest, RunScale};
use piranha::harness::{run, RunOptions};
use piranha::observe::{self, Cli};
use piranha::{FaultConfig, SystemConfig};

fn main() {
    let cli = Cli::from_env("--quick --faults --fault-rate --metrics --parallel --store");
    let store = cli.install();
    let txns: u64 = if cli.quick { 40 } else { 200 };
    // No flags: still exercise the recovery machinery by default.
    let faults = cli
        .faults
        .clone()
        .filter(FaultConfig::enabled)
        .unwrap_or_else(|| FaultConfig::seeded(42, 1e-4));

    // The sweep: fault rate × configuration, through the memoized
    // parallel harness, each paired against its fault-free baseline.
    let seed = faults.seed;
    let rows = experiments::fig_faults(&mut Harness::new(), seed, txns);
    println!(
        "{}",
        experiments::render_fault_rows(
            &format!(
                "Availability — fault rate x configuration \
                 (bounded OLTP, {txns} txns/CPU, run to completion, seed {seed})"
            ),
            &rows
        )
    );

    // The headline run: the CLI-selected schedule on the two-chip
    // exemplar, executed twice to prove bit-identical determinism, plus
    // the fault-free baseline of the same machine for slowdown.
    let w = experiments::oltp_bounded(txns);
    let run_once = |cfg: &SystemConfig| {
        let req = RunRequest::new(cfg.clone(), w.clone(), RunScale::completion());
        run(&req, &RunOptions::default()).0
    };
    let mut cfg = observe::exemplar_config();
    cfg.faults = faults;
    let r1 = run_once(&cfg);
    let r2 = run_once(&cfg);
    let base = run_once(&SystemConfig {
        faults: FaultConfig::default(),
        ..cfg.clone()
    });

    assert_eq!(
        r1.fingerprint(),
        r2.fingerprint(),
        "same seed + same schedule must be bit-identical"
    );
    assert!(
        r1.availability.is_consistent(),
        "corrected + escalated != injected"
    );
    assert_eq!(
        r1.committed_txns, base.committed_txns,
        "a recoverable schedule must not lose work"
    );

    let slowdown = r1.window.as_ps() as f64 / base.window.as_ps().max(1) as f64;
    let av = &r1.availability;
    println!("Headline run: {} ({txns} txns/CPU)", cfg.name);
    println!(
        "  injected {}  corrected {}  escalated {}  retransmits {}  \
         mttr {} cycles  slowdown {slowdown:.4}x",
        av.injected,
        av.corrected,
        av.escalated,
        av.retransmits,
        av.mttr_cycles()
    );
    println!(
        "  fingerprint {:#018x} (repeat run identical: {})",
        r1.fingerprint(),
        r1.fingerprint() == r2.fingerprint()
    );

    let report = observe::json::fault_headline(&cfg.name, txns, &r1, &r2, slowdown);
    cli.write_report("  availability report", &report);
    observe::store_summary(store.as_deref());
}
